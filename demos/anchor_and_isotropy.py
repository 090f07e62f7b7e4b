"""
Anchors, isotropy and a failure of transitivity
===============================================

At every base point, the tangent space of the source fiber maps to the
base through the differential of the target map (the anchor).  For the
generalized-inverse and partial-isometry groupoids the anchor is onto:
orbits are open, and the kernel dimension is exactly the isotropy
dimension.  The tautological GL(n) action on R^n shows how this fails:
the origin is a lone closed orbit and the anchor dies there.
"""

import numpy as np

from ginv import ActionGroupoid, AlgebraElement, GInvGroupoid, PartialIsometryGroupoid
from ginv.geometry import at
from ginv.sampling import random_idempotent, random_projection

rng = np.random.default_rng(2)

print("Idempotents of M_n: fiber = anchor rank + isotropy, anchor onto")
print(f"{'n':>3} {'rank':>5} {'dim T(Q)':>9} {'fiber':>6} {'anchor':>7} {'isotropy':>9}")
for n in (2, 3):
    G = GInvGroupoid((n,))
    for r in range(n + 1):
        point = at(G, random_idempotent(rng, (n,), ranks=(r,)))
        data = point.anchor
        print(f"{n:>3} {r:>5} {point.tangent.real_dim:>9} {data.fiber_basis.real_dim:>6} "
              f"{data.anchor_rank:>7} {point.isotropy_dim:>9}")

print()
print("Projections of M_n: same identities, half the dimensions")
for n in (2, 3):
    G = PartialIsometryGroupoid((n,))
    point = at(G, random_projection(rng, (n,), ranks=(1,)))
    print(f"  n={n}, rank 1: dim T(P) = {point.tangent.real_dim}, "
          f"anchor rank = {point.anchor.anchor_rank}, "
          f"isotropy = {point.isotropy_dim}")

print()
print("Isotropy at the unit recovers the classical groups")
for n in (2, 3):
    one = AlgebraElement.identity((n,))
    d_inv = at(GInvGroupoid((n,)), one).isotropy_dim
    d_uni = at(PartialIsometryGroupoid((n,)), one).isotropy_dim
    print(f"  n={n}: invertible group dim {d_inv} (= 2n^2), "
          f"unitary group dim {d_uni} (= n^2)")

print()
print("GL(n, R) acting on R^n: the anchor fails exactly at the origin")
for n in (1, 2, 3):
    G = ActionGroupoid(n)
    at_zero = at(G, np.zeros(n)).anchor.anchor_rank
    at_random = at(G, rng.standard_normal(n)).anchor.anchor_rank
    print(f"  n={n}: anchor rank {at_zero} at 0, {at_random} elsewhere "
          f"(base dimension {n})")
