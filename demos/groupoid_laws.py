"""
Four groupoids, one law book
============================

Reflexive generalized-inverse pairs, partial isometries, a matrix group
action and the plain pair groupoid all satisfy the same four structural
axioms.  The verifier samples arrows, checks identity, inverse and
associativity laws, and reports the worst residual per law.  A corrupted
arrow smuggled into the sample set must be flagged.
"""

import numpy as np

from ginv import (
    ActionGroupoid,
    AlgebraElement,
    GInvGroupoid,
    GInvPair,
    PairGroupoid,
    PartialIsometryGroupoid,
    verify_axioms,
)

instances = [
    PairGroupoid(3, pool_size=5),
    ActionGroupoid(2),
    GInvGroupoid((2,)),
    PartialIsometryGroupoid((2, 3)),
]

for G in instances:
    report = verify_axioms(G, seed=0, n_samples=60)
    print(f"{G.kind:20s} all laws hold: {report.all_passed}, "
          f"worst residual {report.max_residual():.2e}")

print()
print("Negative control: break the second component of a reflexive pair")
print("-" * 60)
G = GInvGroupoid((2,))
rng = np.random.default_rng(1)
good = G.arrow_from(G.sample_base_point(rng), rng)
bad = GInvPair(good.a, good.b + 0.1 * AlgebraElement.identity((2,)))
report = verify_axioms(G, seed=0, n_samples=5, extra_arrows=[bad])
for record in report.records:
    if record.name == "injected-arrow control":
        print(f"corruption detected: {record.passed}")
        print(f"  {record.details}")
