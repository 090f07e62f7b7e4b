"""
Walking the Grassmannian
========================

Orthogonal projections of the same rank lie on a common orbit, and the
points of that orbit are joined by admissible paths: curves of
projections together with fiber lifts whose anchor image reproduces the
velocity.  Rank is a wall no path crosses.
"""

import numpy as np

from ginv import (
    AlgebraElement,
    OrbitError,
    PartialIsometryGroupoid,
    orbit_decompose,
    orbit_path,
    reparametrize_lift,
    smooth_reparametrizer,
)
from ginv.sampling import random_projection

rng = np.random.default_rng(4)
G = PartialIsometryGroupoid((3,))

print("Orbit classes of 30 random projections in M3 (the rank is everything)")
points = [random_projection(rng, (3,)) for _ in range(30)]
report = orbit_decompose(G, points)
for record in report.records:
    if record.name.startswith("class"):
        print(f"  {record.name}: {record.value} points")

print()
print("A maximally distant pair: diag(1,0) to diag(0,1) in M2")
p = AlgebraElement.from_blocks([np.diag([1.0, 0.0])])
q = AlgebraElement.from_blocks([np.diag([0.0, 1.0])])
path = orbit_path(p, q, steps=16)
print(f"  endpoint error {path.end.distance(q):.2e}, "
      f"lift residual {path.max_lift_residual:.2e}, {len(path)} samples")
mid = path.bases[len(path) // 2]
print(f"  midpoint is itself a projection: |m^2 - m| = {(mid @ mid - mid).norm():.2e}")

print()
print("Reparametrizing the same path")
for label, phi in [("t^2", lambda t: t * t), ("flat at 1/2", smooth_reparametrizer([0.5]))]:
    out = reparametrize_lift(path, phi)
    print(f"  {label:12s} residual {out.max_lift_residual:.2e}")

print()
print("Crossing ranks is impossible")
r1 = random_projection(rng, (3,), ranks=(1,))
r2 = random_projection(rng, (3,), ranks=(2,))
try:
    orbit_path(r1, r2)
except OrbitError as err:
    print(f"  refused: {err}")
