"""Admissible curves on the projection manifold and their fiber lifts.

An admissible path is a curve ``c`` of projections together with a curve
``alpha`` of source-fiber tangent vectors whose anchor image reproduces the
velocity of ``c``.  Paths between same-rank projections are built from the
canonical direct-rotation unitary and interpolated through its principal
logarithm; a quintic time profile flattens the velocity at the endpoints so
concatenated legs stay admissible.

A sampled path is stored struct-of-arrays: per algebra block, one read-only
``(N, n, n)`` complex array of base samples and one of lift samples.  Path
construction, the lift residual and reparametrization work on these stacks
(and on their ``(N, D)`` real coordinates) throughout; ``APath.base(i)`` and
``APath.lift(i)`` build single elements on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.integrate
import scipy.interpolate
import scipy.linalg

from .algebra import AlgebraElement, classify, validate_shape
from .errors import (
    DegenerateInterpolationError,
    InputError,
    OrbitError,
    PreconditionError,
    ShapeMismatchError,
)
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    ensure_finite,
    numerical_rank,
    realvecs_to_stacks,
    stacks_to_realvecs,
)

_WAYPOINT_SEED = 0x5EED


def fiber_anchor_image(alpha: AlgebraElement, c: AlgebraElement) -> AlgebraElement:
    """Anchor of a fiber tangent vector ``alpha`` at the projection ``c``.

    The target map on partial isometries is ``u -> u u*``; its differential
    at the identity arrow over ``c`` sends ``alpha`` to ``alpha c + c alpha*``.
    """
    return alpha @ c + c @ alpha.adjoint()


def _velocity_samples(times: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Second-order velocity estimates on a (possibly nonuniform) grid."""
    n = len(times)
    if n < 3:
        raise InputError("need at least three samples to estimate velocities")
    vel = np.empty_like(coords)
    h = np.diff(times)
    h1, h2 = h[:-1, None], h[1:, None]
    vel[1:-1] = (
        h1**2 * coords[2:] + (h2**2 - h1**2) * coords[1:-1] - h2**2 * coords[:-2]
    ) / (h1 * h2 * (h1 + h2))
    a1, a2 = times[1] - times[0], times[2] - times[1]
    vel[0] = (
        -(2 * a1 + a2) / (a1 * (a1 + a2)) * coords[0]
        + (a1 + a2) / (a1 * a2) * coords[1]
        - a1 / (a2 * (a1 + a2)) * coords[2]
    )
    b1, b2 = times[-2] - times[-3], times[-1] - times[-2]
    vel[-1] = (
        b2 / (b1 * (b1 + b2)) * coords[-3]
        - (b1 + b2) / (b1 * b2) * coords[-2]
        + (b1 + 2 * b2) / (b2 * (b1 + b2)) * coords[-1]
    )
    return vel


def _frozen_stacks(stacks, shape: tuple, count: int, what: str) -> tuple:
    """Read-only ``(count, n, n)`` complex copies of one sample stack per block."""
    if len(stacks) != len(shape):
        raise InputError(f"expected {len(shape)} {what} stacks, got {len(stacks)}")
    frozen = []
    for n, b in zip(shape, stacks):
        b = np.array(b, dtype=complex)
        if b.ndim != 3 or b.shape[1:] != (n, n):
            raise InputError(f"{what} stack of shape {b.shape} does not hold {n}x{n} blocks")
        if len(b) != count:
            raise InputError("sample counts of times, bases and lifts must match")
        ensure_finite(b, f"{what} stack")
        b.setflags(write=False)
        frozen.append(b)
    return tuple(frozen)


@dataclass(frozen=True, eq=False)
class APath:
    """Sampled admissible path: base projections plus a fiber lift.

    ``base_blocks`` and ``lift_blocks`` hold one read-only ``(N, n, n)``
    complex array per block of ``shape``, sample ``i`` in row ``i``.  The
    constructor validates them against ``sample_times`` and computes
    ``max_lift_residual``: the worst mismatch between the anchor image of
    the lift and the central-difference velocity of the base samples, so it
    carries an O(h^2) floor from the sample spacing.
    """

    sample_times: np.ndarray
    shape: tuple
    base_blocks: tuple
    lift_blocks: tuple
    max_lift_residual: float = field(init=False)

    def __post_init__(self):
        times = np.array(self.sample_times, dtype=float)
        if times.ndim != 1:
            raise InputError("sample times must be a flat sequence")
        shape = validate_shape(self.shape)
        bases = _frozen_stacks(self.base_blocks, shape, len(times), "base")
        lifts = _frozen_stacks(self.lift_blocks, shape, len(times), "lift")
        if np.any(np.diff(times) <= 0):
            raise InputError("sample times must be strictly increasing")
        if len(times) and (times[0] < -1e-12 or times[-1] > 1 + 1e-12):
            raise InputError("sample times must lie in [0, 1]")
        vel = realvecs_to_stacks(_velocity_samples(times, stacks_to_realvecs(bases)), shape)
        residual = 0.0
        for cb, ab, cdot in zip(bases, lifts, vel):
            rho = ab @ cb + cb @ ab.conj().transpose(0, 2, 1)
            svals = np.linalg.svd(rho - cdot, compute_uv=False)
            residual = max(residual, float(np.max(svals)))
        times.setflags(write=False)
        object.__setattr__(self, "sample_times", times)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "base_blocks", bases)
        object.__setattr__(self, "lift_blocks", lifts)
        object.__setattr__(self, "max_lift_residual", residual)

    @classmethod
    def create(cls, times, bases, lifts) -> "APath":
        """Path through sequences of elements, one base and one lift per time."""
        if not bases or len(bases) != len(lifts):
            raise InputError("need matching, non-empty sequences of bases and lifts")
        shape = bases[0].shape
        if any(x.shape != shape for x in (*bases, *lifts)):
            raise ShapeMismatchError("bases and lifts must share one algebra shape")
        return cls(
            times,
            shape,
            tuple(np.stack([b.blocks[i] for b in bases]) for i in range(len(shape))),
            tuple(np.stack([a.blocks[i] for a in lifts]) for i in range(len(shape))),
        )

    def __len__(self):
        return len(self.sample_times)

    def base(self, i: int) -> AlgebraElement:
        """Base projection at sample ``i``."""
        return AlgebraElement(self.shape, tuple(b[i] for b in self.base_blocks))

    def lift(self, i: int) -> AlgebraElement:
        """Fiber lift at sample ``i``."""
        return AlgebraElement(self.shape, tuple(a[i] for a in self.lift_blocks))

    @property
    def start(self) -> AlgebraElement:
        return self.base(0)

    @property
    def end(self) -> AlgebraElement:
        return self.base(-1)


# -- projection retraction and rotations -------------------------------------------


def nearest_projection(
    h: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL, gap: float = 1e-6
) -> AlgebraElement:
    """Spectral truncation at 1/2: the nearest-projection retraction.

    Rejects inputs with an eigenvalue inside ``(1/2 - gap, 1/2 + gap)``,
    where the retraction is ill-defined.
    """
    if (h.adjoint() - h).norm() > tol.residual_tol * (1.0 + h.norm()):
        raise InputError("retraction input must be Hermitian")
    blocks = []
    for b in h.blocks:
        evals, vecs = np.linalg.eigh(b)
        if np.any(np.abs(evals - 0.5) < gap):
            raise DegenerateInterpolationError(
                "eigenvalue inside the forbidden band around 1/2"
            )
        keep = (evals >= 0.5).astype(float)
        blocks.append((vecs * keep) @ vecs.conj().T)
    return AlgebraElement(h.shape, tuple(blocks))


def direct_rotation(
    p: AlgebraElement, q: AlgebraElement, gap: float = 1e-6
) -> AlgebraElement:
    """Canonical unitary with ``u p u* = q`` for projections with ``|p - q| < 1``:
    ``u = (qp + (1-q)(1-p)) (1 - (p-q)^2)^(-1/2)``."""
    one = AlgebraElement.identity(p.shape)
    blocks = []
    for bp, bq, b1 in zip(p.blocks, q.blocks, one.blocks):
        diff2 = (bp - bq) @ (bp - bq)
        m = b1 - diff2
        evals, vecs = np.linalg.eigh(m)
        if np.any(evals < gap):
            raise DegenerateInterpolationError(
                "projections are antipodal: 1 - (p - q)^2 is singular"
            )
        inv_sqrt = (vecs * (evals**-0.5)) @ vecs.conj().T
        blocks.append((bq @ bp + (b1 - bq) @ (b1 - bp)) @ inv_sqrt)
    return AlgebraElement(p.shape, tuple(blocks))


def principal_log_unitary(u: AlgebraElement) -> AlgebraElement:
    """Skew-Hermitian principal logarithm of a unitary element."""
    blocks = []
    for b in u.blocks:
        t, z = scipy.linalg.schur(b, output="complex")
        theta = np.angle(np.diagonal(t))
        blocks.append((z * (1j * theta)) @ z.conj().T)
    return AlgebraElement(u.shape, tuple(blocks))


def _quintic(t: np.ndarray) -> np.ndarray:
    return t**3 * (10.0 - 15.0 * t + 6.0 * t**2)


def _quintic_deriv(t: np.ndarray) -> np.ndarray:
    return 30.0 * t**2 * (1.0 - t) ** 2


def _rank_signature(x: AlgebraElement, tol: ToleranceConfig) -> tuple:
    return tuple(numerical_rank(b, tol) for b in x.blocks)


def _conjugation_frames(k: AlgebraElement):
    """Eigen-factorizations of a skew-Hermitian generator, one per block."""
    frames = []
    for b in k.blocks:
        evals, vecs = np.linalg.eigh(1j * b)  # Hermitian
        frames.append((evals, vecs))
    return frames


def _sample_leg(start: AlgebraElement, k: AlgebraElement, phis: np.ndarray,
                dphis: np.ndarray):
    """Projections ``e^(phi K) p e^(-phi K)`` and lifts ``phi' K c`` on a grid,
    as one ``(len(phis), n, n)`` stack per block each."""
    base_blocks, lift_blocks = [], []
    for bi, (evals, vecs) in enumerate(_conjugation_frames(k)):
        phases = np.exp(-1j * np.outer(phis, evals))
        u = (vecs[None, :, :] * phases[:, None, :]) @ vecs.conj().T
        c = u @ start.blocks[bi][None] @ u.conj().transpose(0, 2, 1)
        base_blocks.append(c)
        lift_blocks.append(dphis[:, None, None] * (k.blocks[bi][None] @ c))
    return base_blocks, lift_blocks


def orbit_path(
    p: AlgebraElement,
    q: AlgebraElement,
    steps: int = 2,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> APath:
    """Admissible path from projection ``p`` to projection ``q``.

    Endpoints must share the per-block rank signature; distinct signatures
    are not joinable and raise :class:`OrbitError`.  Generic pairs use the
    direct-rotation unitary directly; antipodal pairs are routed through a
    seeded random same-signature waypoint.  ``steps`` is a lower bound on
    the sample grid; the default grid is fine enough (about 2k samples per
    leg) to keep the central-difference residual floor well under 1e-4.
    """
    if steps < 2:
        raise InputError("steps must be >= 2")
    for name, x in (("p", p), ("q", q)):
        if not classify(x, tol).projection:
            raise PreconditionError(f"{name} is not an orthogonal projection")
    if p.shape != q.shape:
        raise InputError("endpoints live in different algebras")
    if _rank_signature(p, tol) != _rank_signature(q, tol):
        raise OrbitError(
            f"rank signatures differ: {_rank_signature(p, tol)} vs {_rank_signature(q, tol)}"
        )

    # waypoints: [p, ..., q]; each consecutive pair joined by a direct rotation
    try:
        generators = [principal_log_unitary(direct_rotation(p, q))]
        starts = [p]
    except DegenerateInterpolationError:
        from .sampling import random_unitary

        rng = np.random.default_rng(_WAYPOINT_SEED)
        for _ in range(16):
            w = AlgebraElement(
                p.shape, tuple(random_unitary(rng, n) for n in p.shape)
            )
            mid = w @ p @ w.adjoint()
            try:
                u1 = direct_rotation(p, mid)
                u2 = direct_rotation(mid, q)
            except DegenerateInterpolationError:
                continue
            generators = [principal_log_unitary(u1), principal_log_unitary(u2)]
            starts = [p, mid]
            break
        else:
            raise DegenerateInterpolationError(
                "no usable waypoint found between the endpoints"
            )

    n_legs = len(generators)
    per_leg = max(2048, int(np.ceil(steps / n_legs)))
    times, bases, lifts = [], [], []
    for j, (start, k) in enumerate(zip(starts, generators)):
        taus = np.linspace(0.0, 1.0, per_leg + 1)
        if j > 0:
            taus = taus[1:]  # the joint sample already belongs to the previous leg
        leg_bases, leg_lifts = _sample_leg(
            start, k, _quintic(taus), n_legs * _quintic_deriv(taus)
        )
        times.append((j + taus) / n_legs)
        bases.append(leg_bases)
        lifts.append(leg_lifts)
    return APath(
        np.concatenate(times),
        p.shape,
        tuple(np.concatenate(legs) for legs in zip(*bases)),
        tuple(np.concatenate(legs) for legs in zip(*lifts)),
    )


# -- reparametrization ---------------------------------------------------------------


def reparametrize_lift(path: APath, phi, tol: ToleranceConfig = DEFAULT_TOL) -> APath:
    """Precompose a path with a time change: base ``c . phi``, lift ``(alpha . phi) phi'``.

    ``phi`` must be monotone on the sample grid with endpoint values 0 and 1.
    The new path is resampled on the original grid; values of the old path
    between samples are spline-interpolated in real coordinates.
    """
    times = path.sample_times
    ph = np.asarray([float(phi(t)) for t in times])
    if abs(ph[0]) > 1e-9 or abs(ph[-1] - 1.0) > 1e-9:
        raise InputError("phi must map 0 to 0 and 1 to 1")
    if np.any(np.diff(ph) < -1e-12):
        raise InputError("phi is not monotone on the sample grid")

    h = tol.fd_step_scale
    dph = np.empty_like(ph)
    for i, t in enumerate(times):
        if t - h < times[0]:
            dph[i] = (-3 * phi(t) + 4 * phi(t + h) - phi(t + 2 * h)) / (2 * h)
        elif t + h > times[-1]:
            dph[i] = (3 * phi(t) - 4 * phi(t - h) + phi(t - 2 * h)) / (2 * h)
        else:
            dph[i] = (phi(t + h) - phi(t - h)) / (2 * h)

    base_coords = stacks_to_realvecs(path.base_blocks)
    lift_coords = stacks_to_realvecs(path.lift_blocks)
    queries = np.clip(ph, times[0], times[-1])
    # cubic interpolation keeps the resampling error an order below the
    # finite-difference floor of the residual
    base_new = scipy.interpolate.CubicSpline(times, base_coords, axis=0)(queries)
    lift_new = dph[:, None] * scipy.interpolate.CubicSpline(times, lift_coords, axis=0)(queries)
    return APath(
        times,
        path.shape,
        realvecs_to_stacks(base_new, path.shape),
        realvecs_to_stacks(lift_new, path.shape),
    )


def smooth_reparametrizer(knots=()):
    """Monotone surjective time change, flat to all orders at each knot.

    Built by integrating a weight that vanishes like ``exp(-1/d)`` at every
    knot; with no knots the identity map is returned.  The result is a
    callable on [0, 1] with endpoint values exactly 0 and 1.
    """
    knots = tuple(float(k) for k in knots)
    if any(not 0.0 < k < 1.0 for k in knots):
        raise InputError("knots must lie strictly inside (0, 1)")
    if any(b <= a for a, b in zip(knots, knots[1:])):
        raise InputError("knots must be strictly increasing")
    if not knots:
        return lambda t: t

    grid = np.linspace(0.0, 1.0, 8193)
    with np.errstate(divide="ignore", under="ignore"):
        weight = np.ones_like(grid)
        for k in knots:
            d = np.abs(grid - k)
            w = np.zeros_like(grid)
            positive = d > 0
            w[positive] = np.exp(-1.0 / d[positive])
            weight *= w
    cumulative = scipy.integrate.cumulative_trapezoid(weight, grid, initial=0.0)
    cumulative /= cumulative[-1]
    spline = scipy.interpolate.CubicSpline(grid, cumulative)

    def phi(t):
        t_arr = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
        out = np.clip(spline(t_arr), 0.0, 1.0)
        out = np.where(t_arr <= 0.0, 0.0, out)
        out = np.where(t_arr >= 1.0, 1.0, out)
        return float(out) if np.isscalar(t) or np.asarray(t).ndim == 0 else out

    return phi
