"""Admissible curves on the projection manifold and their fiber lifts.

An admissible path is a curve ``c`` of projections together with a curve
``alpha`` of source-fiber tangent vectors whose anchor image reproduces the
velocity of ``c``.  Paths between same-rank projections are built from the
canonical direct-rotation unitary and interpolated through its principal
logarithm; a quintic time profile flattens the velocity at the endpoints so
concatenated legs stay admissible.

A sampled path stores its base samples and its lift samples as two stacked
elements (see :mod:`ginv.algebra`), sample ``i`` in row ``i``.  Path
construction, the lift residual and reparametrization work on these stacks
(and on their ``(N, D)`` real coordinates) throughout; ``path.bases[i]`` is
the base projection at sample ``i``.

Every derivative and every value between samples comes from a quintic
interpolating spline through the samples (de Boor, *A Practical Guide to
Splines*): the base velocity, the derivative of a time change and the
resampled path.  Its error falls like ``h^5`` in the sample spacing and it
reproduces polynomials of degree up to 5, so a leg of 257 samples suffices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.integrate
import scipy.interpolate
import scipy.linalg

from .algebra import AlgebraElement, classify
from .errors import (
    DegenerateInterpolationError,
    InputError,
    OrbitError,
    PreconditionError,
    ShapeMismatchError,
)
from .linalg import DEFAULT_TOL, ToleranceConfig, numerical_rank

_WAYPOINT_SEED = 0x5EED
#: Sample intervals per leg of an :func:`orbit_path` at the least.  At 128,
#: criterion 11's bound, which shrinks with the path's own lift residual,
#: falls below the resampling error of a time change.
_LEG_INTERVALS = 256
_SPLINE_DEGREE = 5


def _spline(times: np.ndarray, values: np.ndarray):
    """Quintic interpolating spline through ``values`` (first axis) at ``times``."""
    return scipy.interpolate.make_interp_spline(times, values, k=_SPLINE_DEGREE, axis=0)


def fiber_anchor_image(alpha: AlgebraElement, c: AlgebraElement) -> AlgebraElement:
    """Anchor of a fiber tangent vector ``alpha`` at the projection ``c``.

    The target map on partial isometries is ``u -> u u*``; its differential
    at the identity arrow over ``c`` sends ``alpha`` to ``alpha c + c alpha*``.
    Row by row on stacks.
    """
    return alpha @ c + c @ alpha.adjoint()


@dataclass(frozen=True, eq=False)
class APath:
    """Sampled admissible path: base projections plus a fiber lift.

    ``bases`` and ``lifts`` are stacked elements of one shape, sample ``i``
    in row ``i``.  The constructor checks them against ``sample_times`` and
    computes ``max_lift_residual``: the worst C*-norm of the anchor image of
    the lift minus the base velocity, taken from the derivative of the
    quintic spline through the base samples.  That velocity is accurate to
    O(h^5), so a path needs at least six samples.
    """

    sample_times: np.ndarray
    bases: AlgebraElement
    lifts: AlgebraElement
    max_lift_residual: float = field(init=False)

    def __post_init__(self):
        times = np.array(self.sample_times, dtype=float)
        if times.ndim != 1:
            raise InputError("sample times must be a flat sequence")
        bases, lifts = self.bases, self.lifts
        if bases.shape != lifts.shape:
            raise ShapeMismatchError("bases and lifts must share one algebra shape")
        if not (bases.is_stack and lifts.is_stack):
            raise InputError("bases and lifts must be stacks of samples")
        if not len(bases.blocks[0]) == len(lifts.blocks[0]) == len(times):
            raise InputError("sample counts of times, bases and lifts must match")
        if np.any(np.diff(times) <= 0):
            raise InputError("sample times must be strictly increasing")
        if len(times) <= _SPLINE_DEGREE:
            raise InputError(
                f"need at least {_SPLINE_DEGREE + 1} samples for the velocity spline")
        if times[0] < -1e-12 or times[-1] > 1 + 1e-12:
            raise InputError("sample times must lie in [0, 1]")
        velocity = AlgebraElement.from_real_coords(
            bases.shape, _spline(times, bases.real_coords()).derivative()(times))
        residual = (fiber_anchor_image(lifts, bases) - velocity).norm()
        times.setflags(write=False)
        object.__setattr__(self, "sample_times", times)
        object.__setattr__(self, "max_lift_residual", float(np.max(residual)))

    def __len__(self):
        return len(self.sample_times)

    @property
    def start(self) -> AlgebraElement:
        return self.bases[0]

    @property
    def end(self) -> AlgebraElement:
        return self.bases[-1]


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
    the sample grid; each leg has at least 256 sample intervals, which keeps
    the lift residual of the spline velocity near 1e-8 (257 samples for one
    leg, 513 for two).
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
    per_leg = max(_LEG_INTERVALS, int(np.ceil(steps / n_legs)))
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
        AlgebraElement(p.shape, tuple(np.concatenate(legs) for legs in zip(*bases))),
        AlgebraElement(p.shape, tuple(np.concatenate(legs) for legs in zip(*lifts))),
    )


# -- reparametrization ---------------------------------------------------------------


def reparametrize_lift(path: APath, phi) -> APath:
    """Precompose a path with a time change: base ``c . phi``, lift ``(alpha . phi) phi'``.

    ``phi`` is any scalar callable, monotone on the sample grid with endpoint
    values 0 and 1; it is called once per sample.  ``phi'`` is the derivative
    of the quintic spline through those values, exact up to rounding when
    ``phi`` is a polynomial of degree at most 5.  The new path is resampled
    on the original grid; values of the old path between samples come from
    quintic splines through its real coordinates.
    """
    times = path.sample_times
    ph = np.asarray([float(phi(t)) for t in times])
    if abs(ph[0]) > 1e-9 or abs(ph[-1] - 1.0) > 1e-9:
        raise InputError("phi must map 0 to 0 and 1 to 1")
    if np.any(np.diff(ph) < -1e-12):
        raise InputError("phi is not monotone on the sample grid")

    dph = _spline(times, ph).derivative()(times)
    queries = np.clip(ph, times[0], times[-1])
    base_new = _spline(times, path.bases.real_coords())(queries)
    lift_new = dph[:, None] * _spline(times, path.lifts.real_coords())(queries)
    shape = path.bases.shape
    return APath(
        times,
        AlgebraElement.from_real_coords(shape, base_new),
        AlgebraElement.from_real_coords(shape, lift_new),
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
