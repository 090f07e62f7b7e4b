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
the base projection at sample ``i``.  A path keeps only its worst lift
residual, from :func:`ginv.algebra.max_norm`: the C*-norms of the few
residual rows whose largest entry can reach the maximum, not of all rows.

Every derivative and every value between samples comes from a quintic
interpolating spline through the samples (de Boor, *A Practical Guide to
Splines*): the base velocity, the derivative of a time change and the
resampled path.  Its error falls like ``h^5`` in the sample spacing and it
reproduces polynomials of degree up to 5, so a leg of 257 samples suffices.
A sample grid is factored once: the inverse of its collocation matrix,
and the matrix that maps values to the spline's derivatives at the sample
times.  Every :func:`orbit_path` with the same number of legs and samples
per leg has the same grid, and they share one.  A path's velocity and a
time change's ``phi'`` are then one matrix product each.  A path's spline
through the real coordinates of its bases and lifts side by side, fitted
when a time change first resamples it, gives both resampled curves.  Its
values equal those of separate fits through the bases and through the
lifts up to rounding, not bit for bit: how a matrix product rounds depends
on how many columns it has.

The paths of one shape are built, checked and resampled as stacks, in
passes of at most :data:`~ginv.linalg.PASS_ENTRIES` entries
(:func:`orbit_paths`, :func:`reparametrize_lifts`).  Each product with a
grid's matrices is a batched ``(L, L) @ (N, L, D)``: one product per path,
of the shape of the product for that path alone, so every path's bases,
lifts and worst residual are bit for bit those of the path alone;
:func:`orbit_path` and :func:`reparametrize_lift` are the one-path case.
The B-splines come from the Cox-de Boor recursion and the principal
logarithm from the Cayley transform, so paths need numpy alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraElement, block_ranks, classify, max_norm, residual_bound, verdict
from .errors import (
    DegenerateInterpolationError,
    InputError,
    OrbitError,
    PreconditionError,
    ShapeMismatchError,
)
from .linalg import DEFAULT_TOL, ToleranceConfig, pass_size

_WAYPOINT_SEED = 0x5EED
#: Sample intervals per leg of an :func:`orbit_path` at the least.  At 128,
#: criterion 11's bound, which shrinks with the path's own lift residual,
#: falls below the resampling error of a time change.
_LEG_INTERVALS = 256
_SPLINE_DEGREE = 5
#: Largest gap between a path's last base and the requested endpoint, and
#: largest lift residual of a path, that ``ginv path`` and criterion 10 pass.
ENDPOINT_TOL = 1e-6
LIFT_TOL = 1e-4


def reparametrized_bound(path_residual: float) -> float:
    """Largest lift residual a time change may leave on a path whose own lift
    residual is ``path_residual``."""
    return 10.0 * path_residual + 1e-6


#: offsets, from a point's interval ``i``, of the knots its nonzero
#: B-splines use (``i-k+1, ..., i+k``) and of those B-splines (``i-k, ..., i``)
_KNOT_OFFSETS = np.arange(1 - _SPLINE_DEGREE, _SPLINE_DEGREE + 1)[:, None]
_BASIS_OFFSETS = np.arange(-_SPLINE_DEGREE, 1)[:, None]


def _basis(knots: np.ndarray, x: np.ndarray, slope: bool = False):
    """The Cox-de Boor recursion (de Boor, ch. X), vectorized over ``x``.

    Returns the interval ``i`` of each point (``knots[i] <= x < knots[i + 1]``
    among the intervals of positive length, the last one closed) and the
    values at ``x`` of the ``k + 1`` B-splines of degree ``k`` that do not
    vanish there, ``B_(i-k), ..., B_i``, one row each; with ``slope``, their
    first derivatives.  Points are columns throughout, so every step acts
    on contiguous rows."""
    k = _SPLINE_DEGREE
    i = k + np.searchsorted(knots[k + 1:-k - 1], x, side="right")
    t = knots[i + _KNOT_OFFSETS]
    below, above = x - t[:k], t[k:] - x
    b = np.ones((1, len(x)))
    for d in range(1, k + 1):
        # b holds B_(m, d-1)(x) for m = i-d+1, ..., i; each feeds B_(m-1, d) and B_(m, d)
        w = b / (t[k:k + d] - t[k - d:k])
        if slope and d == k:
            left, right = -k * w, k * w
        else:
            left, right = above[:d] * w, below[k - d:] * w
        b = np.empty((d + 1, len(x)))
        b[:-1] = left
        b[-1] = 0.0
        b[1:] += right
    return i, b


def _combine(i: np.ndarray, b: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """``sum_j b[j] coefficients[i - k + j]``: six shifted coefficient rows
    per point, weighted by the basis rows of :func:`_basis`."""
    return np.einsum("jm,jm...->m...", b, coefficients[i + _BASIS_OFFSETS])


@dataclass(frozen=True, eq=False)
class _Spline:
    """A quintic spline: ``knots`` and one coefficient row per B-spline."""

    knots: np.ndarray
    coefficients: np.ndarray

    def __call__(self, x) -> np.ndarray:
        """Values at the points ``x`` (a flat array), one row per point."""
        return _combine(*_basis(self.knots, np.asarray(x, dtype=float)), self.coefficients)


class _Grid:
    """Quintic interpolation at the sample times ``times``, made once.

    The not-a-knot knots (de Boor, XIII(12)) give a square collocation
    matrix ``B``, whose entry ``(r, j)`` is the ``j``-th B-spline at
    ``times[r]``.  It is inverted once, densely: numpy has no banded LU, and
    at a few hundred samples the inverse costs a few milliseconds, which
    :func:`orbit_path` pays once per leg layout.  ``fit`` multiplies by
    ``B^-1``, and ``slopes`` by ``B'(times) B^-1``, the derivative at the
    sample times of the spline through the values.  Values are ``(L,)``,
    ``(L, D)``, or ``(N, L, D)`` for ``N`` paths: a batched product, each
    path's bit for bit its product alone.  A product over more columns is
    not bit for bit that over fewer, so the paths are not put side by side
    as one ``(L, N D)`` product."""

    def __init__(self, times: np.ndarray):
        k, half = _SPLINE_DEGREE, (_SPLINE_DEGREE + 1) // 2
        t = np.array(times, dtype=float)
        knots = np.r_[(t[0],) * (k + 1), t[half:-half], (t[-1],) * (k + 1)]
        i, b = _basis(knots, t)
        design = np.zeros((len(t), len(t)))
        design[np.arange(len(t)), i + _BASIS_OFFSETS] = b
        try:
            inverse = np.linalg.inv(design)
        except np.linalg.LinAlgError:
            raise DegenerateInterpolationError("the collocation matrix is singular") from None
        slopes = _combine(*_basis(knots, t, slope=True), inverse)
        for a in (t, knots, inverse, slopes):  # one grid serves many paths
            a.setflags(write=False)
        self.times, self.knots, self._inverse, self._slopes = t, knots, inverse, slopes

    def fit(self, values: np.ndarray) -> _Spline:
        """Quintic interpolating spline through ``values`` (first axis, or
        second for ``N`` paths) at the grid's times."""
        return _Spline(self.knots, self._inverse @ np.asarray(values, dtype=float))

    def slopes(self, values: np.ndarray) -> np.ndarray:
        """Derivative at the grid's times of the spline through ``values``."""
        return self._slopes @ np.asarray(values, dtype=float)


@functools.lru_cache(maxsize=4)
def _leg_grid(legs: int, per_leg: int) -> _Grid:
    """The grid of an :func:`orbit_path` of ``legs`` legs with ``per_leg``
    sample intervals each: every such path has the same times, so it is
    built once."""
    taus = np.linspace(0.0, 1.0, per_leg + 1)
    # the joint sample of two legs belongs to the earlier one
    return _Grid(np.concatenate([(j + (taus if j == 0 else taus[1:])) / legs
                                 for j in range(legs)]))


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
    the lift minus the base velocity, the derivative of the quintic spline
    through the bases' real coordinates.  That velocity is accurate to
    O(h^5), so a path needs at least six samples.  The worst norm comes
    from :func:`~ginv.algebra.max_norm`, which factors only the residual
    rows whose largest entry modulus can reach it and equals the largest
    row norm bit for bit.  ``grid`` holds the factored interpolation of
    the sample times; one passed in is used when
    it was made for times equal to ``sample_times``, and a new one is made
    otherwise.  ``spline``, the quintic spline through ``[bases | lifts]``
    real coordinates (the columns of ``bases.real_coords()``, then those of
    ``lifts.real_coords()``), is fitted on first use.
    """

    sample_times: np.ndarray
    bases: AlgebraElement
    lifts: AlgebraElement
    grid: _Grid | None = field(default=None, repr=False)
    max_lift_residual: float = field(init=False)

    def __post_init__(self):
        times = np.asarray(self.sample_times, dtype=float)
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
        grid = self.grid
        if grid is None or not np.array_equal(grid.times, times):
            grid = _Grid(times)
        (residual,) = _worst_residuals(grid, bases, lifts, 1)
        object.__setattr__(self, "sample_times", grid.times)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "max_lift_residual", residual)

    @property
    def spline(self) -> _Spline:
        if "_spline" not in self.__dict__:
            _fit_splines([self])
        return self.__dict__["_spline"]

    def __len__(self):
        return len(self.sample_times)

    @property
    def start(self) -> AlgebraElement:
        return self.bases[0]

    @property
    def end(self) -> AlgebraElement:
        return self.bases[-1]


def _worst_residuals(grid: _Grid, bases: AlgebraElement, lifts: AlgebraElement,
                     count: int) -> list:
    """The worst lift residual of each of ``count`` paths on ``grid`` whose
    samples ``bases`` and ``lifts`` hold, path after path: one stacked
    anchor image and one batched slope product for all of them, then one
    :func:`~ginv.algebra.max_norm` screen per path."""
    rows = len(grid.times)
    velocity = grid.slopes(bases.real_coords().reshape(count, rows, -1)).reshape(count * rows, -1)
    residual = fiber_anchor_image(lifts, bases) - AlgebraElement.from_real_coords(
        bases.shape, velocity)
    return [max_norm(residual[k * rows:(k + 1) * rows]) for k in range(count)]


def _checked_paths(grid: _Grid, bases: AlgebraElement, lifts: AlgebraElement,
                   count: int) -> list:
    """The :class:`APath` of each of ``count`` paths on ``grid`` whose samples
    ``bases`` and ``lifts`` hold, path after path, checked together by
    :func:`_worst_residuals`: each equal to the path its constructor makes
    from the same samples and grid, which would check it again."""
    rows = len(grid.times)
    out = []
    for k, residual in enumerate(_worst_residuals(grid, bases, lifts, count)):
        path = object.__new__(APath)
        for name, value in (("sample_times", grid.times), ("grid", grid),
                            ("bases", bases[k * rows:(k + 1) * rows]),
                            ("lifts", lifts[k * rows:(k + 1) * rows]),
                            ("max_lift_residual", residual)):
            object.__setattr__(path, name, value)
        out.append(path)
    return out


def _fit_splines(paths: list):
    """Fit the ``spline`` of each of ``paths``, of one grid and one shape,
    that has none yet, by one batched product."""
    todo = [path for path in paths if "_spline" not in path.__dict__]
    if not todo:
        return
    values = np.stack([np.concatenate([path.bases.real_coords(), path.lifts.real_coords()],
                                      axis=1) for path in todo])
    spline = todo[0].grid.fit(values)
    for path, coefficients in zip(todo, spline.coefficients):
        path.__dict__["_spline"] = _Spline(spline.knots, coefficients)


# -- projection retraction and rotations -------------------------------------------

#: half-width of the spectral band where the retraction and the rotation
#: are ill-defined: around 1/2 in :func:`nearest_projection`, above 0 in
#: :func:`direct_rotation`
SPECTRAL_GAP = 1e-6


def nearest_projection(h: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL) -> AlgebraElement:
    """Spectral truncation at 1/2: the nearest-projection retraction.

    Rejects inputs with an eigenvalue inside
    ``(1/2 - SPECTRAL_GAP, 1/2 + SPECTRAL_GAP)``, where the retraction is
    ill-defined.
    """
    if not verdict((h.adjoint() - h).norm(), residual_bound(tol.residual_tol, h.norm())).passed:
        raise InputError("retraction input must be Hermitian")
    blocks = []
    for b in h.blocks:
        evals, vecs = np.linalg.eigh(b)
        if np.any(np.abs(evals - 0.5) < SPECTRAL_GAP):
            raise DegenerateInterpolationError(
                "eigenvalue inside the forbidden band around 1/2"
            )
        keep = (evals >= 0.5).astype(float)
        blocks.append((vecs * keep) @ vecs.conj().T)
    return AlgebraElement(h.shape, tuple(blocks))


def direct_rotation(p: AlgebraElement, q: AlgebraElement) -> AlgebraElement:
    """Canonical unitary with ``u p u* = q`` for projections with ``|p - q| < 1``:
    ``u = (qp + (1-q)(1-p)) (1 - (p-q)^2)^(-1/2)``; rejects ``p, q`` where
    an eigenvalue of ``1 - (p-q)^2`` is below ``SPECTRAL_GAP``.  Row by row
    on stacks, rejecting them when any row is rejected."""
    u, antipodal = _rotations(p, q)
    if np.any(antipodal):
        raise DegenerateInterpolationError(
            "projections are antipodal: 1 - (p - q)^2 is singular"
        )
    return u


def _rotations(p: AlgebraElement, q: AlgebraElement):
    """:func:`direct_rotation` row by row, and which rows it rejects (a bool,
    or an ``(N,)`` array on stacks): those rows of the unitary are no
    rotation."""
    one = AlgebraElement.identity(p.shape)
    blocks, antipodal = [], False
    for bp, bq, b1 in zip(p.blocks, q.blocks, one.blocks):
        diff2 = (bp - bq) @ (bp - bq)
        evals, vecs = np.linalg.eigh(b1 - diff2)
        antipodal = antipodal | np.any(evals < SPECTRAL_GAP, axis=-1)
        # a rejected row's power is taken at the gap, so that it stays finite
        inv_sqrt = (vecs * (np.maximum(evals, SPECTRAL_GAP)[..., None, :] ** -0.5)) @ _adjoint(vecs)
        blocks.append((bq @ bp + (b1 - bq) @ (b1 - bp)) @ inv_sqrt)
    return AlgebraElement(p.shape, tuple(blocks)), antipodal


def _adjoint(m: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(m.conj(), -1, -2)


def _log_frames(u: AlgebraElement) -> list:
    """Per block of a unitary element with no eigenvalue -1, ``(theta, V)``:
    the angles ``theta`` of its eigenvalues ``e^(i theta)``, all in
    ``(-pi, pi)``, and an orthonormal basis ``V`` of eigenvectors, so that
    its principal logarithm is ``V diag(i theta) V*``; row by row, as
    ``(N, n)`` and ``(N, n, n)`` stacks, for a stack of unitaries.

    The Cayley transform ``H = i (1 - u)(1 + u)^-1`` is Hermitian, with the
    eigenvectors of ``u`` and eigenvalue ``tan(theta / 2)`` where ``u`` has
    ``e^(i theta)``, so one ``eigh(H)`` gives both (Higham, *Functions of
    Matrices*, ch. 11).  A direct rotation has every ``|theta| < pi / 2``,
    far from the pole at ``theta = pi``.
    """
    frames = []
    for b in u.blocks:
        one = np.eye(b.shape[-1])
        try:
            h = 1j * np.linalg.solve(one + b, one - b)
        except np.linalg.LinAlgError:
            raise DegenerateInterpolationError("-1 is an eigenvalue of the unitary") from None
        evals, vecs = np.linalg.eigh((h + _adjoint(h)) / 2)
        frames.append((2 * np.arctan(evals), vecs))
    return frames


def _log_from(theta: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``V diag(i theta) V*``, the logarithm a frame of :func:`_log_frames`
    gives; row by row on stacked frames."""
    return (vecs * (1j * theta)[..., None, :]) @ _adjoint(vecs)


def principal_log_unitary(u: AlgebraElement) -> AlgebraElement:
    """Skew-Hermitian principal logarithm of a unitary element with no
    eigenvalue -1, ``V diag(i theta) V*`` from the frames of
    :func:`_log_frames`."""
    return AlgebraElement(u.shape, tuple(_log_from(*frame) for frame in _log_frames(u)))


def _quintic(t: np.ndarray) -> np.ndarray:
    return t**3 * (10.0 - 15.0 * t + 6.0 * t**2)


def _quintic_deriv(t: np.ndarray) -> np.ndarray:
    return 30.0 * t**2 * (1.0 - t) ** 2


def _sample_leg(start: AlgebraElement, frames: list, phis: np.ndarray, dphis: np.ndarray):
    """Projections ``e^(phi K) p e^(-phi K)`` and lifts ``phi' K c`` on a grid,
    for ``N`` legs at once: ``start`` is the stack of their starting
    projections ``p``, and ``frames`` the per-block stacked frames
    ``(theta, V)`` of their generators ``K``, as :func:`_log_frames` gives
    them, so that ``e^(phi K) = V diag(e^(i phi theta)) V*``.  Per block one
    ``(N, len(phis), n, n)`` stack each."""
    base_blocks, lift_blocks = [], []
    for p, (theta, vecs) in zip(start.blocks, frames):
        phases = np.exp(1j * (phis[None, :, None] * theta[:, None, :]))
        u = (vecs[:, None] * phases[:, :, None, :]) @ _adjoint(vecs)[:, None]
        c = u @ p[:, None] @ _adjoint(u)
        base_blocks.append(c)
        lift_blocks.append(dphis[None, :, None, None] * (_log_from(theta, vecs)[:, None] @ c))
    return base_blocks, lift_blocks


def _check_endpoints(p: AlgebraElement, q: AlgebraElement, tol: ToleranceConfig):
    """Raise unless ``p`` and ``q`` are projections of one algebra and one
    rank signature."""
    for name, x in (("p", p), ("q", q)):
        if not classify(x, tol).projection:
            raise PreconditionError(f"{name} is not an orthogonal projection")
    if p.shape != q.shape:
        raise InputError("endpoints live in different algebras")
    ranks_p, ranks_q = block_ranks(p, tol), block_ranks(q, tol)
    if ranks_p != ranks_q:
        raise OrbitError(f"rank signatures differ: {ranks_p} vs {ranks_q}")


def _waypoint(p: AlgebraElement, q: AlgebraElement) -> tuple:
    """A seeded random same-signature waypoint ``mid`` between antipodal
    projections, and the direct rotations ``p -> mid`` and ``mid -> q``."""
    from .sampling import random_unitary

    rng = np.random.default_rng(_WAYPOINT_SEED)
    for _ in range(16):
        w = AlgebraElement(
            p.shape, tuple(random_unitary(rng, n) for n in p.shape)
        )
        mid = w @ p @ w.adjoint()
        try:
            return mid, direct_rotation(p, mid), direct_rotation(mid, q)
        except DegenerateInterpolationError:
            continue
    raise DegenerateInterpolationError(
        "no usable waypoint found between the endpoints"
    )


def orbit_paths(ps, qs, steps: int = 2, tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """The :func:`orbit_path` from ``ps[i]`` to ``qs[i]`` for each ``i``, for
    sequences of single projections of one shape.

    Each pair is checked as :func:`orbit_path` checks it, and the first pair
    that fails raises the error it raises alone.  The direct rotations and
    their logarithms are stacked computations.  Paths of one leg layout
    (one leg, or two legs through a waypoint for antipodal pairs) are
    sampled as ``(N, L, n, n)`` stacks and checked by one stacked anchor
    image and one batched slope product, in passes of at most
    :data:`~ginv.linalg.PASS_ENTRIES` sample entries (one path at the
    least).  Every path equals, bit for bit, the path of its pair alone.
    """
    if steps < 2:
        raise InputError("steps must be >= 2")
    if len(ps) != len(qs):
        raise InputError("every start needs one end")
    for p, q in zip(ps, qs):
        _check_endpoints(p, q, tol)
    if not ps:
        return []

    # waypoints: [p, ..., q]; each consecutive pair joined by a direct rotation
    p, q = AlgebraElement.stack(ps), AlgebraElement.stack(qs)
    u, antipodal = _rotations(p, q)
    direct, routed = np.flatnonzero(~antipodal), np.flatnonzero(antipodal)
    layouts = []  # (rows, leg starts, leg generators)
    if direct.size:
        layouts.append((direct, [p[direct]], [_log_frames(u[direct])]))
    if routed.size:
        mids, firsts, seconds = zip(*(_waypoint(ps[i], qs[i]) for i in routed))
        layouts.append((routed, [p[routed], AlgebraElement.stack(mids)],
                        [_log_frames(AlgebraElement.stack(firsts)),
                         _log_frames(AlgebraElement.stack(seconds))]))
    paths = [None] * len(ps)
    for rows, starts, frames in layouts:
        for i, path in zip(rows, _leg_paths(starts, frames, steps)):
            paths[i] = path
    return paths


def _leg_paths(starts: list, frames: list, steps: int) -> list:
    """The paths whose legs start at the stacks ``starts`` and follow the
    generators of the stacked ``frames``, leg by leg, in passes of at most
    :data:`~ginv.linalg.PASS_ENTRIES` sample entries."""
    shape, count, n_legs = starts[0].shape, len(starts[0].blocks[0]), len(starts)
    per_leg = max(_LEG_INTERVALS, int(np.ceil(steps / n_legs)))
    grid = _leg_grid(n_legs, per_leg)
    taus = np.linspace(0.0, 1.0, per_leg + 1)
    # the joint sample of two legs belongs to the earlier leg
    profiles = [(_quintic(leg), n_legs * _quintic_deriv(leg))
                for leg in [taus] + [taus[1:]] * (n_legs - 1)]
    size, paths = pass_size(len(grid.times), shape), []
    for first in range(0, count, size):
        part = slice(first, first + size)
        bases, lifts = _joined_legs(shape, [
            _sample_leg(start[part], [(theta[part], vecs[part]) for theta, vecs in frame],
                        *profile)
            for start, frame, profile in zip(starts, frames, profiles)])
        paths += _checked_paths(grid, bases, lifts, min(size, count - first))
    return paths


def _joined_legs(shape, sampled: list) -> tuple:
    """The bases and the lifts of :func:`_sample_leg` on each leg, per block
    the legs' ``(N, L_j, n, n)`` samples joined along the time axis, as
    stacks of ``N L`` rows."""
    return tuple(
        AlgebraElement(shape, tuple(np.concatenate(legs, axis=1).reshape(-1, n, n)
                                    for n, legs in zip(shape, zip(*per_leg))))
        for per_leg in zip(*sampled))


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
    leg, 513 for two).  The one-pair case of :func:`orbit_paths`.
    """
    (path,) = orbit_paths([p], [q], steps, tol)
    return path


# -- reparametrization ---------------------------------------------------------------


def reparametrize_lift(path: APath, phi) -> APath:
    """Precompose a path with a time change: base ``c . phi``, lift ``(alpha . phi) phi'``.

    ``phi`` is any scalar callable, monotone on the sample grid with endpoint
    values 0 and 1; it is called once per sample.  ``phi'`` is the derivative
    of the quintic spline through those values, exact up to rounding when
    ``phi`` is a polynomial of degree at most 5.  The new path is resampled
    on the original grid; values of the old path between samples come from
    its ``spline``, evaluated once at the query times for bases and lifts
    together.  The new path keeps the path's factored ``grid``, so ``phi'``
    and the new velocity are one product each with its slope matrix.  The
    one-path case of :func:`reparametrize_lifts`.
    """
    (out,) = reparametrize_lifts([path], phi)
    return out


def reparametrize_lifts(paths, phi) -> list:
    """The :func:`reparametrize_lift` of each of ``paths`` by one time change
    ``phi``, each equal bit for bit to that of the path alone.

    What depends only on a grid is done once per grid: the values of
    ``phi``, called once per sample time, and their checks (the first path
    whose grid fails raises), ``phi'``, and the spline basis at the query
    times.  The paths of one grid and one shape are then fitted (those not
    fitted yet), resampled and checked in passes of at most
    :data:`~ginv.linalg.PASS_ENTRIES` sample entries, each pass by batched
    products.
    """
    groups: dict = {}  # per grid, the indices of its paths by shape
    for k, path in enumerate(paths):
        grid, by_shape = groups.setdefault(id(path.grid), (path.grid, {}))
        by_shape.setdefault(path.bases.shape, []).append(k)
    out = [None] * len(paths)
    for grid, by_shape in groups.values():
        times = grid.times
        ph = np.asarray([float(phi(t)) for t in times])
        if abs(ph[0]) > 1e-9 or abs(ph[-1] - 1.0) > 1e-9:
            raise InputError("phi must map 0 to 0 and 1 to 1")
        if np.any(np.diff(ph) < -1e-12):
            raise InputError("phi is not monotone on the sample grid")
        dph = grid.slopes(ph)
        basis = _basis(grid.knots, np.clip(ph, times[0], times[-1]))
        for shape, members in by_shape.items():
            size = pass_size(len(times), shape)
            for first in range(0, len(members), size):
                rows = members[first:first + size]
                part = [paths[k] for k in rows]
                bases, lifts = _resampled(part, basis, dph)
                for k, new in zip(rows, _checked_paths(grid, bases, lifts, len(part))):
                    out[k] = new
    return out


def _resampled(paths: list, basis: tuple, dph: np.ndarray) -> tuple:
    """The new bases ``c . phi`` and lifts ``(alpha . phi) phi'`` of ``paths``,
    of one grid and one shape, stacked path after path: their splines
    (fitted by :func:`_fit_splines` where not yet) at the query times, whose
    B-spline ``basis`` is :func:`_basis`'s, and the slopes ``dph`` of
    ``phi``."""
    _fit_splines(paths)
    coords = np.stack([_combine(*basis, path.spline.coefficients) for path in paths])
    half = coords.shape[-1] // 2  # bases columns, then as many lifts columns
    shape = paths[0].bases.shape
    return (AlgebraElement.from_real_coords(shape, coords[..., :half].reshape(-1, half)),
            AlgebraElement.from_real_coords(
                shape, (dph[:, None] * coords[..., half:]).reshape(-1, half)))


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
    trapezoids = np.diff(grid) * (weight[1:] + weight[:-1]) / 2.0
    cumulative = np.concatenate(([0.0], np.cumsum(trapezoids)))
    total = cumulative[-1]
    cumulative /= total
    # cubic Hermite interpolation with the exact slopes weight / total: the
    # two end slopes of each piece average to its secant, so every piece is
    # monotone (Fritsch and Carlson, SIAM J. Numer. Anal. 17, 1980), and a
    # piece where the weight vanishes at both ends is constant
    slopes = weight / total

    def phi(t):
        t_arr = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
        j = np.clip(np.searchsorted(grid, t_arr, side="right") - 1, 0, len(grid) - 2)
        h = grid[j + 1] - grid[j]
        s = (t_arr - grid[j]) / h
        rise, a, b = cumulative[j + 1] - cumulative[j], h * slopes[j], h * slopes[j + 1]
        out = cumulative[j] + s * (a + s * (3 * rise - 2 * a - b + s * (a + b - 2 * rise)))
        out = np.clip(out, 0.0, 1.0)
        out = np.where(t_arr <= 0.0, 0.0, out)
        out = np.where(t_arr >= 1.0, 1.0, out)
        return float(out) if np.isscalar(t) or np.asarray(t).ndim == 0 else out

    return phi
