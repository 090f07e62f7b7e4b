"""Groupoid abstraction and four concrete instances.

Arrows compose like functions: ``compose(g1, g2)`` is defined when
``source(g1) = target(g2)`` and the result runs from ``source(g2)`` to
``target(g1)``.  The instances come in two families, each with one shared
implementation; with the class of their arrows, they are

* the element kinds, over the algebra: ``ginv``, reflexive generalized-inverse
  pairs over idempotents (:class:`~ginv.geninv.GInvPair`), and
  ``partial_isometry``, partial isometries over orthogonal projections
  (:class:`IsometryArrow`);
* the vector kinds, over R^n: ``action``, the action groupoid of GL(n, R)
  acting on R^n (:class:`ActionArrow`), and ``pair``, the pair groupoid of a
  Euclidean space (:class:`PairArrow`).

The structure maps of every kind also take stacked arrows (see
:class:`Groupoid`).  Every random draw is split in two, as in
:mod:`ginv.sampling`.  ``base_noises``, ``arrow_noises``,
``sample_noises`` and ``chain_noises`` make the generator calls of
``count`` draws in a row and return them as stacked raw noise (plain
arrays, written into preallocated ``(count, ...)`` arrays), with the
generator calls and generator state of drawing them one at a time; the
element kinds write their rows through the writers of
:mod:`ginv.sampling` and :func:`~ginv.sampling.draw_rows`.
``base_at``, ``arrow_at`` and ``sample_at`` build the base point or arrow
from noise, row by row from stacked noise; ``sample_base_point``,
``arrow_from`` and ``sample_arrow`` build row 0 of a draw of
``count = 1``.  :func:`arrow_chain` builds
composable arrows from such noise, each one at the target of the last.
:func:`verify_axioms` draws each chunk of up to ``axiom_chunk`` chains by
one ``chain_noises`` call and checks it in one stacked pass that writes
its own failure texts; a pass that raises is split into one-row passes
over the rows of the same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    ExactEquality,
    block_ranks,
    emax,
    epow,
    expm_element,
    norms,
    residual_bound,
    validate_shape,
    verdict,
)
from .errors import (
    CompositionError,
    ConsistencyError,
    GinvError,
    InputError,
    PreconditionError,
)
from .geninv import GInvPair, is_ginv_pair, moore_penrose, reflexive_inverse
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    adjoint_matrix,
    block_diag,
    complex_sandwich_matrix,
    expm,
    hermitian_basis,
    kernel_basis,
    numerical_rank,
    operator_norm,
    sandwich_matrix,
    vector_norm,
)
from .reports import CheckRecord, ExperimentReport
from . import sampling


# -- arrows -------------------------------------------------------------------
#
# Two arrows are equal when they are of one class and their fields are equal,
# exactly (stacked arrows row for row); arrows are not hashable.


@dataclass(frozen=True, eq=False)
class IsometryArrow(ExactEquality):
    u: AlgebraElement


def _freeze_floats(arrow, *fields):
    """Store the named fields of a frozen arrow as read-only float arrays."""
    for name in fields:
        value = np.array(getattr(arrow, name), dtype=float)
        value.setflags(write=False)
        object.__setattr__(arrow, name, value)


@dataclass(frozen=True, eq=False)
class ActionArrow(ExactEquality):
    """The arrow from ``point`` to ``g @ point``: an ``(n,)`` point and an
    ``(n, n)`` invertible matrix, or ``(N, n)`` and ``(N, n, n)`` for ``N``
    arrows."""

    point: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        _freeze_floats(self, "point", "g")


@dataclass(frozen=True, eq=False)
class PairArrow(ExactEquality):
    """The arrow from ``x`` to ``y``: two ``(k,)`` points, or two ``(N, k)``
    stacks of them for ``N`` arrows."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        _freeze_floats(self, "x", "y")


class ChartFrame(NamedTuple):
    """The chart differential ``j_arrow`` at an arrow, factored: its left
    singular vectors ``u`` (thin, columns in ambient arrow coordinates) and
    singular values ``s``, both in descending order of ``s``, its ``shape``,
    at whose cutoff its rank is decided, and the source and target
    differentials ``ds`` and ``dt`` in ambient arrow coordinates, as
    :meth:`Groupoid.chart_differential` gives them."""

    u: np.ndarray
    s: np.ndarray
    shape: tuple
    ds: np.ndarray
    dt: np.ndarray


# -- groupoid instances ---------------------------------------------------------


class Groupoid:
    """Common interface; concrete kinds fill in the structure maps.

    Every kind also takes *stacked* arrows, ``N`` arrows held as one arrow
    of stacked elements or arrays, such as ``arrow_at`` and ``sample_at``
    build from stacked noise; base points stack the same way, as
    ``base_at`` builds them.  Every structure map, metric and membership
    check then works row by row, metrics return ``(N,)`` arrays, and a
    check raises when any row fails.
    """

    kind: str = "abstract"
    #: chains that :func:`verify_axioms` builds and checks as one stacked pass;
    #: a fixed bound, so memory stays bounded for any sample count (1: no stacks)
    axiom_chunk: int = 256

    def __init__(self, tol: ToleranceConfig = DEFAULT_TOL):
        self.tol = tol

    # structure maps, implemented per kind
    def source(self, g):
        raise NotImplementedError

    def target(self, g):
        raise NotImplementedError

    def compose(self, g1, g2):
        raise NotImplementedError

    def invert(self, g):
        raise NotImplementedError

    def identity_at(self, x):
        raise NotImplementedError

    # membership and metrics
    def validate_arrow(self, g):
        raise NotImplementedError

    def base_membership_residual(self, x) -> float:
        raise NotImplementedError

    def check_base(self, x):
        res = verdict(self.base_membership_residual(x),
                      residual_bound(self.tol.residual_tol, self._base_scale(x))).excess
        if res is not None:
            raise InputError(f"point fails base membership with residual {res:.3e}")

    def _base_scale(self, x) -> float:
        return 1.0

    def base_distance(self, x, y) -> float:
        raise NotImplementedError

    def arrow_distance(self, g1, g2) -> float:
        raise NotImplementedError

    def arrow_scale(self, g) -> float:
        """Norm scale of an arrow, used to normalize law residuals."""
        return 1.0

    # sampling: each kind draws ``count`` inputs at once, stacked (the
    # ``*_noises`` methods); a single draw is the one row of ``count = 1``
    def sample_base_point(self, rng: np.random.Generator):
        """Random base point."""
        return self.base_at(sampling.noise_row(self.base_noises(rng, 1), 0))

    def base_noises(self, rng: np.random.Generator, count: int):
        """The random inputs of ``count`` :meth:`sample_base_point` draws in
        a row, stacked."""
        raise NotImplementedError

    def base_at(self, noise):
        """The base point :meth:`sample_base_point` builds from ``noise``; row
        by row when ``noise`` is stacked.  By default the noise is the point."""
        return noise

    def sample_arrow(self, rng: np.random.Generator):
        """Random arrow, anywhere in the groupoid."""
        return self.sample_at(sampling.noise_row(self.sample_noises(rng, 1), 0))

    def sample_noises(self, rng: np.random.Generator, count: int) -> tuple:
        """The random inputs of ``count`` :meth:`sample_arrow` draws in a
        row, stacked; for the array kinds a base point and the noise of an
        arrow from it."""
        raise NotImplementedError

    def sample_at(self, noise: tuple):
        """The arrow :meth:`sample_arrow` builds from ``noise``; row by row
        when the parts of ``noise`` are stacks."""
        return self.arrow_at(noise[0], noise[1:])

    def arrow_from(self, x, rng: np.random.Generator):
        """Random arrow whose source is exactly ``x``."""
        raise NotImplementedError

    def arrow_noises(self, rng: np.random.Generator, count: int) -> tuple:
        """The random inputs of ``count`` :meth:`arrow_from` draws in a row,
        stacked."""
        raise NotImplementedError

    def arrow_at(self, x, noise: tuple):
        """The arrow :meth:`arrow_from` builds at the base point ``x`` from
        ``noise``; row by row when ``x`` and the parts of ``noise`` are stacks.
        ``x`` is taken as a base point, unchecked."""
        raise NotImplementedError

    def chain_noises(self, rng: np.random.Generator, count: int, arrows: int = 3,
                     loose: bool = True) -> tuple:
        """The random inputs of ``count`` chains in a row, stacked: per chain
        the noise of a base point, of ``arrows`` arrows drawn one from the
        target of the last, and (with ``loose``) of a loose arrow, in this
        order, drawn as :meth:`sample_base_point`, ``arrows``
        :meth:`arrow_from` and :meth:`sample_arrow` calls draw them, chain
        after chain.  By default the chains of :meth:`chain_rows`, row by
        row."""
        return sampling.draw_rows(self.chain_rows(count, arrows, loose), rng, count)

    def chain_rows(self, count: int, arrows: int = 3, loose: bool = True):
        """The rows of :meth:`chain_noises`, written one at a time by
        ``draw(rng, i)`` into preallocated arrays, for a caller whose chains
        interleave with other draws; ``noise()`` is the draw of them all."""
        raise NotImplementedError

    def require_composable(self, g1, g2):
        """Raise unless ``source(g1) = target(g2)``; those two calls make the
        structure checks of ``g1`` and then ``g2``, for every ``compose``."""
        distance = self.base_distance(self.source(g1), self.target(g2))
        mismatch = verdict(distance, residual_bound(
            self.tol.residual_tol, self.arrow_scale(g1), self.arrow_scale(g2))).excess
        if mismatch is not None:
            raise CompositionError(mismatch)

    # geometry, in each kind's own coordinates of arrows and base points: the
    # complex coordinates of elements for ginv, whose maps are complex-linear,
    # and the fixed real coordinates for the other kinds
    def chart_differential(self, g):
        """Exact differentials at the arrow ``g``, as matrices
        ``(j_arrow, ds, dt)``, all complex or all real.

        ``j_arrow`` is the differential at 0 of an exponential chart around
        ``g``: a smooth map from parameters onto a neighbourhood of ``g`` in
        the arrow manifold whose differential is onto the arrow tangent
        space.  ``ds`` and ``dt`` are the differentials of the source and
        target maps in ambient arrow coordinates, so ``ds @ j_arrow`` and
        ``dt @ j_arrow`` are the source and target differentials in the chart.
        """
        raise NotImplementedError

    def chart_frame(self, g) -> ChartFrame:
        """:meth:`chart_differential` at ``g``, its ``j_arrow`` factored by
        one thin singular value decomposition."""
        j_arrow, ds, dt = self.chart_differential(g)
        u, s, _ = np.linalg.svd(j_arrow, full_matrices=False)
        return ChartFrame(u, s, j_arrow.shape, ds, dt)

    def identity_frame(self, x) -> ChartFrame:
        """:meth:`chart_frame` at the identity arrow ``1_x``, from a base
        point ``x`` that has passed :meth:`check_base`.  A kind may build it
        without the checks of :meth:`identity_at`, and factor it otherwise:
        to the same singular values up to rounding, and left singular
        vectors that span the same subspaces."""
        return self.chart_frame(self.identity_at(x))

    def base_tangent_system(self, x) -> np.ndarray:
        """Matrix of the linearized defining equations of the base at ``x``,
        whose kernel is the base tangent space there."""
        raise NotImplementedError

    def base_tangent(self, x, dim: int) -> np.ndarray:
        """Orthonormal basis (columns) of the base tangent space at ``x``,
        in ambient base coordinates, of ``dim`` columns of the kind's own
        (real or complex) system: a count decided elsewhere, not here, as
        in :func:`~ginv.linalg.kernel_basis`."""
        return kernel_basis(self.base_tangent_system(x), dim=dim)

    def orthogonal_model(self, x):
        """A base point ``p`` where the geometry at the base point ``x`` is
        best decided: one that an automorphism of the groupoid takes to
        ``x``, so that every dimension at ``x`` is the one at ``p``.  By
        default the point itself."""
        return x

    def _identity_candidate(self, g):
        """The one base point whose identity arrow ``g`` can be."""
        return self.source(g)

    def orbit_signature(self, x, tol: ToleranceConfig):
        """Complete orbit invariant of the base point ``x``: per-block
        numerical rank for the generalized-inverse and partial-isometry
        instances, zero versus nonzero for the tautological GL(n) action, a
        single class for the pair groupoid.  A list of them, one per row,
        for a stack of base points, each equal to that of its row alone."""
        raise NotImplementedError

    def stack_bases(self, points):
        """The base points ``points`` as one stack, row ``i`` being
        ``points[i]``; :class:`InputError` when they do not stack.  By
        default an ``(N, dim)`` array of vectors."""
        try:
            return np.stack([np.asarray(x, dtype=float) for x in points])
        except ValueError as exc:
            raise InputError(f"base points do not stack: {exc}") from None


#: The cutoff on singular values that decides the range of an idempotent.  An
#: idempotent ``e`` with range projection ``p`` is ``p + k`` with ``k = e - p``,
#: ``pk = k`` and ``kp = 0``, so ``e e* = p + k k*``: its singular values are 0
#: and values of at least 1, whatever its norm, and 1/2 lies a factor 2 from both.
RANGE_CUTOFF = 0.5


def _idempotent_linearization(x: AlgebraElement, sandwich=complex_sandwich_matrix):
    """Matrix of ``v -> xv + vx - v``, whose kernel is the tangent space of
    the idempotent manifold at ``x``: complex, or real with
    ``sandwich=sandwich_matrix``."""
    one = AlgebraElement.identity(x.shape).blocks
    m = sandwich(x.blocks, one) + sandwich(one, x.blocks)
    return m - np.eye(m.shape[0])


def _normal_parts(rng: np.random.Generator, count: int, shapes) -> list:
    """Per row, arrays of the given shapes filled in turn with standard
    normals, for ``count`` rows in one call: a ``(count, *shape)`` stack each."""
    sizes = [int(np.prod(shape)) for shape in shapes]
    z, at, parts = rng.standard_normal((count, sum(sizes))), 0, []
    for shape, size in zip(shapes, sizes):
        parts.append(np.ascontiguousarray(z[:, at:at + size]).reshape(count, *shape))
        at += size
    return parts


def _array_chain(parts: list, arrows: int) -> tuple:
    """The chain noise of an array kind from its parts in draw order: a base
    point, one part per arrow, then the loose arrow's two parts, if any."""
    x, *rest = parts
    loose = (tuple(rest[arrows:]),) if rest[arrows:] else ()
    return (x, *((w,) for w in rest[:arrows]), *loose)


def _gaussian_pairs(z: np.ndarray, shape, scale: float) -> list:
    """The arrow noises that the rows of ``z`` hold one after another: per
    arrow the blocks of two Gaussian elements, scaled by ``scale``."""
    size = sampling.gaussian_size(shape)
    w = [sampling.gaussian_blocks(z[:, k:k + size], shape, scale)
         for k in range(0, z.shape[1], size)]
    return list(zip(w[::2], w[1::2]))


class _ElementChainRows:
    """The rows of :meth:`Groupoid.chain_noises` of an element kind
    (``ginv``, ``partial_isometry``).  Per row the base point's rank draws,
    then one ``standard_normal`` call for the Gaussian matrices of the base
    point (scaled by ``base_scale``) and of every arrow (scaled by
    ``arrow_scale``), then the draws of the ``loose`` rows, if any."""

    def __init__(self, shape, count: int, arrows: int, base_scale: float,
                 arrow_scale: float, loose):
        self.walk = sampling.RankedRows(shape, count, 1, base_scale,
                                        extra=2 * arrows * sampling.gaussian_size(shape))
        self.arrow_scale, self.loose = arrow_scale, loose

    def draw(self, rng: np.random.Generator, i: int):
        self.walk.draw(rng, i)
        if self.loose is not None:
            self.loose.draw(rng, i)

    def noise(self) -> tuple:
        arrows = _gaussian_pairs(self.walk.extra, self.walk.shape, self.arrow_scale)
        loose = () if self.loose is None else (self.loose.noise(),)
        return (self.walk.noise(), *arrows, *loose)


class _GInvLooseRows:
    """The rows of :meth:`GInvGroupoid.sample_noises`, the draws of ``(a, u,
    v)``: an element ``a`` of random block ranks, and the noise that
    :func:`~ginv.geninv.sample_ginv_pairs` draws for one pair of ``a`` from
    a seed drawn here; zeros, and no seed, when ``a`` is 0."""

    def __init__(self, shape, count: int):
        self.a = sampling.WellConditionedRows(shape, count)
        self.uv = np.zeros((count, 2 * sampling.gaussian_size(shape)))

    def draw(self, rng: np.random.Generator, i: int):
        if any(self.a.draw(rng, i, sampling.random_block_ranks(rng, self.a.shape))):
            pair_rng = np.random.default_rng(int(rng.integers(0, 2**63)))
            pair_rng.standard_normal(out=self.uv[i])

    def noise(self) -> tuple:
        size, shape = self.uv.shape[1] // 2, self.a.shape
        return (self.a.noise(), sampling.gaussian_blocks(self.uv[:, :size], shape),
                sampling.gaussian_blocks(self.uv[:, size:], shape))


# One base class per family; ``compose`` and ``arrow_from`` stay on each kind,
# where the benchmark's tracer (``perfbench/tracing.py``) wraps them.


class _ElementGroupoid(Groupoid):
    """The kinds whose base points are elements of the algebra of ``shape``.
    Each names its ``arrow_type`` and the element ``_element(g)`` that sets
    an arrow's algebra and is the base point of an identity arrow, and
    draws with ``_base_skew`` (a base point), ``_arrow_skew`` (an arrow's
    two Gaussian elements) and the rows ``_loose_rows(count)``."""

    _base_skew = 1.0

    def __init__(self, shape, tol: ToleranceConfig = DEFAULT_TOL):
        super().__init__(tol)
        self.shape = validate_shape(shape)

    def _check_structure(self, g):
        if not isinstance(g, self.arrow_type):
            raise InputError(f"foreign arrow of type {type(g).__name__}")
        if self._element(g).shape != self.shape:
            raise InputError("arrow belongs to an algebra of a different shape")

    def _identity_candidate(self, g) -> AlgebraElement:
        self._check_structure(g)
        return self._element(g)

    def _base_scale(self, x: AlgebraElement):
        return epow(x.norm(), 2)

    def base_distance(self, x, y):
        return x.distance(y)

    def base_noises(self, rng, count: int) -> tuple:
        """Per point a rank diagonal and one Gaussian matrix per block,
        scaled by ``_base_skew``: the draw that ``base_at`` builds."""
        return sampling.draw_rows(sampling.RankedRows(self.shape, count, 1, self._base_skew),
                                  rng, count)

    def arrow_noises(self, rng, count: int) -> tuple:
        """Per arrow two Gaussian elements scaled by ``_arrow_skew``,
        ``count`` arrows in one call."""
        z = rng.standard_normal((count, 2 * sampling.gaussian_size(self.shape)))
        return _gaussian_pairs(z, self.shape, self._arrow_skew)[0]

    def sample_noises(self, rng, count: int) -> tuple:
        return sampling.draw_rows(self._loose_rows(count), rng, count)

    def chain_rows(self, count: int, arrows: int = 3, loose: bool = True):
        return _ElementChainRows(self.shape, count, arrows, self._base_skew, self._arrow_skew,
                                 self._loose_rows(count) if loose else None)

    def orbit_signature(self, x, tol):
        ranks = block_ranks(x, tol)
        return list(zip(*(r.tolist() for r in ranks))) if x.is_stack else ranks

    def stack_bases(self, points) -> AlgebraElement:
        return AlgebraElement.stack(points)


class GInvGroupoid(_ElementGroupoid):
    """Pairs (a, b) with aba = a, bab = b over the idempotents of the algebra,
    whose arrows are the pairs themselves, :class:`~ginv.geninv.GInvPair`.

    Its geometry is complex-linear: the chart, source and target
    differentials and the base tangent system are complex matrices, on the
    complex coordinates of an element (each block's entries row-major,
    block by block) and of a pair (``a``'s, then ``b``'s)."""

    kind = "ginv"
    arrow_type = GInvPair
    _base_skew = sampling.IDEMPOTENT_SKEW
    #: the scale of the Gaussian noise of an arrow's ``u`` and ``w0``
    _arrow_skew = 0.35

    def _element(self, g: GInvPair) -> AlgebraElement:
        return g.a

    def source(self, g: GInvPair) -> AlgebraElement:
        self._check_structure(g)
        return g.b @ g.a

    def target(self, g: GInvPair) -> AlgebraElement:
        self._check_structure(g)
        return g.a @ g.b

    def compose(self, g1: GInvPair, g2: GInvPair) -> GInvPair:
        self.require_composable(g1, g2)
        return GInvPair.create(g1.a @ g2.a, g2.b @ g1.b, self.tol)

    def invert(self, g: GInvPair) -> GInvPair:
        self._check_structure(g)
        return g.swap()

    def identity_at(self, x: AlgebraElement) -> GInvPair:
        self.check_base(x)
        return GInvPair.create(x, x, self.tol)

    def validate_arrow(self, g):
        self._check_structure(g)
        if not is_ginv_pair(g.a, g.b, self.tol):
            raise InputError("arrow fails the reflexive-pair conditions")

    def base_membership_residual(self, x: AlgebraElement):
        return norms(x @ x - x, x)[0]

    def arrow_distance(self, g1, g2):
        return emax(g1.a.distance(g2.a), g1.b.distance(g2.b))

    def arrow_scale(self, g):
        return epow(emax(g.a.norm(), g.b.norm()), 2)

    def base_at(self, noise: tuple) -> AlgebraElement:
        return sampling.idempotent_from(noise)

    def _loose_rows(self, count: int) -> _GInvLooseRows:
        """The draws of ``(a, u, v)`` (see :class:`_GInvLooseRows`)."""
        return _GInvLooseRows(self.shape, count)

    def sample_at(self, noise: tuple) -> GInvPair:
        a = sampling.well_conditioned_from(noise[0])
        u, v = (sampling.element_from(w) for w in noise[1:])
        b = reflexive_inverse(a, moore_penrose(a, self.tol), u, v)
        # all ranks zero: the only reflexive pair is (0, 0), taken as (a, a)
        zero = np.asarray(a.norm() == 0.0)[..., None, None]
        b = AlgebraElement(self.shape, tuple(
            np.where(zero, x, y) for x, y in zip(a.blocks, b.blocks)))
        try:
            return GInvPair.create(a, b, self.tol)
        except InputError as exc:
            raise ConsistencyError(f"sampled reflexive inverse failed validation: {exc}") from exc

    def arrow_from(self, x: AlgebraElement, rng) -> GInvPair:
        self.check_base(x)
        return self.arrow_at(x, sampling.noise_row(self.arrow_noises(rng, 1), 0))

    def arrow_at(self, x: AlgebraElement, noise: tuple) -> GInvPair:
        one = AlgebraElement.identity(self.shape)
        u, w0 = (sampling.element_from(w) for w in noise)
        w = x @ w0 @ x + (one - x) @ w0 @ (one - x)  # commutes with x
        # that projection onto the commutant of x has norm up to about |x|^2;
        # bound the exponent by |w0| so expm(w) stays well conditioned
        w = w * np.minimum(1.0, w0.norm() / np.maximum(w.norm(), np.finfo(float).tiny))
        a = expm_element(u) @ x @ expm_element(w)
        b = expm_element(-1.0 * w) @ x @ expm_element(-1.0 * u)
        return GInvPair.create(a, b, self.tol)

    def chart_differential(self, g: GInvPair):
        self._check_structure(g)
        a, b = g.a.blocks, g.b.blocks
        one = AlgebraElement.identity(self.shape).blocks
        sandwich = complex_sandwich_matrix
        one_a, a_one, b_one, one_b = (sandwich(one, a), sandwich(a, one),
                                      sandwich(b, one), sandwich(one, b))
        # chart (U, W) -> (e^U a e^W, e^-W b e^-U); at 0: (U a + a W, -W b - b U)
        j_arrow = np.block([[one_a, a_one], [-b_one, -one_b]])
        ds = np.hstack([b_one, one_a])  # b dA + dB a
        dt = np.hstack([one_b, a_one])  # dA b + a dB
        return j_arrow, ds, dt

    def identity_frame(self, x: AlgebraElement) -> ChartFrame:
        """At ``1_x = (x, x)`` the chart splits.  In the parameters
        ``S = (U + W) / sqrt 2``, ``D = (U - W) / sqrt 2`` and the image
        coordinates ``(A - B) / sqrt 2``, ``(A + B) / sqrt 2``, both
        orthogonal changes of coordinates, ``(U, W) -> (U x + x W, -(x U + W x))``
        is ``S -> S x + x S`` beside ``D -> D x - x D``, exactly, for every
        ``x``.  So ``j_arrow`` has the singular values of these two
        ``n^2 x n^2`` blocks, from one stacked factorization, and their left
        singular vectors, carried back to the coordinates ``(A, B)``.  No
        arrow is built: the base check of ``x`` bounds the reflexivity
        residual of ``(x, x)`` too, ``|x x x - x| <= (1 + |x|) |x x - x|``."""
        one = AlgebraElement.identity(self.shape).blocks
        left, right = complex_sandwich_matrix(x.blocks, one), complex_sandwich_matrix(one, x.blocks)
        u, s, _ = np.linalg.svd(np.stack([right + left, right - left]), full_matrices=False)
        d = left.shape[0]
        order = np.argsort(-s.ravel(), kind="stable")
        cols = np.sqrt(0.5) * np.hstack(u)[:, order]
        # an S column is (u, -u) / sqrt 2 in (A, B), a D column (u, u) / sqrt 2
        frame = np.vstack([cols, np.where(order < d, -1.0, 1.0) * cols])
        return ChartFrame(frame, s.ravel()[order], (2 * d, 2 * d),
                          np.hstack([left, right]), np.hstack([right, left]))

    def base_tangent_system(self, x):
        return _idempotent_linearization(x)

    def orthogonal_model(self, x: AlgebraElement) -> AlgebraElement:
        """The range projection ``p`` of the idempotent ``x``, block by block
        the projection onto the left singular vectors of the block whose
        singular values exceed :data:`RANGE_CUTOFF`.  With ``k = x - p``,
        ``k^2 = 0``, ``kp = 0`` and ``pk = k``, so ``x = C p C^-1`` for
        ``C = 1 - k``, ``C^-1 = 1 + k``; ``Ad_C`` maps each pair ``(a, b)``
        to ``(C a C^-1, C b C^-1)``, an automorphism of the groupoid (Corach,
        Porta & Recht 1990)."""
        blocks = []
        for b in x.blocks:
            u, s, _ = np.linalg.svd(b)
            u = u[:, :int(np.count_nonzero(s > RANGE_CUTOFF))]
            blocks.append(u @ u.conj().T)
        return AlgebraElement(self.shape, tuple(blocks))


def _isometry_excess(u: AlgebraElement, tol: ToleranceConfig):
    """``||u u* u - u||`` when it exceeds ``residual_tol * (1 + ||u||^3)``
    (in the first such row of a stack), else ``None``."""
    residual, size = norms(u @ u.adjoint() @ u - u, u)
    return verdict(residual, residual_bound(tol.residual_tol, epow(size, 3))).excess


class PartialIsometryGroupoid(_ElementGroupoid):
    """Partial isometries over the orthogonal projections of the algebra.

    Its geometry is real-linear only (it involves the adjoint), in the
    fixed real coordinates.  The chart parameters and the base tangent
    system run over the Hermitian elements, in the orthonormal basis
    :func:`~ginv.linalg.hermitian_basis`."""

    kind = "partial_isometry"
    arrow_type = IsometryArrow
    #: the scale of the Gaussian noise of an arrow's two Hermitian generators
    _arrow_skew = 0.4

    def _element(self, g: IsometryArrow) -> AlgebraElement:
        return g.u

    def source(self, g: IsometryArrow) -> AlgebraElement:
        self._check_structure(g)
        return g.u.adjoint() @ g.u

    def target(self, g: IsometryArrow) -> AlgebraElement:
        self._check_structure(g)
        return g.u @ g.u.adjoint()

    def compose(self, g1: IsometryArrow, g2: IsometryArrow) -> IsometryArrow:
        self.require_composable(g1, g2)
        return IsometryArrow(g1.u @ g2.u)

    def invert(self, g: IsometryArrow) -> IsometryArrow:
        self._check_structure(g)
        return IsometryArrow(g.u.adjoint())

    def identity_at(self, x: AlgebraElement) -> IsometryArrow:
        self.check_base(x)
        return IsometryArrow(x)

    def validate_arrow(self, g):
        self._check_structure(g)
        if _isometry_excess(g.u, self.tol) is not None:
            raise InputError("arrow is not a partial isometry")

    def base_membership_residual(self, x: AlgebraElement):
        return emax(*norms(x @ x - x, x.adjoint() - x, x)[:2])

    def arrow_distance(self, g1, g2):
        return g1.u.distance(g2.u)

    def arrow_scale(self, g):
        return emax(g.u.norm(), 1.0)

    def base_at(self, noise: tuple) -> AlgebraElement:
        return sampling.projection_from(noise)

    def _loose_rows(self, count: int) -> sampling.RankedRows:
        """The draws of a partial isometry of random block ranks."""
        return sampling.RankedRows(self.shape, count, 2)

    def sample_at(self, noise: tuple) -> IsometryArrow:
        return IsometryArrow(sampling.partial_isometry_from(noise))

    def arrow_from(self, p: AlgebraElement, rng) -> IsometryArrow:
        self.check_base(p)
        return self.arrow_at(p, sampling.noise_row(self.arrow_noises(rng, 1), 0))

    def arrow_at(self, p: AlgebraElement, noise: tuple) -> IsometryArrow:
        one = AlgebraElement.identity(self.shape)
        h1, h0 = (sampling.hermitian_from(m) for m in noise)
        h2 = p @ h0 @ p + (one - p) @ h0 @ (one - p)  # Hermitian, commutes with p
        u = expm_element(1j * h1) @ p @ expm_element(1j * h2)
        return IsometryArrow(u)

    def chart_differential(self, g: IsometryArrow):
        self._check_structure(g)
        u, uh = g.u.blocks, g.u.adjoint().blocks
        one = AlgebraElement.identity(self.shape).blocks
        adj, hermitian = adjoint_matrix(self.shape), hermitian_basis(self.shape)
        # chart (H1, H2) -> e^{iH1} u e^{iH2} over Hermitian H1, H2; at 0: i(H1 u + u H2)
        i_one, i_u = [1j * b for b in one], [1j * b for b in u]
        j_arrow = np.hstack([sandwich_matrix(i_one, u) @ hermitian,
                             sandwich_matrix(i_u, one) @ hermitian])
        ds = sandwich_matrix(one, u) @ adj + sandwich_matrix(uh, one)  # du* u + u* du
        dt = sandwich_matrix(one, uh) + sandwich_matrix(u, one) @ adj  # du u* + u du*
        return j_arrow, ds, dt

    def identity_frame(self, p: AlgebraElement) -> ChartFrame:
        return self.chart_frame(IsometryArrow(p))  # 1_p is p itself

    def base_tangent_system(self, p):
        """``v -> pv + vp - v`` on Hermitian ``v``, whose kernel in the
        Hermitian basis is the base tangent space."""
        return _idempotent_linearization(p, sandwich_matrix) @ hermitian_basis(self.shape)

    def base_tangent(self, p, dim):
        return hermitian_basis(self.shape) @ super().base_tangent(p, dim)


class _VectorGroupoid(Groupoid):
    """The kinds whose base points are the points of R^dim, ``(dim,)``
    arrays or ``(N, dim)`` stacks of them (``action``, ``pair``)."""

    def __init__(self, dim: int, tol: ToleranceConfig = DEFAULT_TOL):
        super().__init__(tol)
        if dim < 1:
            raise InputError(f"the {self.kind} groupoid needs dimension >= 1")
        self.dim = int(dim)

    def base_membership_residual(self, x):
        """0 for a finite point of R^dim, else inf; row by row, as an
        ``(N,)`` array, for an ``(N, dim)`` stack."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 2 and x.shape[1] == self.dim:
            return np.where(np.isfinite(x).all(axis=1), 0.0, np.inf)
        return 0.0 if x.shape == (self.dim,) and np.isfinite(x).all() else float("inf")

    def base_distance(self, x, y):
        return vector_norm(np.asarray(x) - np.asarray(y))

    def base_tangent_system(self, x):
        return np.zeros((0, self.dim))  # all of R^dim, or an open subset of it


class ActionGroupoid(_VectorGroupoid):
    """Action groupoid of the tautological GL(n, R) action on R^n, ``n``
    held as ``dim``.

    Arrows are pairs (x, g) with source x and target g.x; composition of
    (y, h) after (x, g) requires y = g.x and yields (x, hg).
    """

    kind = "action"

    def __init__(self, n: int, tol: ToleranceConfig = DEFAULT_TOL):
        super().__init__(n, tol)

    def _check_structure(self, g):
        if not isinstance(g, ActionArrow):
            raise InputError(f"foreign arrow of type {type(g).__name__}")
        if (g.point.ndim not in (1, 2) or g.point.shape[-1:] != (self.dim,)
                or g.g.shape != g.point.shape[:-1] + (self.dim, self.dim)):
            raise InputError("arrow dimensions do not match the configured action")

    def source(self, g: ActionArrow) -> np.ndarray:
        self._check_structure(g)
        return g.point

    def target(self, g: ActionArrow) -> np.ndarray:
        self._check_structure(g)
        if g.point.ndim == 2:
            return (g.g @ g.point[:, :, None])[:, :, 0]
        return g.g @ g.point

    def compose(self, g1: ActionArrow, g2: ActionArrow) -> ActionArrow:
        self.require_composable(g1, g2)
        return ActionArrow(g2.point, g1.g @ g2.g)

    def invert(self, g: ActionArrow) -> ActionArrow:
        """Refuses what :meth:`validate_arrow` refuses: a group component of
        rank below ``dim`` has no inverse worth returning."""
        self.validate_arrow(g)
        return ActionArrow(self.target(g), np.linalg.inv(g.g))

    def identity_at(self, x) -> ActionArrow:
        x, n = np.asarray(x, dtype=float), self.dim
        self.check_base(x)
        return ActionArrow(x, np.broadcast_to(np.eye(n), x.shape[:-1] + (n, n)))

    def validate_arrow(self, g):
        self._check_structure(g)
        if np.any(numerical_rank(g.g, self.tol) < self.dim):
            raise InputError("group component is numerically singular")

    def arrow_distance(self, g1, g2):
        return emax(vector_norm(g1.point - g2.point), operator_norm(g1.g - g2.g))

    def arrow_scale(self, g):
        return emax(vector_norm(g.point), operator_norm(g.g))

    def base_noises(self, rng, count: int) -> np.ndarray:
        return rng.standard_normal((count, self.dim))

    def arrow_from(self, x, rng) -> ActionArrow:
        x = np.asarray(x, dtype=float)
        self.check_base(x)
        return self.arrow_at(x, sampling.noise_row(self.arrow_noises(rng, 1), 0))

    def arrow_noises(self, rng, count: int) -> tuple:
        return (rng.standard_normal((count, self.dim, self.dim)),)

    def sample_noises(self, rng, count: int) -> tuple:
        return tuple(_normal_parts(rng, count, [(self.dim,), (self.dim, self.dim)]))

    def chain_noises(self, rng, count: int, arrows: int = 3, loose: bool = True) -> tuple:
        """Every draw is of standard normals, so ``count`` chains are one call."""
        n = self.dim
        shapes = [(n,)] + [(n, n)] * arrows + [(n,), (n, n)] * loose
        return _array_chain(_normal_parts(rng, count, shapes), arrows)

    def arrow_at(self, x, noise: tuple) -> ActionArrow:
        """The group part is ``expm(w / 2)`` for the Gaussian noise ``w``: a
        well-conditioned invertible matrix."""
        return ActionArrow(x, expm(0.5 * noise[0]))

    def chart_differential(self, g: ActionArrow):
        self._check_structure(g)
        x, h, eye = g.point, g.g, np.eye(self.dim)
        # chart (dx, V) -> (x + dx, e^V h); at 0: (dx, V h), row-major in V
        j_arrow = block_diag(eye, np.kron(eye, h.T))
        ds = np.hstack([eye, np.zeros((self.dim, self.dim * self.dim))])
        dt = np.hstack([h, np.kron(eye, x[None, :])])  # h dx + dh x
        return j_arrow, ds, dt

    def orbit_signature(self, x, tol):
        zero = vector_norm(x) <= tol.residual_tol
        if np.ndim(zero):
            return ["zero" if z else "nonzero" for z in zero]
        return "zero" if zero else "nonzero"


#: The seed of the point pool of a :class:`PairGroupoid`: one pool for every
#: instance of one dimension and pool size.
POOL_SEED = 0


class PairGroupoid(_VectorGroupoid):
    """Pair groupoid of R^k: one arrow (x, y) from x to y for every pair.

    With ``pool_size`` set, base sampling draws from a fixed finite set of
    points, drawn from the seed :data:`POOL_SEED`, which makes all law
    residuals exactly zero.
    """

    kind = "pair"

    def __init__(
        self,
        dim: int,
        tol: ToleranceConfig = DEFAULT_TOL,
        pool_size: Optional[int] = None,
    ):
        super().__init__(dim, tol)
        self.pool = None
        if pool_size is not None:
            if pool_size < 1:
                raise InputError("point pool must be nonempty")
            pool_rng = np.random.default_rng(POOL_SEED)
            self.pool = pool_rng.standard_normal((int(pool_size), self.dim))

    def source(self, g: PairArrow) -> np.ndarray:
        self.validate_arrow(g)
        return g.x

    def target(self, g: PairArrow) -> np.ndarray:
        self.validate_arrow(g)
        return g.y

    def compose(self, g1: PairArrow, g2: PairArrow) -> PairArrow:
        self.require_composable(g1, g2)
        return PairArrow(g2.x, g1.y)

    def invert(self, g: PairArrow) -> PairArrow:
        self.validate_arrow(g)
        return PairArrow(g.y, g.x)

    def identity_at(self, x) -> PairArrow:
        x = np.asarray(x, dtype=float)
        self.check_base(x)
        return PairArrow(x, x)

    def validate_arrow(self, g):
        if not isinstance(g, PairArrow):
            raise InputError(f"foreign arrow of type {type(g).__name__}")
        if g.x.ndim not in (1, 2) or g.x.shape[-1:] != (self.dim,) or g.y.shape != g.x.shape:
            raise InputError("arrow dimensions do not match the configured space")

    def arrow_distance(self, g1, g2):
        return emax(vector_norm(g1.x - g2.x), vector_norm(g1.y - g2.y))

    def _points(self, rng, count: int, k: int) -> list:
        """``k`` points per row for ``count`` rows, drawn row by row in one
        call: indices into the pool, or standard normals; per point a
        ``(count, dim)`` stack."""
        if self.pool is not None:
            points = self.pool[rng.integers(0, len(self.pool), size=(count, k))]
        else:
            points = rng.standard_normal((count, k, self.dim))
        return [np.ascontiguousarray(points[:, j]) for j in range(k)]

    def base_noises(self, rng, count: int) -> np.ndarray:
        return self._points(rng, count, 1)[0]

    def arrow_from(self, x, rng) -> PairArrow:
        x = np.asarray(x, dtype=float)
        self.check_base(x)
        return self.arrow_at(x, sampling.noise_row(self.arrow_noises(rng, 1), 0))

    def arrow_noises(self, rng, count: int) -> tuple:
        return tuple(self._points(rng, count, 1))

    def sample_noises(self, rng, count: int) -> tuple:
        return tuple(self._points(rng, count, 2))

    def chain_noises(self, rng, count: int, arrows: int = 3, loose: bool = True) -> tuple:
        """Every draw is a point, so ``count`` chains are one call."""
        return _array_chain(self._points(rng, count, 1 + arrows + 2 * loose), arrows)

    def arrow_at(self, x, noise: tuple) -> PairArrow:
        return PairArrow(x, noise[0])

    def chart_differential(self, g: PairArrow):
        self.validate_arrow(g)
        eye, zero = np.eye(self.dim), np.zeros((self.dim, self.dim))
        return np.eye(2 * self.dim), np.hstack([eye, zero]), np.hstack([zero, eye])

    def orbit_signature(self, x, tol):
        return ["all"] * len(x) if np.ndim(x) == 2 else "all"


def make_groupoid(kind: str, tol: ToleranceConfig = DEFAULT_TOL, **config) -> Groupoid:
    """Factory keyed on the instance kind; configuration is kind-specific."""
    if kind == "ginv":
        return GInvGroupoid(config.get("shape", (2,)), tol)
    if kind == "partial_isometry":
        return PartialIsometryGroupoid(config.get("shape", (2,)), tol)
    if kind == "action":
        return ActionGroupoid(config.get("n", 2), tol)
    if kind == "pair":
        return PairGroupoid(config.get("dim", 3), tol, pool_size=config.get("pool_size"))
    raise InputError(f"unknown groupoid kind {kind!r}")


def isometry_to_ginv(u: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL) -> GInvPair:
    """Embed a partial isometry as the reflexive pair (u, u*), an arrow of
    ``ginv``; row by row, into a stack of pairs, for a stack of partial
    isometries.

    This map is an injective groupoid morphism: it commutes with source,
    target, composition and inversion.  ``u`` passes the same test as a
    ``partial_isometry`` arrow, else :class:`PreconditionError` (on a stack,
    when any row fails).
    """
    if _isometry_excess(u, tol) is not None:
        raise PreconditionError("isometry_to_ginv needs a partial isometry")
    return GInvPair.create(u, u.adjoint(), tol)


# -- axiom verification ----------------------------------------------------------

_LAWS = {
    "G1 base membership": "s(g) and t(g) are base points",
    "G2 associativity": "(g3*g2)*g1 = g3*(g2*g1)",
    "G3 left identity": "1_t(g) * g = g",
    "G3 right identity": "g * 1_s(g) = g",
    "G4 left inverse": "inv(g) * g = 1_s(g)",
    "G4 right inverse": "g * inv(g) = 1_t(g)",
    "G4 source of inverse": "s(inv(g)) = t(g)",
}


def arrow_chain(G: Groupoid, x, noises) -> list:
    """The arrows that :meth:`Groupoid.arrow_at` builds from each of
    ``noises`` in turn: the first at the base point ``x``, each later one at
    the target of the one before, so that each arrow composes with the next.
    Row by row when ``x`` and the noises are stacks.  Every start passes
    :meth:`Groupoid.check_base` before its arrow is built, else
    :class:`InputError` (on a stack, when any row fails)."""
    arrows = []
    for noise in noises:
        if arrows:
            x = G.target(arrows[-1])
        G.check_base(x)
        arrows.append(G.arrow_at(x, noise))
    return arrows


def _build_chain(G: Groupoid, noise: tuple) -> tuple:
    """The chain ``g1, g2, g3, loose`` built from the inputs that
    :meth:`Groupoid.chain_noises` drew, one row or a stack of them: the
    :func:`arrow_chain` of the three arrow noises from the drawn base point,
    then the loose arrow.  Raises when an arrow (of any row) cannot be
    built."""
    x_noise, *noises, loose = noise
    return (*arrow_chain(G, G.base_at(x_noise), noises), G.sample_at(loose))


def _check_chain(G: Groupoid, chain: tuple, record, violation):
    """The law checks of one chain, single or stacked: ``record(law,
    residual, threshold)`` for every residual, ``violation(exc)`` for every
    arrow that fails validation."""
    scale = emax(*(G.arrow_scale(g) for g in chain))
    thr = residual_bound(G.tol.residual_tol, epow(scale, 3))

    for g in chain:
        try:
            G.validate_arrow(g)
        except InputError as exc:
            violation(exc)
            continue
        res = emax(
            G.base_membership_residual(G.source(g)),
            G.base_membership_residual(G.target(g)),
        )
        record("G1 base membership", res, thr)

    g1, g2, g3, _ = chain
    left = G.compose(G.compose(g3, g2), g1)
    right = G.compose(g3, G.compose(g2, g1))
    record("G2 associativity", G.arrow_distance(left, right), thr)

    for g in (g1, g2):
        s, t = G.source(g), G.target(g)
        record("G3 right identity", G.arrow_distance(G.compose(g, G.identity_at(s)), g), thr)
        record("G3 left identity", G.arrow_distance(G.compose(G.identity_at(t), g), g), thr)
        inv = G.invert(g)
        record("G4 right inverse", G.arrow_distance(G.compose(g, inv), G.identity_at(t)), thr)
        record("G4 left inverse", G.arrow_distance(G.compose(inv, g), G.identity_at(s)), thr)
        record("G4 source of inverse", G.base_distance(G.source(inv), t), thr)


def _recorder(worst: dict, texts: list, where):
    """The ``record(law, residual, threshold)`` of :func:`_check_chain`, for
    one residual or one per row: it folds the residuals into ``worst[law]``
    and adds ``(row, text)`` to ``texts`` for each row above its threshold
    or NaN, ``where(row)`` naming the row in the text."""

    def record(law, residual, threshold):
        residual, threshold = np.broadcast_arrays(np.ravel(residual), np.ravel(threshold))
        # a NaN residual breaks its law, and makes the law's worst value NaN
        worst[law] = float(np.maximum.reduce(residual, initial=worst[law]))
        for i in verdict(residual, threshold).rows:
            texts.append((i, f"{law} violated ({residual[i]:.3e} > {threshold[i]:.3e}) "
                             f"at {where(i)}"))

    return record


def verify_axioms(
    G: Groupoid,
    seed: int,
    n_samples: int,
    extra_arrows: Optional[Sequence] = None,
) -> ExperimentReport:
    """Sample arrows and check the groupoid laws, reporting residuals.

    Checks, per sampled chain of three composable arrows: sources and
    targets land in the base, associativity, the left and right identity
    laws, both inverse laws and ``s(g^-1) = t(g)``.  Violations become
    failing records rather than exceptions: a sample whose arrows cannot be
    built or composed (any :class:`GinvError`) fails a ``law evaluation``
    record that names it, and the samples after it are drawn as if it had
    not failed.  ``extra_arrows`` lets a caller inject deliberately
    corrupted arrows as a negative control.

    Samples go in chunks of at most ``G.axiom_chunk``.  A chunk's random
    inputs are drawn once, by one :meth:`Groupoid.chain_noises` call into
    stacked arrays, and its chains are built and checked in one pass on
    stacks, which records every row's residuals and writes a failure text
    for every row that breaks a law.  When that pass raises or an arrow of
    it fails validation, its rows are checked again, each as a one-row pass
    on single elements built from row ``i`` of the same arrays: there a
    failed validation is a failure text and the chain's other checks go on,
    and an error ends only its own chain.  So the report equals, byte for
    byte, the one that checking every sample alone would give.
    """
    if n_samples < 1:
        raise InputError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)

    worst = dict.fromkeys(_LAWS, 0.0)
    failures: list[str] = []
    sample_errors: list[str] = []

    def check_pass(first: int, noise: tuple, count: Optional[int] = None):
        """Build and check the chains of samples ``first, first + 1, ...``
        from their drawn ``noise``: ``count`` stacked rows, or one row of
        single elements when ``count`` is ``None``."""
        stacked = count is not None
        seen, texts = dict.fromkeys(_LAWS, 0.0), []

        def violation(exc):
            if stacked:
                raise exc
            texts.append((0, f"G1 base membership violated at sample {first}: {exc}"))

        try:
            chain = _build_chain(G, noise)
            _check_chain(G, chain, _recorder(seen, texts, lambda i: f"sample {first + i}"),
                         violation)
        except GinvError as exc:
            if stacked:
                for i in range(count):
                    check_pass(first + i, sampling.noise_row(noise, i))
                return
            sample_errors.append(f"sample {first}: {type(exc).__name__}: {exc}")
        for law, value in seen.items():
            worst[law] = float(np.maximum(worst[law], value))
        failures.extend(text for _, text in sorted(texts, key=lambda item: item[0]))

    for first in range(0, n_samples, G.axiom_chunk):
        count = min(G.axiom_chunk, n_samples - first)
        noise = G.chain_noises(rng, count)
        if count > 1:
            check_pass(first, noise, count)
        else:
            check_pass(first, sampling.noise_row(noise, 0))

    injected_failures: list[str] = []
    for j, g in enumerate(extra_arrows or []):
        context = f"injected arrow {j}"
        texts = []
        record = _recorder(worst, texts, lambda i: context)
        try:
            G.validate_arrow(g)
            s, t = G.source(g), G.target(g)
            thr = residual_bound(G.tol.residual_tol, epow(G.arrow_scale(g), 3))
            record("G1 base membership",
                   max(G.base_membership_residual(s), G.base_membership_residual(t)), thr)
            record("G3 right identity", G.arrow_distance(G.compose(g, G.identity_at(s)), g), thr)
            record("G4 right inverse",
                   G.arrow_distance(G.compose(g, G.invert(g)), G.identity_at(t)), thr)
            injected_failures.extend(text for _, text in texts)
        except GinvError as exc:
            injected_failures.append(f"arrow membership violated at {context}: {exc}")
        failures.extend(text for _, text in texts)

    report = ExperimentReport(
        suite=f"groupoid-axioms-{G.kind}",
        config={"seed": seed, "n_samples": n_samples, "kind": G.kind,
                "residual_tol": G.tol.residual_tol},
    )
    law_failures = {name: [f for f in failures if f.startswith(name)] for name in _LAWS}
    for name, anchor in _LAWS.items():
        report.add(
            CheckRecord(
                name=name,
                anchor=anchor,
                passed=not law_failures[name],
                value=worst[name],
                details="; ".join(law_failures[name][:3]),
            )
        )
    if sample_errors:
        report.add(
            CheckRecord(
                name="law evaluation",
                anchor="every sampled chain and its law checks evaluate without error",
                passed=False,
                value=len(sample_errors),
                details="; ".join(sample_errors[:3]),
            )
        )
    if extra_arrows:
        report.add(
            CheckRecord(
                name="injected-arrow control",
                anchor="corrupted arrows violate a groupoid law",
                passed=bool(injected_failures),
                value=len(injected_failures),
                details="; ".join(injected_failures[:3]) or "corruption not detected",
            )
        )
    return report
