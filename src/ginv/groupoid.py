"""Groupoid abstraction and four concrete instances.

Arrows compose like functions: ``compose(g1, g2)`` is defined when
``source(g1) = target(g2)`` and the result runs from ``source(g2)`` to
``target(g1)``.  The instances are

* ``ginv``              -- reflexive generalized-inverse pairs over idempotents;
* ``partial_isometry``  -- partial isometries over orthogonal projections;
* ``action``            -- the action groupoid of GL(n, R) acting on R^n;
* ``pair``              -- the pair groupoid of a Euclidean space;
* ``disjoint_union``    -- a tagged union of instances, no cross composition.

The ``ginv`` and ``partial_isometry`` structure maps also take stacked
arrows (see :class:`Groupoid`), and their ``arrow_at`` builds stacks of
drawn arrows from stacked noise.  :func:`verify_axioms` uses them to draw
and check up to 256 sampled chains in one stacked pass, going back to one
sample at a time only for a chunk in which a law breaks or a check raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from .algebra import (
    AlgebraElement,
    emax,
    epow,
    expm_element,
    first_excess,
    stack_rows,
    validate_shape,
)
from .errors import CompositionError, GinvError, InputError, PreconditionError
from .geninv import GInvPair, is_ginv_pair
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    adjoint_matrix,
    kernel_basis,
    numerical_rank,
    operator_norm,
    sandwich_matrix,
)
from .reports import CheckRecord, ExperimentReport
from . import sampling


# -- arrows -------------------------------------------------------------------


@dataclass(frozen=True)
class GInvArrow:
    pair: GInvPair


@dataclass(frozen=True)
class IsometryArrow:
    u: AlgebraElement


@dataclass(frozen=True)
class ActionArrow:
    point: tuple  # base point, as a tuple of floats
    g: tuple      # invertible matrix, as nested tuples

    @property
    def point_array(self) -> np.ndarray:
        return np.asarray(self.point, dtype=float)

    @property
    def g_array(self) -> np.ndarray:
        return np.asarray(self.g, dtype=float)

    @classmethod
    def of(cls, point: np.ndarray, g: np.ndarray) -> "ActionArrow":
        return cls(tuple(float(v) for v in np.asarray(point).ravel()),
                   tuple(tuple(float(v) for v in row) for row in np.asarray(g)))


@dataclass(frozen=True)
class PairArrow:
    x: tuple
    y: tuple

    @classmethod
    def of(cls, x: np.ndarray, y: np.ndarray) -> "PairArrow":
        return cls(tuple(float(v) for v in np.asarray(x).ravel()),
                   tuple(float(v) for v in np.asarray(y).ravel()))


@dataclass(frozen=True)
class TaggedArrow:
    index: int
    inner: object


# -- groupoid instances ---------------------------------------------------------


class Groupoid:
    """Common interface; concrete kinds fill in the structure maps.

    A kind whose arrows hold algebra elements (``ginv``, ``partial_isometry``)
    also takes *stacked* arrows, ``N`` arrows held as one arrow of stacked
    elements built by ``stack_arrows``: every structure map, metric and
    membership check then works row by row, metrics return ``(N,)`` arrays,
    and a check raises when any row fails.  Kinds without stacks leave
    ``stack_arrows`` as ``None``.
    """

    kind: str = "abstract"
    #: ``stack_arrows(arrows)``: one stacked arrow, row ``i`` being ``arrows[i]``
    stack_arrows = None

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
        res = first_excess(
            self.base_membership_residual(x), self.tol.residual_tol * (1.0 + self._base_scale(x))
        )
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

    # sampling
    def sample_base_point(self, rng: np.random.Generator):
        raise NotImplementedError

    def sample_arrow(self, rng: np.random.Generator):
        raise NotImplementedError

    def arrow_from(self, x, rng: np.random.Generator):
        """Random arrow whose source is exactly ``x``."""
        raise NotImplementedError

    def arrow_noise(self, rng: np.random.Generator) -> tuple:
        """The random inputs of one :meth:`arrow_from` draw (kinds with stacks)."""
        raise NotImplementedError

    def arrow_at(self, x, noise: tuple):
        """The arrow :meth:`arrow_from` builds at the base point ``x`` from
        ``noise``; row by row when ``x`` and the parts of ``noise`` are stacks.
        ``x`` is taken as a base point, unchecked."""
        raise NotImplementedError

    def _composability_threshold(self, g1, g2) -> float:
        return self.tol.residual_tol * (1.0 + self.arrow_scale(g1) + self.arrow_scale(g2))

    def require_composable(self, g1, g2):
        mismatch = first_excess(
            self.base_distance(self.source(g1), self.target(g2)),
            self._composability_threshold(g1, g2),
        )
        if mismatch is not None:
            raise CompositionError(mismatch)

    # geometry, in the fixed real coordinates of arrows and base points
    def chart_differential(self, g):
        """Exact differentials at the arrow ``g``, as real matrices
        ``(j_arrow, ds, dt)``.

        ``j_arrow`` is the differential at 0 of an exponential chart around
        ``g``: a smooth map from parameters onto a neighbourhood of ``g`` in
        the arrow manifold whose differential is onto the arrow tangent
        space.  ``ds`` and ``dt`` are the differentials of the source and
        target maps in ambient arrow coordinates, so ``ds @ j_arrow`` and
        ``dt @ j_arrow`` are the source and target differentials in the chart.
        """
        raise NotImplementedError

    def tangent_vector(self, g, coords: np.ndarray):
        """Structured arrow tangent vector at ``g`` from ambient arrow coordinates."""
        raise NotImplementedError

    def base_tangent(self, x, tol: ToleranceConfig) -> np.ndarray:
        """Orthonormal basis (columns) of the base tangent space at ``x``."""
        raise NotImplementedError

    def orbit_signature(self, x, tol: ToleranceConfig):
        """Complete orbit invariant of the base point ``x``."""
        raise NotImplementedError


def _idempotent_linearization(x: AlgebraElement) -> np.ndarray:
    """Real matrix of ``v -> xv + vx - v``, whose kernel is the tangent space
    of the idempotent manifold at ``x``."""
    one = AlgebraElement.identity(x.shape).blocks
    m = sandwich_matrix(x.blocks, one) + sandwich_matrix(one, x.blocks)
    return m - np.eye(m.shape[0])


class GInvGroupoid(Groupoid):
    """Pairs (a, b) with aba = a, bab = b over the idempotents of the algebra."""

    kind = "ginv"

    def __init__(self, shape, tol: ToleranceConfig = DEFAULT_TOL):
        super().__init__(tol)
        self.shape = validate_shape(shape)

    def _check_structure(self, g):
        if not isinstance(g, GInvArrow):
            raise InputError(f"foreign arrow of type {type(g).__name__}")
        if g.pair.a.shape != self.shape:
            raise InputError("arrow belongs to an algebra of a different shape")

    def source(self, g: GInvArrow) -> AlgebraElement:
        self._check_structure(g)
        return g.pair.b @ g.pair.a

    def target(self, g: GInvArrow) -> AlgebraElement:
        self._check_structure(g)
        return g.pair.a @ g.pair.b

    def compose(self, g1: GInvArrow, g2: GInvArrow) -> GInvArrow:
        self._check_structure(g1)
        self._check_structure(g2)
        self.require_composable(g1, g2)
        a = g1.pair.a @ g2.pair.a
        b = g2.pair.b @ g1.pair.b
        return GInvArrow(GInvPair.create(a, b, self.tol))

    def invert(self, g: GInvArrow) -> GInvArrow:
        self._check_structure(g)
        return GInvArrow(g.pair.swap())

    def identity_at(self, x: AlgebraElement) -> GInvArrow:
        self.check_base(x)
        return GInvArrow(GInvPair.create(x, x, self.tol))

    def validate_arrow(self, g):
        self._check_structure(g)
        if not is_ginv_pair(g.pair.a, g.pair.b, self.tol):
            raise InputError("arrow fails the reflexive-pair conditions")

    def base_membership_residual(self, x: AlgebraElement):
        return (x @ x - x).norm()

    def _base_scale(self, x: AlgebraElement):
        return epow(x.norm(), 2)

    def base_distance(self, x, y):
        return x.distance(y)

    def arrow_distance(self, g1, g2):
        return emax(g1.pair.a.distance(g2.pair.a), g1.pair.b.distance(g2.pair.b))

    def arrow_scale(self, g):
        return epow(emax(g.pair.a.norm(), g.pair.b.norm()), 2)

    def stack_arrows(self, arrows) -> GInvArrow:
        for g in arrows:
            self._check_structure(g)
        a = AlgebraElement.stack([g.pair.a for g in arrows])
        b = AlgebraElement.stack([g.pair.b for g in arrows])
        return GInvArrow(GInvPair.create(a, b, self.tol))

    def sample_base_point(self, rng) -> AlgebraElement:
        return sampling.random_idempotent(rng, self.shape)

    def sample_arrow(self, rng) -> GInvArrow:
        a = sampling.well_conditioned_element(
            rng, self.shape, ranks=sampling.random_block_ranks(rng, self.shape)
        )
        if a.norm() == 0.0:  # all ranks zero: the only reflexive pair is (0, 0)
            return GInvArrow(GInvPair.create(a, a, self.tol))
        from .geninv import sample_ginv_pairs

        seed = int(rng.integers(0, 2**63))
        return GInvArrow(sample_ginv_pairs(a, seed, 1, self.tol)[0])

    def arrow_from(self, x: AlgebraElement, rng) -> GInvArrow:
        self.check_base(x)
        return self.arrow_at(x, self.arrow_noise(rng))

    def arrow_noise(self, rng) -> tuple:
        return (sampling.random_element(rng, self.shape, scale=0.35),
                sampling.random_element(rng, self.shape, scale=0.35))

    def arrow_at(self, x: AlgebraElement, noise: tuple) -> GInvArrow:
        one = AlgebraElement.identity(self.shape)
        u, w0 = noise
        w = x @ w0 @ x + (one - x) @ w0 @ (one - x)  # commutes with x
        # that projection onto the commutant of x has norm up to about |x|^2;
        # bound the exponent by |w0| so expm(w) stays well conditioned
        w = w * np.minimum(1.0, w0.norm() / np.maximum(w.norm(), np.finfo(float).tiny))
        a = expm_element(u) @ x @ expm_element(w)
        b = expm_element(-1.0 * w) @ x @ expm_element(-1.0 * u)
        return GInvArrow(GInvPair.create(a, b, self.tol))

    def chart_differential(self, g: GInvArrow):
        self._check_structure(g)
        a, b = g.pair.a.blocks, g.pair.b.blocks
        one = AlgebraElement.identity(self.shape).blocks
        # chart (U, W) -> (e^U a e^W, e^-W b e^-U); at 0: (U a + a W, -W b - b U)
        j_arrow = np.block([
            [sandwich_matrix(one, a), sandwich_matrix(a, one)],
            [-sandwich_matrix(b, one), -sandwich_matrix(one, b)],
        ])
        ds = np.hstack([sandwich_matrix(b, one), sandwich_matrix(one, a)])  # b dA + dB a
        dt = np.hstack([sandwich_matrix(one, b), sandwich_matrix(a, one)])  # dA b + a dB
        return j_arrow, ds, dt

    def tangent_vector(self, g, coords):
        d = coords.size // 2
        return (AlgebraElement.from_real_coords(self.shape, coords[:d]),
                AlgebraElement.from_real_coords(self.shape, coords[d:]))

    def base_tangent(self, x, tol):
        return kernel_basis(_idempotent_linearization(x), tol)

    def orbit_signature(self, x, tol):
        return tuple(numerical_rank(b, tol) for b in x.blocks)


def _isometry_excess(u: AlgebraElement, tol: ToleranceConfig):
    """``||u u* u - u||`` when it exceeds ``residual_tol * (1 + ||u||^3)``
    (in the first such row of a stack), else ``None``."""
    residual = (u @ u.adjoint() @ u - u).norm()
    return first_excess(residual, tol.residual_tol * (1.0 + epow(u.norm(), 3)))


class PartialIsometryGroupoid(Groupoid):
    """Partial isometries over the orthogonal projections of the algebra."""

    kind = "partial_isometry"

    def __init__(self, shape, tol: ToleranceConfig = DEFAULT_TOL):
        super().__init__(tol)
        self.shape = validate_shape(shape)

    def _check_structure(self, g):
        if not isinstance(g, IsometryArrow):
            raise InputError(f"foreign arrow of type {type(g).__name__}")
        if g.u.shape != self.shape:
            raise InputError("arrow belongs to an algebra of a different shape")

    def source(self, g: IsometryArrow) -> AlgebraElement:
        self._check_structure(g)
        return g.u.adjoint() @ g.u

    def target(self, g: IsometryArrow) -> AlgebraElement:
        self._check_structure(g)
        return g.u @ g.u.adjoint()

    def compose(self, g1: IsometryArrow, g2: IsometryArrow) -> IsometryArrow:
        self._check_structure(g1)
        self._check_structure(g2)
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
        return emax((x @ x - x).norm(), (x.adjoint() - x).norm())

    def _base_scale(self, x: AlgebraElement):
        return epow(x.norm(), 2)

    def base_distance(self, x, y):
        return x.distance(y)

    def arrow_distance(self, g1, g2):
        return g1.u.distance(g2.u)

    def arrow_scale(self, g):
        return emax(g.u.norm(), 1.0)

    def stack_arrows(self, arrows) -> IsometryArrow:
        for g in arrows:
            self._check_structure(g)
        return IsometryArrow(AlgebraElement.stack([g.u for g in arrows]))

    def sample_base_point(self, rng) -> AlgebraElement:
        return sampling.random_projection(rng, self.shape)

    def sample_arrow(self, rng) -> IsometryArrow:
        return IsometryArrow(sampling.random_partial_isometry(rng, self.shape))

    def arrow_from(self, p: AlgebraElement, rng) -> IsometryArrow:
        self.check_base(p)
        return self.arrow_at(p, self.arrow_noise(rng))

    def arrow_noise(self, rng) -> tuple:
        return (sampling.random_hermitian_element(rng, self.shape, scale=0.4),
                sampling.random_hermitian_element(rng, self.shape, scale=0.4))

    def arrow_at(self, p: AlgebraElement, noise: tuple) -> IsometryArrow:
        one = AlgebraElement.identity(self.shape)
        h1, h0 = noise
        h2 = p @ h0 @ p + (one - p) @ h0 @ (one - p)  # Hermitian, commutes with p
        u = expm_element(1j * h1) @ p @ expm_element(1j * h2)
        return IsometryArrow(u)

    def chart_differential(self, g: IsometryArrow):
        self._check_structure(g)
        u, uh = g.u.blocks, g.u.adjoint().blocks
        one = AlgebraElement.identity(self.shape).blocks
        adj = adjoint_matrix(self.shape)
        hermitian_part = 0.5 * (np.eye(adj.shape[0]) + adj)
        # chart (H1, H2) -> e^{iH1} u e^{iH2} over Hermitian parts; at 0: i(H1 u + u H2)
        i_one, i_u = [1j * b for b in one], [1j * b for b in u]
        j_arrow = np.hstack([sandwich_matrix(i_one, u) @ hermitian_part,
                             sandwich_matrix(i_u, one) @ hermitian_part])
        ds = sandwich_matrix(one, u) @ adj + sandwich_matrix(uh, one)  # du* u + u* du
        dt = sandwich_matrix(one, uh) + sandwich_matrix(u, one) @ adj  # du u* + u du*
        return j_arrow, ds, dt

    def tangent_vector(self, g, coords):
        return AlgebraElement.from_real_coords(self.shape, coords)

    def base_tangent(self, p, tol):
        adj = adjoint_matrix(self.shape)
        system = np.vstack([_idempotent_linearization(p), adj - np.eye(adj.shape[0])])
        return kernel_basis(system, tol)

    def orbit_signature(self, p, tol):
        return tuple(numerical_rank(b, tol) for b in p.blocks)


class ActionGroupoid(Groupoid):
    """Action groupoid of the tautological GL(n, R) action on R^n.

    Arrows are pairs (x, g) with source x and target g.x; composition of
    (y, h) after (x, g) requires y = g.x and yields (x, hg).
    """

    kind = "action"

    def __init__(self, n: int, tol: ToleranceConfig = DEFAULT_TOL):
        super().__init__(tol)
        if n < 1:
            raise InputError("the action groupoid needs dimension >= 1")
        self.n = int(n)

    def _check_structure(self, g):
        if not isinstance(g, ActionArrow):
            raise InputError(f"foreign arrow of type {type(g).__name__}")
        if np.asarray(g.g).shape != (self.n, self.n) or len(g.point) != self.n:
            raise InputError("arrow dimensions do not match the configured action")

    def source(self, g: ActionArrow) -> np.ndarray:
        self._check_structure(g)
        return g.point_array

    def target(self, g: ActionArrow) -> np.ndarray:
        self._check_structure(g)
        return g.g_array @ g.point_array

    def compose(self, g1: ActionArrow, g2: ActionArrow) -> ActionArrow:
        self._check_structure(g1)
        self._check_structure(g2)
        self.require_composable(g1, g2)
        return ActionArrow.of(g2.point_array, g1.g_array @ g2.g_array)

    def invert(self, g: ActionArrow) -> ActionArrow:
        self._check_structure(g)
        ginv = np.linalg.inv(g.g_array)
        return ActionArrow.of(g.g_array @ g.point_array, ginv)

    def identity_at(self, x) -> ActionArrow:
        x = np.asarray(x, dtype=float)
        self.check_base(x)
        return ActionArrow.of(x, np.eye(self.n))

    def validate_arrow(self, g):
        self._check_structure(g)
        if numerical_rank(g.g_array, self.tol) < self.n:
            raise InputError("group component is numerically singular")

    def base_membership_residual(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return 0.0 if x.shape == (self.n,) else float("inf")

    def base_distance(self, x, y) -> float:
        return float(np.linalg.norm(np.asarray(x) - np.asarray(y)))

    def arrow_distance(self, g1, g2) -> float:
        return max(
            float(np.linalg.norm(g1.point_array - g2.point_array)),
            operator_norm(g1.g_array - g2.g_array),
        )

    def arrow_scale(self, g) -> float:
        return max(float(np.linalg.norm(g.point_array)), operator_norm(g.g_array))

    def sample_base_point(self, rng) -> np.ndarray:
        return rng.standard_normal(self.n)

    def sample_arrow(self, rng) -> ActionArrow:
        return ActionArrow.of(
            rng.standard_normal(self.n), sampling.random_invertible(rng, self.n)
        )

    def arrow_from(self, x, rng) -> ActionArrow:
        return ActionArrow.of(np.asarray(x, dtype=float), sampling.random_invertible(rng, self.n))

    def chart_differential(self, g: ActionArrow):
        self._check_structure(g)
        x, h, eye = g.point_array, g.g_array, np.eye(self.n)
        # chart (dx, V) -> (x + dx, e^V h); at 0: (dx, V h), row-major in V
        j_arrow = scipy.linalg.block_diag(eye, np.kron(eye, h.T))
        ds = np.hstack([eye, np.zeros((self.n, self.n * self.n))])
        dt = np.hstack([h, np.kron(eye, x[None, :])])  # h dx + dh x
        return j_arrow, ds, dt

    def tangent_vector(self, g, coords):
        n = self.n
        return coords[:n].copy(), coords[n:].reshape(n, n).copy()

    def base_tangent(self, x, tol):
        return np.eye(self.n)

    def orbit_signature(self, x, tol):
        norm = float(np.linalg.norm(np.asarray(x, dtype=float)))
        return "zero" if norm <= tol.residual_tol else "nonzero"


class PairGroupoid(Groupoid):
    """Pair groupoid of R^k: one arrow (x, y) from x to y for every pair.

    With ``pool_size`` set, base sampling draws from a fixed finite set of
    points, which makes all law residuals exactly zero.
    """

    kind = "pair"

    def __init__(
        self,
        dim: int,
        tol: ToleranceConfig = DEFAULT_TOL,
        pool_size: Optional[int] = None,
        pool_seed: int = 0,
    ):
        super().__init__(tol)
        if dim < 1:
            raise InputError("the pair groupoid needs dimension >= 1")
        self.dim = int(dim)
        self.pool = None
        if pool_size is not None:
            if pool_size < 1:
                raise InputError("point pool must be nonempty")
            pool_rng = np.random.default_rng(pool_seed)
            self.pool = pool_rng.standard_normal((int(pool_size), self.dim))

    def source(self, g: PairArrow) -> np.ndarray:
        self.validate_arrow(g)
        return np.asarray(g.x, dtype=float)

    def target(self, g: PairArrow) -> np.ndarray:
        self.validate_arrow(g)
        return np.asarray(g.y, dtype=float)

    def compose(self, g1: PairArrow, g2: PairArrow) -> PairArrow:
        self.validate_arrow(g1)
        self.validate_arrow(g2)
        self.require_composable(g1, g2)
        return PairArrow(g2.x, g1.y)

    def invert(self, g: PairArrow) -> PairArrow:
        self.validate_arrow(g)
        return PairArrow(g.y, g.x)

    def identity_at(self, x) -> PairArrow:
        x = np.asarray(x, dtype=float)
        self.check_base(x)
        return PairArrow.of(x, x)

    def validate_arrow(self, g):
        if not isinstance(g, PairArrow):
            raise InputError(f"foreign arrow of type {type(g).__name__}")
        if len(g.x) != self.dim or len(g.y) != self.dim:
            raise InputError("arrow dimensions do not match the configured space")

    def base_membership_residual(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return 0.0 if x.shape == (self.dim,) else float("inf")

    def base_distance(self, x, y) -> float:
        return float(np.linalg.norm(np.asarray(x) - np.asarray(y)))

    def arrow_distance(self, g1, g2) -> float:
        return max(
            float(np.linalg.norm(np.asarray(g1.x) - np.asarray(g2.x))),
            float(np.linalg.norm(np.asarray(g1.y) - np.asarray(g2.y))),
        )

    def sample_base_point(self, rng) -> np.ndarray:
        if self.pool is not None:
            return self.pool[int(rng.integers(0, len(self.pool)))]
        return rng.standard_normal(self.dim)

    def sample_arrow(self, rng) -> PairArrow:
        return PairArrow.of(self.sample_base_point(rng), self.sample_base_point(rng))

    def arrow_from(self, x, rng) -> PairArrow:
        return PairArrow.of(np.asarray(x, dtype=float), self.sample_base_point(rng))

    def chart_differential(self, g: PairArrow):
        self.validate_arrow(g)
        eye, zero = np.eye(self.dim), np.zeros((self.dim, self.dim))
        return np.eye(2 * self.dim), np.hstack([eye, zero]), np.hstack([zero, eye])

    def tangent_vector(self, g, coords):
        return coords[: self.dim].copy(), coords[self.dim :].copy()

    def base_tangent(self, x, tol):
        return np.eye(self.dim)

    def orbit_signature(self, x, tol):
        return "all"


class DisjointUnionGroupoid(Groupoid):
    """Disjoint union of groupoids; composition never crosses components."""

    kind = "disjoint_union"

    def __init__(self, parts: Sequence[Groupoid], tol: ToleranceConfig = DEFAULT_TOL):
        super().__init__(tol)
        if not parts:
            raise InputError("disjoint union needs at least one component")
        self.parts = list(parts)

    def _part(self, index: int) -> Groupoid:
        if not 0 <= index < len(self.parts):
            raise InputError(f"component index {index} out of range")
        return self.parts[index]

    def source(self, g: TaggedArrow):
        return (g.index, self._part(g.index).source(g.inner))

    def target(self, g: TaggedArrow):
        return (g.index, self._part(g.index).target(g.inner))

    def compose(self, g1: TaggedArrow, g2: TaggedArrow) -> TaggedArrow:
        if g1.index != g2.index:
            raise CompositionError(
                float("inf"), "arrows live in different components of the union"
            )
        return TaggedArrow(g1.index, self._part(g1.index).compose(g1.inner, g2.inner))

    def invert(self, g: TaggedArrow) -> TaggedArrow:
        return TaggedArrow(g.index, self._part(g.index).invert(g.inner))

    def identity_at(self, x) -> TaggedArrow:
        index, point = x
        return TaggedArrow(index, self._part(index).identity_at(point))

    def validate_arrow(self, g):
        if not isinstance(g, TaggedArrow):
            raise InputError(f"foreign arrow of type {type(g).__name__}")
        self._part(g.index).validate_arrow(g.inner)

    def base_membership_residual(self, x) -> float:
        index, point = x
        return self._part(index).base_membership_residual(point)

    def base_distance(self, x, y) -> float:
        if x[0] != y[0]:
            return float("inf")
        return self._part(x[0]).base_distance(x[1], y[1])

    def arrow_distance(self, g1, g2) -> float:
        if g1.index != g2.index:
            return float("inf")
        return self._part(g1.index).arrow_distance(g1.inner, g2.inner)

    def arrow_scale(self, g) -> float:
        return self._part(g.index).arrow_scale(g.inner)

    def sample_base_point(self, rng):
        index = int(rng.integers(0, len(self.parts)))
        return (index, self.parts[index].sample_base_point(rng))

    def sample_arrow(self, rng) -> TaggedArrow:
        index = int(rng.integers(0, len(self.parts)))
        return TaggedArrow(index, self.parts[index].sample_arrow(rng))

    def arrow_from(self, x, rng) -> TaggedArrow:
        index, point = x
        return TaggedArrow(index, self._part(index).arrow_from(point, rng))

    def chart_differential(self, g: TaggedArrow):
        return self._part(g.index).chart_differential(g.inner)

    def tangent_vector(self, g: TaggedArrow, coords):
        return self._part(g.index).tangent_vector(g.inner, coords)

    def base_tangent(self, x, tol):
        index, point = x
        return self._part(index).base_tangent(point, tol)

    def orbit_signature(self, x, tol):
        index, point = x
        return (index, self._part(index).orbit_signature(point, tol))


def make_groupoid(kind: str, tol: ToleranceConfig = DEFAULT_TOL, **config) -> Groupoid:
    """Factory keyed on the instance kind; configuration is kind-specific."""
    if kind == "ginv":
        return GInvGroupoid(config.get("shape", (2,)), tol)
    if kind == "partial_isometry":
        return PartialIsometryGroupoid(config.get("shape", (2,)), tol)
    if kind == "action":
        return ActionGroupoid(config.get("n", 2), tol)
    if kind == "pair":
        return PairGroupoid(
            config.get("dim", 3), tol,
            pool_size=config.get("pool_size"), pool_seed=config.get("pool_seed", 0),
        )
    if kind == "disjoint_union":
        return DisjointUnionGroupoid(config["parts"], tol)
    raise InputError(f"unknown groupoid kind {kind!r}")


def isometry_to_ginv(u: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL) -> GInvArrow:
    """Embed a partial isometry as the reflexive pair (u, u*); row by row,
    into a stack of pairs, for a stack of partial isometries.

    This map is an injective groupoid morphism: it commutes with source,
    target, composition and inversion.  ``u`` passes the same test as a
    ``partial_isometry`` arrow, else :class:`PreconditionError` (on a stack,
    when any row fails).
    """
    if _isometry_excess(u, tol) is not None:
        raise PreconditionError("isometry_to_ginv needs a partial isometry")
    return GInvArrow(GInvPair.create(u, u.adjoint(), tol))


# -- axiom verification ----------------------------------------------------------

#: Samples drawn and checked as one stacked pass; a fixed bound, so memory
#: stays bounded for any sample count.
_CHUNK = 256

_LAWS = {
    "G1 base membership": "s(g) and t(g) are base points",
    "G2 associativity": "(g3*g2)*g1 = g3*(g2*g1)",
    "G3 left identity": "1_t(g) * g = g",
    "G3 right identity": "g * 1_s(g) = g",
    "G4 left inverse": "inv(g) * g = 1_s(g)",
    "G4 right inverse": "g * inv(g) = 1_t(g)",
    "G4 source of inverse": "s(inv(g)) = t(g)",
}


class _LawBroken(Exception):
    """A row of a stacked pass broke a law; its chunk is checked one sample at a time."""


def _draw_chain(G: Groupoid, rng: np.random.Generator) -> tuple:
    """Three composable arrows ``g1, g2, g3`` and one loose arrow."""
    x0 = G.sample_base_point(rng)
    g1 = G.arrow_from(x0, rng)
    g2 = G.arrow_from(G.target(g1), rng)
    g3 = G.arrow_from(G.target(g2), rng)
    return g1, g2, g3, G.sample_arrow(rng)


def _draw_chains(G: Groupoid, rng: np.random.Generator, count: int) -> tuple:
    """``count`` chains as one stacked chain ``g1, g2, g3, loose``.

    Each chain's random inputs are drawn in the order :func:`_draw_chain`
    uses them (base point, three arrow noises, loose arrow), so when no draw
    raises the generator ends where ``count`` calls of it would, and row
    ``i`` is the chain the ``i``-th call would draw.  Raises when any row's
    arrow cannot be built.
    """
    rows, loose = [], []
    for _ in range(count):
        rows.append((G.sample_base_point(rng), *(G.arrow_noise(rng) for _ in range(3))))
        loose.append(G.sample_arrow(rng))
    x, *noises = stack_rows(rows)
    arrows = []
    for noise in noises:
        G.check_base(x)
        arrows.append(G.arrow_at(x, noise))
        x = G.target(arrows[-1])
    return (*arrows, G.stack_arrows(loose))


def _check_chain(G: Groupoid, chain: tuple, record, violation):
    """The law checks of one chain, single or stacked: ``record(law,
    residual, threshold)`` for every residual, ``violation(exc)`` for every
    arrow that fails validation."""
    scale = emax(*(G.arrow_scale(g) for g in chain))
    thr = G.tol.residual_tol * (1.0 + epow(scale, 3))

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


def _stacked_worst(G: Groupoid, rng: np.random.Generator, count: int) -> Optional[dict]:
    """Per-law worst residuals of ``count`` chains drawn and checked in one
    stacked pass, or ``None`` when any row breaks a law or the pass raises."""
    worst = dict.fromkeys(_LAWS, 0.0)

    def record(law, residual, threshold):
        if np.any(residual > threshold):
            raise _LawBroken
        worst[law] = max(worst[law], float(np.max(residual)))

    def violation(exc):
        raise _LawBroken from exc

    try:
        _check_chain(G, _draw_chains(G, rng, count), record, violation)
    except (GinvError, _LawBroken):
        return None
    return worst


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
    drawn or composed (any :class:`GinvError`) fails a ``law evaluation``
    record that names it.  ``extra_arrows`` lets a caller inject
    deliberately corrupted arrows as a negative control.

    For a kind with ``stack_arrows``, samples go in chunks of at most 256:
    the random inputs of a chunk's chains are drawn in the one-sample order
    (:func:`_draw_chains`), and the arrows are built and checked in one
    stacked pass that yields only the per-law worst residuals.  If any row
    breaks a law or the pass raises, the generator goes back to its state at
    the start of the chunk and the chunk's samples are drawn and checked
    again one at a time, which writes the failure texts.  Either way the
    report equals, byte for byte, the one that checking every sample alone
    would give.  Other kinds draw and check one sample at a time.
    """
    if n_samples < 1:
        raise InputError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)

    worst = dict.fromkeys(_LAWS, 0.0)
    failures: list[str] = []

    def record(law: str, residual: float, threshold: float, context: str):
        worst[law] = max(worst[law], residual)
        if residual > threshold:
            failures.append(f"{law} violated ({residual:.3e} > {threshold:.3e}) at {context}")

    def check_sample(k: int, chain: tuple):
        context = f"sample {k}"
        _check_chain(
            G, chain,
            lambda law, residual, threshold: record(law, residual, threshold, context),
            lambda exc: failures.append(f"G1 base membership violated at {context}: {exc}"),
        )

    sample_errors: list[str] = []
    for start in range(0, n_samples, _CHUNK):
        samples = range(start, min(start + _CHUNK, n_samples))
        if G.stack_arrows is not None:
            state = rng.bit_generator.state
            stacked = _stacked_worst(G, rng, len(samples))
            if stacked is not None:
                for law, value in stacked.items():
                    worst[law] = max(worst[law], value)
                continue
            rng.bit_generator.state = state
        for k in samples:
            try:
                check_sample(k, _draw_chain(G, rng))
            except GinvError as exc:
                sample_errors.append(f"sample {k}: {type(exc).__name__}: {exc}")

    injected_failures: list[str] = []
    for j, g in enumerate(extra_arrows or []):
        context = f"injected arrow {j}"
        try:
            G.validate_arrow(g)
            s, t = G.source(g), G.target(g)
            thr = G.tol.residual_tol * (1.0 + G.arrow_scale(g) ** 3)
            before = len(failures)
            record("G1 base membership",
                   max(G.base_membership_residual(s), G.base_membership_residual(t)),
                   thr, context)
            record("G3 right identity",
                   G.arrow_distance(G.compose(g, G.identity_at(s)), g), thr, context)
            record("G4 right inverse",
                   G.arrow_distance(G.compose(g, G.invert(g)), G.identity_at(t)), thr, context)
            injected_failures.extend(failures[before:])
        except GinvError as exc:
            injected_failures.append(
                f"arrow membership violated at {context}: {exc}"
            )

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
