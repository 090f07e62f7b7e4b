"""Numerical differential geometry of the groupoid instances.

Tangent spaces of the idempotent and projection manifolds are the kernels
of the linearized defining equations.  Arrow-space geometry (source-fiber
tangents, the anchor map, isotropy dimensions, submersion ranks) is read
off the exact differentials of exponential conjugation charts: each
groupoid instance builds, at any arrow, the differential of a smooth
overparametrization of a neighbourhood of the arrow that lands exactly on
the arrow manifold and is onto the arrow tangent space, together with the
differentials of its source and target maps.  Every downstream quantity is
a rank or a dimension and therefore chart-independent.  Each rank decision
on a piece of a chart differential uses the one relative cutoff, measured
against the norm of the whole differential.

Each kind builds its differentials in its own coordinates, and they are
factored as they are.  ``ginv`` is built from products in a complex
algebra, so its chart, source and target differentials and its base
tangent system are complex matrices, half the rows and half the columns
of their real matrices.  ``partial_isometry`` involves the adjoint, so its
differentials are real; its chart is taken over Hermitian elements, in an
orthonormal real basis of them (:func:`~ginv.linalg.hermitian_basis`), as
is its base tangent system.  Dimensions count real dimensions throughout: a
complex singular value counts as two, decided at the cutoff of the real
matrix's shape (:func:`~ginv.linalg.map_rank_count`), so every ``ginv``
decision is the one on the real matrix.  The public bases and the anchor
matrix are real and orthonormal in the fixed coordinatization: a complex
orthonormal basis ``V`` realifies to ``[V, iV]``.

The source differential ``j_s`` and the target differential ``j_t`` are
read through one singular value decomposition of ``j_s`` and one of
``j_t K``, the target differential on ``K = ker j_s``.  ``K`` spans the
source fiber in the chart; the stacked ``[j_s; j_t]`` has rank
``rank j_s + rank(j_t K)``, the submersion rank, and kernel
``K ker(j_t K)``, the joint kernel that the isotropy dimension is read
from.  The norm of the whole differential ``[j_arrow; j_s; j_t]`` is the
square root of the top eigenvalue of its Gram matrix.

The answers at one base point ``x`` are parts of one object, the
:class:`PointGeometry` that :func:`at` returns: the base tangent basis, the
fiber and anchor, the isotropy dimension and the submersion rank at
``1_x``, whose target ``2 dim T_x`` comes from that same tangent basis,
since ``s(1_x) = t(1_x) = x``.  Whether ``x`` is a base point is decided
once, by the kind's own base check.  The object builds the identity arrow,
the linearization and the base tangent basis once each, on first use, and
only when an answer reads them; its arrays are read-only.  Away from the
identity arrow, the submersion target adds the base tangent dimensions at
the source and the target of the arrow, from the singular values of the
kind's linear system alone.  Callers that ask for several answers hold one
object per point.  The free functions read the same objects, so :func:`at`
keeps the last one it made and hands it back when the groupoid's class and
parameters, the point and the tolerance all equal its own by exact value.
A point is held only once it has passed the base check, and the object
handed back is the one a fresh call would build, so no answer depends on
call history.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .algebra import AlgebraElement, same_value
from .errors import InputError, PreconditionError
from .groupoid import GInvGroupoid, Groupoid, PartialIsometryGroupoid
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    kernel_basis,
    map_rank,
    map_rank_count,
    orthonormal_range,
    real_degree,
    realify,
)
from .reports import CheckRecord, ExperimentReport


def _read_only(m: np.ndarray) -> np.ndarray:
    """A read-only view of ``m``; ``m`` itself stays as it was."""
    view = np.asarray(m).view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True, eq=False)
class TangentBasis:
    """Orthonormal basis of a real tangent space.

    ``coords`` holds the basis as columns in the fixed real
    coordinatization.  ``vectors`` holds the same basis as structured
    tangent vectors (elements, or component tuples for arrow spaces whose
    points are tuples); ``to_vector`` builds them from the columns of
    ``coords`` on first access, since most callers need only the dimension.
    Two bases are equal when their base points and ``coords`` are, exactly;
    bases are not hashable.
    """

    base_point: object
    coords: np.ndarray
    to_vector: Callable = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coords", _read_only(self.coords))

    def __eq__(self, other):
        if not isinstance(other, TangentBasis):
            return NotImplemented
        return same_value(self.base_point, other.base_point) and np.array_equal(
            self.coords, other.coords)

    __hash__ = None

    @property
    def real_dim(self) -> int:
        return self.coords.shape[1]

    @functools.cached_property
    def vectors(self) -> tuple:
        return tuple(self.to_vector(col) for col in self.coords.T)


@dataclass(frozen=True)
class AnchorData:
    """Source-fiber tangent basis and the induced anchor map at a base point.

    ``anchor_matrix`` expresses the differential of the target map,
    restricted to the fiber tangent space, against an orthonormal basis of
    the base tangent space: rows index base tangent directions, columns the
    fiber basis.
    """

    base_point: object
    fiber_basis: TangentBasis
    anchor_matrix: np.ndarray
    anchor_rank: int

    def __post_init__(self):
        object.__setattr__(self, "anchor_matrix", _read_only(self.anchor_matrix))
        if self.anchor_matrix.shape[1] != self.fiber_basis.real_dim:
            raise InputError("anchor matrix columns must match the fiber dimension")
        rows, cols = self.anchor_matrix.shape
        if self.anchor_rank > min(rows, cols):
            raise InputError("anchor rank exceeds the matrix dimensions")


# -- the linearization at an arrow -------------------------------------------------


class _Linearization(NamedTuple):
    """What the answers at one arrow read, for one tolerance, read-only, in
    the chart unless stated, and in the kind's own coordinates (complex for
    ``ginv``): the chart differential ``j_arrow``, the ambient target
    differential ``dt``, the norm ``scale`` of the whole chart differential
    ``[j_arrow; j_s; j_t]`` (the scale of every rank decision on its
    pieces), the kernel ``source_kernel`` of the source differential
    ``j_s``, the real rank ``st_rank`` of the stacked source and target
    differentials ``[j_s; j_t]``, and their joint kernel ``joint_kernel``.

    With ``K = source_kernel``, ``[j_s; j_t]`` has rank
    ``rank j_s + rank(j_t K)`` and kernel ``K ker(j_t K)``: the
    factorizations of ``j_s`` and of ``j_t K`` give all three, and the
    rank of ``j_t K`` is decided at the cutoff of ``[j_s; j_t]``.  Neither
    the stack nor any factor past these is kept."""

    j_arrow: np.ndarray
    dt: np.ndarray
    scale: float
    source_kernel: np.ndarray
    st_rank: int
    joint_kernel: np.ndarray


def _linearization(G: Groupoid, arrow, tol: ToleranceConfig) -> _Linearization:
    """The linearization at ``arrow`` for ``tol``.  ``arrow`` must have
    passed ``G``'s checks."""
    j_arrow, ds, dt = G.chart_differential(arrow)
    j_s, j_t = ds @ j_arrow, dt @ j_arrow
    # the top singular value of the stack, from the top eigenvalue of its Gram matrix
    gram = sum(m.conj().T @ m for m in (j_arrow, j_s, j_t))
    scale = float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))
    k_source = kernel_basis(j_s, tol, scale)
    # the rank of j_t K is a rank of [j_s; j_t], so it takes that stack's cutoff;
    # its kernel is read from the rows of V* past the rank, as in kernel_basis
    j_tk = j_t @ k_source
    _, t_singular, t_vh = np.linalg.svd(j_tk, full_matrices=j_tk.shape[0] < j_tk.shape[1])
    degree = real_degree(j_s)
    t_rank = map_rank_count(
        t_singular, (j_s.shape[0] + j_t.shape[0], j_s.shape[1]), degree, tol, scale)
    st_rank = degree * (j_s.shape[1] - k_source.shape[1] + t_rank)
    joint = k_source @ t_vh[t_rank:].conj().T
    j_arrow, dt, k_source, joint = map(_read_only, (j_arrow, dt, k_source, joint))
    return _Linearization(j_arrow, dt, scale, k_source, st_rank, joint)


def base_tangent_dim(G: Groupoid, x, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Dimension of the base tangent space at ``x``: the real nullity of
    the kind's linear system, from its singular values alone."""
    system = G.base_tangent_system(x)
    return real_degree(system) * system.shape[1] - map_rank(system, tol)


def _real_coords(basis: np.ndarray, x) -> np.ndarray:
    """The columns of ``basis``, in ambient coordinates at the base point
    ``x``, as a real orthonormal basis in the fixed coordinatization: a
    real basis as it is; a complex one (the complex coordinates of
    elements of ``x``'s shape, or of pairs of them) realified to
    ``[V, iV]``."""
    if not np.iscomplexobj(basis):
        return basis
    sizes = [n * n for n in x.shape]
    return realify(basis, sizes * (len(basis) // sum(sizes)))


# -- the geometry at a base point ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class PointGeometry:
    """The geometry of ``groupoid`` at the base point ``point`` for ``tol``;
    each answer is built on first use and kept.  Build it with :func:`at`."""

    groupoid: Groupoid
    point: object
    tol: ToleranceConfig

    def _of(self, G: Groupoid, tol: ToleranceConfig) -> bool:
        """Whether ``G`` is of this groupoid's class, with equal parameters,
        and ``tol`` is this tolerance, all exactly."""
        mine, theirs = vars(self.groupoid), vars(G)
        return (self.tol == tol and type(self.groupoid) is type(G) and mine.keys() == theirs.keys()
                and all(same_value(value, theirs[name]) for name, value in mine.items()))

    @functools.cached_property
    def identity(self):
        """The identity arrow ``1_x``; :class:`PreconditionError` when the
        groupoid refuses to build it."""
        try:
            return self.groupoid.identity_at(self.point)
        except InputError as exc:
            raise PreconditionError(str(exc)) from exc

    @functools.cached_property
    def _lin(self) -> _Linearization:
        return _linearization(self.groupoid, self.identity, self.tol)

    @functools.cached_property
    def _tangent(self) -> np.ndarray:
        """Orthonormal basis of the base tangent space at the point, in the
        kind's ambient base coordinates."""
        return _read_only(self.groupoid.base_tangent(self.point, self.tol))

    @functools.cached_property
    def tangent(self) -> TangentBasis:
        """Orthonormal basis of the base tangent space at the point."""
        x = self.point
        to_vector = (functools.partial(AlgebraElement.from_real_coords, x.shape)
                     if isinstance(x, AlgebraElement) else np.array)
        return TangentBasis(base_point=x, coords=_real_coords(self._tangent, x),
                            to_vector=to_vector)

    @functools.cached_property
    def anchor(self) -> AnchorData:
        """Source-fiber tangent space at ``1_x`` and the anchor map (the
        differential of the target map restricted to that fiber).

        The fiber tangent space is the image, under the chart differential,
        of the kernel of the source differential; the anchor matrix
        expresses the target differential on that basis against the
        orthonormal basis :attr:`tangent`.  For a complex linearization
        both bases realify to ``[V, iV]``, so the anchor matrix is the
        realified ``[[Re C, -Im C], [Im C, Re C]]`` of the complex one ``C``.
        """
        lin, tol, x = self._lin, self.tol, self.point
        fiber = orthonormal_range(lin.j_arrow @ lin.source_kernel, tol, lin.scale)
        anchor = self._tangent.conj().T @ (lin.dt @ fiber)
        rank = map_rank(anchor, tol, lin.scale)
        basis = TangentBasis(base_point=x, coords=_real_coords(fiber, x),
                             to_vector=functools.partial(self.groupoid.tangent_vector,
                                                         self.identity))
        anchor_matrix = realify(anchor) if np.iscomplexobj(anchor) else anchor
        return AnchorData(base_point=x, fiber_basis=basis, anchor_matrix=anchor_matrix,
                          anchor_rank=rank)

    @functools.cached_property
    def isotropy_dim(self) -> int:
        """Dimension of the joint kernel of the source and target
        differentials at ``1_x``, measured in ambient arrow coordinates."""
        lin = self._lin
        return map_rank(lin.j_arrow @ lin.joint_kernel, self.tol, lin.scale)

    @functools.cached_property
    def submersion(self) -> tuple:
        """``(rank T(s, t), 2 dim T(base))`` at ``1_x``.  Since
        ``s(1_x) = t(1_x) = x``, the target is twice the real dimension of
        the tangent space :attr:`tangent` solves."""
        return self._lin.st_rank, 2 * self.tangent.real_dim


#: The last object :func:`at` made.
_HELD: PointGeometry | None = None


def at(G: Groupoid, x, tol: ToleranceConfig = DEFAULT_TOL) -> PointGeometry:
    """The geometry of ``G`` at the base point ``x`` for ``tol``;
    :class:`PreconditionError` when ``x`` fails ``G``'s base check."""
    global _HELD
    if _HELD is not None and _HELD._of(G, tol) and same_value(_HELD.point, x):
        return _HELD
    if not isinstance(x, AlgebraElement):  # a copy its caller cannot change
        x = _read_only(np.array(x, dtype=float))
    try:
        G.check_base(x)
    except InputError as exc:
        raise PreconditionError(str(exc)) from exc
    _HELD = PointGeometry(G, x, tol)
    return _HELD


# -- the free functions --------------------------------------------------------------


def tangent_basis(
    manifold: str, x: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL
) -> TangentBasis:
    """Tangent space of the idempotent manifold (``"Q"``) or the projection
    manifold (``"P"``) at ``x``.

    Solves ``{v : xv + vx - v = 0}`` as the kernel of its exact matrix:
    complex for idempotents, real over the Hermitian ``v`` for projections;
    the returned basis is real and orthonormal.  ``x`` is a single element
    that passes the base check of ``GInvGroupoid`` (``"Q"``) or of
    ``PartialIsometryGroupoid`` (``"P"``) at ``tol``, else
    :class:`PreconditionError`.
    """
    if manifold not in ("Q", "P"):
        raise InputError("manifold must be 'Q' or 'P'")
    x._require_single("tangent_basis")
    G = GInvGroupoid(x.shape, tol) if manifold == "Q" else PartialIsometryGroupoid(x.shape, tol)
    return at(G, x, tol).tangent


def fiber_and_anchor(G: Groupoid, x, tol: ToleranceConfig = DEFAULT_TOL) -> AnchorData:
    """:attr:`PointGeometry.anchor` of ``at(G, x, tol)``."""
    return at(G, x, tol).anchor


def isotropy_tangent_dim(G: Groupoid, x, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """:attr:`PointGeometry.isotropy_dim` of ``at(G, x, tol)``."""
    return at(G, x, tol).isotropy_dim


def submersion_rank_st(G: Groupoid, g, tol: ToleranceConfig = DEFAULT_TOL):
    """Rank of the combined source-target differential at an arrow, paired
    with the dimension it must reach for local transitivity.

    Returns ``(rank T(s, t) at g, dim T(base) at s(g) + dim T(base) at t(g))``;
    the two agree exactly when the groupoid is locally transitive at ``g``.
    At the identity arrow of the point :func:`at` holds, once that object
    has built it, this reads the object's :attr:`PointGeometry.submersion`,
    whose target is ``2 dim T(base)`` at the point itself.
    """
    G.validate_arrow(g)
    held = _HELD
    if held is not None and held._of(G, tol) and same_value(vars(held).get("identity"), g):
        return held.submersion
    st_rank = _linearization(G, g, tol).st_rank
    return st_rank, base_tangent_dim(G, G.source(g), tol) + base_tangent_dim(G, G.target(g), tol)


# -- orbits -----------------------------------------------------------------------


def orbit_decompose(
    G: Groupoid, points: Sequence, tol: ToleranceConfig = DEFAULT_TOL
) -> ExperimentReport:
    """Partition base points into orbit classes by the complete invariant."""
    for i, x in enumerate(points):
        try:
            G.check_base(x)
        except InputError as exc:
            raise PreconditionError(f"point {i} fails base membership: {exc}") from exc

    classes: dict = {}
    for i, x in enumerate(points):
        classes.setdefault(G.orbit_signature(x, tol), []).append(i)

    report = ExperimentReport(
        suite=f"orbit-decompose-{G.kind}",
        config={"kind": G.kind, "n_points": len(points), "residual_tol": tol.residual_tol},
    )
    for sig in sorted(classes, key=repr):
        members = classes[sig]
        report.add(
            CheckRecord(
                name=f"class {sig}",
                anchor="orbit classes are the level sets of the rank signature",
                passed=True,
                value=len(members),
                details=f"representative index {members[0]}",
            )
        )
    report.add(
        CheckRecord(
            name="zz class count",
            anchor="the base partitions into orbit classes",
            passed=sum(len(v) for v in classes.values()) == len(points),
            value=len(classes),
        )
    )
    return report
