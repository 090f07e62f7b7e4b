"""Numerical differential geometry of the groupoid instances.

Tangent spaces of the idempotent and projection manifolds are the kernels
of the linearized defining equations.  Arrow-space geometry (source-fiber
tangents, the anchor map, isotropy dimensions, submersion ranks) is read
off the exact differentials of exponential conjugation charts: each
groupoid instance builds, at any arrow, the differential of a smooth
overparametrization of a neighbourhood of the arrow that lands exactly on
the arrow manifold and is onto the arrow tangent space, together with the
differentials of its source and target maps.  Every downstream quantity is
a rank or a dimension and therefore chart-independent.

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

**The model point.**  Conjugation by an invertible element is an
automorphism of the ``ginv`` groupoid, so every dimension at an idempotent
``x = C p C^-1`` is the one at ``p``.  Each kind names such a ``p``
(:meth:`~ginv.groupoid.Groupoid.orthogonal_model`): for ``ginv`` the range
projection of ``x``, conjugated to ``x`` by ``C = 1 - (x - p)``; for every
other kind the point itself.  The range is read from the singular values
of ``x`` at the cutoff 1/2 (:data:`~ginv.groupoid.RANGE_CUTOFF`), which
needs no margin of its own: the singular values of an idempotent are 0 or
at least 1, at any norm.  Every rank decision at a base point is then made
once, at ``1_p``, where ``p`` and every differential have norm of order 1,
whatever the norm of ``x``; ranked at ``x`` itself, the cutoff relative to
a norm of order ``|x|^2`` loses small singular values long before ``x``
stops being an idempotent.  The public tangent basis, fiber basis and
anchor matrix are built when first read, and factored at ``x`` itself, by
the same decompositions with the column counts decided at ``p``: they are
as backward accurate as a factorization at ``x`` can be, and no rank is
decided there.  Carried from ``p`` by ``Ad_C`` instead, they would lose
``|C| |C^-1|``, of order ``|x|^2``, to rounding.

**The frame.**  At an arrow, one thin singular value decomposition of the
chart differential ``j_arrow`` gives an orthonormal frame ``Q`` of the arrow
tangent space: its rank is decided at the cutoff of ``j_arrow``'s shape
against its own largest singular value, ``scale``, the norm of the chart
differential.  At an identity arrow each kind factors ``j_arrow`` from the
point alone (:meth:`~ginv.groupoid.Groupoid.identity_frame`), at ``1_p``
for the dimensions and at ``1_x`` for the bases.  For ``ginv`` the chart at
``1_x = (x, x)``, ``(U, W) -> (U x + x W, -(x U + W x))``, splits: in the
orthogonal coordinates ``S = (U + W) / sqrt 2``, ``D = (U - W) / sqrt 2``
of the parameters and ``(A - B) / sqrt 2``, ``(A + B) / sqrt 2`` of the
image it is ``S -> S x + x S`` beside ``D -> D x - x D``.  One stacked
decomposition of these two ``n^2 x n^2`` blocks, in place of the
``2n^2 x 2n^2`` one, gives the singular values, their union in descending
order, and the frame; the ranks are decided at ``j_arrow``'s shape and
norm as before.  So the model arrow ``1_p`` is never built: ``p`` passes
the base check, which bounds the reflexivity residual of ``(p, p)`` as
well, ``|p p p - p| <= (1 + |p|) |p p - p|``.  The identity arrows of the
other kinds take the dense decomposition of
:meth:`~ginv.groupoid.Groupoid.chart_differential`.  On the frame, the
source differential is ``ds Q``; its kernel ``K``, decided at ``ds Q``'s
shape, spans the source fiber, and ``Q K`` is an orthonormal fiber basis.
The target differential on the fiber, ``dt Q K``, is decided at the shape
of the stack ``[ds Q; dt Q]``: that stack has rank
``rank(ds Q) + rank(dt Q K)``, the submersion rank, and kernel
``K ker(dt Q K)``, the joint kernel, whose real column count is the
isotropy dimension.  The anchor matrix has the singular values of
``dt Q K``, so its rank is decided on those, at its own shape.  Each of
these decisions is measured against ``scale``, so that a piece that
vanishes up to rounding, such as ``ds Q`` at full rank, has rank 0.

The answers at one base point ``x`` are parts of one object, the
:class:`PointGeometry` that :func:`at` returns: the base tangent basis, the
fiber and anchor, the isotropy dimension and the submersion rank at
``1_x``, whose target ``2 dim T_x`` is read from that same tangent space,
since ``s(1_x) = t(1_x) = x``.  Whether ``x`` is a base point is decided
once, by the kind's own base check.  The object builds the model, the
identity arrow ``1_x``, the linearization and the base tangent basis once
each, on first use, and only when an answer reads them; its arrays are
read-only.
Callers that ask for several answers hold one object per point.  The free
functions read the same objects, so :func:`at` keeps the last one it made
and hands it back when the groupoid's class and parameters, the point and
the tolerance all equal its own by exact value.  A point is held only once
it has passed the base check, and the object handed back is the one a
fresh call would build, so no answer depends on call history.

**Arrows.**  A local bisection through an arrow ``g: x -> y`` defines a
left translation: a local diffeomorphism of the arrow manifold that
carries ``1_x`` to ``g``, keeps the source map, and moves the target map
by a local diffeomorphism of the base (Mackenzie, *General Theory of Lie
Groupoids and Lie Algebroids*, 2005, on admissible sections).  So the
rank of ``T(s, t)`` at ``g`` is its rank at ``1_x``, and
:func:`submersion_rank_st` answers ``g`` from the objects at its ends:
the rank of the one at ``x = s(g)``, and the tangent dimensions of both.
An identity arrow is answered from its own point's object instead: each
kind names the one base point ``x`` whose identity arrow an arrow ``g``
can be, and ``g`` is ``1_x`` when the object's identity arrow equals it
by exact value.  Since ``s(1_x)`` is ``x`` only up to rounding, its
translation would build the object at ``x`` again.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .algebra import AlgebraElement, same_value
from .errors import InputError, PreconditionError
from .groupoid import ChartFrame, GInvGroupoid, Groupoid, PartialIsometryGroupoid
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    kernel_basis,
    map_rank,
    map_rank_count,
    real_degree,
    realify,
    singular_values,
)
from .reports import CheckRecord, ExperimentReport


def _read_only(m: np.ndarray) -> np.ndarray:
    """A read-only view of ``m``; ``m`` itself stays as it was."""
    view = np.asarray(m).view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True, eq=False)
class TangentBasis:
    """Orthonormal basis of a real tangent space of dimension ``real_dim``.

    ``coords`` holds the basis as columns in the fixed real
    coordinatization.  Most callers need only the dimension, so ``coords``
    is built on first access, by ``build``.  Two bases are equal when their
    base points and ``coords`` are, exactly; bases are not hashable.
    """

    base_point: object
    real_dim: int
    build: Callable = field(repr=False)

    def __eq__(self, other):
        if not isinstance(other, TangentBasis):
            return NotImplemented
        return same_value(self.base_point, other.base_point) and np.array_equal(
            self.coords, other.coords)

    __hash__ = None

    @functools.cached_property
    def coords(self) -> np.ndarray:
        return _read_only(self.build())


@dataclass(frozen=True, eq=False)
class AnchorData:
    """Source-fiber tangent basis and the induced anchor map at a base point,
    the point of ``fiber_basis``.

    ``anchor_matrix`` expresses the differential of the target map,
    restricted to the fiber tangent space, against an orthonormal basis of
    the base tangent space: rows index base tangent directions, columns the
    fiber basis.  Like the bases, it is built on first access, by
    ``build``; ``anchor_rank`` is its rank.
    """

    fiber_basis: TangentBasis
    anchor_rank: int
    build: Callable = field(repr=False)

    @functools.cached_property
    def anchor_matrix(self) -> np.ndarray:
        return _read_only(self.build())


# -- the linearization at an arrow -------------------------------------------------


class _Linearization(NamedTuple):
    """What the answers at one arrow read, for one tolerance, read-only, in
    the kind's own coordinates (complex for ``ginv``): an orthonormal frame
    ``frame`` of the arrow tangent space in ambient arrow coordinates, the
    norm ``scale`` of the chart differential (the scale of every rank
    decision), the column count ``fiber_columns`` of the kernel ``K`` of the
    source differential on the frame, ``Q = frame``, which the orthonormal
    fiber basis ``Q K`` has, the real rank ``st_rank`` of the stacked source
    and target differentials, the real dimension ``isotropy_dim`` of their
    joint kernel, and the singular values ``fiber_image`` of the target
    differential on the fiber, ``dt Q K``.

    ``[ds Q; dt Q]`` has rank ``rank(ds Q) + rank(dt Q K)`` and kernel
    ``K ker(dt Q K)``: the factorizations of the chart differential, of
    ``ds Q`` and of ``dt Q K`` give all of these, and the rank of
    ``dt Q K`` is decided at the cutoff of ``[ds Q; dt Q]``.  Neither the
    stack nor any factor past these is kept."""

    frame: np.ndarray
    scale: float
    fiber_columns: int
    st_rank: int
    isotropy_dim: int
    fiber_image: np.ndarray


def _fiber_frame(chart: ChartFrame, tol: ToleranceConfig, dims: tuple | None = None) -> tuple:
    """``(Q, F, dt, scale)`` at the arrow of the factored chart differential
    ``chart``: the orthonormal frame ``Q`` of the arrow tangent space, its
    leading left singular vectors, the orthonormal fiber basis ``F = Q K``
    with ``K`` the kernel of the source differential on the frame, ``ds Q``,
    the ambient target differential and the norm of the chart differential.
    The ranks of the chart differential and of ``ds Q`` are decided for
    ``tol``; given ``dims``, the column counts of ``Q`` and ``K`` decided at
    a conjugate arrow, they are not decided but taken from there."""
    s = chart.s
    scale = float(s[0]) if s.size else 0.0
    frame_dim, kernel_dim = dims or (map_rank_count(s, chart.shape, real_degree(chart.u), tol),
                                     None)
    frame = chart.u[:, :frame_dim]
    return frame, frame @ kernel_basis(chart.ds @ frame, tol, scale, kernel_dim), chart.dt, scale


def _linearize(chart: ChartFrame, tol: ToleranceConfig) -> _Linearization:
    """The linearization for ``tol`` at the arrow of the factored chart
    differential ``chart``."""
    frame, fiber, dt, scale = _fiber_frame(chart, tol)
    degree, (frame_dim, fiber_dim) = real_degree(frame), (frame.shape[1], fiber.shape[1])
    # the rank of dt Q K is a rank of [ds Q; dt Q], so it takes that stack's cutoff
    # (source and target land in one base, so ds has the rows of dt)
    t_singular = singular_values(dt @ fiber)
    t_rank = map_rank_count(t_singular, (2 * dt.shape[0], frame_dim), degree, tol, scale)
    st_rank = degree * (frame_dim - fiber_dim + t_rank)
    isotropy = degree * (fiber_dim - t_rank)
    return _Linearization(_read_only(frame), scale, fiber_dim, st_rank, isotropy,
                          _read_only(t_singular))


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
    def _model(self):
        """The model point ``p`` of
        :meth:`~ginv.groupoid.Groupoid.orthogonal_model`."""
        return self.groupoid.orthogonal_model(self.point)

    @functools.cached_property
    def _lin(self) -> _Linearization:
        """The linearization at ``1_p``, once ``1_x`` is built, from the
        chart differential that the kind factors at ``p``
        (:meth:`~ginv.groupoid.Groupoid.identity_frame`) once ``p`` has
        passed the base check."""
        self.identity  # PreconditionError when the kind refuses 1_x
        G, p = self.groupoid, self._model
        if p is not self.point:
            G.check_base(p)
        return _linearize(G.identity_frame(p), self.tol)

    @functools.cached_property
    def _tangent_dims(self) -> tuple:
        """``(columns, real dimension)`` of the base tangent space at ``p``,
        the columns in the kind's coordinates: the nullity of the kind's
        linear system at ``p``, from its singular values alone."""
        system = self.groupoid.base_tangent_system(self._model)
        columns = system.shape[1] - map_rank(system, self.tol) // real_degree(system)
        return columns, real_degree(system) * columns

    @functools.cached_property
    def _tangent(self) -> Callable:
        """A function of no arguments that returns the orthonormal basis of
        the base tangent space at the point, in the kind's ambient base
        coordinates, factored there on its first call with the column
        count decided at ``p``.  Like every builder the answers hold, it
        holds no reference to this object, which holds the answers: such a
        cycle would keep the factorizations alive until the garbage
        collector's next full pass."""
        G, x, columns = self.groupoid, self.point, self._tangent_dims[0]
        return functools.cache(lambda: _read_only(G.base_tangent(x, columns)))

    @functools.cached_property
    def tangent(self) -> TangentBasis:
        """Orthonormal basis of the base tangent space at the point."""
        x, basis = self.point, self._tangent
        return TangentBasis(base_point=x, real_dim=self._tangent_dims[1],
                            build=lambda: _real_coords(basis(), x))

    @functools.cached_property
    def anchor(self) -> AnchorData:
        """Source-fiber tangent space at ``1_x`` and the anchor map (the
        differential of the target map restricted to that fiber).

        The fiber tangent space is the kernel of the source differential in
        the tangent space; the anchor matrix expresses the target
        differential on that basis against the orthonormal basis
        :attr:`tangent`.  The target differential maps the fiber into the
        tangent space, on which that basis is an isometry, so the anchor
        matrix has the singular values of ``dt Q K`` at ``1_p``, as many as
        its shape allows: its rank is decided on those, at that shape.  For
        a complex linearization both bases realify to ``[V, iV]``, so the
        anchor matrix is the realified ``[[Re M, -Im M], [Im M, Re M]]`` of
        the complex one ``M``.

        At a conditioned ``ginv`` point the fiber basis is backward-stable
        but not a reproducible subspace: one rounding of ``x`` moves it by a
        principal angle of up to 0.14 at condition 1e8, so only its
        residuals, such as ``|ds F|``, are meaningful there.
        """
        lin, x, tangent = self._lin, self.point, self._tangent
        degree, shape = real_degree(lin.frame), (self._tangent_dims[0], lin.fiber_columns)
        singular = lin.fiber_image[:min(shape)]  # the anchor matrix has no more
        rank = degree * map_rank_count(singular, shape, degree, self.tol, lin.scale)
        # factored at 1_x, with the column counts decided at 1_p
        G, tol, dims = self.groupoid, self.tol, (lin.frame.shape[1], shape[1])
        at_x = functools.cache(lambda: _fiber_frame(G.identity_frame(x), tol, dims))

        def anchor_matrix():
            _, fiber, dt, _ = at_x()
            anchor = tangent().conj().T @ (dt @ fiber)
            return realify(anchor) if np.iscomplexobj(anchor) else anchor

        basis = TangentBasis(base_point=x, real_dim=degree * lin.fiber_columns,
                             build=lambda: _real_coords(at_x()[1], x))
        return AnchorData(fiber_basis=basis, anchor_rank=rank, build=anchor_matrix)

    @functools.cached_property
    def isotropy_dim(self) -> int:
        """Real dimension of the joint kernel of the source and target
        differentials at ``1_x``, read at ``1_p`` on the frame of the arrow
        tangent space, where it needs no rank of its own."""
        return self._lin.isotropy_dim

    @functools.cached_property
    def submersion(self) -> tuple:
        """``(rank T(s, t), 2 dim T(base))`` at ``1_x``.  Since
        ``s(1_x) = t(1_x) = x``, the target is twice the real dimension of
        the tangent space :attr:`tangent` spans."""
        return self._lin.st_rank, 2 * self.tangent.real_dim


#: The last object :func:`at` made.
_HELD: PointGeometry | None = None


def at(G: Groupoid, x, tol: ToleranceConfig | None = None) -> PointGeometry:
    """The geometry of ``G`` at the base point ``x`` for ``tol``, by default
    ``G.tol`` (as for every function below that takes ``G``);
    :class:`PreconditionError` when ``x`` fails ``G``'s base check."""
    global _HELD
    tol = G.tol if tol is None else tol
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


def fiber_and_anchor(G: Groupoid, x, tol: ToleranceConfig | None = None) -> AnchorData:
    """:attr:`PointGeometry.anchor` of ``at(G, x, tol)``."""
    return at(G, x, tol).anchor


def isotropy_tangent_dim(G: Groupoid, x, tol: ToleranceConfig | None = None) -> int:
    """:attr:`PointGeometry.isotropy_dim` of ``at(G, x, tol)``."""
    return at(G, x, tol).isotropy_dim


def submersion_rank_st(G: Groupoid, g, tol: ToleranceConfig | None = None):
    """Rank of the combined source-target differential at an arrow, paired
    with the dimension it must reach for local transitivity.

    Returns ``(rank T(s, t) at g, dim T(base) at s(g) + dim T(base) at t(g))``;
    the two agree exactly when the groupoid is locally transitive at ``g``.
    At an identity arrow ``1_x`` this is :attr:`PointGeometry.submersion`
    of ``at(G, x, tol)``, decided at the model point, whose target is
    ``2 dim T(base)`` at ``x`` itself.  At any other arrow the rank is the
    one at ``1_{s(g)}``, which a left translation carries to ``g``, and
    each base tangent dimension is that of the object at its end, so every
    rank is decided at a model point.  :class:`PreconditionError` when an
    end of such an arrow fails ``G``'s base check, or ``G`` refuses the
    identity arrow at its source.
    """
    G.validate_arrow(g)
    try:  # the one point whose identity arrow g can be
        point = at(G, G._identity_candidate(g), tol)
        is_identity = point.identity == g
    except PreconditionError:  # not a base point, or no identity arrow there
        is_identity = False
    if is_identity:
        return point.submersion
    source = at(G, G.source(g), tol)
    return (source.submersion[0],
            source.tangent.real_dim + at(G, G.target(g), tol).tangent.real_dim)


# -- orbits -----------------------------------------------------------------------


def orbit_classes(G: Groupoid, points: Sequence, tol: ToleranceConfig | None = None) -> dict:
    """The orbit classes of the base points ``points``: each signature of
    :meth:`~ginv.groupoid.Groupoid.orbit_signature`, in order of first
    appearance, with the indices of its points.

    The points are stacked, checked by one ``check_base`` and classified by
    one ``orbit_signature`` call.  When the stacked check fails, the points
    are checked one by one, so that the first failing point is named.
    """
    if len(points) == 0:
        return {}
    try:
        stack = G.stack_bases(points)
        G.check_base(stack)
    except InputError:
        for i, x in enumerate(points):
            try:
                G.check_base(x)
            except InputError as exc:
                raise PreconditionError(f"point {i} fails base membership: {exc}") from exc
        raise
    classes: dict = {}
    for i, sig in enumerate(G.orbit_signature(stack, G.tol if tol is None else tol)):
        classes.setdefault(sig, []).append(i)
    return classes


def orbit_decompose(
    G: Groupoid, points: Sequence, tol: ToleranceConfig | None = None
) -> ExperimentReport:
    """Partition base points into orbit classes by the complete invariant
    (:func:`orbit_classes`), as a report."""
    return orbit_report(G, orbit_classes(G, points, tol), len(points), tol)


def orbit_report(G: Groupoid, classes: dict, n_points: int,
                 tol: ToleranceConfig | None = None) -> ExperimentReport:
    """The report of :func:`orbit_decompose` on ``n_points`` base points whose
    :func:`orbit_classes` are ``classes``."""
    tol = G.tol if tol is None else tol
    report = ExperimentReport(
        suite=f"orbit-decompose-{G.kind}",
        config={"kind": G.kind, "n_points": n_points, "residual_tol": tol.residual_tol},
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
            passed=sum(len(v) for v in classes.values()) == n_points,
            value=len(classes),
        )
    )
    return report
