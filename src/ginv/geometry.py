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

The source differential ``j_s`` and the target differential ``j_t`` are
read through one singular value decomposition of ``j_s`` and one of
``j_t K``, the target differential on ``K = ker j_s``.  ``K`` spans the
source fiber in the chart; the stacked ``[j_s; j_t]`` has rank
``rank j_s + rank(j_t K)``, the submersion rank, and kernel
``K ker(j_t K)``, the joint kernel that the isotropy dimension is read
from.  The norm of the whole differential ``[j_arrow; j_s; j_t]`` is the
square root of the top eigenvalue of its Gram matrix.  Base tangent
dimensions (at the source and target of an arrow) come from the singular
values of the kind's linear system alone; only the tangent space itself
needs a kernel basis.

Every caller asks for several of these quantities at one point, all on the
same identity arrow.  So the module keeps two small memos.  One holds the
linearization at the last arrow and tolerance: the chart differential, the
ambient target differential, the norm, the source kernel, the submersion
rank and the joint kernel, all built when the entry is made.  The other
holds the base tangent bases at the last two base points, so that a caller
may ask for the tangent spaces at two points before it reads the anchors
there.  Each entry is keyed by a digest of the groupoid's class, its
defining parameters, the exact bytes of the arrow or point, and the
tolerance, since both hold rank decisions.  A hit returns the very arrays
a fresh computation would, so no answer depends on call history; every
membership and precondition check still runs on every call, and cached
arrays are read-only.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .algebra import AlgebraElement, classify, same_value
from .errors import InputError, PreconditionError
from .groupoid import GInvGroupoid, Groupoid, PartialIsometryGroupoid
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    kernel_basis,
    numerical_rank,
    orthonormal_range,
    rank_from_singular_values,
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


# -- memos -------------------------------------------------------------------------


class _LastResult:
    """The results for the last ``size`` keys computed.

    The entries are one tuple of ``(key, value)`` pairs, newest first, read
    and replaced whole, so a reader never pairs one key with another key's
    value.
    """

    def __init__(self, size: int):
        self.size = size
        self._entries = ()

    def get(self, key: bytes, compute):
        for last_key, value in self._entries:
            if last_key == key:
                return value
        value = compute()
        self._entries = ((key, value), *self._entries[: self.size - 1])
        return value


_LINEARIZATION = _LastResult(1)
_BASE_TANGENT = _LastResult(2)  # two points, such as a q and a p read in turn


def _leaf(h, tag: bytes, data: bytes) -> None:
    h.update(tag + len(data).to_bytes(8, "little") + data)


def _feed(h, item) -> None:
    """Feed ``item`` to the hash ``h``, each leaf tagged and length-prefixed:
    arrays and numpy scalars by dtype, shape and bytes, other scalars by
    their exact ``repr``, dataclasses (arrows, elements, tolerances) by
    class and fields, and sequences item by item."""
    if isinstance(item, (np.ndarray, np.generic)):
        if item.dtype.hasobject:  # its bytes would be addresses, not content
            raise TypeError("cannot key geometry on an object array")
        _leaf(h, b"a", f"{item.dtype.str}{item.shape}".encode())
        _leaf(h, b"b", np.ascontiguousarray(item).tobytes())
    elif item is None or isinstance(item, (str, int, float)):
        _leaf(h, b"r", repr(item).encode())
    elif isinstance(item, (tuple, list)):
        _leaf(h, b"(", str(len(item)).encode())
        for part in item:
            _feed(h, part)
    elif dataclasses.is_dataclass(item):
        _leaf(h, b"d", f"{type(item).__module__}.{type(item).__qualname__}".encode())
        for f in dataclasses.fields(item):
            _feed(h, getattr(item, f.name))
    else:
        raise TypeError(f"cannot key geometry on a {type(item).__name__}")


def _digest(G: Groupoid, item, *extra) -> bytes:
    import hashlib  # here, not at import: it loads OpenSSL, a cost every CLI start would pay

    h = hashlib.blake2b(digest_size=32)
    _feed(h, (G.geometry_key(item), extra))
    return h.digest()


def _base_tangent(G: Groupoid, x, tol: ToleranceConfig) -> np.ndarray:
    """``G.base_tangent(x, tol)``, read-only, through its memo."""
    return _BASE_TANGENT.get(_digest(G, x, tol), lambda: _read_only(G.base_tangent(x, tol)))


class _Linearization(NamedTuple):
    """What the answers at one arrow read, for one tolerance, read-only, in
    the chart unless stated: the chart differential ``j_arrow``, the ambient
    target differential ``dt``, the norm ``scale`` of the whole chart
    differential ``[j_arrow; j_s; j_t]`` (the scale of every rank decision
    on its pieces), the kernel ``source_kernel`` of the source differential
    ``j_s``, the rank ``st_rank`` of the stacked source and target
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
    """The linearization at ``arrow`` for ``tol``, through the one-entry
    memo.  ``arrow`` must have passed ``G``'s checks."""
    def compute():
        j_arrow, ds, dt = G.chart_differential(arrow)
        j_s, j_t = ds @ j_arrow, dt @ j_arrow
        # the top singular value of the stack, from the top eigenvalue of its Gram matrix
        gram = j_arrow.T @ j_arrow + j_s.T @ j_s + j_t.T @ j_t
        scale = float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))
        k_source = kernel_basis(j_s, tol, scale)
        # the rank of j_t K is a rank of [j_s; j_t], so it takes that stack's cutoff
        _, t_singular, t_vh = np.linalg.svd(j_t @ k_source)
        t_rank = rank_from_singular_values(
            t_singular, (j_s.shape[0] + j_t.shape[0], j_s.shape[1]), tol, scale)
        st_rank = j_s.shape[1] - k_source.shape[1] + t_rank
        joint = k_source @ t_vh[t_rank:].conj().T
        j_arrow, dt, k_source, joint = map(_read_only, (j_arrow, dt, k_source, joint))
        return _Linearization(j_arrow, dt, scale, k_source, st_rank, joint)

    return _LINEARIZATION.get(_digest(G, arrow, tol), compute)


# -- tangent spaces of the base manifolds ------------------------------------------


def tangent_basis(
    manifold: str, x: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL
) -> TangentBasis:
    """Tangent space of the idempotent manifold (``"Q"``) or the projection
    manifold (``"P"``) at ``x``.

    Solves ``{v : xv + vx - v = 0}`` (plus ``v* = v`` for projections) as
    the kernel of its exact real matrix; the returned basis is orthonormal.
    """
    if manifold not in ("Q", "P"):
        raise InputError("manifold must be 'Q' or 'P'")
    cls = classify(x, tol)
    if manifold == "Q" and not cls.idempotent:
        raise PreconditionError("point is not an idempotent")
    if manifold == "P" and not cls.projection:
        raise PreconditionError("point is not an orthogonal projection")

    G = GInvGroupoid(x.shape, tol) if manifold == "Q" else PartialIsometryGroupoid(x.shape, tol)
    return TangentBasis(base_point=x, coords=_base_tangent(G, x, tol),
                        to_vector=functools.partial(AlgebraElement.from_real_coords, x.shape))


def base_tangent_dim(G: Groupoid, x, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Dimension of the base tangent space at ``x``: the nullity of the
    kind's linear system, from its singular values alone."""
    system = G.base_tangent_system(x)
    return system.shape[1] - numerical_rank(system, tol)


# -- fiber, anchor, isotropy, submersion -------------------------------------------


def _identity_arrow(G: Groupoid, x):
    try:
        return G.identity_at(x)
    except InputError as exc:
        raise PreconditionError(str(exc)) from exc


def fiber_and_anchor(G: Groupoid, x, tol: ToleranceConfig = DEFAULT_TOL) -> AnchorData:
    """Source-fiber tangent space at the identity arrow over ``x`` and the
    anchor map (differential of the target map restricted to that fiber).

    The fiber tangent space is computed as the image, under the chart
    differential, of the kernel of the source differential; the anchor
    matrix expresses the target differential on that basis against an
    orthonormal basis of the base tangent space.
    """
    one_x = _identity_arrow(G, x)
    lin = _linearization(G, one_x, tol)
    fiber_hat = orthonormal_range(lin.j_arrow @ lin.source_kernel, tol, lin.scale)

    anchor_matrix = _base_tangent(G, x, tol).T @ (lin.dt @ fiber_hat)
    anchor_rank = numerical_rank(anchor_matrix, tol, lin.scale)

    basis = TangentBasis(base_point=x, coords=fiber_hat,
                         to_vector=functools.partial(G.tangent_vector, one_x))
    return AnchorData(
        base_point=x, fiber_basis=basis, anchor_matrix=anchor_matrix, anchor_rank=anchor_rank
    )


def isotropy_tangent_dim(G: Groupoid, x, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Dimension of the joint kernel of the source and target differentials
    at the identity arrow over ``x``, measured in ambient arrow coordinates."""
    lin = _linearization(G, _identity_arrow(G, x), tol)
    return numerical_rank(lin.j_arrow @ lin.joint_kernel, tol, lin.scale)


def submersion_rank_st(G: Groupoid, g, tol: ToleranceConfig = DEFAULT_TOL):
    """Rank of the combined source-target differential at an arrow, paired
    with the dimension it must reach for local transitivity.

    Returns ``(rank T(s, t) at g, dim T(base) at s(g) + dim T(base) at t(g))``;
    the two agree exactly when the groupoid is locally transitive at ``g``.
    """
    G.validate_arrow(g)
    rank = _linearization(G, g, tol).st_rank
    dims = base_tangent_dim(G, G.source(g), tol) + base_tangent_dim(G, G.target(g), tol)
    return rank, dims


# -- orbits -----------------------------------------------------------------------


def orbit_signature(G: Groupoid, x, tol: ToleranceConfig = DEFAULT_TOL):
    """Complete orbit invariant of a base point.

    Per-block numerical rank for the generalized-inverse and partial-
    isometry instances; zero versus nonzero for the tautological GL(n)
    action; a single class for the pair groupoid.
    """
    return G.orbit_signature(x, tol)


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
        classes.setdefault(orbit_signature(G, x, tol), []).append(i)

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
