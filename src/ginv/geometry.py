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

Every caller asks for several of these quantities at one point, all on the
same identity arrow.  So the module keeps two one-entry memos: the
linearization at the last arrow (chart, source and target differentials
and their norm) and the base tangent basis at the last base point.  Each
is keyed by a digest of the groupoid's class, its defining parameters and
the exact bytes of the arrow or point, plus the tolerance for the base
tangent basis, the only one of the two that holds a rank decision.  A hit
returns the very arrays a fresh computation would, so no answer depends on
call history; every membership and precondition check still runs on every
call, and cached arrays are read-only.  Only the last entry is kept, so
nothing carries over from one point to the next.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import AlgebraElement, classify
from .errors import InputError, PreconditionError
from .groupoid import GInvGroupoid, Groupoid, PartialIsometryGroupoid
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    kernel_basis,
    numerical_rank,
    operator_norm,
    orthonormal_range,
)
from .reports import CheckRecord, ExperimentReport


def _read_only(m: np.ndarray) -> np.ndarray:
    """A read-only view of ``m``; ``m`` itself stays as it was."""
    view = np.asarray(m).view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True)
class TangentBasis:
    """Orthonormal basis of a real tangent space.

    ``vectors`` holds structured tangent vectors (elements, or component
    tuples for arrow spaces whose points are tuples); ``coords`` holds the
    same basis as columns in the fixed real coordinatization.
    """

    base_point: object
    vectors: tuple
    real_dim: int
    coords: np.ndarray

    def __post_init__(self):
        if self.real_dim != len(self.vectors):
            raise InputError("real_dim must equal the number of basis vectors")
        object.__setattr__(self, "coords", _read_only(self.coords))


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


# -- one-entry memos -----------------------------------------------------------------


class _LastResult:
    """The result for the last key only.

    The entry is one ``(key, value)`` tuple, read and replaced whole, so a
    reader never pairs one key with another key's value.
    """

    def __init__(self):
        self._entry = (None, None)

    def get(self, key: bytes, compute):
        last_key, value = self._entry
        if last_key != key:
            value = compute()
            self._entry = (key, value)
        return value


_LINEARIZATION = _LastResult()
_BASE_TANGENT = _LastResult()


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
    """``G.base_tangent(x, tol)``, read-only, through the one-entry memo."""
    return _BASE_TANGENT.get(_digest(G, x, tol), lambda: _read_only(G.base_tangent(x, tol)))


def _linearization(G: Groupoid, arrow):
    """Chart differential, source differential, stacked source and target
    differentials (all in the chart), the ambient target differential, and
    the norm of the whole chart differential ``[j_arrow; j_s; j_t]``, the
    scale of every rank decision on its pieces; through the one-entry memo.
    ``arrow`` must have passed ``G``'s checks."""
    def compute():
        j_arrow, ds, dt = G.chart_differential(arrow)
        j_st = np.vstack([ds @ j_arrow, dt @ j_arrow])
        scale = operator_norm(np.vstack([j_arrow, j_st]))
        j_s = j_st[: ds.shape[0]]
        return (*(_read_only(m) for m in (j_arrow, j_s, j_st, dt)), scale)

    return _LINEARIZATION.get(_digest(G, arrow), compute)


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
    coords = _base_tangent(G, x, tol)
    vectors = tuple(AlgebraElement.from_real_coords(x.shape, col) for col in coords.T)
    return TangentBasis(base_point=x, vectors=vectors, real_dim=len(vectors), coords=coords)


def base_tangent_dim(G: Groupoid, x, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    return _base_tangent(G, x, tol).shape[1]


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
    j_arrow, j_s, _, dt, scale = _linearization(G, one_x)

    k_source = kernel_basis(j_s, tol, scale)
    fiber_hat = orthonormal_range(j_arrow @ k_source, tol, scale)

    anchor_matrix = _base_tangent(G, x, tol).T @ (dt @ fiber_hat)
    anchor_rank = numerical_rank(anchor_matrix, tol, scale)

    basis = TangentBasis(
        base_point=x,
        vectors=tuple(G.tangent_vector(one_x, col) for col in fiber_hat.T),
        real_dim=fiber_hat.shape[1],
        coords=fiber_hat,
    )
    return AnchorData(
        base_point=x, fiber_basis=basis, anchor_matrix=anchor_matrix, anchor_rank=anchor_rank
    )


def isotropy_tangent_dim(G: Groupoid, x, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Dimension of the joint kernel of the source and target differentials
    at the identity arrow over ``x``, measured in ambient arrow coordinates."""
    one_x = _identity_arrow(G, x)
    j_arrow, _, j_st, _, scale = _linearization(G, one_x)
    joint = kernel_basis(j_st, tol, scale)
    return numerical_rank(j_arrow @ joint, tol, scale)


def submersion_rank_st(G: Groupoid, g, tol: ToleranceConfig = DEFAULT_TOL):
    """Rank of the combined source-target differential at an arrow, paired
    with the dimension it must reach for local transitivity.

    Returns ``(rank T(s, t) at g, dim T(base) at s(g) + dim T(base) at t(g))``;
    the two agree exactly when the groupoid is locally transitive at ``g``.
    """
    G.validate_arrow(g)
    _, _, j_st, _, scale = _linearization(G, g)
    rank = numerical_rank(j_st, tol, scale)
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
