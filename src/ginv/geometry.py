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
"""

from __future__ import annotations

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
        if self.anchor_matrix.shape[1] != self.fiber_basis.real_dim:
            raise InputError("anchor matrix columns must match the fiber dimension")
        rows, cols = self.anchor_matrix.shape
        if self.anchor_rank > min(rows, cols):
            raise InputError("anchor rank exceeds the matrix dimensions")


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
    coords = G.base_tangent(x, tol)
    vectors = tuple(AlgebraElement.from_real_coords(x.shape, col) for col in coords.T)
    return TangentBasis(base_point=x, vectors=vectors, real_dim=len(vectors), coords=coords)


def base_tangent_dim(G: Groupoid, x, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    return G.base_tangent(x, tol).shape[1]


# -- chart differentials -------------------------------------------------------------


def _identity_arrow(G: Groupoid, x):
    try:
        return G.identity_at(x)
    except InputError as exc:
        raise PreconditionError(str(exc)) from exc


def _differentials(G: Groupoid, arrow):
    """Chart, source and target differentials at ``arrow``, the ambient target
    differential, and the norm of the whole chart differential
    ``[j_arrow; j_s; j_t]``, the scale of every rank decision on its pieces."""
    j_arrow, ds, dt = G.chart_differential(arrow)
    j_s, j_t = ds @ j_arrow, dt @ j_arrow
    scale = operator_norm(np.vstack([j_arrow, j_s, j_t]))
    return j_arrow, j_s, j_t, dt, scale


# -- fiber, anchor, isotropy, submersion -------------------------------------------


def fiber_and_anchor(G: Groupoid, x, tol: ToleranceConfig = DEFAULT_TOL) -> AnchorData:
    """Source-fiber tangent space at the identity arrow over ``x`` and the
    anchor map (differential of the target map restricted to that fiber).

    The fiber tangent space is computed as the image, under the chart
    differential, of the kernel of the source differential; the anchor
    matrix expresses the target differential on that basis against an
    orthonormal basis of the base tangent space.
    """
    one_x = _identity_arrow(G, x)
    j_arrow, j_s, _, dt, scale = _differentials(G, one_x)

    k_source = kernel_basis(j_s, tol, scale)
    fiber_cols = j_arrow @ k_source
    fiber_dim = numerical_rank(fiber_cols, tol, scale)
    fiber_hat = orthonormal_range(fiber_cols, tol, scale)

    anchor_matrix = G.base_tangent(x, tol).T @ (dt @ fiber_hat)
    anchor_rank = numerical_rank(anchor_matrix, tol, scale)

    basis = TangentBasis(
        base_point=x,
        vectors=tuple(G.tangent_vector(one_x, col) for col in fiber_hat.T),
        real_dim=fiber_dim,
        coords=fiber_hat,
    )
    return AnchorData(
        base_point=x, fiber_basis=basis, anchor_matrix=anchor_matrix, anchor_rank=anchor_rank
    )


def isotropy_tangent_dim(G: Groupoid, x, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Dimension of the joint kernel of the source and target differentials
    at the identity arrow over ``x``, measured in ambient arrow coordinates."""
    one_x = _identity_arrow(G, x)
    j_arrow, j_s, j_t, _, scale = _differentials(G, one_x)
    joint = kernel_basis(np.vstack([j_s, j_t]), tol, scale)
    return numerical_rank(j_arrow @ joint, tol, scale)


def submersion_rank_st(G: Groupoid, g, tol: ToleranceConfig = DEFAULT_TOL):
    """Rank of the combined source-target differential at an arrow, paired
    with the dimension it must reach for local transitivity.

    Returns ``(rank T(s, t) at g, dim T(base) at s(g) + dim T(base) at t(g))``;
    the two agree exactly when the groupoid is locally transitive at ``g``.
    """
    G.validate_arrow(g)
    _, j_s, j_t, _, scale = _differentials(G, g)
    rank = numerical_rank(np.vstack([j_s, j_t]), tol, scale)
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
