"""Continuity experiments for Moore-Penrose inversion.

Pseudo-inversion is famously discontinuous at rank drops.  The criterion
exercised here: for a sequence converging to a nonzero regular limit, the
paired map ``a -> (a, a+)`` converges exactly when the source projections
``a+ a`` converge.  Families are built analytically (SVD-aligned
perturbations), so their rank behavior is certain rather than
probabilistic.

A family is checked on its whole horizon at once: its terms form one
stacked element, which a family made by :func:`make_family` builds in one
broadcast from its perturbation, and the experiment inverts and measures
that stack in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import sampling
from .algebra import AlgebraElement
from .errors import ConsistencyError, InputError
from .geninv import moore_penrose
from .linalg import DEFAULT_TOL, ToleranceConfig, numerical_rank, rank_from_singular_values
from .reports import CheckRecord, ExperimentReport

#: the kinds :func:`draw_family` draws, in the order criterion 12 and
#: ``ginv continuity`` cycle through them
DRAWN_KINDS = ("rank_preserving", "rank_dropping", "constant")
FAMILY_KINDS = (*DRAWN_KINDS, "custom")

#: threshold of the convergence trend test, surfaced in every report
TREND_THRESHOLD = 1e-4
DEFAULT_HORIZON = 64


@dataclass(frozen=True, eq=False)
class SequenceFamily:
    """A sequence ``a_n`` with a declared limit and a finite horizon.

    ``generator`` maps an index ``n >= 1`` to an element.  A family made by
    :func:`make_family` also keeps its perturbation: ``directions`` holds,
    per block of the limit, the direction ``d`` of ``a_n = limit + d / n``,
    or ``None`` for a block that stays at the limit (every block of a
    constant family).  ``validate`` decides whether the declared limit is
    credible on the horizon prefix: distances must trend down and the
    final distance must be small either absolutely or relative to the
    initial distance (families decaying like ``1/n`` are legitimate and
    must be accepted).
    """

    kind: str
    generator: Callable[[int], AlgebraElement]
    limit: AlgebraElement
    horizon: int = DEFAULT_HORIZON
    directions: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise InputError(f"unknown family kind {self.kind!r}")
        if self.horizon < 8:
            raise InputError("horizon must be at least 8")
        if self.directions is not None and len(self.directions) != len(self.limit.blocks):
            raise InputError("a family needs one direction (or None) per block of its limit")

    def term_stack(self) -> AlgebraElement:
        """The terms ``a_1 .. a_horizon`` as one stack, ``a_n`` in row ``n - 1``.

        A family with ``directions`` builds each block in one broadcast,
        ``limit + d / n[:, None, None]``, row ``n - 1`` equal bit for bit to
        ``generator(n)``; other families stack their generated terms.  Built
        on the first call and kept.
        """
        stack = self.__dict__.get("_term_stack")
        if stack is None:
            if self.directions is None:
                stack = AlgebraElement.stack(
                    [self.generator(n) for n in range(1, self.horizon + 1)])
            else:
                n = np.arange(1, self.horizon + 1)[:, None, None]
                stack = AlgebraElement(self.limit.shape, tuple(
                    np.broadcast_to(b, (self.horizon, *b.shape)) if d is None else b + d / n
                    for b, d in zip(self.limit.blocks, self.directions)))
            object.__setattr__(self, "_term_stack", stack)
        return stack

    def terms(self) -> list:
        """The terms one by one: the rows of :meth:`term_stack`."""
        stack = self.term_stack()
        return [stack[i] for i in range(self.horizon)]

    def distances(self) -> np.ndarray:
        return self.term_stack().distance(self.limit)

    def validate(self):
        self._validate_distances(self.distances())

    def _validate_distances(self, d: np.ndarray):
        if not np.all(np.isfinite(d)):
            raise InputError("family terms must stay finite")
        dmax = float(np.max(d)) if d.size else 0.0
        if dmax == 0.0:
            return  # constant family
        increases = np.sum(np.diff(d) > 0.05 * dmax + 1e-12)
        if increases > 0:
            raise InputError("distances to the declared limit are not decreasing")
        final_ok = d[-1] <= max(1e-6 * (1.0 + self.limit.norm()), 4.0 * dmax / self.horizon)
        if not final_ok:
            raise InputError(
                f"final distance {d[-1]:.3e} is inconsistent with convergence to the limit"
            )


@dataclass(frozen=True)
class ContinuityVerdict:
    """Outcome of one convergence experiment.

    For a nonzero limit the two flags must agree; a disagreeing pair is a
    broken invariant, not a valid verdict, and is never returned.
    """

    pair_converges: bool
    source_converges: bool
    distances_pair: tuple
    distances_source: tuple
    mp_norms: tuple


def make_family(
    kind: str,
    base: AlgebraElement,
    horizon: int = DEFAULT_HORIZON,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> SequenceFamily:
    """Analytic perturbation family converging to ``base``.

    rank_preserving  a_n = base + (1/n) P with P supported on the nonzero
                     singular directions of a block, so every term keeps the
                     rank signature of the limit.
    rank_dropping    a_n = base + (1/n) w with w a fresh singular direction
                     outside the range of a deficient block: every term has
                     one extra rank, the limit loses it.
    constant         a_n = base.

    The perturbed block is the first of positive rank (rank_preserving) or
    of deficient rank (rank_dropping).  Each block looked at is factored
    once: one full SVD, whose singular values also give its rank
    (:func:`~ginv.linalg.rank_from_singular_values`) and whose singular
    vectors give the direction.
    """
    if kind == "custom":
        raise InputError("custom families are built directly through SequenceFamily")
    if kind not in FAMILY_KINDS:
        raise InputError(f"unknown family kind {kind!r}")

    if kind == "constant":
        return _perturbed_family(kind, base, None, None, horizon)

    if base.norm() == 0.0:
        raise InputError(f"{kind} families need a nonzero base")

    for index, block in enumerate(base.blocks):
        u, s, vh = np.linalg.svd(block)
        r = rank_from_singular_values(s, block.shape, tol)
        if kind == "rank_preserving" and r > 0:
            direction = (u[:, :r] * s[:r]) @ vh[:r]  # scaled copy of the rank support
        elif kind == "rank_dropping" and r < block.shape[0]:
            direction = np.outer(u[:, r], vh[r].conj())  # fresh singular direction
        else:
            continue
        return _perturbed_family(kind, base, index, direction, horizon)
    if kind == "rank_preserving":
        raise InputError("rank-preserving perturbation needs a block of positive rank")
    raise InputError("every block has full rank: no vanishing direction to append")


def draw_family(
    rng: np.random.Generator,
    shape,
    kind: str,
    horizon: int = DEFAULT_HORIZON,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> SequenceFamily:
    """A :func:`make_family` family of ``kind`` at a random well-conditioned
    base of ``shape``.

    Each block draws a rank ``f`` in ``1..n``.  A constant family keeps
    those ranks; the perturbed kinds take ``f - 1``, so that every block is
    deficient.  Where that base is zero, a rank-preserving family redraws
    at the ranks ``f`` and a rank-dropping one at the ranks ``n - 1``.
    """
    full = tuple(min(n, 1 + int(rng.integers(0, n))) for n in shape)
    if kind == "constant":
        base = sampling.well_conditioned_element(rng, shape, ranks=full)
    else:
        base = sampling.well_conditioned_element(rng, shape, ranks=tuple(f - 1 for f in full))
        if base.norm() == 0.0:
            redraw = full if kind == "rank_preserving" else tuple(n - 1 for n in shape)
            base = sampling.well_conditioned_element(rng, shape, ranks=redraw)
    return make_family(kind, base, horizon, tol)


def _perturbed_family(kind, base, index, direction, horizon) -> SequenceFamily:
    """The family ``a_n = base + direction / n`` in block ``index`` (every
    block at ``base`` when ``index`` is ``None``)."""
    directions = tuple(direction if i == index else None for i in range(len(base.blocks)))

    def gen(n: int) -> AlgebraElement:
        return AlgebraElement(base.shape, tuple(
            b if d is None else b + d / n for b, d in zip(base.blocks, directions)))

    return SequenceFamily(kind, gen, base, horizon, directions)


def _trend_converges(d: np.ndarray) -> bool:
    """Trend test: either the tail sits below the threshold, or the whole
    trace decays like a convergent sequence (covers 1/n-type families)."""
    m = len(d)
    tail = d[3 * m // 4 :]
    dmax = float(np.max(d)) if d.size else 0.0
    if dmax == 0.0:
        return True
    non_increasing = not np.any(np.diff(tail) > 0.1 * np.max(tail) + 1e-12)
    if np.max(tail) <= TREND_THRESHOLD and non_increasing:
        return True
    overall_decay = d[-1] <= (8.0 / m) * dmax
    strictly_trending = d[-1] < 0.5 * dmax and non_increasing
    return overall_decay and strictly_trending


def continuity_experiment(
    fam: SequenceFamily, tol: ToleranceConfig = DEFAULT_TOL
) -> ContinuityVerdict:
    """Track ``(a_n, a_n+)`` and the source projections along a family.

    Returns the two convergence verdicts; for nonzero limits they must
    agree, and a disagreement raises :class:`ConsistencyError` because it
    would falsify the source criterion the experiment exists to check.

    The terms are read as one stack (:meth:`SequenceFamily.term_stack`, one
    broadcast for a family made by :func:`make_family`): distances,
    pseudo-inverses with their rank decisions, source projections and norms
    are each one stacked computation, row ``n`` equal bit for bit to the
    same computation on term ``n`` alone.
    """
    terms = fam.term_stack()
    distances = terms.distance(fam.limit)
    fam._validate_distances(distances)
    if fam.limit.norm() == 0.0:
        raise InputError("the experiment requires a nonzero limit")
    if np.any(terms.norm() == 0.0):
        raise InputError("family terms must stay nonzero")
    limit_dagger = moore_penrose(fam.limit, tol)
    limit_source = limit_dagger @ fam.limit

    daggers = moore_penrose(terms, tol)
    d_pair = np.maximum(distances, daggers.distance(limit_dagger))
    d_source = (daggers @ terms).distance(limit_source)
    mp_norms = daggers.norm()

    pair_ok = _trend_converges(d_pair)
    source_ok = _trend_converges(d_source)
    if pair_ok != source_ok:
        raise ConsistencyError(
            "paired convergence and source convergence disagree: "
            f"pair={pair_ok}, source={source_ok} for kind {fam.kind!r}"
        )
    return ContinuityVerdict(
        pair_converges=pair_ok,
        source_converges=source_ok,
        distances_pair=tuple(d_pair.tolist()),
        distances_source=tuple(d_source.tolist()),
        mp_norms=tuple(mp_norms.tolist()),
    )


def discontinuity_demo(
    base: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL
) -> ExperimentReport:
    """Two families with the same limit, one continuous and one divergent.

    Needs a singular nonzero base: at invertible elements pseudo-inversion
    is continuous and there is no discontinuity to exhibit.
    """
    if base.norm() == 0.0:
        raise InputError("base must be nonzero")
    if all(numerical_rank(b, tol) == b.shape[0] for b in base.blocks):
        raise InputError("base is invertible: pseudo-inversion is continuous there")

    report = ExperimentReport(
        suite="mp-discontinuity",
        config={
            "shape": list(base.shape),
            "residual_tol": tol.residual_tol,
            "trend_threshold": TREND_THRESHOLD,
        },
    )
    preserving = make_family("rank_preserving", base, tol=tol)
    verdict_p = continuity_experiment(preserving, tol)
    report.add(
        CheckRecord(
            name="rank-preserving trace",
            anchor="rank-stable perturbations keep a -> a+ continuous",
            passed=verdict_p.pair_converges,
            value=float(verdict_p.distances_pair[-1]),
            details=f"pair distances {_fmt(verdict_p.distances_pair)}",
        )
    )
    dropping = make_family("rank_dropping", base, tol=tol)
    verdict_d = continuity_experiment(dropping, tol)
    norms = np.array(verdict_d.mp_norms)
    diverges = norms[-1] > 10.0 * norms[0] and bool(np.all(np.diff(norms[len(norms) // 2 :]) > 0))
    report.add(
        CheckRecord(
            name="rank-dropping trace",
            anchor="a rank drop in the limit blows up |a_n+|",
            passed=(not verdict_d.pair_converges) and diverges,
            value=float(norms[-1]),
            details=f"pseudo-inverse norms {_fmt(verdict_d.mp_norms)}",
        )
    )
    return report


def _fmt(values, head: int = 4) -> str:
    shown = ", ".join(f"{v:.3e}" for v in values[:head])
    return f"[{shown}, ..., {values[-1]:.3e}]"
