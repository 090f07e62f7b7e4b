"""Continuity experiments for Moore-Penrose inversion.

Pseudo-inversion is famously discontinuous at rank drops.  The criterion
exercised here: for a sequence converging to a nonzero regular limit, the
paired map ``a -> (a, a+)`` converges exactly when the source projections
``a+ a`` converge.  Families are built analytically (SVD-aligned
perturbations), so their rank behavior is certain rather than
probabilistic.

Families are checked as stacks.  A family's terms form one stacked
element, which a family made by :func:`make_family` builds in one broadcast
from its perturbation.  :func:`continuity_experiments` puts the term stacks
of many families of one shape on top of each other, in chunks of whole
families of at most :data:`~ginv.linalg.PASS_ENTRIES` entries, and inverts and measures
each chunk in one pass; :func:`draw_families` draws a shape's families in
the order :func:`draw_family` draws them one by one, and builds their
bases and directions in one pass.  :func:`drawn_experiments` draws and
checks a shape's families in passes of that size, for criterion 12 and
``ginv continuity`` alike.  Each row is computed on its own, so
every family's outcome equals, bit for bit, that of the family alone:
:func:`continuity_experiment` and :func:`draw_family` are the one-family
case.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import linalg, sampling
from .algebra import AlgebraElement, norms
from .errors import ConsistencyError, GinvError, InputError
from .geninv import moore_penrose
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    numerical_rank,
    pass_size,
    rank_from_singular_values,
)
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
            stack = AlgebraElement(self.limit.shape, self._term_blocks())
            object.__setattr__(self, "_term_stack", stack)
        return stack

    def _term_blocks(self) -> tuple:
        """The blocks of :meth:`term_stack`: those of the kept stack, or
        built afresh and not kept, so that an experiment over many families
        holds the terms of one chunk at a time."""
        stack = self.__dict__.get("_term_stack")
        if stack is not None:
            return stack.blocks
        if self.directions is None:
            return AlgebraElement.stack(
                [self.generator(n) for n in range(1, self.horizon + 1)]).blocks
        n = np.arange(1, self.horizon + 1)[:, None, None]
        return tuple(np.broadcast_to(b, (self.horizon, *b.shape)) if d is None else b + d / n
                     for b, d in zip(self.limit.blocks, self.directions))

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
    ``final_distance`` is the distance of the last term to the limit.
    """

    pair_converges: bool
    source_converges: bool
    distances_pair: tuple
    distances_source: tuple
    mp_norms: tuple
    final_distance: float


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
    one = AlgebraElement(base.shape, tuple(b[None] for b in base.blocks))
    return _make_families([kind], [base], one, horizon, tol)[0]


def _make_families(kinds, bases, stack, horizon, tol) -> list:
    """The :func:`make_family` family of ``kinds[i]`` at ``bases[i]``, row
    ``i`` of ``stack``; the error of the first family whose
    :func:`make_family` call raises.

    Block by block, the rows still looking for their block are factored by
    one stacked SVD, and each row's rank and direction are taken from its
    own factors, so each family equals its :func:`make_family` bit for bit.
    """
    nonzero = functools.reduce(np.logical_or, (b.any(axis=(-2, -1)) for b in stack.blocks))
    chosen = {}  # family -> (block index, direction)
    todo = [i for i, kind in enumerate(kinds)
            if kind in ("rank_preserving", "rank_dropping") and nonzero[i]]
    for index, block in enumerate(stack.blocks):
        if not todo:
            break
        n = block.shape[-1]
        u, s, vh = np.linalg.svd(block[todo])
        ranks = rank_from_singular_values(s, (n, n), tol)
        left = []
        for j, (i, r) in enumerate(zip(todo, ranks.tolist())):
            if kinds[i] == "rank_preserving" and r > 0:
                # scaled copy of the rank support
                chosen[i] = index, (u[j, :, :r] * s[j, :r]) @ vh[j, :r]
            elif kinds[i] == "rank_dropping" and r < n:
                chosen[i] = index, np.outer(u[j, :, r], vh[j, r].conj())  # fresh direction
            else:
                left.append(i)
        todo = left

    families = []
    for i, (kind, base) in enumerate(zip(kinds, bases)):
        if kind == "custom":
            raise InputError("custom families are built directly through SequenceFamily")
        if kind not in FAMILY_KINDS:
            raise InputError(f"unknown family kind {kind!r}")
        if kind == "constant":
            families.append(_perturbed_family(kind, base, None, None, horizon))
            continue
        if not nonzero[i]:
            raise InputError(f"{kind} families need a nonzero base")
        if i not in chosen:
            if kind == "rank_preserving":
                raise InputError("rank-preserving perturbation needs a block of positive rank")
            raise InputError("every block has full rank: no vanishing direction to append")
        families.append(_perturbed_family(kind, base, *chosen[i], horizon))
    return families


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
    return draw_families(rng, shape, [kind], horizon, tol)[0]


def draw_families(
    rng: np.random.Generator,
    shape,
    kinds: Sequence[str],
    horizon: int = DEFAULT_HORIZON,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> list:
    """The families of successive :func:`draw_family` calls, one per kind of
    ``kinds``, in one pass.

    The generator calls are those of the successive calls, in their order.
    The zero-base redraw is decided from the drawn ranks: a base is zero
    exactly when every block's rank is 0, since nonzero singular values
    start at 0.5 (:data:`~ginv.sampling.SV_RANGE`); a zero base is drawn
    and never built.  All bases are built in one stacked
    :func:`~ginv.sampling.well_conditioned_from` and their directions found
    as :func:`make_family` finds them, block stack by block stack.  Where a
    family's :func:`make_family` call would raise, the first such error is
    raised.
    """
    if not kinds:
        return []
    rows = sampling.WellConditionedRows(shape, len(kinds))
    for i, kind in enumerate(kinds):
        full = tuple(min(n, 1 + int(rng.integers(0, n))) for n in rows.shape)
        ranks = full if kind == "constant" else tuple(f - 1 for f in full)
        if kind != "constant" and not any(ranks):
            # the zero base: drawn into row i, which writes no singular value
            # there, and overwritten by the redraw
            rows.draw(rng, i, ranks)
            ranks = full if kind == "rank_preserving" else tuple(n - 1 for n in rows.shape)
        rows.draw(rng, i, ranks)
    stack = sampling.well_conditioned_from(rows.noise())
    return _make_families(kinds, [stack[i] for i in range(len(kinds))], stack, horizon, tol)


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
    This is :func:`continuity_experiments` on one family, raising its error.
    """
    (outcome,) = continuity_experiments([fam], tol)
    if isinstance(outcome, GinvError):
        raise outcome
    return outcome


def term_entries(shape) -> int:
    """The entries ``sum(n * n)`` of one term of an algebra of ``shape``."""
    return sum(n * n for n in shape)


def continuity_experiments(families: Sequence[SequenceFamily],
                           tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """The outcome of :func:`continuity_experiment` on each family: its
    :class:`ContinuityVerdict`, or the :class:`~ginv.errors.GinvError` it
    raises.

    Successive families of one shape go in chunks of whole families of at
    most :data:`~ginv.linalg.PASS_ENTRIES` term entries (a larger family
    alone), term rows times the ``sum(n * n)`` entries of a term.  A
    chunk's term stacks (:meth:`SequenceFamily.term_stack`, one broadcast
    for a family made by :func:`make_family`) are stacked with each
    family's limit repeated along its terms, and the distances, the
    pseudo-inverses with their rank decisions, the source projections and
    the norms are each one stacked computation, row ``n`` equal bit for
    bit to the same computation on that term alone.  A zero term is told
    by its entries.  A chunk whose stacked pass raises is checked again
    family by family, so each family meets its own error.
    """
    outcomes, chunk, entries = [], [], 0
    for fam in families:
        size = fam.horizon * term_entries(fam.limit.shape)
        if chunk and (fam.limit.shape != chunk[0].limit.shape
                      or entries + size > linalg.PASS_ENTRIES):
            outcomes += _chunk_outcomes(chunk, tol)
            chunk, entries = [], 0
        chunk.append(fam)
        entries += size
    if chunk:
        outcomes += _chunk_outcomes(chunk, tol)
    return outcomes


def drawn_experiments(
    rng: np.random.Generator,
    shape,
    kinds: Sequence[str],
    horizon: int = DEFAULT_HORIZON,
    tol: ToleranceConfig = DEFAULT_TOL,
):
    """Yield ``(family, outcome)`` for the families of :func:`draw_families`
    on ``kinds``, with the outcomes of :func:`continuity_experiments`.

    The families are drawn and checked in passes of at most
    :data:`~ginv.linalg.PASS_ENTRIES` term entries, one family at the least, so
    the memory of a pass does not grow with ``len(kinds)``.  The generator
    calls are those of one :func:`draw_families` call on all of ``kinds``,
    and each outcome is that of its family alone.
    """
    per_pass = pass_size(horizon, shape)
    for first in range(0, len(kinds), per_pass):
        families = draw_families(rng, shape, kinds[first:first + per_pass], horizon, tol)
        yield from zip(families, continuity_experiments(families, tol))


def _chunk_outcomes(chunk: list, tol: ToleranceConfig) -> list:
    try:
        return _stacked_outcomes(chunk, tol)
    except GinvError as exc:
        if len(chunk) == 1:
            return [exc]
        return [outcome for fam in chunk for outcome in _chunk_outcomes([fam], tol)]


def _stacked_outcomes(chunk: list, tol: ToleranceConfig) -> list:
    """The outcomes of one chunk of families of one shape, in one pass."""
    shape = chunk[0].limit.shape
    horizons = [fam.horizon for fam in chunk]
    terms = AlgebraElement(shape, tuple(
        np.concatenate(parts) for parts in zip(*(fam._term_blocks() for fam in chunk))))
    limits = AlgebraElement.stack([fam.limit for fam in chunk])
    limit_norms = norms(*(fam.limit for fam in chunk))
    limit_daggers = moore_penrose(limits, tol)
    limit_sources = limit_daggers @ limits

    def along_terms(x: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(shape, tuple(np.repeat(b, horizons, axis=0) for b in x.blocks))

    distances = terms.distance(along_terms(limits))
    nonzero = functools.reduce(np.logical_or, (b.any(axis=(-2, -1)) for b in terms.blocks))
    daggers = moore_penrose(terms, tol)
    d_pair = np.maximum(distances, daggers.distance(along_terms(limit_daggers)))
    d_source = (daggers @ terms).distance(along_terms(limit_sources))
    mp_norms = daggers.norm()

    outcomes, first = [], 0
    for fam, limit_norm in zip(chunk, limit_norms):
        rows = slice(first, first + fam.horizon)
        first += fam.horizon
        try:
            fam._validate_distances(distances[rows])
            if limit_norm == 0.0:
                raise InputError("the experiment requires a nonzero limit")
            if not nonzero[rows].all():
                raise InputError("family terms must stay nonzero")
            outcomes.append(_verdict(fam, d_pair[rows], d_source[rows], mp_norms[rows],
                                     float(distances[rows][-1])))
        except GinvError as exc:
            outcomes.append(exc)
    return outcomes


def _verdict(fam, d_pair, d_source, mp_norms, final_distance) -> ContinuityVerdict:
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
        final_distance=final_distance,
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
    families = [make_family(kind, base, tol=tol) for kind in ("rank_preserving", "rank_dropping")]
    outcomes = continuity_experiments(families, tol)
    for outcome in outcomes:
        if isinstance(outcome, GinvError):
            raise outcome
    verdict_p, verdict_d = outcomes
    report.add(
        CheckRecord(
            name="rank-preserving trace",
            anchor="rank-stable perturbations keep a -> a+ continuous",
            passed=verdict_p.pair_converges,
            value=float(verdict_p.distances_pair[-1]),
            details=f"pair distances {_fmt(verdict_p.distances_pair)}",
        )
    )
    mp_norms = np.array(verdict_d.mp_norms)
    diverges = (mp_norms[-1] > 10.0 * mp_norms[0]
                and bool(np.all(np.diff(mp_norms[len(mp_norms) // 2 :]) > 0)))
    report.add(
        CheckRecord(
            name="rank-dropping trace",
            anchor="a rank drop in the limit blows up |a_n+|",
            passed=(not verdict_d.pair_converges) and diverges,
            value=float(mp_norms[-1]),
            details=f"pseudo-inverse norms {_fmt(verdict_d.mp_norms)}",
        )
    )
    return report


def _fmt(values, head: int = 4) -> str:
    shown = ", ".join(f"{v:.3e}" for v in values[:head])
    return f"[{shown}, ..., {values[-1]:.3e}]"
