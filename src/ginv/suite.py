"""The acceptance battery: one seeded, tolerance-pinned check per criterion.

Each function returns a :class:`CheckRecord`; the CLI ``suite`` subcommand
and the acceptance test module both run this battery, so a report and the
test suite can never drift apart.  Like the rest of the package, it needs
numpy alone.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .algebra import AlgebraElement, emax, epow, max_norm
from .continuity import DRAWN_KINDS, drawn_experiments
from .errors import GinvError, OrbitError
from .geninv import (
    GInvPair,
    moore_penrose,
    mp_pair,
    newton_schulz,
    penrose_residuals,
)
from .geometry import at, orbit_classes, orbit_report
from .groupoid import (
    ActionGroupoid,
    GInvGroupoid,
    PairGroupoid,
    PartialIsometryGroupoid,
    arrow_chain,
    isometry_to_ginv,
    verify_axioms,
)
from .linalg import DEFAULT_TOL, ToleranceConfig
from .paths import (
    ENDPOINT_TOL,
    LIFT_TOL,
    orbit_path,
    orbit_paths,
    reparametrize_lifts,
    reparametrized_bound,
    smooth_reparametrizer,
)
from .reports import CheckRecord, ExperimentReport
from . import sampling

PENROSE_TOL = 1e-8
ROUTE_TOL = 1e-7
CLOSURE_TOL = 1e-8
MORPHISM_TOL = 1e-10
ISOMETRY_MP_TOL = 1e-8
KNOT_DERIV_TOL = 1e-8


def _record(name, anchor, passed, value, details=""):
    return CheckRecord(name=name, anchor=anchor, passed=bool(passed), value=value, details=details)


def check_penrose_suite(tol: ToleranceConfig, seed: int) -> CheckRecord:
    """200 seeded elements across four shapes: the four defining equations
    of the pseudo-inverse and the involution identity, at 1e-8 scaled."""
    rng = np.random.default_rng(seed)
    shapes = [(2,), (3,), (8,), (2, 3)]
    worst, n = 0.0, 0
    for shape in shapes:
        rows = sampling.WellConditionedRows(shape, 50)
        for i in range(50):
            rows.draw(rng, i, sampling.random_block_ranks(rng, shape))
        a = sampling.well_conditioned_from(rows.noise())
        dagger = moore_penrose(a, tol)
        bound = PENROSE_TOL * (1.0 + a.norm())
        res = penrose_residuals(a, dagger).max()
        invol = moore_penrose(dagger, tol).distance(a)
        worst = max(worst, float(np.max(res / bound)), float(np.max(invol / bound)))
        n += 50
    return _record(
        "01 penrose residuals",
        "a b a = a, b a b = b, (ba)* = ba, (ab)* = ab, and (a+)+ = a",
        worst <= 1.0,
        worst,
        f"{n} elements, worst residual/bound ratio",
    )


def check_route_agreement(tol: ToleranceConfig, seed: int) -> CheckRecord:
    """SVD and Newton-Schulz pseudo-inverses agree to 1e-7 on full-rank and
    rank-deficient-by-one elements of size up to 6.

    The 100 elements are drawn one at a time, a full-rank and a rank-``n - 1``
    one per drawn size ``n``, into the rows of their size; then each size
    is built, inverted by both routes and measured as one stack."""
    rng = np.random.default_rng(seed)
    rows: dict = {}  # size -> its rows, in draw order, and how many are drawn
    for _ in range(50):
        size = int(rng.integers(2, 7))
        drawn, count = rows.get(size) or (sampling.WellConditionedRows((size,), 100), 0)
        for rank in (size, size - 1):
            drawn.draw(rng, count, (rank,))
            count += 1
        rows[size] = drawn, count
    worst = 0.0
    for drawn, count in rows.values():
        a = sampling.well_conditioned_from(sampling.noise_row(drawn.noise(), slice(count)))
        worst = max(worst, max_norm(newton_schulz(a, tol) - moore_penrose(a, tol)))
    n = sum(count for _, count in rows.values())
    return _record(
        "02 route agreement",
        "iterative and SVD pseudo-inverses coincide",
        worst <= ROUTE_TOL,
        worst,
        f"{n} elements, worst route distance (tol {ROUTE_TOL})",
    )


def _closure_ratios(G: GInvGroupoid, x, noises):
    """Idempotency residual/bound of the source and target of ``g1 g2``, where
    ``g2, g1`` is the :func:`arrow_chain` of the two ``noises`` from ``x`` (row
    by row on stacks).  ``compose`` validates the composite as a reflexive pair."""
    g2, g1 = arrow_chain(G, x, noises)
    g = G.compose(g1, g2)
    return emax(*(
        (e @ e - e).norm() / (CLOSURE_TOL * (1.0 + epow(e.norm(), 2)))
        for e in (G.source(g), G.target(g))
    ))


def check_closure(tol: ToleranceConfig, seed: int) -> CheckRecord:
    """500 composable reflexive pairs compose to valid arrows whose sources
    and targets are idempotent at 1e-8 scaled."""
    rng = np.random.default_rng(seed)
    groupoids = [GInvGroupoid(shape, tol) for shape in [(2,), (3,), (2, 3)]]
    n = 500
    # per pair: the noises of the base point, g2 and g1, pair i in the rows of
    # groupoid i % 3
    rows = [G.chain_rows(len(range(j, n, 3)), arrows=2, loose=False)
            for j, G in enumerate(groupoids)]
    for i in range(n):
        rows[i % 3].draw(rng, i // 3)
    ratios = []
    for G, drawn in zip(groupoids, rows):
        x, *noises = drawn.noise()
        ratios.append(_closure_ratios(G, G.base_at(x), noises))
    worst = max(float(np.max(r)) for r in ratios)
    return _record(
        "03 composition closure",
        "(ab)^2 = ab and (ba)^2 = ba for composed pairs",
        worst <= 1.0,
        worst,
        f"{n} composable pairs, worst idempotency residual/bound",
    )


def check_axioms(tol: ToleranceConfig, seed: int) -> CheckRecord:
    """All four instance kinds pass the axiom verifier (200 samples, seed 0)
    and an injected corrupted arrow is detected."""
    instances = [
        PairGroupoid(3, tol, pool_size=5),
        ActionGroupoid(2, tol),
        GInvGroupoid((2,), tol),
        PartialIsometryGroupoid((2,), tol),
    ]
    failures = []
    for G in instances:
        rep = verify_axioms(G, seed=seed, n_samples=200)
        if not rep.all_passed:
            failures.append(f"{G.kind}: {[r.name for r in rep.records if not r.passed]}")

    # negative control: an arrow (a, b + 0.1) injected into the ginv instance
    G = GInvGroupoid((2,), tol)
    rng = np.random.default_rng(seed)
    good = G.arrow_from(G.sample_base_point(rng), rng)
    shift = AlgebraElement.identity((2,)) * 0.1
    bad = GInvPair(good.a, good.b + shift)
    control = verify_axioms(G, seed=seed, n_samples=2, extra_arrows=[bad])
    detected = any(r.name == "injected-arrow control" and r.passed for r in control.records)
    if not detected:
        failures.append("corruption control missed")
    return _record(
        "04 groupoid axioms",
        "identity, inverse, associativity and membership laws hold; corruption is caught",
        not failures,
        len(failures),
        "; ".join(failures) or "four kinds verified, 200 samples each",
    )


def check_morphism_laws(tol: ToleranceConfig, seed: int) -> CheckRecord:
    """The isometry embedding u -> (u, u*) and the pseudo-inverse pairing
    commute with source, target, composition and inversion (<= 1e-10)."""
    rng = np.random.default_rng(seed)
    U = PartialIsometryGroupoid((2,), tol)
    Gp = GInvGroupoid((2,), tol)

    def residuals(p, noises):
        """The law residuals at the :func:`arrow_chain` ``v, u`` of the two
        ``noises`` from ``p`` (row by row on stacks)."""
        v, u = arrow_chain(U, p, noises)
        ju, jv = isometry_to_ginv(u.u, tol), isometry_to_ginv(v.u, tol)
        juv = isometry_to_ginv(U.compose(u, v).u, tol)
        return emax(
            Gp.arrow_distance(juv, Gp.compose(ju, jv)),
            Gp.source(ju).distance(U.source(u)),
            Gp.target(ju).distance(U.target(u)),
            Gp.arrow_distance(Gp.invert(ju), isometry_to_ginv(U.invert(u).u, tol)),
            # the pseudo-inverse pairing restricted to isometries is the same morphism
            mp_pair(u.u, tol).b.distance(ju.b),
        )

    # per isometry: the noises of the base point, v and u
    n = 200
    p, *noises = U.chain_noises(rng, n, arrows=2, loose=False)
    worst = float(np.max(residuals(U.base_at(p), noises)))
    return _record(
        "05 morphism laws",
        "u -> (u, u*) preserves s, t, composition and inversion",
        worst <= MORPHISM_TOL,
        worst,
        f"{n} isometries, worst law residual (tol {MORPHISM_TOL})",
    )


def check_isometry_pseudoinverse(tol: ToleranceConfig, seed: int) -> CheckRecord:
    """For partial isometries the pseudo-inverse is the adjoint (<= 1e-8)."""
    rng = np.random.default_rng(seed)
    shapes = [(2,), (3,), (2, 3)]
    rows = [sampling.RankedRows(shape, len(range(j, 100, 3)), matrices=2)
            for j, shape in enumerate(shapes)]
    for i in range(100):  # isometry i in the rows of shape i % 3
        rows[i % 3].draw(rng, i // 3)
    worst = 0.0
    for drawn in rows:
        u = sampling.partial_isometry_from(drawn.noise())
        worst = max(worst, max_norm(moore_penrose(u, tol) - u.adjoint()))
    return _record(
        "06 isometry pseudo-inverse",
        "u+ = u* on partial isometries",
        worst <= ISOMETRY_MP_TOL,
        worst,
        f"100 isometries, worst distance (tol {ISOMETRY_MP_TOL})",
    )


def check_dimension_identities(tol: ToleranceConfig, seed: int) -> CheckRecord:
    """Tangent dimensions match the closed forms 4r(n-r) and 2r(n-r); the
    anchor is onto the base tangent space; fiber = anchor rank + isotropy."""
    rng = np.random.default_rng(seed)
    failures = []
    for n in (2, 3):
        Gq = GInvGroupoid((n,), tol)
        Gp = PartialIsometryGroupoid((n,), tol)
        for r in range(n + 1):
            q = sampling.random_idempotent(rng, (n,), ranks=(r,))
            p = sampling.random_projection(rng, (n,), ranks=(r,))
            at_q, at_p = at(Gq, q, tol), at(Gp, p, tol)
            dim_q, dim_p = at_q.tangent.real_dim, at_p.tangent.real_dim
            if dim_q != 4 * r * (n - r):
                failures.append(f"dim T(Q) at n={n} r={r}: {dim_q} != {4*r*(n-r)}")
            if dim_p != 2 * r * (n - r):
                failures.append(f"dim T(P) at n={n} r={r}: {dim_p} != {2*r*(n-r)}")
            for point, dim_base in ((at_q, dim_q), (at_p, dim_p)):
                data, iso, kind = point.anchor, point.isotropy_dim, point.groupoid.kind
                if data.anchor_rank != dim_base:
                    failures.append(f"{kind} anchor rank {data.anchor_rank} != {dim_base}")
                if data.fiber_basis.real_dim - data.anchor_rank != iso:
                    failures.append(
                        f"{kind} fiber {data.fiber_basis.real_dim} - anchor "
                        f"{data.anchor_rank} != isotropy {iso}"
                    )
    return _record(
        "07 dimension identities",
        "dim T(Q) = 4r(n-r), dim T(P) = 2r(n-r), anchor onto, fiber = anchor + isotropy",
        not failures,
        len(failures),
        "; ".join(failures[:4]) or "checked every rank in M2 and M3",
    )


def check_isotropy_groups(tol: ToleranceConfig, seed: int) -> CheckRecord:
    """Isotropy tangent dimension at the unit is 2n^2 (invertible group) for
    reflexive pairs and n^2 (unitary group) for partial isometries."""
    failures = []
    for n in (2, 3):
        one = AlgebraElement.identity((n,))
        d_ginv = at(GInvGroupoid((n,), tol), one, tol).isotropy_dim
        d_iso = at(PartialIsometryGroupoid((n,), tol), one, tol).isotropy_dim
        if d_ginv != 2 * n * n:
            failures.append(f"ginv isotropy at unit, n={n}: {d_ginv} != {2*n*n}")
        if d_iso != n * n:
            failures.append(f"isometry isotropy at unit, n={n}: {d_iso} != {n*n}")
    return _record(
        "08 isotropy identifications",
        "isotropy at the unit is the invertible group (2n^2) resp. unitary group (n^2)",
        not failures,
        len(failures),
        "; ".join(failures) or "checked n = 2, 3",
    )


def check_transitivity_counterexample(tol: ToleranceConfig, seed: int) -> CheckRecord:
    """The tautological GL(n) action fails anchor surjectivity exactly at the
    origin and passes at 20 random nonzero points, for n = 1, 2, 3."""
    rng = np.random.default_rng(seed)
    failures = []
    for n in (1, 2, 3):
        G = ActionGroupoid(n, tol)
        at_zero = at(G, np.zeros(n), tol).anchor
        if at_zero.anchor_rank != 0:
            failures.append(f"n={n}: anchor rank {at_zero.anchor_rank} at 0, expected 0")
        for _ in range(20):
            x = rng.standard_normal(n)
            while np.linalg.norm(x) < 1e-3:
                x = rng.standard_normal(n)
            rank = at(G, x, tol).anchor.anchor_rank
            if rank != n:
                failures.append(f"n={n}: anchor rank {rank} at nonzero point, expected {n}")
    return _record(
        "09 transitivity counterexample",
        "the zero orbit of GL(n) on R^n is not open; all other points are regular",
        not failures,
        len(failures),
        "; ".join(failures[:3]) or "n = 1, 2, 3; 20 nonzero points each",
    )


def check_orbit_suite(tol: ToleranceConfig, seed: int) -> CheckRecord:
    """100 random projections split into classes exactly by rank; paths join
    points within a class and refuse to cross classes.  The points are
    classified as one stack, and the paths within classes are built by one
    :func:`~ginv.paths.orbit_paths` call."""
    rng = np.random.default_rng(seed)
    G = PartialIsometryGroupoid((3,), tol)
    drawn = G.base_at(G.base_noises(rng, 100))
    points = [drawn[i] for i in range(100)]
    classes = orbit_classes(G, points, tol)
    report = orbit_report(G, classes, len(points), tol)
    failures = []

    ranks = {sig[0] for sig in classes}
    if not ranks <= {0, 1, 2, 3}:
        failures.append(f"unexpected rank classes {sorted(ranks)}")
    class_records = [r for r in report.records if r.name.startswith("class")]
    if len(class_records) != len(classes):
        failures.append("report classes disagree with the invariant partition")

    joined = [(sig, members) for sig, members in sorted(classes.items()) if len(members) >= 2]
    within = orbit_paths([points[members[0]] for _, members in joined],
                         [points[members[1]] for _, members in joined], steps=16, tol=tol)
    for (sig, members), path in zip(joined, within):
        endpoint = path.end.distance(points[members[1]])
        if endpoint > ENDPOINT_TOL:
            failures.append(f"class {sig}: endpoint error {endpoint:.2e}")
        if path.max_lift_residual > LIFT_TOL:
            failures.append(f"class {sig}: lift residual {path.max_lift_residual:.2e}")

    sigs = sorted(classes, key=repr)
    crossed = 0
    for s1, s2 in zip(sigs, sigs[1:]):
        try:
            orbit_path(points[classes[s1][0]], points[classes[s2][0]], steps=16, tol=tol)
            failures.append(f"path across classes {s1} -> {s2} did not fail")
        except OrbitError:
            crossed += 1
    if crossed == 0 and len(sigs) > 1:
        failures.append("no cross-class rejection was exercised")
    return _record(
        "10 orbit suite",
        "orbit classes are rank classes; paths exist within and never across",
        not failures,
        len(failures),
        "; ".join(failures[:3]) or f"{len(classes)} classes over 100 projections",
    )


def check_reparametrization(tol: ToleranceConfig, seed: int) -> CheckRecord:
    """20 constructed paths keep their lift residual within 10x + 1e-6 under
    the time changes t, t^2 and smoothstep; the flat reparametrizer has
    vanishing derivatives at its knots.  Each shape's paths are built by one
    :func:`~ginv.paths.orbit_paths` call and reparametrized by one
    :func:`~ginv.paths.reparametrize_lifts` call per time change."""
    rng = np.random.default_rng(seed)
    failures = []
    maps = [
        ("identity", lambda t: t),
        ("square", lambda t: t * t),
        ("smoothstep", lambda t: 3 * t * t - 2 * t**3),
    ]
    pairs: dict = {2: [], 3: []}
    for i in range(20):
        n = 2 if i % 2 == 0 else 3
        r = int(rng.integers(1, n))
        p = sampling.random_projection(rng, (n,), ranks=(r,))
        q = sampling.random_projection(rng, (n,), ranks=(r,))
        pairs[n].append((i, p, q))
    # one shape at a time, so that only one shape's paths, splines and
    # reparametrized paths are held at once
    found: dict = {}
    for drawn in pairs.values():
        index, ps, qs = zip(*drawn)
        paths = orbit_paths(ps, qs, steps=16, tol=tol)
        residuals = [[out.max_lift_residual for out in reparametrize_lifts(paths, phi)]
                     for _, phi in maps]
        for k, (i, path) in enumerate(zip(index, paths)):
            bound = reparametrized_bound(path.max_lift_residual)
            found[i] = [f"path {i} under {name}: {res[k]:.2e} > {bound:.2e}"
                        for (name, _), res in zip(maps, residuals) if res[k] > bound]
    failures += [text for i in range(20) for text in found[i]]

    phi = smooth_reparametrizer([0.5])
    h = 1e-5
    d1 = abs(phi(0.5 + h) - phi(0.5 - h)) / (2 * h)
    d2 = abs(phi(0.5 + h) - 2 * phi(0.5) + phi(0.5 - h)) / h**2
    if max(d1, d2) > KNOT_DERIV_TOL:
        failures.append(f"knot derivatives {d1:.2e}, {d2:.2e}")
    return _record(
        "11 reparametrization",
        "(alpha . phi) phi' lifts c . phi; flat time changes vanish at knots",
        not failures,
        len(failures),
        "; ".join(failures[:3]) or "20 paths x 3 maps",
    )


def check_source_criterion(tol: ToleranceConfig, seed: int) -> CheckRecord:
    """Across 20+ families per shape: paired convergence iff the source
    projections converge; rank-stable families converge; rank drops blow up
    the pseudo-inverse norm faster than the distance shrinks.  Each shape's
    families are drawn and checked by
    :func:`~ginv.continuity.drawn_experiments`, in one stacked pass."""
    rng = np.random.default_rng(seed)
    failures = []
    n_families = 0
    kinds = [DRAWN_KINDS[i % 3] for i in range(20)]
    for shape in [(2,), (3,), (2, 1)]:
        for i, (fam, verdict) in enumerate(drawn_experiments(rng, shape, kinds, tol=tol)):
            if isinstance(verdict, GinvError):
                failures.append(f"{shape} family {i} ({fam.kind}): {verdict}")
                continue
            n_families += 1
            if verdict.pair_converges != verdict.source_converges:
                failures.append(f"{shape} family {i}: paired and source verdicts differ")
            if fam.kind in ("rank_preserving", "constant") and not verdict.pair_converges:
                failures.append(f"{shape} family {i} ({fam.kind}): expected convergence")
            if fam.kind == "rank_dropping":
                norms = np.array(verdict.mp_norms)
                tail = norms[len(norms) // 2 :]
                if verdict.pair_converges or np.any(np.diff(tail) <= 0):
                    failures.append(f"{shape} family {i}: norm trace not diverging")
                if norms[-1] * verdict.final_distance < 1e-2:
                    failures.append(f"{shape} family {i}: norms grow slower than 1/distance")
    return _record(
        "12 source criterion",
        "(a_n, a_n+) converges iff a_n+ a_n does; rank drops force |a_n+| -> inf",
        not failures,
        len(failures),
        "; ".join(failures[:3]) or f"{n_families} families across three shapes",
    )


def check_report_determinism(tol: ToleranceConfig, seed: int) -> CheckRecord:
    """Identical configuration produces byte-identical reports (in-process
    probe; the test suite repeats it across separate CLI invocations)."""
    def probe() -> bytes:
        rep = verify_axioms(PairGroupoid(3, tol, pool_size=5), seed=seed, n_samples=25)
        return rep.to_json_bytes()

    first, second = probe(), probe()
    return _record(
        "13 report determinism",
        "equal seeds yield byte-identical reports",
        first == second,
        len(first),
        "two in-process generations compared",
    )


ALL_CRITERIA = (
    check_penrose_suite,
    check_route_agreement,
    check_closure,
    check_axioms,
    check_morphism_laws,
    check_isometry_pseudoinverse,
    check_dimension_identities,
    check_isotropy_groups,
    check_transitivity_counterexample,
    check_orbit_suite,
    check_reparametrization,
    check_source_criterion,
    check_report_determinism,
)


def run_acceptance(tol: ToleranceConfig = DEFAULT_TOL, seed: int = 0) -> ExperimentReport:
    """Run the full battery; one record per criterion.

    A criterion that raises a :class:`GinvError` cannot be evaluated, so it
    fails with that error as its record; the other criteria still run.
    """
    report = ExperimentReport(
        suite="acceptance",
        config={"seed": seed, **dataclasses.asdict(tol)},
    )
    for k, criterion in enumerate(ALL_CRITERIA, start=1):
        try:
            record = criterion(tol, seed * 1000 + k)
        except GinvError as exc:
            record = _record(f"{k:02d} {criterion.__name__}", "the criterion runs to completion",
                             False, type(exc).__name__, str(exc))
        report.add(record)
    return report
