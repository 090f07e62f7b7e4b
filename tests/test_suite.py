"""Stacked criteria against one-at-a-time references.

Criteria 03, 05 and 12 draw their inputs in a fixed order and then compute on
stacks.  The references below draw and compute one element at a time with
``arrow_from`` and per-term pseudo-inverses; both must give the same record.
A stacked criterion that raises names the first row that fails at the first
failing step, which need not be the error the references raise first.
"""

import json

import numpy as np
import pytest

from ginv import suite
from ginv.cli import main
from ginv.continuity import ContinuityVerdict, _trend_converges
from ginv.errors import ConsistencyError, GinvError, InputError
from ginv.geninv import is_ginv_pair, moore_penrose, mp_pair
from ginv.groupoid import GInvGroupoid, PartialIsometryGroupoid, isometry_to_ginv
from ginv.linalg import DEFAULT_TOL


def closure_one_at_a_time(tol, seed):
    rng = np.random.default_rng(seed)
    shapes = [(2,), (3,), (2, 3)]
    worst = 0.0
    for i in range(500):
        G = GInvGroupoid(shapes[i % len(shapes)], tol)
        x = G.sample_base_point(rng)
        g2 = G.arrow_from(x, rng)
        g1 = G.arrow_from(G.target(g2), rng)
        g = G.compose(g1, g2)
        if not is_ginv_pair(g.a, g.b, tol):
            return suite._record("03 composition closure", "composites satisfy aba = a, bab = b",
                                 False, float("nan"), f"pair {i} failed the reflexivity check")
        for e in (G.source(g), G.target(g)):
            worst = max(worst, (e @ e - e).norm() / (suite.CLOSURE_TOL * (1.0 + e.norm() ** 2)))
    return suite._record(
        "03 composition closure",
        "(ab)^2 = ab and (ba)^2 = ba for composed pairs",
        worst <= 1.0,
        worst,
        "500 composable pairs, worst idempotency residual/bound",
    )


def morphism_laws_one_at_a_time(tol, seed):
    rng = np.random.default_rng(seed)
    U = PartialIsometryGroupoid((2,), tol)
    Gp = GInvGroupoid((2,), tol)
    worst = 0.0
    for _ in range(200):
        v = U.arrow_from(U.sample_base_point(rng), rng)
        u = U.arrow_from(U.target(v), rng)
        ju, jv = isometry_to_ginv(u.u, tol), isometry_to_ginv(v.u, tol)
        juv = isometry_to_ginv(U.compose(u, v).u, tol)
        worst = max(worst, Gp.arrow_distance(juv, Gp.compose(ju, jv)))
        worst = max(worst, Gp.source(ju).distance(U.source(u)))
        worst = max(worst, Gp.target(ju).distance(U.target(u)))
        worst = max(worst, Gp.arrow_distance(Gp.invert(ju), isometry_to_ginv(U.invert(u).u, tol)))
        worst = max(worst, mp_pair(u.u, tol).b.distance(ju.b))
    return suite._record(
        "05 morphism laws",
        "u -> (u, u*) preserves s, t, composition and inversion",
        worst <= suite.MORPHISM_TOL,
        worst,
        f"200 isometries, worst law residual (tol {suite.MORPHISM_TOL})",
    )


def continuity_one_term_at_a_time(fam, tol=DEFAULT_TOL):
    # each term from the per-index formula, not a row of the family's stack
    terms = [fam.generator(n) for n in range(1, fam.horizon + 1)]
    distances = np.array([t.distance(fam.limit) for t in terms])
    fam._validate_distances(distances)
    if fam.limit.norm() == 0.0:
        raise InputError("the experiment requires a nonzero limit")
    limit_dagger = moore_penrose(fam.limit, tol)
    limit_source = limit_dagger @ fam.limit
    d_pair, d_source, mp_norms = [], [], []
    for a_n, d_n in zip(terms, distances.tolist()):
        if a_n.norm() == 0.0:
            raise InputError("family terms must stay nonzero")
        dagger = moore_penrose(a_n, tol)
        d_pair.append(max(d_n, dagger.distance(limit_dagger)))
        d_source.append((dagger @ a_n).distance(limit_source))
        mp_norms.append(dagger.norm())
    pair_ok = _trend_converges(np.array(d_pair))
    source_ok = _trend_converges(np.array(d_source))
    if pair_ok != source_ok:
        raise ConsistencyError("paired convergence and source convergence disagree")
    return ContinuityVerdict(pair_ok, source_ok, tuple(d_pair), tuple(d_source), tuple(mp_norms),
                             float(distances[-1]))


def outcome(criterion, seed):
    """A record as comparable values (``nan`` included), or the error it raised."""
    try:
        r = criterion(DEFAULT_TOL, seed)
    except GinvError as exc:
        return ("raised", type(exc).__name__, str(exc))
    return (r.name, r.anchor, r.passed, repr(r.value), r.details)


# the closure seeds of battery seeds 0, 1, 3 and 5: before arrow exponents were
# bounded, 1003 raised (a drawn arrow missed aba = a) and 3003 and 5003 exceeded
# the bound
@pytest.mark.parametrize("seed", [3, 1003, 3003, 5003])
def test_closure_equals_one_at_a_time(seed):
    assert outcome(suite.check_closure, seed) == outcome(closure_one_at_a_time, seed)


@pytest.mark.parametrize("seed", [5, 1005])
def test_morphism_laws_equal_one_at_a_time(seed):
    assert outcome(suite.check_morphism_laws, seed) == outcome(morphism_laws_one_at_a_time, seed)


@pytest.mark.parametrize("seed", [12, 1012])
def test_source_criterion_verdicts_equal_one_term_at_a_time(seed, monkeypatch):
    compared = []
    from ginv import continuity

    experiments = continuity.continuity_experiments

    def both(families, tol):
        outcomes = experiments(families, tol)
        for fam, stacked in zip(families, outcomes):
            assert stacked == continuity_one_term_at_a_time(fam, tol)
            assert all(type(v) is float for v in stacked.distances_pair + stacked.mp_norms)
            # the rank-drop test reads the last term's distance from the experiment
            rebuilt = fam.generator(fam.horizon).distance(fam.limit)
            assert stacked.final_distance.hex() == rebuilt.hex()
            compared.append(fam.kind)
        return outcomes

    stacked = outcome(suite.check_source_criterion, seed)
    monkeypatch.setattr(continuity, "continuity_experiments", both)
    assert outcome(suite.check_source_criterion, seed) == stacked
    assert len(compared) == 60


def drawn(fam):
    """A drawn family as comparable values: kind, horizon, limit and directions."""
    return (fam.kind, fam.horizon, [b.tobytes() for b in fam.limit.blocks],
            [None if d is None else d.tobytes() for d in fam.directions])


def test_criterion_12_and_the_cli_draw_families_alike(monkeypatch, capsys):
    from ginv import continuity

    calls = {"suite": [], "cli": []}
    draw_families = continuity.draw_families

    def recording(caller):
        def draw(rng, shape, kinds, horizon=continuity.DEFAULT_HORIZON, tol=DEFAULT_TOL):
            state = rng.bit_generator.state
            families = draw_families(rng, shape, kinds, horizon, tol)
            calls[caller].append((state, tuple(shape), horizon, tol, [drawn(f) for f in families]))
            return families
        return draw

    # both draw through continuity.drawn_experiments
    monkeypatch.setattr(continuity, "draw_families", recording("suite"))
    assert suite.check_source_criterion(DEFAULT_TOL, 12).passed
    monkeypatch.setattr(continuity, "draw_families", recording("cli"))
    assert main(["continuity", "--shape", "2", "--count", "17", "--seed", "12",
                 "--no-timestamp"]) == 0
    capsys.readouterr()
    assert [len(call[-1]) for call in calls["suite"]] == [20, 20, 20]
    # the command draws in passes of whole families, 45 families of 64 terms of
    # 4 entries each
    assert [len(call[-1]) for call in calls["cli"]] == [45, 6]
    # criterion 12's first shape is (2,): its 20 draws are the command's first 20
    first = calls["suite"][0]
    assert calls["cli"][0][:4] == first[:4]
    assert [f for call in calls["cli"] for f in call[-1]][:20] == first[4]


def test_closure_pair_205_at_seed_1003_draws_from_a_large_target():
    # g2's target has norm 14; the unbounded exponent of g1 had norm 348, and
    # building g1 raised "aba = a fails with residual 1.865e+03"
    rng = np.random.default_rng(1003)
    groupoids = [GInvGroupoid(shape) for shape in [(2,), (3,), (2, 3)]]
    for i in range(206):
        G = groupoids[i % len(groupoids)]
        x, noise2, noise1 = G.sample_base_point(rng), G.arrow_noise(rng), G.arrow_noise(rng)
    assert G.target(G.arrow_at(x, noise2)).norm() > 14.0
    assert suite._closure_ratios(G, x, (noise2, noise1)) <= 1.0


def stand_in(tol, seed):
    return suite._record("stand-in", "a criterion that passes", True, 0.0)


@pytest.mark.parametrize("error, code", [(InputError("injected"), 1), (ValueError("injected"), 2)])
def test_raising_criterion_fails_alone(monkeypatch, capsys, error, code):
    def check_refuses(tol, seed):
        raise error

    monkeypatch.setattr(suite, "ALL_CRITERIA", (stand_in,) * 2 + (check_refuses,) + (stand_in,) * 10)
    assert main(["suite", "--no-timestamp"]) == code
    records = json.loads(capsys.readouterr().out)["records"]
    if code == 2:  # not a GinvError: the program is at fault, not a check
        assert [(r["name"], r["value"]) for r in records] == [("error", "ValueError")]
        return
    assert len(records) == 13
    assert [(r["name"], r["value"], r["details"]) for r in records if not r["passed"]] == [
        ("03 check_refuses", "InputError", "injected")]
