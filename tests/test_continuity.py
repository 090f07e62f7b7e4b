import numpy as np
import pytest
from test_suite import continuity_one_term_at_a_time

from ginv import continuity, sampling
from ginv.algebra import AlgebraElement
from ginv.continuity import (
    DRAWN_KINDS,
    SequenceFamily,
    continuity_experiment,
    continuity_experiments,
    discontinuity_demo,
    draw_families,
    draw_family,
    make_family,
)
from ginv.errors import GinvError, InputError
from ginv.linalg import numerical_rank
from ginv.sampling import well_conditioned_element


def diag(*values):
    return AlgebraElement.from_blocks([np.diag([complex(v) for v in values])])


BASE = diag(1, 0)


class TestMakeFamily:
    def test_constant(self):
        fam = make_family("constant", BASE)
        assert all(t.distance(BASE) == 0.0 for t in fam.terms())

    def test_rank_dropping_appends_direction(self):
        fam = make_family("rank_dropping", BASE)
        a5 = fam.generator(5)
        assert a5.distance(diag(1, 0.2)) <= 1e-12
        assert numerical_rank(a5.blocks[0]) == 2
        assert np.isclose(a5.distance(BASE), 0.2)

    def test_rank_preserving_keeps_rank(self):
        fam = make_family("rank_preserving", BASE)
        assert fam.generator(4).distance(diag(1.25, 0)) <= 1e-12
        for n in (1, 3, 9):
            assert numerical_rank(fam.generator(n).blocks[0]) == 1

    def test_zero_base_rejected(self):
        with pytest.raises(InputError):
            make_family("rank_dropping", AlgebraElement.zeros((2,)))

    def test_full_rank_base_cannot_drop(self):
        with pytest.raises(InputError):
            make_family("rank_dropping", AlgebraElement.identity((2,)))

    def test_validation_accepts_reciprocal_decay(self):
        make_family("rank_dropping", BASE).validate()
        make_family("rank_preserving", BASE).validate()

    def test_validation_rejects_non_convergent(self):
        fam = SequenceFamily("custom", lambda n: diag(1, 1), BASE)
        with pytest.raises(InputError):
            fam.validate()


def assert_same_bits(got: AlgebraElement, want: AlgebraElement):
    assert got.shape == want.shape
    for a, b in zip(got.blocks, want.blocks):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestOneFactorPerBlock:
    """``make_family`` factors each block it looks at once, by one full SVD,
    and builds its direction from that factorization."""

    @staticmethod
    def svd_calls(monkeypatch, kind, base):
        base.norm()  # stored, so only the block factors are counted
        calls, svd = [], np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        fam = make_family(kind, base)
        monkeypatch.undo()
        return fam, len(calls)

    def test_rank_dropping_at_a_deficient_first_block(self, monkeypatch):
        base = well_conditioned_element(np.random.default_rng(0), (2, 1), ranks=(1, 1))
        fam, calls = self.svd_calls(monkeypatch, "rank_dropping", base)
        assert calls == 1
        u, _, vh = np.linalg.svd(base.blocks[0])
        r = numerical_rank(base.blocks[0])
        assert fam.directions[0].tobytes() == np.outer(u[:, r], vh[r].conj()).tobytes()
        assert fam.directions[1] is None

    def test_rank_preserving_past_a_zero_first_block(self, monkeypatch):
        base = well_conditioned_element(np.random.default_rng(0), (2, 2), ranks=(0, 1))
        assert not base.blocks[0].any()
        fam, calls = self.svd_calls(monkeypatch, "rank_preserving", base)
        assert calls == 2
        u, s, vh = np.linalg.svd(base.blocks[1])
        r = numerical_rank(base.blocks[1])
        assert fam.directions[0] is None
        assert fam.directions[1].tobytes() == ((u[:, :r] * s[:r]) @ vh[:r]).tobytes()


class TestTermStack:
    @pytest.mark.parametrize("horizon", [8, 64])
    @pytest.mark.parametrize("shape", [(2,), (3,), (2, 1), (1, 2, 3)])
    @pytest.mark.parametrize("kind", ["rank_preserving", "rank_dropping", "constant"])
    def test_stack_equals_stacked_generated_terms_bit_for_bit(self, kind, shape, horizon):
        rng = np.random.default_rng(sum(shape) * 100 + horizon)
        # deficient but nonzero ranks, so both perturbation kinds apply
        ranks = None if kind == "constant" else tuple(max(1, n - 1) for n in shape)
        base = well_conditioned_element(rng, shape, ranks=ranks)
        fam = make_family(kind, base, horizon=horizon)
        stack = fam.term_stack()
        assert [b.shape[0] for b in stack.blocks] == [horizon] * len(shape)
        assert_same_bits(stack, AlgebraElement.stack(
            [fam.generator(n) for n in range(1, horizon + 1)]))
        assert fam.term_stack() is stack  # built once
        for n, term in enumerate(fam.terms(), start=1):
            assert_same_bits(term, fam.generator(n))
        assert np.array_equal(fam.distances(), stack.distance(base))

    def test_perturbation_is_kept(self):
        fam = make_family("rank_dropping", BASE)
        assert fam.directions[0] is not None
        assert_same_bits(fam.generator(4), diag(1, 0.25))
        assert make_family("constant", BASE).directions == (None,)

    def test_custom_family_is_generated_once_and_stacked(self):
        calls = []

        def gen(n):
            calls.append(n)
            return diag(1 + 1 / n, 0)

        fam = SequenceFamily("custom", gen, BASE, horizon=16)
        assert fam.directions is None
        terms = fam.terms()
        assert calls == list(range(1, 17))
        assert_same_bits(fam.term_stack(), AlgebraElement.stack([gen(n) for n in range(1, 17)]))
        calls.clear()
        fam.validate()
        verdict = continuity_experiment(fam)
        assert calls == []  # distances and the experiment read the stack
        assert verdict.pair_converges and verdict.source_converges
        for n, term in enumerate(terms, start=1):
            assert_same_bits(term, diag(1 + 1 / n, 0))

    def test_directions_must_match_the_blocks(self):
        with pytest.raises(InputError):
            SequenceFamily("custom", lambda n: BASE, BASE, directions=(None, None))


class TestContinuityExperiment:
    def test_divergent_family(self):
        fam = SequenceFamily("custom", lambda n: diag(1, 1 / n), BASE)
        verdict = continuity_experiment(fam)
        assert not verdict.pair_converges and not verdict.source_converges
        # the pseudo-inverse norms blow up like n
        assert verdict.mp_norms[-1] == pytest.approx(fam.horizon)

    def test_convergent_family(self):
        fam = SequenceFamily("custom", lambda n: diag(1 + 1 / n, 0), BASE)
        verdict = continuity_experiment(fam)
        assert verdict.pair_converges and verdict.source_converges

    def test_constant_family(self):
        verdict = continuity_experiment(make_family("constant", BASE))
        assert verdict.pair_converges and verdict.source_converges

    def test_zero_limit_rejected(self):
        fam = SequenceFamily(
            "custom", lambda n: diag(1 / n, 0), AlgebraElement.zeros((2,))
        )
        with pytest.raises(InputError):
            continuity_experiment(fam)

    def test_verdicts_agree_across_random_families(self, rng):
        for shape in [(2,), (3,), (2, 1)]:
            for i in range(8):
                ranks = tuple(max(0, n - 1) for n in shape)
                base = well_conditioned_element(rng, shape, ranks=ranks)
                kind = ("rank_preserving", "rank_dropping")[i % 2]
                verdict = continuity_experiment(make_family(kind, base))
                assert verdict.pair_converges == verdict.source_converges
                assert verdict.pair_converges == (kind == "rank_preserving")


def one_by_one(rng, shape, kinds):
    """Successive ``draw_family`` calls, up to the first that raises."""
    families = []
    for kind in kinds:
        try:
            families.append(draw_family(rng, shape, kind))
        except GinvError as exc:
            return families, exc
    return families, None


def assert_same_family(got, want):
    assert (got.kind, got.horizon) == (want.kind, want.horizon)
    assert_same_bits(got.limit, want.limit)
    assert len(got.directions) == len(want.directions)
    for d, e in zip(got.directions, want.directions):
        assert (d is None and e is None) or d.tobytes() == e.tobytes()
    assert_same_bits(got.term_stack(), want.term_stack())


class TestDrawFamilies:
    """``draw_families`` is successive ``draw_family`` calls in one pass."""

    @pytest.mark.parametrize("shape, seed", [((2,), 0), ((3,), 1), ((2, 1), 2), ((8,), 3)])
    def test_equals_successive_draws_bit_for_bit(self, monkeypatch, shape, seed):
        kinds = [DRAWN_KINDS[i % 3] for i in range(20)]
        want, error = one_by_one(np.random.default_rng(seed), shape, kinds)
        assert error is None
        noises, noise = [], sampling.well_conditioned_noise

        def counting(*args, **kwargs):
            noises.append(args)
            return noise(*args, **kwargs)

        monkeypatch.setattr(sampling, "well_conditioned_noise", counting)
        rng = np.random.default_rng(seed)
        got = draw_families(rng, shape, kinds)
        monkeypatch.undo()
        assert len(noises) > len(kinds)  # some zero bases were drawn again
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_family(g, w)
        reference = np.random.default_rng(seed)
        one_by_one(reference, shape, kinds)
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_no_kinds_draw_nothing(self):
        rng = np.random.default_rng(0)
        assert draw_families(rng, (2,), []) == []
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    @pytest.mark.parametrize("shape, kinds", [
        # a 1x1 rank-dropping base is zero even when drawn again
        ((1,), ["constant", "rank_preserving", "rank_dropping", "rank_dropping"]),
        ((2,), ["rank_preserving", "custom", "rank_dropping"]),
        ((2,), ["constant", "no such kind"]),
    ])
    def test_raises_the_error_of_the_first_family_that_raises(self, shape, kinds):
        families, error = one_by_one(np.random.default_rng(3), shape, kinds)
        assert error is not None
        with pytest.raises(type(error)) as raised:
            draw_families(np.random.default_rng(3), shape, kinds)
        assert str(raised.value) == str(error)


def as_outcome(outcome):
    if isinstance(outcome, GinvError):
        return ("raised", type(outcome).__name__, str(outcome))
    return outcome


def alone(fam, experiment=continuity_experiment):
    try:
        return experiment(fam)
    except GinvError as exc:
        return as_outcome(exc)


class TestContinuityExperiments:
    """Each family's outcome in a stack equals its experiment alone."""

    @staticmethod
    def mixed_families():
        rng = np.random.default_rng(21)
        kinds = [DRAWN_KINDS[i % 3] for i in range(6)]
        tiny = diag(1e-20, 0)  # small enough that the zero term keeps the distances decreasing
        raising = [
            SequenceFamily("custom", lambda n: diag(1, n % 2), BASE),  # distances go up and down
            SequenceFamily("custom", lambda n: tiny * (0.0 if n == 40 else 1 + 1 / n), tiny),
            # the pseudo-inverse of a subnormal limit overflows
            SequenceFamily("custom", lambda n: diag(1e-320 * (1 + 1 / n), 0), diag(1e-320, 0)),
        ]
        families = draw_families(rng, (2,), kinds)
        return (families[:2] + raising[:1] + families[2:4] + raising[:0:-1]
                + draw_families(rng, (3,), kinds) + families[4:])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_only_the_raising_families_fail_with_their_own_errors(self):
        families = self.mixed_families()
        outcomes = continuity_experiments(families)
        assert len(outcomes) == len(families)
        failed = [i for i, o in enumerate(outcomes) if isinstance(o, GinvError)]
        assert failed == [2, 5, 6]
        messages = [str(outcomes[i]) for i in failed]
        assert messages[0] == "distances to the declared limit are not decreasing"
        assert "non-finite" in messages[1]
        assert messages[2] == "family terms must stay nonzero"
        for fam, got in zip(families, outcomes):
            assert as_outcome(got) == alone(fam)
            assert as_outcome(got) == alone(fam, continuity_one_term_at_a_time)

    def test_terms_are_not_kept_on_the_families(self):
        families = draw_families(np.random.default_rng(4), (2,), DRAWN_KINDS)
        continuity_experiments(families)
        assert all("_term_stack" not in fam.__dict__ for fam in families)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_chunks_of_whole_families_within_the_row_bound(self, monkeypatch):
        families = self.mixed_families()
        want = [as_outcome(o) for o in continuity_experiments(families)]
        chunks, stacked = [], continuity._stacked_outcomes

        def recording(chunk, tol):
            chunks.append(chunk)
            return stacked(chunk, tol)

        monkeypatch.setattr(continuity, "_stacked_outcomes", recording)
        monkeypatch.setattr(continuity, "EXPERIMENT_ROWS", 150)  # two families of 64 terms
        assert [as_outcome(o) for o in continuity_experiments(families)] == want
        # a chunk holds one shape; the chunk [4, 5] raises as a whole and is
        # checked again family by family
        ids = {id(f): i for i, f in enumerate(families)}
        assert [[ids[id(f)] for f in chunk] for chunk in chunks] == [
            [0, 1], [2, 3], [4, 5], [4], [5], [6], [7, 8], [9, 10], [11, 12], [13, 14]]
        chunks.clear()
        long = make_family("rank_dropping", BASE, horizon=200)
        outcomes = continuity_experiments([families[0], long, families[1]])
        assert [[f.horizon for f in chunk] for chunk in chunks] == [[64], [200], [64]]
        assert outcomes[1] == continuity_experiment(long)

    @pytest.mark.parametrize("shape", [(1,), (2,), (3,), (2, 1)])
    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e-310, 5e-324, 0.0])
    def test_zero_terms_by_entries_agree_with_the_norm(self, shape, scale):
        x = sampling.random_element(np.random.default_rng(7), shape)
        x = x * (1.0 / max(np.abs(b).max() for b in x.blocks))  # largest entry modulus 1
        rows = AlgebraElement.stack([x * scale, x * 0.0, x * (scale * 0.5)])
        by_entries = np.logical_or.reduce([b.any(axis=(-2, -1)) for b in rows.blocks])
        assert np.array_equal(by_entries, rows.norm() != 0.0)
        if 0.0 < scale < 1e-300:
            assert by_entries[0]  # subnormal entries: not zero, and neither is the norm


class TestDiscontinuityDemo:
    def test_singular_base(self):
        report = discontinuity_demo(BASE)
        assert report.all_passed
        names = {r.name for r in report.records}
        assert names == {"rank-preserving trace", "rank-dropping trace"}

    def test_shift_base(self):
        e12 = AlgebraElement.from_blocks([np.array([[0, 1], [0, 0]], dtype=complex)])
        assert discontinuity_demo(e12).all_passed

    def test_invertible_base_rejected(self):
        with pytest.raises(InputError):
            discontinuity_demo(AlgebraElement.identity((2,)))

    def test_zero_base_rejected(self):
        with pytest.raises(InputError):
            discontinuity_demo(AlgebraElement.zeros((2,)))
