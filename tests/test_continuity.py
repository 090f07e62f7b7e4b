import numpy as np
import pytest

from ginv.algebra import AlgebraElement
from ginv.continuity import (
    SequenceFamily,
    continuity_experiment,
    discontinuity_demo,
    make_family,
)
from ginv.errors import InputError
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
