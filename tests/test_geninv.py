import numpy as np
import per_row_draws
import pytest
from hypothesis import given, settings, strategies as st

from ginv.algebra import AlgebraElement, classify
from ginv.errors import ConvergenceError, InputError, ShapeMismatchError
from ginv.geninv import (
    GInvPair,
    is_ginv_pair,
    moore_penrose,
    mp_pair,
    newton_schulz,
    penrose_residuals,
    sample_ginv_pairs,
)
from ginv.linalg import DEFAULT_TOL
from ginv.sampling import (
    SV_RANGE,
    RankedRows,
    partial_isometry_from,
    random_block_ranks,
    well_conditioned_element,
    well_conditioned_from,
)


def mat(entries):
    return AlgebraElement.from_blocks([np.array(entries, dtype=complex)])


def conditioned(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 5),
                deficiency=st.integers(0, 1)):
    def build(s, n, d):
        rng = np.random.default_rng(s)
        return well_conditioned_element(rng, (n,), ranks=(n - d,))

    return st.builds(build, seed, size, deficiency)


class TestMoorePenrose:
    def test_projection_is_self_inverse(self):
        p = mat([[1, 0], [0, 0]])
        assert moore_penrose(p).distance(p) == 0.0

    def test_elementary(self):
        assert moore_penrose(mat([[0, 1], [0, 0]])).distance(mat([[0, 0], [1, 0]])) == 0.0
        res = penrose_residuals(mat([[0, 1], [0, 0]]), mat([[0, 0], [1, 0]]))
        assert res.max() == 0.0

    def test_invertible(self, rng):
        a = well_conditioned_element(rng, (3,))
        inv = AlgebraElement((3,), (np.linalg.inv(a.blocks[0]),))
        assert moore_penrose(a).distance(inv) <= DEFAULT_TOL.residual_tol

    def test_phase_convention_independence(self, rng):
        # recomputing through a unitarily rotated copy lands on the same inverse
        a = well_conditioned_element(rng, (4,), ranks=(2,))
        d1 = moore_penrose(a)
        d2 = moore_penrose(a * 1.0)
        assert d1.distance(d2) == 0.0


@pytest.mark.parametrize("shape", [(2,), (3,), (8,), (2, 3)])
def test_stacked_moore_penrose_equals_each_row_bit_for_bit(shape):
    rng = np.random.default_rng(11)
    ranks = [(0,) * len(shape), tuple(n - 1 for n in shape), shape]  # zero, deficient, full
    ranks += [random_block_ranks(rng, shape) for _ in range(9)]     # mixed
    elements = [well_conditioned_element(rng, shape, ranks=r) for r in ranks]
    stacked = moore_penrose(AlgebraElement.stack(elements))
    for i, a in enumerate(elements):
        single = moore_penrose(a)
        for stacked_block, block in zip(stacked.blocks, single.blocks):
            assert stacked_block[i].tobytes() == block.tobytes()
    for block in stacked.blocks:  # the rank-0 row is exact +0.0
        assert not np.signbit(block[0].view(float)).any() and not block[0].any()


@given(conditioned())
@settings(max_examples=25, deadline=None)
def test_involution_and_adjoint_compat(a):
    dagger = moore_penrose(a)
    bound = DEFAULT_TOL.residual_tol * (1 + a.norm())
    assert moore_penrose(dagger).distance(a) <= bound
    assert moore_penrose(a.adjoint()).distance(dagger.adjoint()) <= bound


class TestNewtonSchulz:
    def test_identity_fixed_point(self):
        one = AlgebraElement.identity((2,))
        assert newton_schulz(one).distance(one) <= 1e-12

    def test_singular_diagonal(self):
        assert newton_schulz(mat([[2, 0], [0, 0]])).distance(mat([[0.5, 0], [0, 0]])) <= 1e-12

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            newton_schulz(AlgebraElement.zeros((2,)))

    def test_near_rank_deficiency(self):
        # the documented hard case: either settle on the truncated inverse
        # or report no convergence
        a = mat([[1, 0], [0, 1e-13]])
        try:
            x = newton_schulz(a)
        except ConvergenceError as err:
            assert err.residual > 0
        else:
            assert x.distance(moore_penrose(a)) <= 10 * DEFAULT_TOL.residual_tol

    def test_route_agreement(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            rank = n - int(rng.integers(0, 2))
            a = well_conditioned_element(rng, (n,), ranks=(rank,))
            assert newton_schulz(a).distance(moore_penrose(a)) <= 1e-7


def ns_iterations(a) -> int:
    """The number of iterations after which ``newton_schulz(a)`` stops."""
    for k in range(1, 65):
        try:
            newton_schulz(a, max_iter=k)
        except ConvergenceError:
            continue
        return k
    raise AssertionError("no convergence in 64 iterations")


def conditioned_rows(rng, shape, sv_ranges):
    """One well-conditioned element per singular value range, its drawn
    singular values mapped affinely from :data:`SV_RANGE` onto the range,
    the ranks alternating between full and deficient by one in every block
    of size 2 or more."""
    (lo, hi), rows = SV_RANGE, []
    for i, (low, high) in enumerate(sv_ranges):
        ranks = tuple(max(1, n - i % 2) for n in shape)
        noise = per_row_draws.well_conditioned_noise(rng, shape, ranks=ranks)
        rows.append(well_conditioned_from(tuple(
            (np.where(s > 0, low + (s - lo) * ((high - low) / (hi - lo)), 0.0), *m)
            for s, *m in noise)))
    return rows


class TestStackedNewtonSchulz:
    SV_RANGES = [(0.5, 2.0), (0.05, 1.0), (1.0, 1.0), (1e-3, 3.0), (0.9, 1.1), (0.01, 10.0)]

    @pytest.mark.parametrize("shape", [(1,), (2,), (3,), (6,), (2, 3)], ids=str)
    def test_rows_equal_single_calls_bit_for_bit(self, rng, shape):
        rows = conditioned_rows(rng, shape, self.SV_RANGES)
        stacked = newton_schulz(AlgebraElement.stack(rows))
        assert stacked.is_stack
        for i, a in enumerate(rows):
            single = newton_schulz(a)
            assert all(np.array_equal(s[i], b) for s, b in zip(stacked.blocks, single.blocks))
        if shape != (1,):  # a 1x1 block converges in as many steps at every size
            assert len({ns_iterations(a) for a in rows}) >= 3

    def test_zero_row_rejected(self, rng):
        rows = conditioned_rows(rng, (2, 3), self.SV_RANGES[:3])
        rows[1] = AlgebraElement.zeros((2, 3))
        with pytest.raises(InputError):
            newton_schulz(AlgebraElement.stack(rows))

    def test_exhausted_rows_raise_the_first_one_s_single_error(self, rng):
        rows = conditioned_rows(rng, (3,), [(0.9, 1.1), (0.01, 10.0), (1.0, 1.0), (1e-3, 3.0)])
        counts = [ns_iterations(a) for a in rows]
        max_iter = counts[0]  # rows 0 and 2 converge within it, rows 1 and 3 do not
        assert [k > max_iter for k in counts] == [False, True, False, True]
        with pytest.raises(ConvergenceError) as single:
            newton_schulz(rows[1], max_iter=max_iter)
        with pytest.raises(ConvergenceError) as stacked:
            newton_schulz(AlgebraElement.stack(rows), max_iter=max_iter)
        assert str(stacked.value) == str(single.value)
        assert (stacked.value.residual, stacked.value.iterations) == (
            single.value.residual, single.value.iterations)


class TestPenroseResiduals:
    def test_mp_pair_is_small(self, rng):
        a = well_conditioned_element(rng, (3,), ranks=(2,))
        res = penrose_residuals(a, moore_penrose(a))
        assert res.max() <= DEFAULT_TOL.residual_tol * (1 + a.norm())

    def test_projection_with_itself(self):
        p = mat([[1, 0], [0, 0]])
        assert penrose_residuals(p, p).max() == 0.0

    def test_symmetry_violation_detected(self):
        a = mat([[1, 0], [1, 0]])
        res = penrose_residuals(a, a)
        assert res.r1 <= 1e-15 and res.r3 > 0.1

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatchError):
            penrose_residuals(
                well_conditioned_element(rng, (2,)), well_conditioned_element(rng, (3,))
            )


class TestIsGinvPair:
    def test_skew_pair(self):
        assert is_ginv_pair(mat([[1, 0], [0, 0]]), mat([[1, 0], [1, 0]]))

    def test_mp_pair(self, rng):
        a = well_conditioned_element(rng, (3,), ranks=(1,))
        assert is_ginv_pair(a, moore_penrose(a))

    def test_zero_partner_fails(self, rng):
        a = well_conditioned_element(rng, (2,))
        assert not is_ginv_pair(a, AlgebraElement.zeros((2,)))


class TestSampleGinvPairs:
    def test_invertible_has_unique_inverse(self, rng):
        a = well_conditioned_element(rng, (3,))
        inv = AlgebraElement((3,), (np.linalg.inv(a.blocks[0]),))
        for pair in sample_ginv_pairs(a, seed=5, count=4):
            assert pair.b.distance(inv) <= 1e-8 * (1 + inv.norm())

    def test_zero_element(self):
        zero = AlgebraElement.zeros((2,))
        for pair in sample_ginv_pairs(zero, seed=1, count=3):
            assert pair.b.norm() == 0.0

    def test_singular_fiber_is_rich(self):
        a = mat([[1, 0], [0, 0]])
        pairs = sample_ginv_pairs(a, seed=42, count=8)
        assert len(pairs) == 8
        assert all(is_ginv_pair(p.a, p.b) for p in pairs)
        spread = max(
            pairs[i].b.distance(pairs[j].b) for i in range(8) for j in range(i + 1, 8)
        )
        assert spread > 1e-6  # at least two distinct inverses

    def test_deterministic_in_seed(self, rng):
        a = well_conditioned_element(rng, (2, 3), ranks=(1, 2))
        p1 = sample_ginv_pairs(a, seed=9, count=3)
        p2 = sample_ginv_pairs(a, seed=9, count=3)
        assert all(x.b.distance(y.b) == 0.0 for x, y in zip(p1, p2))

    def test_sources_and_targets_idempotent(self, rng):
        a = well_conditioned_element(rng, (3,), ranks=(2,))
        for pair in sample_ginv_pairs(a, seed=3, count=6):
            scale = 1 + (pair.a.norm() * pair.b.norm()) ** 2
            ab, ba = pair.a @ pair.b, pair.b @ pair.a
            assert (ab @ ab - ab).norm() <= DEFAULT_TOL.residual_tol * scale
            assert (ba @ ba - ba).norm() <= DEFAULT_TOL.residual_tol * scale


class TestPairing:
    def test_projection_pairs_with_itself(self):
        p = mat([[1, 0], [0, 0]])
        pair = mp_pair(p)
        assert pair.a.distance(p) == 0.0 and pair.b.distance(p) == 0.0

    def test_elementary(self):
        pair = mp_pair(mat([[0, 1], [0, 0]]))
        assert pair.b.distance(mat([[0, 0], [1, 0]])) == 0.0

    def test_projection_recovers_element(self, rng):
        for _ in range(100):
            a = well_conditioned_element(rng, (2,))
            assert mp_pair(a).a is a

    def test_isometry_inverse_is_adjoint(self, rng):
        rows = RankedRows((3,), 20, 2)
        for i in range(20):
            rows.draw(rng, i)
        isometries = partial_isometry_from(rows.noise())
        for i in range(20):
            u = isometries[i]
            assert classify(u).partial_isometry
            assert moore_penrose(u).distance(u.adjoint()) <= 1e-8


def test_ginv_pair_validates_on_creation(rng):
    a = well_conditioned_element(rng, (2,))
    with pytest.raises(InputError):
        GInvPair.create(a, AlgebraElement.zeros((2,)))


class TestReflexivityNorms:
    def test_one_stacked_norm_call_and_one_residual_at_an_identity(self, rng, monkeypatch):
        from ginv.sampling import random_idempotent

        q = random_idempotent(rng, (2, 3), ranks=(1, 2))
        twin = AlgebraElement(q.shape, q.blocks)
        separate = GInvPair.create(q, twin)
        products, norm_calls = [], []
        matmul, norm = AlgebraElement.__matmul__, AlgebraElement.norm
        monkeypatch.setattr(AlgebraElement, "__matmul__",
                            lambda a, b: products.append(1) or matmul(a, b))
        monkeypatch.setattr(AlgebraElement, "norm", lambda a: norm_calls.append(1) or norm(a))
        same = GInvPair.create(q, q)  # an identity arrow's pair: a is b
        assert len(products) == 2 and norm_calls == []  # q q q - q, once
        assert same == separate and is_ginv_pair(q, q) and is_ginv_pair(q, twin)
        off = q * 1.5  # (1.5 q)^3 - 1.5 q = 1.875 q
        assert not is_ginv_pair(off, off)
        with pytest.raises(InputError, match="aba = a fails"):
            GInvPair.create(off, off)

