import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ginv import algebra
from ginv.algebra import (AlgebraElement, classify, corner_compress, epow, max_norm,
                          residual_bound, verdict)
from ginv.errors import InputError, PreconditionError, ShapeMismatchError
from ginv.linalg import DEFAULT_TOL
from ginv.sampling import random_element
from ginv.serialization import serialize_element

SHAPES = [(1,), (2,), (3,), (2, 3)]


def elements(shape_index=st.integers(0, len(SHAPES) - 1), seed=st.integers(0, 2**32 - 1)):
    return st.builds(
        lambda i, s: random_element(np.random.default_rng(s), SHAPES[i]), shape_index, seed
    )


def mat(entries):
    return AlgebraElement.from_blocks([np.array(entries, dtype=complex)])


E11 = mat([[1, 0], [0, 0]])
E12 = mat([[0, 1], [0, 0]])
E21 = mat([[0, 0], [1, 0]])


class TestConstruction:
    def test_block_size_mismatch(self):
        with pytest.raises(InputError):
            AlgebraElement((2,), (np.eye(3, dtype=complex),))

    def test_empty_shape(self):
        with pytest.raises(InputError):
            AlgebraElement((), ())

    def test_nonfinite_entries(self):
        with pytest.raises(InputError):
            mat([[np.inf, 0], [0, 0]])

    def test_real_coords_round_trip(self, rng):
        a = random_element(rng, (2, 3))
        back = AlgebraElement.from_real_coords((2, 3), a.real_coords())
        assert back.distance(a) == 0.0


class TestProduct:
    def test_unit_is_neutral(self, rng):
        a = random_element(rng, (3,))
        one = AlgebraElement.identity((3,))
        assert (one @ a).distance(a) == 0.0

    def test_elementary_matrices(self):
        assert (E12 @ E21).distance(E11) == 0.0

    def test_zero_absorbs(self, rng):
        a = random_element(rng, (2,))
        zero = AlgebraElement.zeros((2,))
        assert (a @ zero).norm() == 0.0

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatchError):
            random_element(rng, (2,)) @ random_element(rng, (3,))


class TestAdjoint:
    def test_unit(self):
        one = AlgebraElement.identity((2,))
        assert one.adjoint().distance(one) == 0.0

    def test_elementary(self):
        assert E12.adjoint().distance(E21) == 0.0

    def test_scalar(self):
        z = AlgebraElement.from_blocks([np.array([[2 + 1j]])])
        assert z.adjoint().blocks[0][0, 0] == 2 - 1j


@given(elements(), elements())
@settings(max_examples=30, deadline=None)
def test_adjoint_antihomomorphism(a, b):
    if a.shape != b.shape:
        return
    lhs = (a @ b).adjoint()
    rhs = b.adjoint() @ a.adjoint()
    assert lhs.distance(rhs) <= DEFAULT_TOL.residual_tol * (1 + a.norm() * b.norm())


@given(elements())
@settings(max_examples=30, deadline=None)
def test_adjoint_involutive(a):
    assert a.adjoint().adjoint().distance(a) == 0.0


@given(elements())
@settings(max_examples=30, deadline=None)
def test_cstar_identity(a):
    # |a* a| = |a|^2 for the operator norm
    lhs = (a.adjoint() @ a).norm()
    assert abs(lhs - a.norm() ** 2) <= DEFAULT_TOL.residual_tol * (1 + a.norm() ** 2)


class TestClassify:
    def test_projection(self):
        cls = classify(mat([[1, 0], [0, 0]]))
        assert cls.idempotent and cls.projection and cls.partial_isometry

    def test_skew_idempotent(self):
        cls = classify(mat([[1, 0], [1, 0]]))
        assert cls.idempotent and not cls.projection

    def test_dilated_projection(self):
        cls = classify(mat([[2, 0], [0, 0]]))
        assert not cls.idempotent and not cls.partial_isometry

    def test_scale_aware(self, rng):
        # a large idempotent still classifies as one
        s = np.eye(3, dtype=complex)
        s[0, 1] = 50.0
        q = s @ np.diag([1.0, 0, 0]).astype(complex) @ np.linalg.inv(s)
        assert classify(AlgebraElement.from_blocks([q])).idempotent

    def test_gram_of_isometry_is_projection(self, rng):
        from ginv.sampling import RankedRows, partial_isometry_from

        rows = RankedRows((3,), 10, 2)
        for i in range(10):
            rows.draw(rng, i)
        isometries = partial_isometry_from(rows.noise())
        for i in range(10):
            u = isometries[i]
            assert classify(u).partial_isometry
            assert classify(u @ u.adjoint()).projection
            assert classify(u.adjoint() @ u).projection

    def test_complement_of_idempotent(self, rng):
        from ginv.sampling import random_idempotent

        q = random_idempotent(rng, (3,))
        one = AlgebraElement.identity((3,))
        assert classify(one - q).idempotent


class TestCornerCompress:
    def test_unit_corner(self, rng):
        a = random_element(rng, (2,))
        one = AlgebraElement.identity((2,))
        assert corner_compress(one, a).distance(a) == 0.0

    def test_proper_corner(self):
        q = mat([[1, 0], [0, 0]])
        a = mat([[1, 2], [3, 4]])
        assert corner_compress(q, a).distance(mat([[1, 0], [0, 0]])) == 0.0

    def test_zero_corner(self, rng):
        a = random_element(rng, (2,))
        zero = AlgebraElement.zeros((2,))
        assert corner_compress(zero, a).norm() == 0.0

    def test_rejects_non_idempotent(self, rng):
        with pytest.raises(PreconditionError):
            corner_compress(mat([[2, 0], [0, 0]]), random_element(rng, (2,)))

    def test_corner_unit(self, rng):
        from ginv.sampling import random_idempotent

        q = random_idempotent(rng, (3,), ranks=(2,))
        assert corner_compress(q, q).distance(q) <= 1e-12 * (1 + q.norm() ** 3)


STACKS = [(2,), (3,), (2, 3)]


def stack_of(rng, shape, count=4):
    rows = [random_element(rng, shape) for _ in range(count)]
    return rows, AlgebraElement.stack(rows)


def row(stack, i):
    return AlgebraElement(stack.shape, tuple(b[i] for b in stack.blocks))


def same_bits(x, y):
    return all(np.array_equal(a, b) for a, b in zip(x.blocks, y.blocks))


class TestStacks:
    @pytest.mark.parametrize("shape", STACKS, ids=str)
    def test_operations_match_rows_bit_for_bit(self, rng, shape):
        xs, x = stack_of(rng, shape)
        ys, y = stack_of(rng, shape)
        prod, diff, adj, norms = x @ y, x - y, x.adjoint(), (x @ y - x).norm()
        assert prod.is_stack and norms.shape == (len(xs),)
        for i, (xi, yi) in enumerate(zip(xs, ys)):
            assert same_bits(row(prod, i), xi @ yi)
            assert same_bits(row(diff, i), xi - yi)
            assert same_bits(row(adj, i), xi.adjoint())
            single = (xi @ yi - xi).norm()
            assert isinstance(single, float) and norms[i] == single

    @pytest.mark.parametrize("shape", STACKS, ids=str)
    def test_single_broadcasts_against_stack(self, rng, shape):
        xs, x = stack_of(rng, shape)
        one, y = AlgebraElement.identity(shape), random_element(rng, shape)
        for i, xi in enumerate(xs):
            assert same_bits(row(one - x, i), one - xi)
            assert same_bits(row(y @ x, i), y @ xi)
            assert same_bits(row(x @ y, i), xi @ y)

    def test_mixed_leading_shapes_rejected(self, rng):
        with pytest.raises(InputError):
            AlgebraElement((2, 3), (np.zeros((4, 2, 2)), np.zeros((3, 3, 3))))
        with pytest.raises(InputError):
            AlgebraElement((2, 3), (np.zeros((4, 2, 2)), np.zeros((3, 3))))

    def test_nonfinite_row_rejected(self):
        blocks = np.zeros((3, 2, 2), dtype=complex)
        blocks[1, 0, 1] = np.nan
        with pytest.raises(InputError):
            AlgebraElement((2,), (blocks,))

    @pytest.mark.parametrize("shape", STACKS, ids=str)
    def test_coordinates_stack_row_by_row(self, rng, shape):
        xs, x = stack_of(rng, shape)
        coords = x.real_coords()
        assert coords.shape == (len(xs), sum(2 * n * n for n in shape))
        for i, xi in enumerate(xs):
            assert np.array_equal(coords[i], xi.real_coords())
        assert same_bits(AlgebraElement.from_real_coords(shape, coords), x)
        with pytest.raises(InputError):
            serialize_element(x)

    def test_row_access_needs_a_stack(self, rng):
        xs, x = stack_of(rng, (2, 3))
        assert same_bits(x[1], xs[1]) and same_bits(x[-1], xs[-1])
        with pytest.raises(InputError):
            xs[0][0]


class TestNormCache:
    def test_second_call_returns_the_stored_value(self, rng, monkeypatch):
        x = random_element(rng, (2, 3))
        first = x.norm()
        monkeypatch.setattr(np.linalg, "svd", None)  # a second SVD would raise
        assert x.norm() == first and isinstance(first, float)

    @pytest.mark.parametrize("shape", STACKS + [(1,), (1, 2, 3)], ids=str)
    def test_stacked_norms_are_read_only_and_equal_each_row(self, rng, shape):
        xs, x = stack_of(rng, shape)
        norms = x.norm()
        assert x.norm() is norms and not norms.flags.writeable
        with pytest.raises(ValueError):
            norms[0] = 0.0
        assert norms.tolist() == [xi.norm() for xi in xs]

    @pytest.mark.parametrize("shape", [(1,), (2,), (3,), (2, 3)], ids=str)
    @pytest.mark.parametrize("stacked", [False, True])
    def test_norms_in_one_call_equal_one_call_each(self, rng, shape, stacked, monkeypatch):
        from ginv.algebra import norms

        def draw():
            if stacked:
                return stack_of(rng, shape)[1]
            return random_element(rng, shape)

        elements = [draw() for _ in range(3)]
        twins = [AlgebraElement(e.shape, e.blocks) for e in elements]
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        got = norms(elements[0], elements[1], elements[0], elements[2])
        made = len(calls)
        want = [t.norm() for t in twins]
        assert [np.asarray(v).tolist() for v in got] == [
            np.asarray(v).tolist() for v in (want[0], want[1], want[0], want[2])]
        assert all(e.norm() is v for e, v in zip(elements, (got[0], got[1], got[3])))
        assert made <= sum(n > 2 for n in shape)  # one stacked call per large block
        calls.clear()
        assert norms(*elements)[2] is got[3] and calls == []  # stored: nothing computed

    def test_norms_of_one_shape_only(self, rng):
        from ginv.algebra import norms

        with pytest.raises(ShapeMismatchError):
            norms(random_element(rng, (2,)), random_element(rng, (3,)))
        with pytest.raises(ShapeMismatchError):  # and of one stack height
            norms(random_element(rng, (2,)), stack_of(rng, (2,))[1])

    def test_norm_takes_no_part_in_equality(self, rng):
        x = random_element(rng, (2,))
        y = AlgebraElement(x.shape, tuple(b.copy() for b in x.blocks))
        x.norm()
        assert x == y and y == x


EPS = np.finfo(float).eps
SUBNORMAL = np.finfo(float).smallest_subnormal


def norms_of_2x2(blocks):
    """The C*-norm of each ``2x2`` block as a one-block element, single and
    stacked, checked equal bit for bit."""
    stacked = AlgebraElement((2,), (blocks,)).norm()
    assert stacked.tolist() == [AlgebraElement((2,), (b,)).norm() for b in blocks]
    return stacked


def assert_2x2_norms_match_svd(blocks):
    want = np.linalg.svd(blocks, compute_uv=False)[:, 0]
    got = norms_of_2x2(blocks)
    # a subnormal norm is itself rounded to the subnormal grid
    assert np.all(np.abs(got - want) <= np.maximum(8 * EPS * want, SUBNORMAL))


class TestClosedFormNorms:
    def gaussian(self, rng, count=500):
        return rng.standard_normal((count, 2, 2)) + 1j * rng.standard_normal((count, 2, 2))

    def test_random_and_scaled_blocks(self, rng):
        blocks = self.gaussian(rng)
        for scale in (1.0, 1e150, 1e-150, 1e300, 1e-300):
            assert_2x2_norms_match_svd(blocks * scale)
        assert_2x2_norms_match_svd(blocks.real.astype(complex))

    def test_scalar_times_unitary(self, rng):
        blocks = np.linalg.qr(self.gaussian(rng))[0] * rng.uniform(0.1, 10.0, (500, 1, 1))
        assert_2x2_norms_match_svd(blocks)

    def test_rank_one(self, rng):
        left = rng.standard_normal((500, 2, 1)) + 1j * rng.standard_normal((500, 2, 1))
        right = rng.standard_normal((500, 1, 2)) + 1j * rng.standard_normal((500, 1, 2))
        assert_2x2_norms_match_svd(left @ right)

    def test_subnormal_entries(self, rng):
        blocks = self.gaussian(rng)
        mixed = blocks.copy()
        mixed[:, 0, 1] *= 1e-310
        mixed[:, 1, 0] = 3e-320
        assert_2x2_norms_match_svd(mixed)
        for scale in (1e-310, 1e-315, 1e-320):
            assert_2x2_norms_match_svd(blocks * scale)

    def test_zero_is_exactly_zero(self):
        blocks = np.zeros((3, 2, 2), dtype=complex)
        blocks[1, 0, 0] = SUBNORMAL
        got = norms_of_2x2(blocks)
        assert got[0] == 0.0 == got[2] and got[1] == SUBNORMAL
        assert AlgebraElement.zeros((1, 2, 3)).norm() == 0.0

    def test_one_by_one_is_the_modulus(self, rng):
        values = (rng.standard_normal(50) + 1j * rng.standard_normal(50)) * 10.0 ** rng.integers(
            -300, 300, 50)
        norms = AlgebraElement((1,), (values[:, None, None],)).norm()
        assert norms.tolist() == np.abs(values).tolist()

    @pytest.mark.parametrize("shape", [(1, 2), (1, 2, 3)], ids=str)
    def test_blocks_take_the_largest(self, rng, shape):
        for xi in stack_of(rng, shape, count=20)[0]:
            want = max(float(np.linalg.svd(b, compute_uv=False)[0]) for b in xi.blocks)
            assert abs(xi.norm() - want) <= 8 * EPS * want


def spread_stack(rng, shape, height, scale):
    """A stack of ``height`` random rows whose sizes spread over twelve
    decades, times ``scale``: at 1e-300 the small rows are subnormal."""
    sizes = 10.0 ** rng.uniform(-12.0, 0.0, (height, 1, 1))
    return AlgebraElement(shape, tuple(
        (rng.standard_normal((height, n, n)) + 1j * rng.standard_normal((height, n, n)))
        * sizes * scale for n in shape))


def largest_norm(x):
    """``float(np.max(x.norm()))`` on a twin of ``x``, so that ``x`` keeps
    no stored norm."""
    return float(np.max(AlgebraElement(x.shape, x.blocks).norm()))


class TestMaxNorm:
    """``max_norm`` equals the largest row norm bit for bit, whichever rows
    its entry screen factors."""

    @pytest.mark.parametrize("height", [1, 2, 257])
    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150, 1e-300])
    @pytest.mark.parametrize("shape", [(1,), (2,), (3,), (8,), (2, 3), (1, 2, 3)], ids=str)
    def test_equals_the_largest_row_norm(self, rng, shape, scale, height):
        x = spread_stack(rng, shape, height, scale)
        assert max_norm(x) == largest_norm(x)
        assert "_norm" not in x.__dict__

    @pytest.mark.parametrize("shape", [(1,), (2,), (3,), (2, 3)], ids=str)
    def test_single_element_is_its_norm(self, rng, shape):
        x = random_element(rng, shape)
        got = max_norm(x)
        assert isinstance(got, float) and got == x.norm()

    def factored_rows(self, monkeypatch):
        rows = []
        operator_norms = algebra._operator_norms
        monkeypatch.setattr(algebra, "_operator_norms",
                            lambda b: rows.append(len(b)) or operator_norms(b))
        return rows

    def test_zero_stack_factors_one_row(self, monkeypatch):
        x = AlgebraElement((2, 3), (np.zeros((9, 2, 2)), np.zeros((9, 3, 3))))
        assert largest_norm(x) == 0.0
        rows = self.factored_rows(monkeypatch)
        assert max_norm(x) == 0.0 and rows == [1, 1]  # one row of each block

    @pytest.mark.parametrize("shape", [(2,), (3,)], ids=str)
    def test_one_nonzero_row(self, rng, shape, monkeypatch):
        n = shape[0]
        blocks = np.zeros((257, n, n), dtype=complex)
        blocks[100] = rng.standard_normal((n, n)) * 1e-300
        x = AlgebraElement(shape, (blocks,))
        want = largest_norm(x)
        rows = self.factored_rows(monkeypatch)
        assert max_norm(x) == want > 0.0 and rows == [1]

    @pytest.mark.parametrize("s", [1.0, 0.7, 1e150, 1e-300, 1e-320])
    def test_edge_of_the_screen(self, s):
        """Rows ``t E11`` and ``s J3``: ``n max|a_jk|`` of the second is
        ``3s``, so at ``t = 3s`` the screen decides on equal bounds."""
        for t in (np.nextafter(3.0 * s, 0.0), 3.0 * s, np.nextafter(3.0 * s, np.inf)):
            blocks = np.full((2, 3, 3), s, dtype=complex)
            blocks[0] = 0.0
            blocks[0, 0, 0] = t
            x = AlgebraElement((3,), (blocks,))
            assert max_norm(x) == largest_norm(x)

    @settings(max_examples=60, deadline=None)
    @given(shape_index=st.integers(0, len(SHAPES) - 1), height=st.integers(1, 40),
           decades=st.integers(-320, 300), seed=st.integers(0, 2**32 - 1))
    def test_random_stacks(self, shape_index, height, decades, seed):
        rng = np.random.default_rng(seed)
        x = spread_stack(rng, SHAPES[shape_index], height, 10.0 ** decades)
        assert max_norm(x) == largest_norm(x)


class TestResidualBound:
    """``residual_bound`` is ``tol * (1 + s1 + s2 + ...)``, summed left to
    right, and row by row on stacks."""

    def test_sums_left_to_right_as_the_composability_bound(self):
        # 1 + 2^-53 rounds to 1 (ties to even) twice, but 2^-53 + 2^-53 is exact
        s1 = s2 = 2.0**-53
        assert 1.0 + s1 + s2 != 1.0 + (s1 + s2)
        for tol in (1e-8, 1e-6, 0.3):
            assert residual_bound(tol, s1, s2) == tol * (1.0 + s1 + s2)
            assert residual_bound(tol, s1, s2) != tol * (1.0 + (s1 + s2))

    def test_random_scales_keep_their_bits(self, rng):
        s1, s2 = epow(10.0 ** rng.uniform(-20, 20, 500), 2), 10.0 ** rng.uniform(-20, 20, 500)
        want = 1e-8 * (1.0 + s1 + s2)
        assert np.array_equal(residual_bound(1e-8, s1, s2), want)
        assert [residual_bound(1e-8, a, b) for a, b in zip(s1.tolist(), s2.tolist())] == want.tolist()

    def test_no_scale_is_the_tolerance(self):
        assert residual_bound(1e-8) == 1e-8
        assert residual_bound(1e-8, 2.0) == 1e-8 * (1.0 + 2.0)


class TestVerdict:
    def test_single_residual(self):
        assert verdict(1.0, 1.0) == (None, ()) and verdict(1.0, 1.0).passed
        over = np.nextafter(1.0, 2.0)
        assert verdict(over, 1.0) == (over, (0,)) and not verdict(over, 1.0).passed

    def test_first_excess_is_the_first_failing_row(self):
        got = verdict(np.array([0.5, 3.0, 1.0, 2.0]), np.array([1.0, 1.0, 1.0, 1.5]))
        assert got.excess == 3.0 and isinstance(got.excess, float)
        assert got.rows.tolist() == [1, 3]
        assert verdict(np.array([0.5, 1.0]), 1.0).excess is None

    def test_nan_fails(self):
        assert not verdict(np.nan, 1.0).passed and verdict(np.nan, np.inf).rows == (0,)
        got = verdict(np.array([0.0, np.nan, 2.0]), 1.0)
        assert np.isnan(got.excess) and got.rows.tolist() == [1, 2]

    def test_a_stacked_row_is_the_single_call(self, rng):
        residual, scale = 10.0 ** rng.uniform(-10, -6, 200), 10.0 ** rng.uniform(-2, 2, 200)
        bound = residual_bound(1e-8, scale)
        assert bound.tolist() == [residual_bound(1e-8, s) for s in scale.tolist()]
        stacked = verdict(residual, bound)
        singles = [verdict(r, b) for r, b in zip(residual.tolist(), bound.tolist())]
        assert 0 < stacked.rows.size < 200
        assert stacked.rows.tolist() == [i for i, v in enumerate(singles) if not v.passed]
        assert stacked.excess == next(v.excess for v in singles if not v.passed)


class TestEquality:
    def test_equal_values_in_distinct_arrays(self, rng):
        x = random_element(rng, (2, 3))
        y = AlgebraElement.from_blocks([b.copy() for b in x.blocks])
        assert x is not y and x == y and not x != y

    def test_unequal_values_shapes_and_stacks(self, rng):
        x = random_element(rng, (2, 3))
        assert x != x + AlgebraElement.identity((2, 3)) * 1e-15
        assert mat([[1, 0], [0, 0]]) != AlgebraElement.identity((1, 1))
        assert x != AlgebraElement.stack([x, x])
        assert AlgebraElement.stack([x, x]) == AlgebraElement.stack([x, x])
        assert (x == 1.0) is False

    def test_not_hashable(self, rng):
        with pytest.raises(TypeError):
            hash(random_element(rng, (2,)))
