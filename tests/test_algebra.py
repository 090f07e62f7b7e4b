import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ginv.algebra import AlgebraElement, classify, corner_compress
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
        from ginv.sampling import random_partial_isometry

        for _ in range(10):
            u = random_partial_isometry(rng, (3,))
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
        one = AlgebraElement.identity(shape)
        for i, xi in enumerate(xs):
            assert same_bits(row(one - x, i), one - xi)

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
