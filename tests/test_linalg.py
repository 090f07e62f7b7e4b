import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from ginv.algebra import AlgebraElement, expm_element
from ginv.errors import EvaluationError, InputError
from ginv.groupoid import ActionGroupoid
from ginv.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    adjoint_matrix,
    block_diag,
    expm,
    finite_diff_jacobian,
    hermitian_basis,
    complex_sandwich_matrix,
    kernel_basis,
    map_rank,
    numerical_rank,
    operator_norm,
    product,
    rank_from_singular_values,
    realify,
    sandwich_matrix,
    vector_norm,
)


def random_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(3)) == 3

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((2, 2))) == 0

    def test_tiny_singular_value_truncated(self):
        # exact singular values {3, 1e-14}; the cutoff 1e-12 * 2 * 3 wins
        assert numerical_rank(np.diag([3.0, 1e-14])) == 1

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            numerical_rank(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rank_equals_rank_of_adjoint(self, rng):
        for _ in range(25):
            m = random_complex(rng, 4, 6)
            assert numerical_rank(m) == numerical_rank(m.conj().T)

    def test_scale_of_enclosing_map(self):
        # a piece of a map of norm 1e3 whose entries are 1e-11 is rounding noise
        noise = 1e-11 * np.eye(3)
        assert numerical_rank(noise) == 3
        assert numerical_rank(noise, scale=1e3) == 0
        # a scale below the piece's own norm leaves the cutoff unchanged
        assert numerical_rank(np.diag([3.0, 1e-14]), scale=1e-3) == 1

    def test_stack_gives_each_rank(self):
        stack = np.stack([np.eye(3), np.zeros((3, 3)), np.diag([3.0, 1e-14, 1.0])])
        ranks = numerical_rank(stack)
        assert ranks.tolist() == [3, 0, 2]
        assert ranks.tolist() == [numerical_rank(m) for m in stack]


class TestStackedRankDecisions:
    """``rank_from_singular_values`` on an ``(N, k)`` array of singular values
    equals the call on each row; ``numerical_rank`` on a stack equals the
    rank of each matrix."""

    @staticmethod
    def per_row(s, shape, scale=0.0):
        return [rank_from_singular_values(row, shape, DEFAULT_TOL, scale) for row in s]

    def assert_rows(self, s, shape, scale=0.0):
        got = rank_from_singular_values(s, shape, DEFAULT_TOL, scale)
        assert isinstance(got, np.ndarray) and got.shape == (len(s),)
        assert got.tolist() == self.per_row(s, shape, scale)
        return got.tolist()

    @pytest.mark.parametrize("shape", [(3, 3), (4, 6), (6, 4)])
    def test_random_rows(self, rng, shape):
        k = min(shape)
        # singular values spread over 17 decades, so rows fall on both sides of the cutoff
        s = -np.sort(-10.0 ** rng.uniform(-16, 1, size=(40, k)), axis=1)
        for scale in (0.0, 1e-3, 10.0, 1e3):
            self.assert_rows(s, shape, scale)

    def test_all_zero_rows(self):
        s = np.array([[0.0, 0.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        assert self.assert_rows(s, (3, 3)) == [0, 2, 0]
        assert self.assert_rows(s, (3, 3), scale=5.0) == [0, 2, 0]

    def test_value_exactly_at_the_cutoff_is_not_counted(self):
        shape = (3, 3)
        cutoff = DEFAULT_TOL.rank_cutoff_factor * max(shape) * 2.0
        s = np.array([
            [2.0, cutoff, 0.0],
            [2.0, np.nextafter(cutoff, np.inf), 0.0],
            [2.0, np.nextafter(cutoff, 0.0), 0.0],
        ])
        assert self.assert_rows(s, shape) == [1, 2, 1]

    def test_scale_above_sigma_max(self):
        s = np.array([[1.0, 1e-10], [1.0, 1e-8], [1e-9, 1e-10]])
        assert self.assert_rows(s, (2, 2)) == [2, 2, 2]
        assert self.assert_rows(s, (2, 2), scale=1e3) == [1, 2, 0]

    def test_no_singular_values(self):
        got = rank_from_singular_values(np.zeros((4, 0)), (0, 3))
        assert got.shape == (4,) and got.tolist() == [0, 0, 0, 0]
        assert rank_from_singular_values(np.zeros(0), (0, 3)) == 0

    @pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4, 2)])
    def test_numerical_rank_of_a_stack_equals_each_rank(self, rng, shape):
        rows, cols = shape
        stack = []
        for r in range(min(shape) + 1):
            for tiny in (0.0, 1e-14, 1e-9):
                m = random_complex(rng, rows, r) @ random_complex(rng, r, cols)
                stack.append(m + tiny * random_complex(rng, rows, cols))
        stack = np.stack(stack)
        for scale in (0.0, 1e4):
            ranks = numerical_rank(stack, scale=scale)
            assert ranks.shape == (len(stack),)
            assert ranks.tolist() == [numerical_rank(m, scale=scale) for m in stack]


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(5)) == pytest.approx(1.0)

    def test_diagonal_sign(self):
        assert operator_norm(np.diag([2.0, -3.0])) == pytest.approx(3.0)

    def test_nilpotent_elementary(self):
        assert operator_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0)

    def test_stack_equals_each_matrix(self, rng):
        stack = rng.standard_normal((40, 3, 3))
        norms = operator_norm(stack)
        assert norms.shape == (40,)
        assert norms.tolist() == [operator_norm(m) for m in stack]


#: 1-norms that take the scaling count from 0 (up to 5.3719) to 4 (60)
EXPM_NORMS = (1e-8, 1e-3, 1.0, 5.3, 5.4, 11.0, 22.0, 60.0)


def with_norm(m, norm):
    """``m`` scaled to the given 1-norm."""
    return m * (norm / np.abs(m).sum(axis=-2).max(axis=-1))


def relative_gap(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


EPS = float(np.finfo(float).eps)


class TestProduct:
    """The 2x2 kernel of :func:`product` against ``matmul``; other sizes are ``@``."""

    @staticmethod
    def draw(rng, dtype, lead=(), scale=1.0):
        m = rng.standard_normal((*lead, 2, 2))
        if dtype is complex:
            m = m + 1j * rng.standard_normal((*lead, 2, 2))
        return scale * m

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
    @pytest.mark.parametrize("dtypes", [(complex, complex), (float, float), (float, complex),
                                        (complex, float)], ids=str)
    def test_2x2_equals_matmul_to_rounding(self, rng, dtypes, scale):
        """Each entry of either product lies within 2 eps (|a| |b|) of the
        exact one (a complex dot product of length 2), so the two lie within
        4 eps of each other."""
        a, b = (self.draw(rng, t, (500,), scale) for t in dtypes)
        got = product(a, b)
        assert got.dtype == np.result_type(a, b)
        assert np.all(np.abs(got - a @ b) <= 4 * EPS * (np.abs(a) @ np.abs(b)))

    @pytest.mark.parametrize("dtype", [complex, float], ids=str)
    def test_2x2_rows_and_broadcasts_equal_single_products_bit_for_bit(self, rng, dtype):
        a, b = self.draw(rng, dtype, (257,)), self.draw(rng, dtype, (257,))
        stacked, left, right = product(a, b), product(a[0], b), product(a, b[0])
        assert stacked.shape == left.shape == right.shape == (257, 2, 2)
        for i in range(len(a)):
            assert np.array_equal(stacked[i], product(a[i], b[i]))
            assert np.array_equal(left[i], product(a[0], b[i]))
            assert np.array_equal(right[i], product(a[i], b[0]))

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_other_sizes_are_matmul_bit_for_bit(self, rng, n):
        a = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
        b = rng.standard_normal((5, n, n))
        for x, y in ((a, b), (a[0], b), (a, b[0]), (a[1], b[1])):
            assert np.array_equal(product(x, y), x @ y)


class TestExpm:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_scipy(self, rng, n):
        """Real Gaussian, symmetric and skew-symmetric matrices and complex
        Gaussian ones.  A real matrix is compared with scipy's result on its
        complex copy: scipy's real path is off by up to about 1e-12 at these
        norms, where its complex path and this one agree with a 50-digit
        reference (next test)."""
        for norm in EXPM_NORMS:
            g = rng.standard_normal((n, n))
            for m in (g, g + g.T, g - g.T if n > 1 else g, random_complex(rng, n)):
                m = with_norm(m, norm)
                got = expm(m)
                assert got.dtype == m.dtype
                assert relative_gap(got, scipy.linalg.expm(m.astype(complex))) <= 1e-13

    def test_real_against_50_digits(self, rng):
        mpmath = pytest.importorskip("mpmath")
        for n in (2, 3, 4):
            for norm in (5.3, 11.0, 30.0, 60.0):
                g = rng.standard_normal((n, n))
                for m in (with_norm(g, norm), with_norm(g + g.T, norm)):
                    with mpmath.workdps(50):
                        want = mpmath.expm(mpmath.matrix(m.tolist())).tolist()
                    assert relative_gap(expm(m), np.array(want, dtype=float)) <= 1e-13

    @pytest.mark.parametrize("shape", [(2, 3), (1, 2, 3), (8,)], ids=str)
    def test_blocks_of_elements_equal_scipy(self, rng, shape):
        for norm in EXPM_NORMS:
            a = AlgebraElement.from_blocks(with_norm(random_complex(rng, n), norm) for n in shape)
            stack = AlgebraElement.stack([a, a * 0.5])
            for got, stacked, b in zip(expm_element(a).blocks, expm_element(stack).blocks,
                                       a.blocks):
                assert relative_gap(got, scipy.linalg.expm(b)) <= 1e-13
                assert np.array_equal(stacked[0], got)

    def test_real_input_gives_real_output(self, rng):
        assert expm(np.eye(2, dtype=int)).dtype == np.float64
        assert expm(rng.standard_normal((5, 3, 3))).dtype == np.float64
        assert expm(random_complex(rng, 3)).dtype == np.complex128
        g = ActionGroupoid(3).arrow_at(np.ones(3), (rng.standard_normal((3, 3)),)).g
        assert g.dtype == np.float64

    @pytest.mark.parametrize("n", range(1, 9))
    def test_skew_hermitian_gives_unitary(self, rng, n):
        for norm in EXPM_NORMS:
            h = random_complex(rng, n)
            u = expm(with_norm(h - h.conj().T, norm))
            assert np.abs(u.conj().T @ u - np.eye(n)).max() <= 1e-14

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_stack_rows_equal_single_calls_bit_for_bit(self, rng, real):
        for n in (1, 2, 3, 8):
            rows = [with_norm(rng.standard_normal((n, n)) if real else random_complex(rng, n),
                              norm) for norm in EXPM_NORMS + EXPM_NORMS[::-1]]
            stacked = expm(np.stack(rows))
            assert stacked.shape == (len(rows), n, n)
            for got, m in zip(stacked, rows):
                assert np.array_equal(got, expm(m))

    def test_zero_gives_identity_and_bad_input_is_rejected(self):
        assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))
        for bad in (np.zeros((2, 3)), np.zeros(3), np.zeros((1, 1, 2, 2)),
                    np.array([[np.inf]])):
            with pytest.raises(InputError):
                expm(bad)


@pytest.mark.parametrize("n", range(1, 9))
def test_vector_norm_of_rows_equals_each_row_norm(rng, n):
    # rows over twelve decades, compared exactly
    x = rng.standard_normal((300, n)) * 10.0 ** rng.uniform(-6, 6, (300, 1))
    norms = vector_norm(x)
    assert norms.shape == (300,)
    assert all(v == float(np.linalg.norm(row)) for v, row in zip(norms, x))
    assert all(vector_norm(row) == float(np.linalg.norm(row)) for row in x[:5])
    assert isinstance(vector_norm(x[0]), float)


def test_svd_reconstruction_residual(rng):
    for n in range(1, 9):
        m = random_complex(rng, n, n)
        u, s, vh = np.linalg.svd(m)
        residual = operator_norm((u * s) @ vh - m)
        assert residual <= DEFAULT_TOL.residual_tol * operator_norm(m)


class TestFiniteDiffJacobian:
    def test_identity_map(self):
        jac = finite_diff_jacobian(lambda x: x, np.array([1.0, -2.0, 0.5]))
        assert np.allclose(jac, np.eye(3), atol=1e-9)

    def test_fixed_linear_map(self, rng):
        mat = rng.standard_normal((4, 3))
        jac = finite_diff_jacobian(lambda x: mat @ x, rng.standard_normal(3))
        assert np.max(np.abs(jac - mat)) <= DEFAULT_TOL.residual_tol

    def test_quadratic(self):
        jac = finite_diff_jacobian(lambda x: x**2, np.array([3.0]))
        assert abs(jac[0, 0] - 6.0) <= DEFAULT_TOL.residual_tol

    def test_polynomial_matches_hand_derivative(self, rng):
        # d/dx of (x0*x1, x0^2 + x2^3) has a closed form
        def f(x):
            return np.array([x[0] * x[1], x[0] ** 2 + x[2] ** 3])

        for _ in range(10):
            x = rng.uniform(-10, 10, size=3)
            want = np.array([[x[1], x[0], 0.0], [2 * x[0], 0.0, 3 * x[2] ** 2]])
            got = finite_diff_jacobian(f, x)
            scale = max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) / scale <= 1e-6

    def test_matrix_polynomial_matches_hand_derivative(self, rng):
        # m -> m^2 + 3m in real coordinates; the differential sends
        # dm to dm*m + m*dm + 3*dm
        from ginv.linalg import mat_to_realvec, realvec_to_mat

        def f(v):
            m = realvec_to_mat(v, 2)
            return mat_to_realvec(m @ m + 3.0 * m)

        for _ in range(5):
            m0 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            m0 *= 10.0 / max(np.linalg.norm(m0, 2), 1.0)
            got = finite_diff_jacobian(f, mat_to_realvec(m0))
            want = np.zeros_like(got)
            for i in range(8):
                e = np.zeros(8)
                e[i] = 1.0
                dm = realvec_to_mat(e, 2)
                want[:, i] = mat_to_realvec(dm @ m0 + m0 @ dm + 3.0 * dm)
            scale = max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) / scale <= 1e-6

    def test_nonfinite_value_reports_coordinate(self):
        def f(x):
            with np.errstate(invalid="ignore"):
                return np.array([x[0] + np.sqrt(x[1])])

        with pytest.raises(EvaluationError) as err:
            finite_diff_jacobian(f, np.array([0.0, 0.0]))
        assert err.value.coordinate == 1


def test_kernel_basis_orthonormal(rng):
    m = rng.standard_normal((2, 6))
    k = kernel_basis(m)
    assert k.shape == (6, 4)
    assert np.allclose(k.T @ k, np.eye(4), atol=1e-12)
    assert np.max(np.abs(m @ k)) < 1e-12


@given(st.floats(min_value=1e-14, max_value=1e-2), st.floats(min_value=1e-14, max_value=1e-2))
@settings(max_examples=20, deadline=None)
def test_tolerance_config_accepts_positive(residual, cutoff):
    cfg = ToleranceConfig(rank_cutoff_factor=cutoff, residual_tol=residual)
    assert cfg.residual_tol == residual


@pytest.mark.parametrize("field", ["rank_cutoff_factor", "residual_tol", "fd_step_scale"])
def test_tolerance_config_rejects_nonpositive(field):
    for value in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(InputError):
            ToleranceConfig(**{field: value})


def _assert_same(got, want):
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def _realify(m):
    """The real matrix of the complex-linear map ``m``: ``[[Re, -Im], [Im, Re]]``."""
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


def kron_sandwich(left, right):
    """The reference real matrix of ``X -> A X B``: the realified
    ``kron(A, B^T)`` of each block, on a block diagonal."""
    return block_diag(*(_realify(np.kron(a, np.transpose(b))) for a, b in zip(left, right)))


class TestBlockDiag:
    """``block_diag`` equals ``scipy.linalg.block_diag`` bit for bit, dtype
    included, on the blocks the library passes it."""

    def test_real_and_complex_blocks(self, rng):
        real = [rng.standard_normal((n, m)) for n, m in ((2, 2), (1, 3), (4, 2))]
        cplx = [random_complex(rng, n, m) for n, m in ((3, 3), (2, 1))]
        for mats in (real, cplx, real + cplx, real[:1]):
            _assert_same(block_diag(*mats), scipy.linalg.block_diag(*mats))

    @pytest.mark.parametrize("shape", [(2,), (8,), (1, 2, 3)])
    def test_sandwich_and_adjoint_matrices(self, rng, shape):
        left = [random_complex(rng, n) for n in shape]
        right = [random_complex(rng, n) for n in shape]
        realified = [_realify(np.kron(a, b.T)) for a, b in zip(left, right)]
        _assert_same(sandwich_matrix(left, right), scipy.linalg.block_diag(*realified))
        transposes = [np.eye(n * n)[np.arange(n * n).reshape(n, n).T.ravel()] for n in shape]
        want = scipy.linalg.block_diag(*(scipy.linalg.block_diag(t, -t) for t in transposes))
        _assert_same(adjoint_matrix(shape), want)

    @pytest.mark.parametrize("shape", [(1,), (2,), (3,), (8,), (2, 3), (1, 2, 3)])
    def test_sandwich_matrix_is_byte_identical_to_kron(self, rng, shape):
        """Byte for byte, so the sign of every zero too: zero imaginary parts
        of real and identity factors, and factors holding signed zeros."""

        def signed_zeros(n):
            m = random_complex(rng, n)
            m[rng.random((n, n)) < 0.3] = -0.0
            m.imag[rng.random((n, n)) < 0.3] = -0.0
            return m

        factors = {
            "real": [rng.standard_normal((n, n)) for n in shape],
            "complex": [random_complex(rng, n) for n in shape],
            "identity": [np.eye(n, dtype=complex) for n in shape],
            "real identity": [np.eye(n) for n in shape],
            "signed zeros": [signed_zeros(n) for n in shape],
        }
        for left in factors.values():
            for right in factors.values():
                got, want = sandwich_matrix(left, right), kron_sandwich(left, right)
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 3])
    def test_action_chart_differential(self, rng, n):
        G = ActionGroupoid(n)
        g = G.sample_arrow(rng)
        j_arrow = G.chart_differential(g)[0]
        eye = np.eye(n)
        _assert_same(j_arrow, scipy.linalg.block_diag(eye, np.kron(eye, g.g.T)))


class TestComplexMaps:
    """A complex matrix read as a linear map counts real dimensions, decided
    at the cutoff of its real matrix; the real bases it gives are
    orthonormal."""

    def test_a_singular_value_counts_twice_at_the_real_cutoff(self, rng):
        # 4.5e-12 lies above the cutoff 1e-12 * 3 of the complex 2 x 3 shape
        # and below 1e-12 * 6 of its real 4 x 6 matrix
        u, _ = np.linalg.qr(random_complex(rng, 2))
        v, _ = np.linalg.qr(random_complex(rng, 3))
        m = u @ np.diag([1.0, 4.5e-12]).astype(complex) @ v[:, :2].conj().T
        assert numerical_rank(m) == 2  # an algebra block's complex rank
        assert map_rank(m) == numerical_rank(_realify(m)) == 2
        assert kernel_basis(m).shape == (3, 2) and np.iscomplexobj(kernel_basis(m))
        full = random_complex(rng, 3, 5)
        assert map_rank(full) == numerical_rank(_realify(full)) == 6
        real = rng.standard_normal((3, 5))
        assert map_rank(real) == numerical_rank(real) == 3
        assert map_rank(real, scale=1e13) == 0  # scale as in numerical_rank

    @pytest.mark.parametrize("shape", [(2,), (3,), (8,), (2, 3), (1, 2, 3)])
    def test_hermitian_basis_is_orthonormal_and_spans_the_hermitian_elements(self, rng, shape):
        basis = hermitian_basis(shape)
        d = sum(n * n for n in shape)
        assert basis.shape == (2 * d, d)
        np.testing.assert_allclose(basis.T @ basis, np.eye(d), rtol=0, atol=1e-15)
        np.testing.assert_array_equal(adjoint_matrix(shape) @ basis, basis)  # Hermitian columns
        # d orthonormal Hermitian columns span the d-dimensional Hermitian elements
        x = AlgebraElement.from_blocks([random_complex(rng, n) for n in shape])
        h = (0.5 * (x + x.adjoint())).real_coords()
        assert np.max(np.abs(basis @ (basis.T @ h) - h)) <= 1e-14 * np.max(np.abs(h))

    def test_hermitian_basis_is_built_once_per_shape(self):
        basis = hermitian_basis((2, 3))
        assert hermitian_basis([2, 3]) is basis and not basis.flags.writeable
        assert hermitian_basis((3, 2)) is not basis

    def test_adjoint_matrix_is_built_once_per_shape(self):
        adjoint = adjoint_matrix((2, 3))
        assert adjoint_matrix([2, 3]) is adjoint and not adjoint.flags.writeable
        assert adjoint_matrix((3, 2)) is not adjoint

    @pytest.mark.parametrize("shape", [None, (2,), (2, 3), (1, 2, 3)])
    def test_realified_complex_basis_is_orthonormal(self, rng, shape):
        rows = 7 if shape is None else sum(n * n for n in shape)
        v, _ = np.linalg.qr(random_complex(rng, rows, 3))
        sizes = None if shape is None else [n * n for n in shape]
        r = realify(v, sizes)
        assert r.shape == (2 * rows, 6)
        np.testing.assert_allclose(r.T @ r, np.eye(6), rtol=0, atol=1e-14)
        if shape is None:
            np.testing.assert_array_equal(r, _realify(v))
            return
        # the real coordinates of the columns of v, then of those of i v

        def coords(z):
            at, blocks = np.cumsum([0] + sizes), []
            for n, a in zip(shape, at):
                blocks.append(z[a:a + n * n].reshape(n, n))
            return AlgebraElement.from_blocks(blocks).real_coords()

        want = np.column_stack([coords(z) for z in np.hstack([v, 1j * v]).T])
        np.testing.assert_array_equal(r, want)

    @pytest.mark.parametrize("shape", [(2,), (2, 3)])
    def test_complex_and_real_sandwich_matrices(self, rng, shape):
        left = [random_complex(rng, n) for n in shape]
        right = [random_complex(rng, n) for n in shape]
        complex_ = complex_sandwich_matrix(left, right)
        # X -> A X B on the complex coordinates of X, row-major block by block
        x = [random_complex(rng, n) for n in shape]
        got = complex_ @ np.concatenate([b.ravel() for b in x])
        want = np.concatenate([(a @ b @ c).ravel() for a, b, c in zip(left, x, right)])
        np.testing.assert_allclose(got, want, rtol=1e-13)
        e = AlgebraElement.from_blocks(x)
        real = sandwich_matrix(left, right) @ e.real_coords()
        np.testing.assert_allclose(real, AlgebraElement.from_blocks(
            [a @ b @ c for a, b, c in zip(left, x, right)]).real_coords(), rtol=1e-13)
