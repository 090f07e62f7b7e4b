import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ginv.errors import EvaluationError, InputError
from ginv.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    finite_diff_jacobian,
    joint_kernel_dim,
    kernel_basis,
    numerical_rank,
    operator_norm,
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


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(5)) == pytest.approx(1.0)

    def test_diagonal_sign(self):
        assert operator_norm(np.diag([2.0, -3.0])) == pytest.approx(3.0)

    def test_nilpotent_elementary(self):
        assert operator_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0)


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


class TestJointKernelDim:
    def test_identity_has_trivial_kernel(self):
        assert joint_kernel_dim([np.eye(4)]) == 0

    def test_zero_maps(self):
        assert joint_kernel_dim([np.zeros((2, 5)), np.zeros((3, 5))]) == 5

    def test_two_projections_cover_plane(self):
        p1 = np.array([[1.0, 0.0]])
        p2 = np.array([[0.0, 1.0]])
        assert joint_kernel_dim([p1, p2]) == 0

    def test_mismatched_columns(self):
        with pytest.raises(InputError):
            joint_kernel_dim([np.eye(2), np.eye(3)])


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
