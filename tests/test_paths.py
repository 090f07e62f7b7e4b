import numpy as np
import pytest

from ginv.algebra import AlgebraElement
from ginv.errors import (
    DegenerateInterpolationError,
    InputError,
    OrbitError,
    PreconditionError,
)
from ginv.paths import (
    APath,
    direct_rotation,
    fiber_anchor_image,
    nearest_projection,
    orbit_path,
    principal_log_unitary,
    reparametrize_lift,
    smooth_reparametrizer,
)
from ginv.sampling import random_projection


def mat(entries):
    return AlgebraElement.from_blocks([np.array(entries, dtype=complex)])


def stacked(blocks):
    """A stack of 2x2 elements from one ``(N, 2, 2)`` array (or list of rows)."""
    return AlgebraElement((2,), (np.stack(blocks),))


P0 = mat([[1, 0], [0, 0]])
P1 = mat([[0, 0], [0, 1]])


class TestNearestProjection:
    def test_spectral_truncation(self):
        h = mat([[0.9, 0], [0, 0.1]])
        assert nearest_projection(h).distance(P0) == 0.0

    def test_degenerate_band_rejected(self):
        with pytest.raises(DegenerateInterpolationError):
            nearest_projection(mat([[0.5, 0], [0, 1.0]]))

    def test_requires_hermitian(self):
        with pytest.raises(InputError):
            nearest_projection(mat([[0, 1], [0, 0]]))

    def test_projection_fixed(self, rng):
        p = random_projection(rng, (3,), ranks=(2,))
        assert nearest_projection(p).distance(p) <= 1e-12


class TestDirectRotation:
    def test_moves_p_to_q(self, rng):
        p = random_projection(rng, (3,), ranks=(1,))
        q = random_projection(rng, (3,), ranks=(1,))
        u = direct_rotation(p, q)
        one = AlgebraElement.identity((3,))
        assert (u @ u.adjoint() - one).norm() <= 1e-10
        assert (u @ p @ u.adjoint()).distance(q) <= 1e-10

    def test_antipodal_rejected(self):
        with pytest.raises(DegenerateInterpolationError):
            direct_rotation(P0, P1)

    def test_log_exponentiates_back(self, rng):
        p = random_projection(rng, (2,), ranks=(1,))
        q = random_projection(rng, (2,), ranks=(1,))
        u = direct_rotation(p, q)
        k = principal_log_unitary(u)
        assert (k.adjoint() + k).norm() <= 1e-12
        from ginv.algebra import expm_element

        assert expm_element(k).distance(u) <= 1e-12


class TestOrbitPath:
    def test_constant_path(self, rng):
        p = random_projection(rng, (2,), ranks=(1,))
        path = orbit_path(p, p, steps=4)
        assert path.max_lift_residual <= 1e-10
        assert path.end.distance(p) <= 1e-12

    def test_antipodal_pair(self):
        path = orbit_path(P0, P1, steps=16)
        assert path.end.distance(P1) <= 1e-8
        assert path.start.distance(P0) <= 1e-12
        assert path.max_lift_residual <= 1e-4

    def test_generic_block_shape(self, rng):
        p = random_projection(rng, (2, 3), ranks=(1, 2))
        q = random_projection(rng, (2, 3), ranks=(1, 2))
        path = orbit_path(p, q, steps=16)
        assert path.end.distance(q) <= 1e-6
        assert path.max_lift_residual <= 1e-4
        # every sample stays on the projection manifold
        mid = path.bases[len(path) // 2]
        assert (mid @ mid - mid).norm() <= 1e-10
        assert (mid.adjoint() - mid).norm() <= 1e-10

    def test_rank_mismatch(self, rng):
        p = random_projection(rng, (2,), ranks=(1,))
        q = random_projection(rng, (2,), ranks=(2,))
        with pytest.raises(OrbitError):
            orbit_path(p, q)

    def test_rejects_non_projections(self, rng):
        with pytest.raises(PreconditionError):
            orbit_path(mat([[1, 0], [1, 0]]), P0)

    def test_steps_bound(self, rng):
        with pytest.raises(InputError):
            orbit_path(P0, P0, steps=1)

    def test_lift_anchors_velocity(self, rng):
        p = random_projection(rng, (2,), ranks=(1,))
        q = random_projection(rng, (2,), ranks=(1,))
        path = orbit_path(p, q, steps=2048)
        i = len(path) // 3
        alpha, c = path.lifts[i], path.bases[i]
        rho = fiber_anchor_image(alpha, c)
        # compare against a one-sided analytic slope over a tiny window
        j = i + 1
        dt = path.sample_times[j] - path.sample_times[i]
        slope = (path.bases[j] - c) * (1.0 / dt)
        assert (rho - slope).norm() <= 5e-3

    def test_default_grid_and_steps_lower_bound(self, rng):
        p = random_projection(rng, (3,), ranks=(1,))
        q = random_projection(rng, (3,), ranks=(1,))
        assert len(orbit_path(p, q)) == 257
        assert len(orbit_path(p, q, steps=16)) == 257
        assert len(orbit_path(P0, P1, steps=16)) == 513  # antipodal: two legs
        for a, b in ((p, q), (P0, P1)):
            assert len(orbit_path(a, b, steps=1000)) >= 1000
            assert len(orbit_path(a, b, steps=1001)) >= 1001


class TestReparametrize:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.path = orbit_path(
            random_projection(rng, (2,), ranks=(1,)),
            random_projection(rng, (2,), ranks=(1,)),
            steps=8,
        )

    def test_identity_map_is_noop(self):
        out = reparametrize_lift(self.path, lambda t: t)
        assert abs(out.max_lift_residual - self.path.max_lift_residual) <= 1e-8
        assert out.start.distance(self.path.start) <= 1e-12

    @pytest.mark.parametrize("phi", [lambda t: t * t, lambda t: 3 * t * t - 2 * t**3])
    def test_residual_bound(self, phi):
        out = reparametrize_lift(self.path, phi)
        assert out.max_lift_residual <= 10 * self.path.max_lift_residual + 1e-6
        assert out.end.distance(self.path.end) <= 1e-8

    def test_non_monotone_rejected(self):
        with pytest.raises(InputError):
            reparametrize_lift(self.path, lambda t: t * (1 - t) * 4)

    def test_endpoint_values_enforced(self):
        with pytest.raises(InputError):
            reparametrize_lift(self.path, lambda t: 0.5 * t)

    def test_phi_called_once_per_sample(self):
        calls = []

        def counted(t):
            calls.append(t)
            return t * t

        reparametrize_lift(self.path, counted)
        assert len(calls) == len(self.path)

    @pytest.mark.parametrize("phi, dphi", [
        (lambda t: t, lambda t: np.ones_like(t)),
        (lambda t: t * t, lambda t: 2 * t),
        (lambda t: 3 * t * t - 2 * t**3, lambda t: 6 * t - 6 * t * t),
    ])
    def test_phi_derivative_is_exact_for_polynomials(self, phi, dphi):
        # a constant base and the constant lift 1: the new lift is phi' itself
        times = self.path.sample_times
        base = np.repeat(P0.blocks[0][None], len(times), axis=0)
        lift = np.repeat(np.eye(2, dtype=complex)[None], len(times), axis=0)
        out = reparametrize_lift(APath(times, stacked(base), stacked(lift)), phi)
        assert np.max(np.abs(out.lifts.blocks[0][:, 0, 0] - dphi(times))) <= 1e-12


class TestSmoothReparametrizer:
    def test_no_knots_is_identity(self):
        phi = smooth_reparametrizer([])
        assert phi(0.37) == 0.37

    def test_knot_flatness(self):
        phi = smooth_reparametrizer([0.5])
        h = 1e-5
        d1 = (phi(0.5 + h) - phi(0.5 - h)) / (2 * h)
        d2 = (phi(0.5 + h) - 2 * phi(0.5) + phi(0.5 - h)) / h**2
        assert abs(d1) <= 1e-8 and abs(d2) <= 1e-8
        assert phi(0.0) == 0.0 and phi(1.0) == 1.0

    def test_monotone(self):
        phi = smooth_reparametrizer([0.3, 0.7])
        grid = np.linspace(0, 1, 200)
        vals = np.array([phi(t) for t in grid])
        assert np.all(np.diff(vals) >= -1e-12)

    def test_bad_knots(self):
        with pytest.raises(InputError):
            smooth_reparametrizer([0.0, 0.5])
        with pytest.raises(InputError):
            smooth_reparametrizer([0.5, 0.5])

    def test_concatenated_path_through_knot(self):
        # the antipodal construction concatenates two legs at t = 1/2; a time
        # change that is flat there keeps the composite lift residual finite
        # and small (the steeper slope off the knot costs a slope^3 factor)
        path = orbit_path(P0, P1, steps=16)
        out = reparametrize_lift(path, smooth_reparametrizer([0.5]))
        assert np.isfinite(out.max_lift_residual)
        assert out.max_lift_residual <= 1e-3


class TestStackedSamples:
    @pytest.mark.parametrize("shape, ranks", [((2,), (1,)), ((3,), (2,)), ((2, 3), (1, 2))])
    def test_rows_are_element_coordinates(self, rng, shape, ranks):
        path = orbit_path(random_projection(rng, shape, ranks=ranks),
                          random_projection(rng, shape, ranks=ranks), steps=8)
        base_coords = path.bases.real_coords()
        lift_coords = path.lifts.real_coords()
        for i in range(len(path)):
            assert np.array_equal(base_coords[i], path.bases[i].real_coords())
            assert np.array_equal(lift_coords[i], path.lifts[i].real_coords())
        assert not any(b.flags.writeable for b in path.bases.blocks + path.lifts.blocks)

    def test_coordinate_round_trip_is_exact(self, rng):
        shape = (2, 3)
        v = rng.standard_normal((5, 26))
        x = AlgebraElement.from_real_coords(shape, v)
        assert [b.shape for b in x.blocks] == [(5, 2, 2), (5, 3, 3)]
        assert np.array_equal(x.real_coords(), v)
        again = AlgebraElement.from_real_coords(shape, x.real_coords())
        assert all(np.array_equal(a, b) for a, b in zip(again.blocks, x.blocks))
        with pytest.raises(InputError):
            AlgebraElement.from_real_coords(shape, v[:, :-1])

    def test_elements_and_stacks_give_one_residual(self, rng):
        path = orbit_path(random_projection(rng, (2, 3), ranks=(1, 2)),
                          random_projection(rng, (2, 3), ranks=(1, 2)), steps=8)
        rebuilt = APath(
            path.sample_times,
            AlgebraElement.stack([path.bases[i] for i in range(len(path))]),
            AlgebraElement.stack([path.lifts[i] for i in range(len(path))]),
        )
        assert rebuilt.max_lift_residual == path.max_lift_residual


class TestAPathValidation:
    def test_count_mismatch(self, rng):
        p = random_projection(rng, (2,), ranks=(1,))
        with pytest.raises(InputError):
            APath([0.0, 0.5, 1.0], AlgebraElement.stack([p, p]), AlgebraElement.stack([p, p]))

    def test_times_must_increase(self, rng):
        p = random_projection(rng, (2,), ranks=(1,))
        z = AlgebraElement.zeros((2,))
        with pytest.raises(InputError):
            APath([0.0, 0.5, 0.5], AlgebraElement.stack([p, p, p]),
                  AlgebraElement.stack([z, z, z]))

    def test_stacked_count_mismatch(self, rng):
        p = random_projection(rng, (2,), ranks=(1,)).blocks[0]
        with pytest.raises(InputError):
            APath([0.0, 0.5, 1.0], stacked([p, p]), stacked([p, p, p]))

    def test_six_samples_at_least(self, rng):
        p = random_projection(rng, (2,), ranks=(1,)).blocks[0]
        for count in (1, 5, 6):
            stack = np.repeat(p[None], count, axis=0)
            times = np.linspace(0.0, 1.0, count)
            if count < 6:
                with pytest.raises(InputError, match="at least 6 samples"):
                    APath(times, stacked(stack), stacked(np.zeros_like(stack)))
            else:
                path = APath(times, stacked(stack), stacked(np.zeros_like(stack)))
                assert path.max_lift_residual <= 1e-12

    def test_stacked_times_must_increase(self, rng):
        p = random_projection(rng, (2,), ranks=(1,)).blocks[0]
        stack = np.stack([p, p, p])
        with pytest.raises(InputError):
            APath([0.0, 0.5, 0.5], stacked(stack), stacked(np.zeros_like(stack)))
