import numpy as np
import pytest
import scipy.linalg
from scipy.interpolate import BSpline, CubicSpline, make_interp_spline

from ginv import algebra, linalg, paths, suite
from ginv.algebra import AlgebraElement
from ginv.errors import (
    DegenerateInterpolationError,
    GinvError,
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
from ginv.linalg import DEFAULT_TOL
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


def schur_log(u: np.ndarray) -> np.ndarray:
    """Principal logarithm of a unitary matrix from its complex Schur form."""
    t, z = scipy.linalg.schur(u, output="complex")
    return (z * (1j * np.angle(np.diagonal(t)))) @ z.conj().T


class TestPrincipalLog:
    def test_cayley_route_matches_schur(self):
        # 200 unitaries, n = 2..8, every angle within 0.99 pi/2 (a direct
        # rotation's range): measured gaps 7.5e-15 (Schur), 3.0e-15
        # (exp log u - u) and 3.3e-16 (skew-Hermitian part) in norm
        rng = np.random.default_rng(22)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            theta = rng.uniform(-0.99 * np.pi / 2, 0.99 * np.pi / 2, n)
            u = (v * np.exp(1j * theta)) @ v.conj().T
            k = principal_log_unitary(AlgebraElement((n,), (u,))).blocks[0]
            assert np.linalg.norm(k - schur_log(u), 2) <= 1e-13
            assert np.linalg.norm(scipy.linalg.expm(k) - u, 2) <= 1e-13
            assert np.linalg.norm(k + k.conj().T, 2) <= 1e-14

    def test_blocks_are_logged_separately(self, rng):
        p, q = (random_projection(rng, (2, 3), ranks=(1, 2)) for _ in range(2))
        u = direct_rotation(p, q)
        k = principal_log_unitary(u)
        for kb, ub in zip(k.blocks, u.blocks):
            assert np.linalg.norm(kb - schur_log(ub), 2) <= 1e-13

    def test_minus_one_is_rejected(self):
        with pytest.raises(DegenerateInterpolationError):
            principal_log_unitary(mat([[-1, 0], [0, 1]]))


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

    def test_worst_residual_factors_few_rows(self, rng, monkeypatch):
        """The worst lift residual comes from an entry screen: the C*-norms of
        the 257 residual rows are not all taken."""
        p = random_projection(rng, (3,), ranks=(1,))
        q = random_projection(rng, (3,), ranks=(1,))
        rows = []
        operator_norms = algebra._operator_norms
        monkeypatch.setattr(algebra, "_operator_norms",
                            lambda b: rows.append(len(b)) or operator_norms(b))
        path = orbit_path(p, q)
        assert len(path) == 257 and path.max_lift_residual > 0.0
        assert sum(rows) < len(path)


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

    @pytest.mark.parametrize("knots", [[0.5], [0.3, 0.7], [0.1], [0.25, 0.5, 0.75]])
    def test_matches_cubic_spline(self, knots):
        # the Hermite interpolant with exact slopes against scipy's
        # not-a-knot CubicSpline through the same cumulative weights:
        # measured gaps 3.3e-13 to 6.7e-11, largest for three knots
        grid = np.linspace(0.0, 1.0, 8193)
        with np.errstate(divide="ignore", under="ignore"):
            weight = np.prod([np.where(grid == k, 0.0, np.exp(-1.0 / np.abs(grid - k)))
                              for k in knots], axis=0)
        cumulative = np.concatenate(([0.0], np.cumsum(np.diff(grid) * (weight[1:] + weight[:-1]) / 2)))
        want = CubicSpline(grid, cumulative / cumulative[-1])
        t = np.linspace(0.0, 1.0, 100_001)
        assert np.max(np.abs(smooth_reparametrizer(knots)(t) - np.clip(want(t), 0.0, 1.0))) <= 2e-10

    def test_flat_exactly_near_the_knot(self):
        phi = smooth_reparametrizer([0.5])
        near = np.linspace(0.5 - 1e-3, 0.5 + 1e-3, 101)
        assert np.ptp(phi(near)) == 0.0

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


EPS = np.finfo(float).eps


def grid_fits(path):
    """Quintic fits through the path's own factored grid: values, and
    derivatives at the sample times."""
    return path.grid.fit, path.grid.slopes


def scipy_fits(path):
    """The same fits from ``scipy.interpolate.make_interp_spline``."""
    def fit(values):
        return make_interp_spline(path.sample_times, values, k=5, axis=0)

    return fit, lambda values: fit(values).derivative()(path.sample_times)


def reparametrize_with_separate_fits(path, phi, fits):
    """Bases, lifts and lift residual of ``reparametrize_lift(path, phi)``
    from separate quintic fits: the derivative of the values of ``phi``, one
    fit through the bases and one through the lifts of ``path``, and the
    derivative of the new bases for their velocity."""
    fit, slopes = fits(path)
    times, shape = path.sample_times, path.bases.shape
    ph = np.asarray([float(phi(t)) for t in times])
    dph = slopes(ph)
    queries = np.clip(ph, times[0], times[-1])
    base_coords = fit(path.bases.real_coords())(queries)
    bases = AlgebraElement.from_real_coords(shape, base_coords)
    lifts = AlgebraElement.from_real_coords(
        shape, dph[:, None] * fit(path.lifts.real_coords())(queries))
    velocity = AlgebraElement.from_real_coords(shape, slopes(base_coords))
    return bases, lifts, float(np.max((fiber_anchor_image(lifts, bases) - velocity).norm()))


def same_bits(x: AlgebraElement, y: AlgebraElement) -> bool:
    return all(a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in zip(x.blocks, y.blocks))


def antipodal_pair(shape):
    """Projections of one rank signature whose direct rotation is singular:
    the first basis vector of each block against the second."""
    def unit(i):
        return AlgebraElement.from_blocks([np.diag(np.eye(n)[i]) for n in shape])

    return unit(0), unit(1)


def path_pair(rng, shape, legs):
    """Endpoints of a one-leg (generic) or two-leg (antipodal) orbit path."""
    if legs == 1:
        ranks = tuple(max(1, n - 1) for n in shape)
        return tuple(random_projection(rng, shape, ranks=ranks) for _ in range(2))
    return antipodal_pair(shape)


class TestSharedSpline:
    """One quintic fit per path serves every time change, with the bytes
    of separate fits on the same grid, and with scipy's values up to
    rounding."""

    MAPS = [lambda t: t, lambda t: t * t, lambda t: 3 * t * t - 2 * t**3,
            smooth_reparametrizer([0.5])]

    @pytest.mark.parametrize("legs", [1, 2])
    @pytest.mark.parametrize("shape", [(2,), (3,), (2, 3)])
    def test_time_changes_equal_separate_fits(self, rng, shape, legs):
        path = orbit_path(*path_pair(rng, shape, legs), steps=16)
        assert len(path) == 256 * legs + 1
        alone = AlgebraElement.from_real_coords(
            shape, path.grid.slopes(path.bases.real_coords()))
        residual = (fiber_anchor_image(path.lifts, path.bases) - alone).norm()
        assert path.max_lift_residual == float(np.max(residual))
        for phi in self.MAPS:
            out = reparametrize_lift(path, phi)
            bases, lifts, residual = reparametrize_with_separate_fits(path, phi, grid_fits)
            assert same_bits(out.bases, bases) and same_bits(out.lifts, lifts)
            assert repr(out.max_lift_residual) == repr(residual)

    @pytest.mark.parametrize("legs", [1, 2])
    @pytest.mark.parametrize("shape", [(2,), (3,), (2, 3)])
    def test_time_changes_match_scipy(self, rng, shape, legs):
        # Values agree to a few eps (measured 4.5 eps).  Derivatives pass
        # through the slope operator, whose scale is the inverse spacing,
        # about len(path): lifts and residuals agree to 64 len(path) eps
        # (measured at most 13 len(path) eps, 6730 eps at 513 samples).
        path = orbit_path(*path_pair(rng, shape, legs), steps=16)
        slope_tol = 64 * len(path) * EPS
        velocity = AlgebraElement.from_real_coords(
            shape, scipy_fits(path)[1](path.bases.real_coords()))
        residual = float(np.max((fiber_anchor_image(path.lifts, path.bases) - velocity).norm()))
        assert abs(path.max_lift_residual - residual) <= slope_tol
        for phi in self.MAPS:
            out = reparametrize_lift(path, phi)
            bases, lifts, residual = reparametrize_with_separate_fits(path, phi, scipy_fits)
            assert np.max(np.abs(out.bases.real_coords() - bases.real_coords())) <= 16 * EPS
            assert np.max(np.abs(out.lifts.real_coords() - lifts.real_coords())) <= slope_tol
            assert abs(out.max_lift_residual - residual) <= slope_tol

    def test_criterion_11_shares_one_grid(self, monkeypatch):
        fits, slopes, grids = [], [], []
        fit, slope, make = paths._Grid.fit, paths._Grid.slopes, paths._Grid.__init__

        def counted_fit(grid, values):
            fits.append(values.shape)
            return fit(grid, values)

        def counted_slopes(grid, values):
            slopes.append(values.shape)
            return slope(grid, values)

        def counted_make(grid, times):
            grids.append(len(times))
            make(grid, times)

        monkeypatch.setattr(paths._Grid, "fit", counted_fit)
        monkeypatch.setattr(paths._Grid, "slopes", counted_slopes)
        monkeypatch.setattr(paths._Grid, "__init__", counted_make)
        paths._leg_grid.cache_clear()
        assert suite.check_reparametrization(DEFAULT_TOL, 11).passed
        # 20 one-leg paths on one grid, one shape at a time: 10 in M2, one
        # pass of up to 11, then 10 in M3, three passes of up to 4.  Each
        # pass's velocities are one batched slope product; per shape and
        # time change, phi' is one more, and so is each pass's new
        # velocity: 1 + 3 * (1 + 1) = 7 for M2, 3 + 3 * (1 + 3) = 15 for
        # M3.  The first time change fits the splines, one batched product
        # per pass.
        assert grids == [257]
        two, three = [(10, 257, 8)], [(4, 257, 18), (4, 257, 18), (2, 257, 18)]
        assert slopes == two + 3 * ([(257,)] + two) + three + 3 * ([(257,)] + three)
        assert len(slopes) == 7 + 15 == 22
        assert fits == [(n, 257, 2 * d) for n, _, d in two + three]

    def test_orbit_paths_of_one_layout_share_a_grid(self, rng):
        one = orbit_path(*path_pair(rng, (2,), 1))
        other = orbit_path(*path_pair(rng, (3,), 1))
        two = orbit_path(*path_pair(rng, (2,), 2))
        assert one.grid is other.grid and one.sample_times is other.sample_times
        assert two.grid is not one.grid and len(two) == 513
        assert orbit_path(*path_pair(rng, (2,), 2)).grid is two.grid
        times = np.linspace(0.0, 1.0, len(one)) ** 2
        fresh = APath(times, one.bases, one.lifts)
        assert fresh.grid is not one.grid and np.array_equal(fresh.grid.times, times)


def same_path(got: APath, want: APath) -> bool:
    """Bases, lifts, times and worst residual equal bit for bit."""
    return (same_bits(got.bases, want.bases) and same_bits(got.lifts, want.lifts)
            and got.sample_times.tobytes() == want.sample_times.tobytes()
            and repr(got.max_lift_residual) == repr(want.max_lift_residual))


def stacked_pairs(rng, shape, count=5, antipodal=2):
    """``count`` endpoint pairs of rank 1 in every block, the pair at index
    ``antipodal`` (if any) antipodal: the first basis vector of each block
    of at least two against the second."""
    ranks = (1,) * len(shape)
    ps = [random_projection(rng, shape, ranks=ranks) for _ in range(count)]
    qs = [random_projection(rng, shape, ranks=ranks) for _ in range(count)]
    if antipodal is not None:
        ps[antipodal], qs[antipodal] = (
            AlgebraElement.from_blocks([np.diag(np.eye(n)[min(i, n - 1)]) for n in shape])
            for i in (0, 1))
    return ps, qs


class TestStackedPaths:
    """:func:`orbit_paths` and :func:`reparametrize_lifts` give every path
    the bits of :func:`orbit_path` and :func:`reparametrize_lift` alone."""

    @pytest.mark.parametrize("shape", [(2,), (3,), (1, 2), (2, 3)], ids=str)
    def test_stack_equals_each_path_alone(self, rng, shape, monkeypatch):
        ps, qs = stacked_pairs(rng, shape)
        alone = [orbit_path(p, q, steps=16) for p, q in zip(ps, qs)]
        assert [len(path) for path in alone] == [257, 257, 513, 257, 257]
        checked = []
        worst = paths._worst_residuals

        def counted(grid, bases, lifts, count):
            checked.append(count)
            return worst(grid, bases, lifts, count)

        monkeypatch.setattr(paths, "_worst_residuals", counted)
        # passes of two one-leg paths, or of one two-leg path
        monkeypatch.setattr(linalg, "PASS_ENTRIES", 2 * 257 * sum(n * n for n in shape))
        stacked = paths.orbit_paths(ps, qs, steps=16)
        assert all(same_path(got, want) for got, want in zip(stacked, alone))
        assert max(checked) == 2 and len(checked) > 2
        for phi in TestSharedSpline.MAPS:
            checked.clear()
            outs = paths.reparametrize_lifts(stacked, phi)
            assert max(checked) == 2 and len(checked) > 2
            assert all(same_path(got, reparametrize_lift(path, phi))
                       for got, path in zip(outs, alone))

    def test_default_passes(self, rng):
        """Passes of the default bound hold 4 paths of 257 samples in M3 and
        11 in M2; the 12th M2 path starts a second pass."""
        assert [linalg.pass_size(257, shape) for shape in [(3,), (2,), (1, 2)]] == [4, 11, 8]
        ps, qs = stacked_pairs(rng, (2,), count=12, antipodal=None)
        stacked = paths.orbit_paths(ps, qs)
        assert all(same_path(got, orbit_path(p, q)) for got, p, q in zip(stacked, ps, qs))

    def test_shapes_and_grids_in_one_call(self, rng):
        """One time change over paths of two shapes and two grids: ``phi``
        is called once per sample time of each grid."""
        pairs = [stacked_pairs(rng, shape, count=3, antipodal=1) for shape in [(2,), (3,)]]
        built = [path for ps, qs in pairs for path in paths.orbit_paths(ps, qs, steps=16)]
        assert sorted({len(path) for path in built}) == [257, 513]
        calls = []

        def phi(t):
            calls.append(t)
            return t * t

        outs = paths.reparametrize_lifts(built, phi)
        assert len(calls) == 257 + 513
        assert all(same_path(got, reparametrize_lift(path, lambda t: t * t))
                   for got, path in zip(outs, built))

    def test_no_pairs(self):
        assert paths.orbit_paths([], []) == [] and paths.reparametrize_lifts([], abs) == []

    @staticmethod
    def raised(call):
        with pytest.raises(GinvError) as err:
            call()
        return type(err.value), str(err.value)

    @pytest.mark.parametrize("row", [0, 2])
    @pytest.mark.parametrize("case", ["p", "q", "algebras", "ranks"])
    def test_offending_row_raises_its_own_error(self, rng, case, row):
        ps, qs = stacked_pairs(rng, (2,), count=4, antipodal=None)
        bad = {"p": (mat([[1, 0], [1, 0]]), qs[row]), "q": (ps[row], mat([[1, 1], [0, 0]])),
               "algebras": (ps[row], random_projection(rng, (3,), ranks=(1,))),
               "ranks": (ps[row], random_projection(rng, (2,), ranks=(2,)))}[case]
        ps[row], qs[row] = bad
        want = self.raised(lambda: orbit_path(*bad))
        assert want[0] is {"p": PreconditionError, "q": PreconditionError,
                           "algebras": InputError, "ranks": OrbitError}[case]
        assert self.raised(lambda: paths.orbit_paths(ps, qs)) == want

    def test_steps_and_phi_errors(self, rng):
        ps, qs = stacked_pairs(rng, (2,), count=3, antipodal=1)
        assert self.raised(lambda: paths.orbit_paths(ps, qs, steps=1)) == self.raised(
            lambda: orbit_path(ps[0], qs[0], steps=1)) == (InputError, "steps must be >= 2")
        built = paths.orbit_paths(ps, qs, steps=16)
        for phi, text in [(lambda t: 0.5 * t, "phi must map 0 to 0 and 1 to 1"),
                          (lambda t: t + 0.1 * np.sin(4 * np.pi * t),
                           "phi is not monotone on the sample grid")]:
            for path in built:
                assert self.raised(lambda: reparametrize_lift(path, phi)) == (InputError, text)
            assert self.raised(lambda: paths.reparametrize_lifts(built, phi)) == (InputError, text)

    def test_monotone_on_one_grid_only(self, rng):
        """``phi`` dips below its value at 1/2 at 1/2 + 1/512, a sample time
        of the two-leg path's grid and none of the one-leg paths' grid: only
        the first grid refuses it, and so does the stack that holds both."""
        ps, qs = stacked_pairs(rng, (2,), count=3, antipodal=1)
        built = paths.orbit_paths(ps, qs, steps=16)
        dip = 0.5 + 1.0 / 512

        def phi(t):
            return 0.5 - 1e-3 if t == dip else t

        assert reparametrize_lift(built[0], phi).max_lift_residual < 1e-4
        text = "phi is not monotone on the sample grid"
        assert self.raised(lambda: reparametrize_lift(built[1], phi)) == (InputError, text)
        assert self.raised(lambda: paths.reparametrize_lifts(built, phi)) == (InputError, text)


class TestFactoredGrid:
    @staticmethod
    def times(rng, count, spacing):
        if spacing == "uniform":
            return np.linspace(0.0, 1.0, count)
        return np.sort(np.concatenate([[0.0, 1.0], rng.random(count - 2)]))

    @pytest.mark.parametrize("spacing", ["uniform", "random"])
    @pytest.mark.parametrize("count", [7, 257, 513])
    def test_design_matrix_equals_scipy_bit_for_bit(self, rng, count, spacing):
        times = self.times(rng, count, spacing)
        grid = paths._Grid(times)
        i, b = paths._basis(grid.knots, times)
        ours = np.zeros((count, count))
        ours[np.arange(count), i + paths._BASIS_OFFSETS] = b
        want = BSpline.design_matrix(times, grid.knots, 5).toarray()
        assert ours.tobytes() == want.tobytes()
        assert grid.knots.tobytes() == make_interp_spline(times, times, k=5).t.tobytes()

    @pytest.mark.parametrize("spacing", ["uniform", "random"])
    @pytest.mark.parametrize("count", [7, 257, 513])
    def test_fits_match_make_interp_spline(self, rng, count, spacing):
        # The dense inverse and scipy's banded LU differ by rounding, which
        # the collocation matrix's condition number amplifies (28 uniform, up
        # to 5e6 random).  Coefficients, values between samples and
        # derivatives at the samples, each relative to its largest entry,
        # agree to 4 cond eps (measured at most 1.0 cond eps over 30 seeds).
        times = self.times(rng, count, spacing)
        grid = paths._Grid(times)
        tol = 4 * np.linalg.cond(BSpline.design_matrix(times, grid.knots, 5).toarray()) * EPS
        queries = np.sort(rng.random(300))

        def gap(got, want):
            return np.max(np.abs(got - want)) / np.max(np.abs(want))

        for values in (rng.standard_normal(count), rng.standard_normal((count, 36))):
            got, want = grid.fit(values), make_interp_spline(times, values, k=5, axis=0)
            assert gap(got.coefficients, want.c) <= tol
            assert gap(got(queries), want(queries)) <= tol
            assert gap(grid.slopes(values), want.derivative()(times)) <= tol
            assert got(queries).shape == want(queries).shape

    def test_derivative_is_exact_for_quintics(self):
        times = np.linspace(0.0, 1.0, 33)
        grid = paths._Grid(times)
        poly = np.polynomial.Polynomial([0.3, -1.0, 2.0, 0.5, -3.0, 1.5])
        assert np.max(np.abs(grid.slopes(poly(times)) - poly.deriv()(times))) <= 1e-11
        queries = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(grid.fit(poly(times))(queries) - poly(queries))) <= 1e-13

    def test_a_grid_of_other_times_is_not_used(self, rng):
        path = orbit_path(*antipodal_pair((2,)), steps=8)
        other = paths._Grid(np.linspace(0.0, 1.0, len(path)) ** 2)
        again = APath(path.sample_times, path.bases, path.lifts, other)
        assert again.grid is not other and np.array_equal(again.grid.times, path.sample_times)
        assert again.spline.coefficients.tobytes() == path.spline.coefficients.tobytes()
        assert reparametrize_lift(path, lambda t: t).grid is path.grid


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
