import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ginv import geometry
from ginv.algebra import AlgebraElement
from ginv.errors import InputError, PreconditionError
from ginv.geometry import (
    fiber_and_anchor,
    isotropy_tangent_dim,
    orbit_classes,
    orbit_decompose,
    orbit_report,
    submersion_rank_st,
    tangent_basis,
)
from ginv.groupoid import (
    ActionArrow,
    ActionGroupoid,
    GInvGroupoid,
    IsometryArrow,
    PairGroupoid,
    PartialIsometryGroupoid,
)
from ginv.linalg import DEFAULT_TOL, ToleranceConfig, hermitian_basis, realify
from ginv.sampling import random_idempotent, random_projection, random_unitary


def mat(entries):
    return AlgebraElement.from_blocks([np.array(entries, dtype=complex)])


#: (manifold, shape, ranks, condition number of the conjugator or None): every
#: rank in M2 and M3; rank 1 and 2 idempotents in M3 conjugated by an
#: ill-conditioned similarity, up to norms of about 1e12; rank 0 and full rank
#: at 8x8 and on multi-block shapes.
CONDITIONERS = (1e4, 1e5, 1e6, 1e7, 1e8, 1e12)
DIMENSION_CASES = (
    [(m, (n,), (r,), None) for m in "QP" for n in (2, 3) for r in range(n + 1)]
    + [("Q", (3,), (r,), cond) for cond in CONDITIONERS for r in (1, 2)]
    + [(m, shape, ranks, None) for m in "QP" for shape in ((8,), (2, 3), (1, 2, 3))
       for ranks in ((0,) * len(shape), shape)]
)


def base_point(rng, manifold, shape, ranks, cond):
    if manifold == "P":
        return random_projection(rng, shape, ranks=ranks)
    if cond is None:
        return random_idempotent(rng, shape, ranks=ranks)
    (n,), (r,) = shape, ranks
    s = (random_unitary(rng, n) * np.geomspace(1.0, cond, n)) @ random_unitary(rng, n).conj().T
    return mat(s @ np.diag((np.arange(n) < r).astype(complex)) @ np.linalg.inv(s))


def closed_form_dims(manifold, shape, ranks):
    """dim T(Q) = 4r(n-r) and isotropy GL(r) (2r^2); dim T(P) = 2r(n-r) and
    isotropy U(r) (r^2); summed over blocks."""
    tangent_c, iso_c = (4, 2) if manifold == "Q" else (2, 1)
    return (sum(tangent_c * r * (n - r) for n, r in zip(shape, ranks)),
            sum(iso_c * r * r for r in ranks))


class TestTangentBasis:
    def test_idempotent_manifold_dimension(self):
        q = mat([[1, 0], [0, 0]])
        basis = tangent_basis("Q", q)
        assert basis.real_dim == 4

    def test_projection_manifold_dimension(self):
        p = mat([[1, 0], [0, 0]])
        basis = tangent_basis("P", p)
        assert basis.real_dim == 2
        # solutions have the Hermitian off-diagonal corner form
        for col in basis.coords.T:
            v = AlgebraElement.from_real_coords(p.shape, col)
            assert (v.adjoint() - v).norm() <= 1e-10
            assert abs(v.blocks[0][0, 0]) <= 1e-10

    def test_extreme_points_are_isolated(self):
        for x in (AlgebraElement.zeros((2,)), AlgebraElement.identity((2,))):
            assert tangent_basis("Q", x).real_dim == 0
            assert tangent_basis("P", x).real_dim == 0

    def test_closed_forms_all_ranks(self, rng):
        for case in DIMENSION_CASES:
            x = base_point(rng, *case)
            assert tangent_basis(case[0], x).real_dim == closed_form_dims(*case[:3])[0], case

    def test_membership_enforced(self, rng):
        with pytest.raises(PreconditionError):
            tangent_basis("Q", mat([[2, 0], [0, 0]]))
        with pytest.raises(PreconditionError):
            tangent_basis("P", mat([[1, 0], [1, 0]]))  # idempotent, not Hermitian

    def test_vectors_satisfy_linearized_equation(self, rng):
        q = random_idempotent(rng, (3,), ranks=(2,))
        for col in tangent_basis("Q", q).coords.T:
            v = AlgebraElement.from_real_coords(q.shape, col)
            assert (q @ v + v @ q - v).norm() <= 1e-8

    def test_equal_bases_compare_equal(self, rng):
        q = random_idempotent(rng, (3,), ranks=(1,))
        twin = AlgebraElement.from_blocks([b.copy() for b in q.blocks])
        basis = tangent_basis("Q", q)
        basis.coords  # a built basis compares as an unbuilt one
        assert basis == tangent_basis("Q", twin) and basis != tangent_basis("P", mat([[1, 0], [0, 0]]))
        assert basis != tangent_basis("Q", random_idempotent(rng, (3,), ranks=(1,)))
        with pytest.raises(TypeError):
            hash(basis)

    def test_array_base_points_compare_by_value(self):
        G = ActionGroupoid(2)
        x = np.array([1.0, 2.0])
        a, b = fiber_and_anchor(G, x), fiber_and_anchor(G, x.copy())
        assert a.fiber_basis == b.fiber_basis
        assert a.fiber_basis != fiber_and_anchor(G, np.zeros(2)).fiber_basis


class TestFiberAndAnchor:
    def test_ginv_anchor_is_onto(self):
        G = GInvGroupoid((2,))
        data = fiber_and_anchor(G, mat([[1, 0], [0, 0]]))
        assert data.anchor_rank == 4  # equals dim T(Q) at rank one in M2

    def test_action_at_origin_fails_surjectivity(self):
        for n in (1, 2, 3):
            G = ActionGroupoid(n)
            assert fiber_and_anchor(G, np.zeros(n)).anchor_rank == 0
            assert fiber_and_anchor(G, np.ones(n)).anchor_rank == n

    def test_pair_anchor_full(self):
        G = PairGroupoid(4)
        assert fiber_and_anchor(G, np.zeros(4)).anchor_rank == 4

    def test_fiber_minus_anchor_is_isotropy(self, rng):
        # also: the anchor is onto T(base) and (s, t) has rank 2 dim T(base)
        cases = [(ActionGroupoid(2), rng.standard_normal(2), (2, 2), "action")]
        for case in DIMENSION_CASES:
            G = (GInvGroupoid if case[0] == "Q" else PartialIsometryGroupoid)(case[1])
            cases.append((G, base_point(rng, *case), closed_form_dims(*case[:3]), case))
        for G, x, (dim_t, dim_iso), case in cases:
            data = fiber_and_anchor(G, x)
            iso = isotropy_tangent_dim(G, x)
            rank, want = submersion_rank_st(G, G.identity_at(x))
            assert data.fiber_basis.real_dim - data.anchor_rank == iso, case
            assert (data.anchor_rank, iso) == (dim_t, dim_iso), case
            assert rank == want == 2 * dim_t, case

    def test_anchor_matrix_is_the_target_differential_between_the_real_bases(self, rng):
        for G, x in ((GInvGroupoid((2, 3)), random_idempotent(rng, (2, 3), ranks=(1, 2))),
                     (PartialIsometryGroupoid((3,)), random_projection(rng, (3,), ranks=(1,)))):
            data = fiber_and_anchor(G, x)
            tangent = tangent_basis("Q" if G.kind == "ginv" else "P", x).coords
            fiber = data.fiber_basis.coords
            dt = real_differentials(G, G.identity_at(x))[2]
            want = tangent.T @ dt @ fiber
            assert np.max(np.abs(data.anchor_matrix - want)) <= 1e-12 * np.max(np.abs(want))
            for basis in (tangent, fiber):
                assert np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1]))) <= 1e-13

    def test_membership_error(self):
        with pytest.raises(PreconditionError):
            fiber_and_anchor(GInvGroupoid((2,)), mat([[2, 0], [0, 0]]))


class TestIsotropy:
    def test_corner_of_rank_one(self, rng):
        G = GInvGroupoid((2,))
        q = random_idempotent(rng, (2,), ranks=(1,))
        assert isotropy_tangent_dim(G, q) == 2  # invertibles of a 1x1 corner

    def test_full_invertible_group(self):
        G = GInvGroupoid((2,))
        assert isotropy_tangent_dim(G, AlgebraElement.identity((2,))) == 8

    def test_unitary_group(self):
        G = PartialIsometryGroupoid((2,))
        assert isotropy_tangent_dim(G, AlgebraElement.identity((2,))) == 4


class TestSubmersion:
    def test_isometry_shift_is_regular_point(self):
        G = PartialIsometryGroupoid((2,))
        g = IsometryArrow(mat([[0, 1], [0, 0]]))
        assert submersion_rank_st(G, g) == (4, 4)

    def test_action_rank_deficit_at_origin(self):
        G = ActionGroupoid(2)
        rank, want = submersion_rank_st(G, ActionArrow(np.zeros(2), np.eye(2)))
        assert rank < want
        rank, want = submersion_rank_st(G, ActionArrow(np.array([1.0, 2.0]), np.eye(2)))
        assert rank == want == 4

    def test_pair_is_always_submersion(self):
        G = PairGroupoid(3)
        from ginv.groupoid import PairArrow

        g = PairArrow((0.0, 0.0, 0.0), (1.0, 2.0, 3.0))
        assert submersion_rank_st(G, g) == (6, 6)

    def test_agrees_with_anchor_verdict(self, rng):
        # one locally transitive instance, one not: all three checks agree
        G = GInvGroupoid((2,))
        q = random_idempotent(rng, (2,), ranks=(1,))
        data = fiber_and_anchor(G, q)
        rank, want = submersion_rank_st(G, G.identity_at(q))
        anchor_onto = data.anchor_rank == geometry.at(G, q).tangent.real_dim
        assert anchor_onto and rank == want

        A = ActionGroupoid(2)
        zero = np.zeros(2)
        data = fiber_and_anchor(A, zero)
        rank, want = submersion_rank_st(A, A.identity_at(zero))
        assert data.anchor_rank < geometry.at(A, zero).tangent.real_dim and rank < want


def conjugator_between(q1: AlgebraElement, q2: AlgebraElement) -> AlgebraElement:
    """Invertible g with g q1 g^-1 = q2, for same-rank idempotents.

    Columns of the similarity are a basis of the range followed by a basis
    of the kernel; an idempotent acts as the identity on its range.
    """
    def frame(b):
        u, s, vh = np.linalg.svd(b)
        r = int(np.sum(s > 1e-9 * max(b.shape)))
        return np.column_stack([b @ u[:, :r], vh[r:].conj().T]), r

    blocks = []
    for b1, b2 in zip(q1.blocks, q2.blocks):
        s1, r1 = frame(b1)
        s2, r2 = frame(b2)
        assert r1 == r2
        blocks.append(s2 @ np.linalg.inv(s1))
    return AlgebraElement(q1.shape, tuple(blocks))


class TestOrbits:
    def test_signatures(self, rng):
        G = PartialIsometryGroupoid((2, 3))
        p = random_projection(rng, (2, 3), ranks=(1, 2))
        assert G.orbit_signature(p, DEFAULT_TOL) == (1, 2)

    def test_without_tol_the_groupoids_own_is_used(self):
        G = ActionGroupoid(2, ToleranceConfig(residual_tol=1e-2))
        x = np.array([1e-3, 0.0])  # zero at G's tolerance, not at the default
        assert G.orbit_signature(x, G.tol) == "zero"
        assert orbit_classes(G, [x]) == {"zero": [0]}
        report = orbit_decompose(G, [x])
        assert report.config["residual_tol"] == 1e-2
        assert [r.name for r in report.records] == ["class zero", "zz class count"]
        assert orbit_report(G, {"zero": [0]}, 1).to_json_bytes() == report.to_json_bytes()

    @pytest.mark.parametrize("G", [ActionGroupoid(2), PairGroupoid(2)], ids=["action", "pair"])
    def test_non_finite_vector_points_have_no_geometry(self, G):
        with pytest.raises(PreconditionError, match="base membership"):
            geometry.at(G, [np.nan, 0.0])

    def test_geometry_without_tol_is_that_of_the_groupoids_own(self, rng):
        tol = ToleranceConfig(residual_tol=1e-6)
        G = GInvGroupoid((2,), tol)
        q = random_idempotent(rng, (2,), ranks=(1,))
        point = geometry.at(G, q)
        assert point.tol is tol and geometry.at(G, q, tol) is point
        assert fiber_and_anchor(G, q) is point.anchor
        assert isotropy_tangent_dim(G, q) == point.isotropy_dim
        assert submersion_rank_st(G, G.identity_at(q)) == point.submersion

    def test_rank_classes_of_idempotents(self, rng):
        G = GInvGroupoid((2,))
        points = [random_idempotent(rng, (2,)) for _ in range(50)]
        report = orbit_decompose(G, points)
        classes = {r.name for r in report.records if r.name.startswith("class")}
        assert classes <= {"class (0,)", "class (1,)", "class (2,)"}
        assert report.all_passed

    def test_conjugation_oracle(self, rng):
        # same-rank idempotents really are conjugate: build the conjugator
        for _ in range(10):
            q1 = random_idempotent(rng, (3,), ranks=(2,))
            q2 = random_idempotent(rng, (3,), ranks=(2,))
            g = conjugator_between(q1, q2)
            ginv = AlgebraElement((3,), (np.linalg.inv(g.blocks[0]),))
            moved = g @ q1 @ ginv
            assert moved.distance(q2) <= 1e-7 * (1 + g.norm() ** 2)

    def test_projection_classes_by_block_rank(self, rng):
        G = PartialIsometryGroupoid((2, 3))
        points = [random_projection(rng, (2, 3)) for _ in range(40)]
        report = orbit_decompose(G, points)
        for record in report.records:
            if record.name.startswith("class ("):
                r1, r2 = eval(record.name.removeprefix("class "))
                assert 0 <= r1 <= 2 and 0 <= r2 <= 3

    def test_pair_single_class(self, rng):
        G = PairGroupoid(2)
        report = orbit_decompose(G, [rng.standard_normal(2) for _ in range(5)])
        classes = [r for r in report.records if r.name.startswith("class")]
        assert len(classes) == 1 and classes[0].value == 5

    def test_action_zero_vs_nonzero(self, rng):
        G = ActionGroupoid(2)
        points = [np.zeros(2), rng.standard_normal(2), rng.standard_normal(2)]
        report = orbit_decompose(G, points)
        names = {r.name for r in report.records if r.name.startswith("class")}
        assert names == {"class zero", "class nonzero"}

    def test_membership_precondition(self, rng):
        with pytest.raises(PreconditionError):
            orbit_decompose(GInvGroupoid((2,)), [mat([[2, 0], [0, 0]])])


def per_point_classes(G, points):
    """The orbit classes of ``points`` from one ``check_base`` and one
    ``orbit_signature`` call per point."""
    for i, x in enumerate(points):
        try:
            G.check_base(x)
        except InputError as exc:
            raise PreconditionError(f"point {i} fails base membership: {exc}") from exc
    classes = {}
    for i, x in enumerate(points):
        classes.setdefault(G.orbit_signature(x, DEFAULT_TOL), []).append(i)
    return classes


def orbit_points(kind, rng):
    """A groupoid of ``kind`` and 40 base points of every class it has, and
    a point it refuses."""
    if kind == "ginv":
        G = GInvGroupoid((2, 3))
        return G, [random_idempotent(rng, (2, 3)) for _ in range(40)], mat([[2, 0], [0, 0]])
    if kind == "partial_isometry":
        G = PartialIsometryGroupoid((3,))
        nilpotent = AlgebraElement.from_blocks([np.diag([1.0, 0.0, 0.0]) + np.eye(3, k=1)])
        return G, [random_projection(rng, (3,)) for _ in range(40)], nilpotent
    G = ActionGroupoid(2) if kind == "action" else PairGroupoid(2)
    # zero, nonzero and near the zero cutoff of the action's signature
    points = [rng.standard_normal(2) * scale for scale in (0.0, 1.0, 1e-9, 2e-8) * 10]
    return G, points, np.ones(3)


class TestStackedOrbits:
    """The points of :func:`orbit_decompose` are checked and classified as
    one stack, with the classes and report of one point at a time."""

    KINDS = ["ginv", "partial_isometry", "action", "pair"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_classes_and_report_equal_one_point_at_a_time(self, kind, rng, monkeypatch):
        G, points, _ = orbit_points(kind, rng)
        want = per_point_classes(G, points)
        assert len(want) == {"ginv": 12, "partial_isometry": 4, "action": 2, "pair": 1}[kind]
        checks = []
        check = type(G).check_base
        monkeypatch.setattr(type(G), "check_base", lambda self, x: checks.append(x) or check(self, x))
        assert geometry.orbit_classes(G, points) == want
        report = orbit_decompose(G, points)
        assert len(checks) == 2  # one per call, of the stacked points
        assert report.to_json_bytes() == geometry.orbit_report(G, want, len(points)).to_json_bytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_signatures_row_by_row(self, kind, rng):
        G, points, _ = orbit_points(kind, rng)
        stacked = G.orbit_signature(G.stack_bases(points), DEFAULT_TOL)
        assert stacked == [G.orbit_signature(x, DEFAULT_TOL) for x in points]

    @pytest.mark.parametrize("kind", KINDS)
    def test_failing_point_is_named(self, kind, rng):
        G, points, bad = orbit_points(kind, rng)
        points[3] = bad
        with pytest.raises(PreconditionError) as want:
            per_point_classes(G, points)
        with pytest.raises(PreconditionError) as got:
            orbit_decompose(G, points)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("point 3 fails base membership: ")

    def test_no_points(self):
        report = orbit_decompose(PairGroupoid(2), [])
        assert [(r.name, r.value, r.passed) for r in report.records] == [
            ("zz class count", 0, True)]


class TestOrthogonalModel:
    """Every geometry rank is decided at the model point ``p`` of ``x``: the
    range projection for ``ginv``, the point itself for the other kinds."""

    def test_idempotent_model_is_its_range_projection(self, rng):
        # p x = x and x p = p: with k = x - p, pk = k and kp = 0, so C = 1 - k
        # conjugates p to x, C p C^-1 = p + pk - kp - kpk = x
        cases = [(shape, ranks, None) for shape, ranks in (((2,), (1,)), ((8,), (3,)),
                                                            ((1, 2, 3), (1, 0, 2)))]
        cases += [((3,), (r,), cond) for cond in CONDITIONERS for r in (1, 2)]
        for shape, ranks, cond in cases:
            x = base_point(rng, "Q", shape, ranks, cond)
            p = GInvGroupoid(shape).orthogonal_model(x)
            size = x.norm()
            assert (p.adjoint() - p).norm() <= 1e-14 and (p @ p - p).norm() <= 1e-14
            assert tuple(round(float(np.trace(b).real)) for b in p.blocks) == ranks
            assert (p @ x - x).norm() <= 1e-14 * size, cond  # x maps into the range of p
            # and is the identity there, as far as x is idempotent: x^2 - x
            # maps the range of x, whose vectors are x z with |z| <= |x z|, onto x p - p
            assert (x @ p - p).norm() <= 2 * (x @ x - x).norm() + 1e-14 * size, cond

    def test_other_kinds_are_their_own_model(self, rng):
        p = random_projection(rng, (2, 3), ranks=(1, 2))
        for G, x in ((PartialIsometryGroupoid((2, 3)), p), (ActionGroupoid(2), np.ones(2)),
                     (PairGroupoid(2), np.zeros(2))):
            assert G.orthogonal_model(x) is x

    def test_borderline_idempotent_has_its_tangent_space(self):
        # |x x - x| = 1.9e-8 passes base membership; ranked at x itself, the
        # tangent system's small singular values fell below the relative cutoff
        x = mat([[1 + 1.9e-8, 0], [0, 0]])
        assert tangent_basis("Q", x).real_dim == 4

    @pytest.mark.parametrize("cond", (None,) + CONDITIONERS)
    def test_bases_at_x_lie_in_the_kernels_at_x(self, rng, cond):
        # factored at x, with the column counts decided at p, the bases are as
        # backward accurate as a direct factorization at x: the tangent basis to
        # rounding, the fiber basis to about 1e-17 cond (the direct route at x
        # reaches 3e-13 at 1e4 and 3e-11 at 1e6), and right at every conditioner
        G = GInvGroupoid((3,))
        for r in (1, 2):
            x = base_point(rng, "Q", (3,), (r,), cond)
            point = geometry.at(G, x)
            tangent, fiber = point.tangent, point.anchor.fiber_basis
            assert (tangent.real_dim, fiber.real_dim) == (8, 8 + 2 * r * r)
            system = G.base_tangent_system(x)
            ds = real_differentials(G, point.identity)[1]
            for m, basis, bound in ((system, point._tangent(), 1e-14),
                                    (ds, fiber.coords, 1e-16 * max(cond or 1.0, 1e2))):
                assert np.linalg.norm(m @ basis, 2) <= bound * np.linalg.norm(m, 2), (cond, r)


    @pytest.mark.parametrize("cond", CONDITIONERS)
    def test_submersion_at_an_identity_arrow_alone_is_decided_at_the_model(
            self, rng, monkeypatch, cond):
        # with no point held, submersion_rank_st at 1_x is at(G, x).submersion,
        # decided at the model point, and meets the closed form
        G = GInvGroupoid((3,))
        for r in (1, 2):
            x = base_point(rng, "Q", (3,), (r,), cond)
            dims = 2 * closed_form_dims("Q", (3,), (r,))[0]
            got = alone(monkeypatch, lambda G, x: submersion_rank_st(G, G.identity_at(x)), G, x)
            assert got == (dims, dims), (cond, r)

    def test_identity_arrows_are_recognized_by_exact_value(self, rng, monkeypatch, nothing_held):
        # submersion_rank_st answers an arrow from its point's object exactly
        # when the arrow is that point's identity arrow; any other arrow is
        # translated to the identity arrow at its source, and no chart is
        # factored at the arrow itself
        from ginv.geninv import GInvPair

        dense = [spy(monkeypatch, cls, name)
                 for cls in (GInvGroupoid, PartialIsometryGroupoid, ActionGroupoid, PairGroupoid)
                 for name in ("chart_differential", "chart_frame")]
        v = rng.standard_normal(2)
        one = AlgebraElement.identity((2,))
        for G, x in ((GInvGroupoid((2,)), random_idempotent(rng, (2,), ranks=(1,))),
                     (PartialIsometryGroupoid((2,)), random_projection(rng, (2,), ranks=(1,))),
                     (ActionGroupoid(2), v), (PairGroupoid(2), v), (GInvGroupoid((2,)), one)):
            submersion = geometry.at(G, x).submersion
            for calls in dense:
                calls.clear()
            assert submersion_rank_st(G, G.identity_at(x)) is submersion and not any(dense)
            arrows = [G.arrow_from(x, rng)]
            if x is one:  # (-1, -1) is an arrow from 1 to 1, not the identity 1_1 = (1, 1)
                arrows.append(GInvPair.create(-1.0 * one, -1.0 * one))
            for g in arrows:
                submersion_rank_st(G, g)
                # the kinds other than ginv factor their identity frames densely
                factored = [args[0] for calls in dense for args in calls]
                assert all(G.identity_at(G._identity_candidate(h)) == h for h in factored), g
                assert factored == [] or G.kind != "ginv", g
                for calls in dense:
                    calls.clear()

    def test_base_tangent_dim_meets_the_closed_form_at_conditioned_points(self, workloads):
        # ranked at x itself, 34 of these 36 points got a wrong dimension at 1e12
        for cond in (1e4, 1e6, 1e7, 1e8, 1e12):
            for seed in range(4):
                for p in workloads.conditioned_points(seed, cond):
                    want = closed_form_dims("Q", p.shape, p.ranks)[0]
                    got = geometry.at(GInvGroupoid(p.shape), p.x).tangent.real_dim
                    assert got == want, (cond, seed, p.ranks)

    def test_submersion_target_off_the_identity_meets_the_closed_form(self, workloads):
        # s(g) = b a and t(g) = a b are conjugates of x; the rank is translated to
        # 1_{s(g)} and each tangent dimension decided at its model point (ranked
        # at g itself, 4 and 15 of these 36 ranks were wrong at 1e7 and 1e8; ranked
        # at the ends, 12, 35 and 36 targets were wrong at 1e6, 1e7 and 1e8)
        for cond in (1e4, 1e6, 1e7, 1e8, 1e12):
            for seed in range(4):
                rng = np.random.default_rng(100 + seed)
                for p in workloads.conditioned_points(seed, cond):
                    G = GInvGroupoid(p.shape)
                    g = G.arrow_from(p.x, rng)
                    if cond == 1e12:  # both ends of every arrow fail the base check
                        with pytest.raises(PreconditionError):
                            submersion_rank_st(G, g)
                        continue
                    want = 2 * closed_form_dims("Q", p.shape, p.ranks)[0]
                    assert submersion_rank_st(G, g) == (want, want), (cond, seed, p.ranks)


SHAPES_AND_RANKS = st.sampled_from(
    [((2,), (1,)), ((3,), (1,)), ((3,), (2,)), ((8,), (3,)), ((8,), (5,)), ((1, 2, 3), (1, 1, 2)),
     ((1, 2, 3), (0, 2, 1))])


def dimensions(G, x):
    point = geometry.at(G, x)
    data = point.anchor
    return (point.tangent.real_dim, data.fiber_basis.real_dim, data.anchor_rank,
            point.isotropy_dim, point.submersion)


def conjugated(x: AlgebraElement, mats) -> AlgebraElement:
    return AlgebraElement(x.shape, tuple(s @ b @ np.linalg.inv(s) for s, b in zip(mats, x.blocks)))


@given(st.integers(0, 2**32 - 1), SHAPES_AND_RANKS, st.floats(1.0, 10.0))
@settings(max_examples=12, deadline=None)
def test_dimensions_are_invariant_under_conjugation(seed, shape_and_ranks, cond):
    # conjugation by an invertible s is an automorphism of the ginv groupoid,
    # and by a unitary u one of both kinds; each keeps every dimension
    shape, ranks = shape_and_ranks
    rng = np.random.default_rng(seed)
    similar = [(random_unitary(rng, n) * np.geomspace(1.0, cond, n)) @ random_unitary(rng, n)
               for n in shape]  # condition number cond
    unitary = [random_unitary(rng, n) for n in shape]
    q, p = random_idempotent(rng, shape, ranks=ranks), random_projection(rng, shape, ranks=ranks)
    Gq, Gp = GInvGroupoid(shape), PartialIsometryGroupoid(shape)
    want_q = dimensions(Gq, q)
    assert dimensions(Gq, conjugated(q, similar)) == want_q
    assert dimensions(Gq, conjugated(q, unitary)) == want_q
    assert dimensions(Gp, conjugated(p, unitary)) == dimensions(Gp, p)


class TestIsotropyFiberStructure:
    def test_fiber_difference_is_unique_isotropy_arrow(self, rng):
        # two arrows in one source fiber with equal targets differ by exactly
        # one isotropy arrow: k = inv(g) h, recoverable by a direct solve
        from ginv.algebra import expm_element
        from ginv.sampling import element_noises, hermitian_from

        G = PartialIsometryGroupoid((3,))
        one = AlgebraElement.identity((3,))
        for _ in range(10):
            p = random_projection(rng, (3,), ranks=(2,))
            g = G.arrow_from(p, rng)
            h0 = hermitian_from(element_noises(rng, (3,), 1, scale=0.4))[0]
            k = IsometryArrow(expm_element(1j * (p @ h0 @ p)) @ p)
            assert G.source(k).distance(p) <= 1e-10
            assert G.target(k).distance(p) <= 1e-10
            h = G.compose(g, k)
            assert G.base_distance(G.source(h), G.source(g)) <= 1e-10
            assert G.base_distance(G.target(h), G.target(g)) <= 1e-10

            recovered = G.compose(G.invert(g), h)
            assert G.arrow_distance(recovered, k) <= 1e-8
            # uniqueness by direct solve: any isotropy solution of g x = h is
            # g* h compressed to the corner at p
            solved = g.u.adjoint() @ h.u
            assert (p @ solved @ p).distance(solved) <= 1e-10
            assert solved.distance(k.u) <= 1e-8


def exponential_chart(G, g):
    """The exponential chart around ``g`` and the ambient source and target
    maps, as maps between flat real coordinate vectors."""
    from ginv.algebra import expm_element
    from scipy.linalg import expm

    if isinstance(G, GInvGroupoid):
        a0, b0, shape = g.a, g.b, G.shape
        d = a0.real_coords().size
        elem = lambda v: AlgebraElement.from_real_coords(shape, v)  # noqa: E731

        def chart(p):
            u, w = elem(p[:d]), elem(p[d:])
            a = expm_element(u) @ a0 @ expm_element(w)
            b = expm_element(-1.0 * w) @ b0 @ expm_element(-1.0 * u)
            return np.concatenate([a.real_coords(), b.real_coords()])

        def source(v):
            return (elem(v[d:]) @ elem(v[:d])).real_coords()

        def target(v):
            return (elem(v[:d]) @ elem(v[d:])).real_coords()

        return chart, source, target, 2 * d, 2 * d
    if isinstance(G, PartialIsometryGroupoid):
        u0, shape = g.u, G.shape
        d = u0.real_coords().size
        hermitian = hermitian_basis(shape)
        h = hermitian.shape[1]
        elem = lambda v: AlgebraElement.from_real_coords(shape, v)  # noqa: E731

        def chart(p):  # Hermitian parameters, in the orthonormal Hermitian basis
            h1, h2 = elem(hermitian @ p[:h]), elem(hermitian @ p[h:])
            return (expm_element(1j * h1) @ u0 @ expm_element(1j * h2)).real_coords()

        return (chart, lambda v: (elem(v).adjoint() @ elem(v)).real_coords(),
                lambda v: (elem(v) @ elem(v).adjoint()).real_coords(), 2 * h, d)
    if isinstance(G, ActionGroupoid):
        n, x0, g0 = G.dim, g.point, g.g
        return (lambda p: np.concatenate([x0 + p[:n], (expm(p[n:].reshape(n, n)) @ g0).ravel()]),
                lambda v: v[:n].copy(),
                lambda v: v[n:].reshape(n, n) @ v[:n], n + n * n, n + n * n)
    k = G.dim
    x0 = np.concatenate([g.x, g.y])
    return lambda p: x0 + p, lambda v: v[:k].copy(), lambda v: v[k:].copy(), 2 * k, 2 * k


def fixed_real(m, row_sizes, col_sizes):
    """The real matrix of the complex-linear map ``m`` in the fixed
    coordinatization, from complex coordinates on pieces of ``col_sizes``
    entries to those on pieces of ``row_sizes`` entries."""
    out, order, at = realify(m, row_sizes), [], 0
    for n in col_sizes:  # a piece's real directions, then its imaginary ones
        order += [*range(at, at + n), *range(m.shape[1] + at, m.shape[1] + at + n)]
        at += n
    return out[:, order]


def real_differentials(G, g, products=False):
    """``(j_arrow, ds, dt)`` at ``g``, or with ``products`` the chart
    differentials ``(j_arrow, j_s, j_t)`` as the library multiplies them,
    as real matrices in the fixed coordinatization: the complex ones of
    ``ginv`` realified, others as they are."""
    j_arrow, ds, dt = G.chart_differential(g)
    if products:
        ds, dt = ds @ j_arrow, dt @ j_arrow
    if not np.iscomplexobj(j_arrow):
        return j_arrow, ds, dt
    element = [n * n for n in G.shape]
    pair = 2 * element
    return (fixed_real(j_arrow, pair, pair), fixed_real(ds, element, pair),
            fixed_real(dt, element, pair))


class TestChartDifferentials:
    def test_kinds_factor_their_own_coordinates(self, rng):
        # ginv complex, at half the real size; partial_isometry real, over
        # Hermitian parameters: 2 n^2 columns for n x n blocks
        for G, complex_, params in ((GInvGroupoid((8,)), True, 128),
                                    (PartialIsometryGroupoid((8,)), False, 128),
                                    (PartialIsometryGroupoid((1, 2, 3)), False, 28)):
            x = G.sample_base_point(rng)
            j_arrow, ds, dt = G.chart_differential(G.identity_at(x))
            assert all(np.iscomplexobj(m) == complex_ for m in (j_arrow, ds, dt))
            assert j_arrow.shape[1] == (ds @ j_arrow).shape[1] == params
            assert np.iscomplexobj(G.base_tangent_system(x)) == complex_

    def test_match_finite_differences(self, rng):
        # the finite-difference Jacobian stays as the independent reference
        from ginv.linalg import finite_diff_jacobian

        def close(exact, approx):
            assert np.max(np.abs(exact - approx)) <= 1e-6 * max(1.0, np.max(np.abs(exact)))

        for G in (GInvGroupoid((2, 1)), PartialIsometryGroupoid((3,)), ActionGroupoid(3),
                  PairGroupoid(2)):
            arrows = [G.identity_at(G.sample_base_point(rng)),
                      G.arrow_from(G.sample_base_point(rng), rng), G.sample_arrow(rng)]
            for g in arrows:
                j_arrow, ds, dt = real_differentials(G, g)
                chart, source, target, param_dim, arrow_dim = exponential_chart(G, g)
                assert j_arrow.shape == (arrow_dim, param_dim)
                close(j_arrow, finite_diff_jacobian(chart, np.zeros(param_dim)))
                v0 = chart(np.zeros(param_dim))
                close(ds, finite_diff_jacobian(source, v0))
                close(dt, finite_diff_jacobian(target, v0))


#: The geometry calls at one point, in the order of a benchmark point.
POINT_STEPS = (
    lambda G, x: fiber_and_anchor(G, x),
    lambda G, x: submersion_rank_st(G, G.identity_at(x)),
    lambda G, x: tangent_basis("Q" if G.kind == "ginv" else "P", x),
    lambda G, x: isotropy_tangent_dim(G, x),
)


def answer_bytes(data, submersion, tangent, iso):
    """The answers of :data:`POINT_STEPS`, arrays as bytes, so that equal
    answers are equal bit for bit."""
    return (data.fiber_basis.real_dim, data.anchor_rank, data.anchor_matrix.tobytes(),
            data.fiber_basis.coords.tobytes(), *submersion, tangent.coords.tobytes(), iso)


def empty_holder(monkeypatch):
    """Let :func:`geometry.at` hold no point."""
    monkeypatch.setattr(geometry, "_HELD", None)


def alone(monkeypatch, step, G, x):
    """``step(G, x)`` with no point held before it."""
    empty_holder(monkeypatch)
    return step(G, x)


@pytest.fixture
def nothing_held(monkeypatch):
    """No point held by :func:`geometry.at`, so that a test sees every
    computation it causes."""
    empty_holder(monkeypatch)


def spy(monkeypatch, cls, name):
    """Count the calls of the method ``cls.name``."""
    calls = []
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


class TestPointReuse:
    """One :class:`geometry.PointGeometry` serves every answer at its point,
    the free functions read the points :func:`geometry.at` holds, and no
    answer depends on what was called before."""

    def points(self, rng):
        return [(GInvGroupoid((3,)), random_idempotent(rng, (3,), ranks=(1,))),
                (PartialIsometryGroupoid((2, 3)), random_projection(rng, (2, 3), ranks=(1, 2))),
                (GInvGroupoid((4,)), random_idempotent(rng, (4,), ranks=(2,)))]

    def test_answers_do_not_depend_on_call_history(self, rng, monkeypatch):
        cases = self.points(rng)
        in_order = [answer_bytes(*(step(G, x) for step in POINT_STEPS)) for G, x in cases]
        assert in_order == [answer_bytes(*(alone(monkeypatch, step, G, x) for step in POINT_STEPS))
                            for G, x in cases]
        # interleaved: every call at one point comes between calls at the others
        by_step = [[step(G, x) for G, x in cases] for step in POINT_STEPS]
        assert in_order == [answer_bytes(*results) for results in zip(*by_step)]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_at_gives_the_answers_of_the_free_functions(self, workloads, monkeypatch, seed):
        for p in workloads.geometry_points(seed):
            G = point_instance(p)
            free = answer_bytes(*(alone(monkeypatch, step, G, p.x) for step in POINT_STEPS))
            empty_holder(monkeypatch)
            point = geometry.at(G, p.x)
            assert answer_bytes(point.anchor, point.submersion, point.tangent,
                                point.isotropy_dim) == free, p
            assert fiber_and_anchor(G, p.x) is point.anchor  # read from the held point

    def test_one_chart_differential_per_point(self, rng, monkeypatch, nothing_held):
        # at the model point, factored from the point by the kind's identity
        # frame, with no dense chart; the dimensions read no basis at the point itself
        G = GInvGroupoid((3,))
        built = spy(monkeypatch, GInvGroupoid, "identity_frame")
        dense = spy(monkeypatch, GInvGroupoid, "chart_differential")
        for expected in (1, 2):
            x = random_idempotent(rng, (3,), ranks=(1,))
            fiber_and_anchor(G, x)
            isotropy_tangent_dim(G, x)
            submersion_rank_st(G, G.identity_at(x))
            tangent_basis("Q", x)
            assert len(built) == expected and dense == []

    def test_at_holds_the_last_point(self, rng, nothing_held):
        G = GInvGroupoid((2,))
        x, y = (random_idempotent(rng, (2,), ranks=(1,)) for _ in range(2))
        first = geometry.at(G, x)
        twin = AlgebraElement.from_blocks([b.copy() for b in x.blocks])
        assert geometry.at(GInvGroupoid((2,)), twin) is first  # equal values, other objects
        second = geometry.at(G, y)
        assert geometry.at(G, y) is second and geometry.at(G, x) is not first

    def test_held_array_points_are_copies(self):
        G = ActionGroupoid(2)
        x = np.ones(2)
        assert geometry.at(G, x).anchor.anchor_rank == 2
        x[:] = 0.0  # the caller's array changes; the held point does not
        assert geometry.at(G, x).anchor.anchor_rank == 0

    def test_answers_are_built_once_and_the_object_is_frozen(self, rng, monkeypatch, nothing_held):
        from dataclasses import FrozenInstanceError

        G = GInvGroupoid((2,))
        point = geometry.at(G, random_idempotent(rng, (2,), ranks=(1,)))
        built = spy(monkeypatch, GInvGroupoid, "identity_frame")
        assert point.anchor is point.anchor and point.tangent is point.tangent
        assert point.isotropy_dim == point.isotropy_dim and point.submersion is point.submersion
        assert len(built) == 1
        with pytest.raises(FrozenInstanceError):
            point.tol = DEFAULT_TOL

    def test_off_identity_arrows_are_not_held(self, rng, monkeypatch, nothing_held):
        # an arrow is answered from the objects at its ends, and the last of
        # them, at t(g), is held; no chart is factored densely
        G = GInvGroupoid((2,))
        x = random_idempotent(rng, (2,), ranks=(1,))
        point = geometry.at(G, x)
        dense = spy(monkeypatch, GInvGroupoid, "chart_differential")
        g = G.arrow_from(x, rng)
        first = submersion_rank_st(G, g)
        assert submersion_rank_st(G, g) == first
        assert dense == []
        held = geometry._HELD
        assert held is not point and geometry.at(G, G.target(g)) is held
        with pytest.raises(PreconditionError):  # not a base point: nothing is held
            geometry.at(G, mat([[1, 1], [1, 1]]))
        assert geometry._HELD is held

    def test_parameters_of_one_kind_share_no_entry(self, rng, monkeypatch, nothing_held):
        from ginv.linalg import ToleranceConfig

        x = rng.standard_normal(2)
        built = [spy(monkeypatch, cls, "chart_differential")
                 for cls in (ActionGroupoid, PairGroupoid)]
        assert fiber_and_anchor(ActionGroupoid(2), x).fiber_basis.real_dim == 4  # GL(2)
        fiber_and_anchor(ActionGroupoid(2), x.copy())  # equal parameters and point do share it
        assert fiber_and_anchor(PairGroupoid(2), x).fiber_basis.real_dim == 2
        assert [len(c) for c in built] == [1, 1]
        coarse = ToleranceConfig(rank_cutoff_factor=1e-6)
        fiber_and_anchor(ActionGroupoid(2, coarse), x)  # a groupoid parameter, not the call's tol
        assert [len(c) for c in built] == [2, 1]

    def test_kinds_at_one_projection_share_no_entry(self, rng, monkeypatch, nothing_held):
        p = random_projection(rng, (3,), ranks=(1,))
        built = [spy(monkeypatch, cls, "identity_frame")
                 for cls in (GInvGroupoid, PartialIsometryGroupoid)]
        solved = [spy(monkeypatch, cls, "base_tangent")
                  for cls in (GInvGroupoid, PartialIsometryGroupoid)]
        assert fiber_and_anchor(GInvGroupoid((3,)), p).anchor_rank == 8
        assert tangent_basis("Q", p).coords.shape[1] == 8
        assert fiber_and_anchor(PartialIsometryGroupoid((3,)), p).anchor_rank == 4
        assert tangent_basis("P", p).coords.shape[1] == 4
        assert [len(c) for c in built] == [1, 1]
        assert [len(c) for c in solved] == [1, 1]  # each kind's basis at p, solved once

    def test_tolerances_share_no_point(self, rng, monkeypatch, nothing_held):
        from ginv.linalg import ToleranceConfig

        q = random_idempotent(rng, (2,), ranks=(1,))
        G, coarse = GInvGroupoid((2,)), ToleranceConfig(rank_cutoff_factor=0.1)
        solved = spy(monkeypatch, GInvGroupoid, "base_tangent")
        fine = geometry.at(G, q)
        rough = geometry.at(G, q, coarse)
        assert rough is not fine and (fine.tol, rough.tol) == (DEFAULT_TOL, coarse)
        assert geometry.at(G, q, coarse) is rough  # held
        again = geometry.at(G, q)  # the coarse point took its place
        assert again is not rough and again is not fine and again.tol == DEFAULT_TOL
        for point in (fine, rough, again):
            assert point.tangent.coords.shape[1] == 4
        assert len(solved) == 3  # one basis per point

    def test_a_held_identity_arrow_is_not_built_again(self, rng, monkeypatch, nothing_held):
        # an identity arrow is recognized by the one its point holds, not by a new one
        for G, x in ((GInvGroupoid((3,)), random_idempotent(rng, (3,), ranks=(1,))),
                     (PartialIsometryGroupoid((3,)), random_projection(rng, (3,), ranks=(1,)))):
            point = geometry.at(G, x)
            g, submersion = point.identity, point.submersion
            built = spy(monkeypatch, type(G), "identity_at")
            assert submersion_rank_st(G, g) is submersion
            assert built == []

    def test_one_base_system_per_point(self, rng, monkeypatch, nothing_held):
        # s(1_x) = t(1_x) = x: the submersion target reads the tangent space at x,
        # whose dimension is read at the model point
        for G, x, dims in ((GInvGroupoid((3,)), random_idempotent(rng, (3,), ranks=(1,)), 16),
                           (PartialIsometryGroupoid((3,)), random_projection(rng, (3,), ranks=(1,)),
                            8)):
            ranked = spy(monkeypatch, type(G), "base_tangent_system")
            point = geometry.at(G, x)
            assert point.submersion == (dims, dims)
            point.anchor, point.isotropy_dim, point.tangent
            assert submersion_rank_st(G, G.identity_at(x)) == (dims, dims)
            assert len(ranked) == 1
            submersion_rank_st(G, G.arrow_from(x, rng))
            assert len(ranked) == 3  # at the source and at the target

    def test_submersion_target_is_twice_the_tangent_at_conditioned_points(self, workloads):
        # s(1_x) = x x is x only up to rounding that grows with |x|; ranked there,
        # the target disagreed with the tangent space at x
        for cond in (1e6, 1e7, 1e8):
            for p in workloads.conditioned_points(0, cond):
                point = geometry.at(point_instance(p), p.x)
                assert point.submersion[1] == 2 * point.tangent.real_dim, (cond, p.ranks)

    def test_returned_arrays_are_read_only(self, rng):
        G = GInvGroupoid((2,))
        q = random_idempotent(rng, (2,), ranks=(1,))
        data = fiber_and_anchor(G, q)
        for m in (data.anchor_matrix, data.fiber_basis.coords, tangent_basis("Q", q).coords):
            with pytest.raises(ValueError):
                m[0, 0] = 1.0
        # the second call is a hit and hands out the same, unchanged answer
        assert fiber_and_anchor(G, q).anchor_matrix.tobytes() == data.anchor_matrix.tobytes()

    def test_a_basis_alone_builds_no_identity_arrow(self, monkeypatch, nothing_held):
        # |x x - x| = 1.9e-8 passes the idempotent bound of classify, 2e-8 at |x| = 1,
        # but |x x x - x| = 3.8e-8 fails the reflexivity bound of the identity arrow
        x = mat([[1 + 1.9e-8, 0], [0, 0]])
        built = spy(monkeypatch, GInvGroupoid, "identity_at")
        tangent_basis("Q", x)
        assert built == []
        for _ in range(2):  # a hit raises again
            with pytest.raises(PreconditionError):
                fiber_and_anchor(GInvGroupoid((2,)), x)
        assert geometry._HELD.point is x

    def test_checks_still_run_after_a_hit(self, rng):
        G = PartialIsometryGroupoid((2,))
        p = random_projection(rng, (2,), ranks=(1,))
        g = G.identity_at(p)
        assert submersion_rank_st(G, g) == submersion_rank_st(G, g)
        with pytest.raises(InputError):
            submersion_rank_st(G, IsometryArrow(mat([[2, 0], [0, 0]])))  # not a partial isometry
        with pytest.raises(InputError):
            submersion_rank_st(G, ActionArrow(np.zeros(2), np.eye(2)))
        fiber_and_anchor(G, p)
        with pytest.raises(PreconditionError):
            fiber_and_anchor(G, mat([[1, 1], [0, 0]]))  # idempotent, not Hermitian
        with pytest.raises(PreconditionError):
            tangent_basis("P", mat([[1, 1], [0, 0]]))


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's point mixes (``perfbench/workloads.py``)."""
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    return workloads


def point_instance(p):
    return (GInvGroupoid if p.kind == "ginv" else PartialIsometryGroupoid)(p.shape)


def dense_answers(G, g):
    """The submersion rank and isotropy dimension at the arrow ``g``, from
    fresh dense factorizations of the realified stacks ``[j_s; j_t]`` and
    ``[j_arrow; j_s; j_t]`` at ``g`` itself: the direct route, with no model
    point and no frame."""
    from ginv.linalg import kernel_basis, numerical_rank, operator_norm

    j_arrow, j_s, j_t = real_differentials(G, g, products=True)
    j_st = np.vstack([j_s, j_t])
    scale = operator_norm(np.vstack([j_arrow, j_st]))
    joint = kernel_basis(j_st, DEFAULT_TOL, scale)
    return numerical_rank(j_st, DEFAULT_TOL, scale), numerical_rank(j_arrow @ joint, DEFAULT_TOL,
                                                                   scale)


def dense_linearization(G, g):
    """The library's linearization at the arrow ``g``, from the dense
    factorization of its chart differential at ``g`` itself, with no model
    point and no translation."""
    return geometry._linearize(G.chart_frame(g), DEFAULT_TOL)


class TestFactoredOnce:
    """The linearization reads every rank from the factorizations of the
    chart differential, of the source differential ``ds Q`` on its frame
    ``Q``, and of ``dt Q K`` (``K = ker ds Q``), with the answers of dense
    factorizations of the stacked differentials, and factors each chart
    differential once."""

    def test_ranks_equal_fresh_factorizations(self, workloads):
        # the direct route at x decides every rank at the benign points and at
        # 1e4 with at least two decades of margin; at 1e6 it is right with a
        # margin of 10^0.00, so a must-agree check there would pass by luck
        from ginv.linalg import real_degree

        points = workloads.geometry_points(0) + workloads.conditioned_points(0, 1e4)
        for p in points:
            G = point_instance(p)
            point = geometry.at(G, p.x)
            assert (point.submersion[0], point.isotropy_dim) == dense_answers(G, point.identity), p
        rng = np.random.default_rng(0)
        for cls in (GInvGroupoid, PartialIsometryGroupoid):
            for shape in ((2,), (3,), (8,), (2, 3), (1, 2, 3)):
                G = cls(shape)
                for g in (G.arrow_from(G.sample_base_point(rng), rng), G.sample_arrow(rng)):
                    lin = dense_linearization(G, g)
                    assert (lin.st_rank, lin.isotropy_dim) == dense_answers(G, g), g
                    assert submersion_rank_st(G, g)[0] == lin.st_rank

    def test_frame_spans_the_chart_image(self, rng):
        for G in (GInvGroupoid((2, 3)), PartialIsometryGroupoid((3,))):
            g = G.arrow_from(G.sample_base_point(rng), rng)
            j_arrow = G.chart_differential(g)[0]
            frame = dense_linearization(G, g).frame
            assert np.allclose(frame.conj().T @ frame, np.eye(frame.shape[1]), atol=1e-13)
            # j_arrow lies in the span of the frame
            residual = j_arrow - frame @ (frame.conj().T @ j_arrow)
            assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(j_arrow))

    def test_seed_0_pass_solves_and_factors(self, workloads, monkeypatch, nothing_held):
        import hashlib
        from collections import Counter

        kinds = (GInvGroupoid, PartialIsometryGroupoid)
        solved = [spy(monkeypatch, cls, "base_tangent") for cls in kinds]
        ranked = [spy(monkeypatch, cls, "base_tangent_system") for cls in kinds]
        built = [spy(monkeypatch, cls, "identity_frame") for cls in kinds]
        dense = [spy(monkeypatch, cls, "chart_differential") for cls in kinds]

        def digest(m):
            m = np.ascontiguousarray(m)
            return m.shape, hashlib.blake2b(m.tobytes()).digest()

        factored, full_u_of_tall, eigensolved = Counter(), [], []
        svd, eigvalsh = np.linalg.svd, np.linalg.eigvalsh

        def counted_svd(m, full_matrices=True, compute_uv=True, **kwargs):
            factored[digest(m)] += 1
            if compute_uv and full_matrices and m.shape[-2] > m.shape[-1]:
                full_u_of_tall.append(m.shape)
            return svd(m, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

        def counted_eigvalsh(m, *args, **kwargs):
            eigensolved.append(m.shape)
            return eigvalsh(m, *args, **kwargs)

        points = workloads.geometry_points(0)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        for p in points:
            workloads.analyse_point(p, DEFAULT_TOL)
        monkeypatch.setattr(np.linalg, "svd", svd)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        assert len(points) == 60
        # the pass reads dimensions only: each from one system and one chart
        # differential at the model point, and no basis is factored; a ginv
        # chart is factored as its two split blocks, with no dense chart built
        assert sum(map(len, ranked)) == sum(map(len, built)) == 60
        assert [len(calls) for calls in dense] == [0, 30]
        assert sum(map(len, solved)) == 0
        assert full_u_of_tall == [] and eigensolved == []
        want, stacked, split = Counter(), set(), set()
        for p in points:
            G = point_instance(p)
            j_arrow, ds, dt = G.chart_differential(G.identity_at(G.orthogonal_model(p.x)))
            assert np.iscomplexobj(j_arrow) == (p.kind == "ginv")  # factored as built
            # the zero charts at rank 0 are left out: other products vanish there too
            if not j_arrow.any():
                continue
            if p.kind == "ginv":  # j_arrow = [[R, L], [-L, -R]], split to R + L and R - L
                d = j_arrow.shape[0] // 2
                right, left = j_arrow[:d, :d], j_arrow[:d, d:]
                want[digest(np.stack([right + left, right - left]))] += 1
                split.add(digest(j_arrow))
            else:
                want[digest(j_arrow)] += 1
            j_s, j_t = ds @ j_arrow, dt @ j_arrow
            stacked.update((digest(j_s), digest(np.vstack([j_s, j_t]))))
        assert len(want) > 40 and {d: factored[d] for d in want} == want
        assert len(split) > 20 and not any(factored[d] for d in split)
        assert len(stacked) > 80 and not any(factored[d] for d in stacked)


class TestSplitIdentityFrame:
    """At an identity arrow ``1_y`` of ``ginv`` the chart differential splits
    into two ``n^2 x n^2`` blocks; factored so, it is the dense factorization
    of :meth:`~ginv.groupoid.Groupoid.chart_frame`, up to rounding, at the
    model point ``p`` and at the point ``x`` alike."""

    def test_split_agrees_with_the_dense_factorization(self, workloads):
        from ginv.linalg import map_rank_count

        points = [p for seed in range(6) for p in workloads.geometry_points(seed)
                  if p.kind == "ginv"]
        points += [p for cond in (1e4, 1e6, 1e7, 1e8, 1e12) for seed in range(4)
                   for p in workloads.conditioned_points(seed, cond)]
        for p in points:
            G = point_instance(p)
            model = G.orthogonal_model(p.x)
            columns = None  # the frame's column count, decided at p and taken at x
            for y in (model, p.x):
                split, dense = G.identity_frame(y), G.chart_frame(G.identity_at(y))
                assert split.shape == dense.shape
                for got, want in ((split.ds, dense.ds), (split.dt, dense.dt)):
                    np.testing.assert_array_equal(got, want)
                scale = dense.s[0]
                assert np.max(np.abs(split.s - dense.s)) <= 1e-14 * scale, (p, y is model)
                columns = columns or map_rank_count(dense.s, dense.shape, 2, DEFAULT_TOL)
                # the frames span one space, to the rounding that any
                # factorization leaves in it: eps |J| over the gap s_k (Wedin)
                q, r = split.u[:, :columns], dense.u[:, :columns]
                angle = np.linalg.norm(q - r @ (r.conj().T @ q), 2)
                assert angle <= 1e-13 * scale / max(dense.s[columns - 1], 1e-300), (p, y is model)
                # ranked at x itself, answers have margin up to 1e4 only (see
                # test_ranks_equal_fresh_factorizations); the library ranks at p
                if y is model or p.slice in ("benign", "cond1e+04"):
                    lin, ref = (geometry._linearize(c, DEFAULT_TOL) for c in (split, dense))
                    answers = (lin.frame.shape[1], lin.fiber_columns, lin.st_rank,
                               lin.isotropy_dim)
                    assert answers == (ref.frame.shape[1], ref.fiber_columns, ref.st_rank,
                                       ref.isotropy_dim), (p, y is model)
                    assert answers[2:] == dense_answers(G, G.identity_at(y)), (p, y is model)


class TestBasesOnDemand:
    def test_dimensions_factor_no_basis_and_bases_are_factored_once(self, rng, monkeypatch,
                                                                   nothing_held):
        G = GInvGroupoid((3,))
        q = random_idempotent(rng, (3,), ranks=(1,))
        built = spy(monkeypatch, GInvGroupoid, "identity_frame")
        solved = spy(monkeypatch, GInvGroupoid, "base_tangent")
        point = geometry.at(G, q)
        data = point.anchor
        assert (point.tangent.real_dim, data.fiber_basis.real_dim, data.anchor_rank) == (8, 10, 8)
        assert (len(built), len(solved)) == (1, 0)  # at the model point only
        assert data.anchor_matrix.shape == (8, 10)  # at q: one chart, one tangent basis
        assert data.fiber_basis.coords.shape == (18 * 2, 10)
        assert point.tangent.coords.shape == (18, 8)
        assert (len(built), len(solved)) == (2, 1)
        assert data.anchor_matrix is data.anchor_matrix
        assert np.linalg.matrix_rank(data.anchor_matrix) == data.anchor_rank

    def test_a_dropped_point_is_freed_without_the_cycle_collector(self, rng, monkeypatch):
        # the bases' builders hold no reference to the object that holds them
        import gc
        import weakref

        q = random_idempotent(rng, (3,), ranks=(1,))
        empty_holder(monkeypatch)  # restored after the test
        gc.collect()
        gc.disable()
        try:
            point = geometry.at(GInvGroupoid((3,)), q)
            data, tangent = point.anchor, point.tangent
            gone = weakref.ref(point)
            geometry._HELD = point = None
            assert gone() is None
            assert data.fiber_basis.coords.shape == (36, 10)  # the bases still build
            assert data.anchor_matrix.shape == (8, 10) and tangent.coords.shape == (18, 8)
        finally:
            gc.enable()


class TestVectorsOnDemand:
    def test_built_on_first_read_as_before(self, rng, monkeypatch, nothing_held):
        G = GInvGroupoid((3,))
        q = random_idempotent(rng, (3,), ranks=(1,))
        built = spy(monkeypatch, GInvGroupoid, "identity_frame")
        solved = spy(monkeypatch, GInvGroupoid, "base_tangent")
        fiber = fiber_and_anchor(G, q).fiber_basis
        tangent = tangent_basis("Q", q)
        assert (fiber.real_dim, tangent.real_dim) == (10, 8)
        assert (len(built), len(solved)) == (1, 0)  # at the model point only
        for basis, rows in ((fiber, 36), (tangent, 18)):
            assert basis.coords.shape == (rows, basis.real_dim)
            assert basis.coords is basis.coords  # built once
            assert not basis.coords.flags.writeable
        assert (len(built), len(solved)) == (2, 1)  # at q: one chart, one tangent basis
        with pytest.raises(AttributeError):
            tangent.coords = np.zeros((18, 8))
