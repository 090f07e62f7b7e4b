import numpy as np
import pytest

from ginv.algebra import AlgebraElement
from ginv.errors import CompositionError, InputError, PreconditionError
from ginv.geninv import GInvPair, is_ginv_pair, mp_pair
from ginv.groupoid import (
    ActionArrow,
    ActionGroupoid,
    DisjointUnionGroupoid,
    GInvArrow,
    GInvGroupoid,
    IsometryArrow,
    PairArrow,
    PairGroupoid,
    PartialIsometryGroupoid,
    isometry_to_ginv,
    make_groupoid,
    verify_axioms,
)
from ginv.sampling import (
    random_idempotent,
    random_partial_isometry,
    random_unitary,
    well_conditioned_element,
)


def mat(entries):
    return AlgebraElement.from_blocks([np.array(entries, dtype=complex)])


E11, E12, E21 = mat([[1, 0], [0, 0]]), mat([[0, 1], [0, 0]]), mat([[0, 0], [1, 0]])


class TestGInvInstance:
    def setup_method(self):
        self.G = GInvGroupoid((2,))

    def test_source_target_of_skew_pair(self):
        g = GInvArrow(GInvPair.create(mat([[1, 0], [0, 0]]), mat([[1, 0], [1, 0]])))
        assert self.G.source(g).distance(mat([[1, 0], [1, 0]])) == 0.0
        assert self.G.target(g).distance(mat([[1, 0], [0, 0]])) == 0.0

    def test_identity_is_neutral(self, rng):
        g = self.G.arrow_from(random_idempotent(rng, (2,), ranks=(1,)), rng)
        e = self.G.identity_at(self.G.source(g))
        assert self.G.arrow_distance(self.G.compose(g, e), g) <= 1e-10

    def test_identity_arrow_is_valid_pair(self):
        q = mat([[1, 0], [0, 0]])
        e = self.G.identity_at(q)
        assert is_ginv_pair(e.pair.a, e.pair.b)

    def test_inversion_swaps(self, rng):
        g = self.G.arrow_from(random_idempotent(rng, (2,)), rng)
        gi = self.G.invert(g)
        assert gi.pair.a.distance(g.pair.b) == 0.0
        left = self.G.compose(g, gi)
        target = self.G.identity_at(self.G.target(g))
        assert self.G.arrow_distance(left, target) <= 1e-8

    def test_noncomposable_rejected(self, rng):
        g1 = self.G.arrow_from(mat([[1, 0], [0, 0]]), rng)
        g2 = self.G.arrow_from(AlgebraElement.zeros((2,)), rng)
        with pytest.raises(CompositionError) as err:
            self.G.compose(g1, g2)
        assert err.value.mismatch > 0.1

    def test_foreign_arrow_rejected(self):
        with pytest.raises(InputError):
            self.G.source(PairArrow((0.0,), (1.0,)))

    def test_isotropy_at_unit_is_invertibles(self, rng):
        one = AlgebraElement.identity((2,))
        a = well_conditioned_element(rng, (2,))
        inv = AlgebraElement((2,), (np.linalg.inv(a.blocks[0]),))
        iso = GInvArrow(GInvPair.create(a, inv))
        assert self.G.source(iso).distance(one) <= 1e-10
        assert self.G.target(iso).distance(one) <= 1e-10
        # a singular element admits no reflexive pair with source/target the unit
        sing = well_conditioned_element(rng, (2,), ranks=(1,))
        from ginv.geninv import sample_ginv_pairs

        for pair in sample_ginv_pairs(sing, seed=11, count=6):
            g = GInvArrow(pair)
            assert self.G.source(g).distance(one) > 0.4
            assert self.G.target(g).distance(one) > 0.4


class TestIsometryInstance:
    def setup_method(self):
        self.G = PartialIsometryGroupoid((2,))

    def test_source_target_of_shift(self):
        g = IsometryArrow(E12)
        assert self.G.source(g).distance(mat([[0, 0], [0, 1]])) == 0.0
        assert self.G.target(g).distance(mat([[1, 0], [0, 0]])) == 0.0

    def test_compose_shifts(self):
        # s(E12) = diag(0,1) = t(E21), so the pair is composable
        g = self.G.compose(IsometryArrow(E12), IsometryArrow(E21))
        assert g.u.distance(E11) == 0.0

    def test_invert_is_adjoint(self):
        assert self.G.invert(IsometryArrow(E12)).u.distance(E21) == 0.0

    def test_identity_at_projection(self):
        p = mat([[1, 0], [0, 0]])
        assert self.G.identity_at(p).u.distance(p) == 0.0

    def test_unitary_isotropy_at_unit(self, rng):
        one = AlgebraElement.identity((2,))
        w = AlgebraElement((2,), (random_unitary(rng, 2),))
        g = IsometryArrow(w)
        assert self.G.source(g).distance(one) <= 1e-12
        assert self.G.target(g).distance(one) <= 1e-12
        v = random_partial_isometry(rng, (2,), ranks=(1,))
        assert self.G.source(IsometryArrow(v)).distance(one) > 0.4

    def test_base_membership(self):
        with pytest.raises(InputError):
            self.G.identity_at(mat([[1, 0], [1, 0]]))  # idempotent but not Hermitian


class TestActionInstance:
    def setup_method(self):
        self.G = ActionGroupoid(1)

    def test_documented_composition(self):
        # first arrow (x=2, g=3); second must end at 2, e.g. (x=1, g=2)
        g1 = ActionArrow.of(np.array([2.0]), np.array([[3.0]]))
        g2 = ActionArrow.of(np.array([1.0]), np.array([[2.0]]))
        out = self.G.compose(g1, g2)
        assert out.point == (1.0,)
        assert out.g == ((6.0,),)

    def test_inversion(self):
        g = ActionArrow.of(np.array([2.0]), np.array([[4.0]]))
        gi = self.G.invert(g)
        assert gi.point == (8.0,)
        assert gi.g == ((0.25,),)

    def test_singular_group_element_rejected(self):
        with pytest.raises(InputError):
            self.G.validate_arrow(ActionArrow.of(np.array([1.0]), np.array([[0.0]])))


class TestPairInstance:
    def test_source_target(self):
        G = PairGroupoid(2)
        g = PairArrow((0.0, 1.0), (2.0, 3.0))
        assert tuple(G.source(g)) == (0.0, 1.0)
        assert tuple(G.target(g)) == (2.0, 3.0)

    def test_compose_chains_points(self):
        G = PairGroupoid(1)
        g1 = PairArrow((1.0,), (2.0,))  # 1 -> 2
        g0 = PairArrow((0.0,), (1.0,))  # 0 -> 1
        out = G.compose(g1, g0)
        assert out.x == (0.0,) and out.y == (2.0,)

    def test_pool_is_deterministic(self):
        a = PairGroupoid(2, pool_size=5)
        b = PairGroupoid(2, pool_size=5)
        rng = np.random.default_rng(0)
        assert np.allclose(a.sample_base_point(rng), b.sample_base_point(np.random.default_rng(0)))


class TestDisjointUnion:
    def setup_method(self):
        self.G = DisjointUnionGroupoid([PairGroupoid(1), ActionGroupoid(1)])

    def test_within_component(self):
        g1 = self.G.arrow_from((0, np.array([0.5])), np.random.default_rng(0))
        assert self.G.source(g1)[0] == 0

    def test_cross_component_composition_fails(self):
        rng = np.random.default_rng(0)
        g0 = self.G.arrow_from((0, np.array([0.5])), rng)
        g1 = self.G.arrow_from((1, np.array([0.5])), rng)
        with pytest.raises(CompositionError):
            self.G.compose(g0, g1)

    def test_axioms(self):
        rep = verify_axioms(self.G, seed=2, n_samples=40)
        assert rep.all_passed


class TestMorphism:
    def test_unitary_maps_to_invertible_pair(self, rng):
        w = AlgebraElement((2,), (random_unitary(rng, 2),))
        arrow = isometry_to_ginv(w)
        one = AlgebraElement.identity((2,))
        G = GInvGroupoid((2,))
        assert G.source(arrow).distance(one) <= 1e-12
        assert G.target(arrow).distance(one) <= 1e-12

    def test_shift(self):
        arrow = isometry_to_ginv(E12)
        assert arrow.pair.a.distance(E12) == 0.0
        assert arrow.pair.b.distance(E21) == 0.0

    def test_projection_fixed(self):
        p = mat([[1, 0], [0, 0]])
        arrow = isometry_to_ginv(p)
        assert arrow.pair.b.distance(p) == 0.0

    def test_rejects_non_isometry(self, rng):
        with pytest.raises(PreconditionError):
            isometry_to_ginv(mat([[2, 0], [0, 0]]))

    def test_commutes_with_structure(self, rng):
        U = PartialIsometryGroupoid((3,))
        G = GInvGroupoid((3,))
        for _ in range(20):
            p = U.sample_base_point(rng)
            v = U.arrow_from(p, rng)
            u = U.arrow_from(U.target(v), rng)
            lhs = isometry_to_ginv(U.compose(u, v).u)
            rhs = G.compose(isometry_to_ginv(u.u), isometry_to_ginv(v.u))
            assert G.arrow_distance(lhs, rhs) <= 1e-10
            assert G.source(isometry_to_ginv(u.u)).distance(U.source(u)) <= 1e-10

    def test_mp_pairing_lands_in_arrows(self, rng):
        G = GInvGroupoid((2,))
        for _ in range(20):
            a = well_conditioned_element(rng, (2,))
            G.validate_arrow(GInvArrow(mp_pair(a)))


class TestVerifyAxioms:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: PairGroupoid(3, pool_size=5),
            lambda: ActionGroupoid(2),
            lambda: GInvGroupoid((2,)),
            lambda: GInvGroupoid((3,)),
            lambda: GInvGroupoid((2, 3)),
            lambda: PartialIsometryGroupoid((3,)),
        ],
    )
    def test_instances_pass(self, factory):
        rep = verify_axioms(factory(), seed=0, n_samples=30)
        assert rep.all_passed, [r.details for r in rep.records if not r.passed]

    def test_pair_pool_has_zero_residual(self):
        rep = verify_axioms(PairGroupoid(3, pool_size=5), seed=7, n_samples=50)
        assert rep.all_passed
        assert rep.max_residual() == 0.0

    def test_deterministic_per_seed(self):
        a = verify_axioms(GInvGroupoid((2,)), seed=3, n_samples=10)
        b = verify_axioms(GInvGroupoid((2,)), seed=3, n_samples=10)
        assert a.to_json_bytes() == b.to_json_bytes()

    def test_corrupted_arrow_detected(self, rng):
        G = GInvGroupoid((2,))
        good = G.arrow_from(random_idempotent(rng, (2,), ranks=(1,)), rng)
        bad = GInvArrow(
            GInvPair(good.pair.a, good.pair.b + 0.1 * AlgebraElement.identity((2,)), 0.0, 0.0)
        )
        rep = verify_axioms(G, seed=0, n_samples=2, extra_arrows=[bad])
        control = [r for r in rep.records if r.name == "injected-arrow control"]
        assert control and control[0].passed
        assert "membership" in control[0].details or "violated" in control[0].details

    def test_raising_compose_becomes_failing_record(self):
        class RefusesThirdSample(PairGroupoid):
            def sample_arrow(self, rng):  # drawn once per sample
                self.sampled = getattr(self, "sampled", 0) + 1
                return super().sample_arrow(rng)

            def compose(self, g1, g2):
                if self.sampled == 3:
                    raise CompositionError(0.5)
                return super().compose(g1, g2)

        rep = verify_axioms(RefusesThirdSample(3, pool_size=5), seed=0, n_samples=5)
        failing = [r for r in rep.records if not r.passed]
        assert [r.name for r in failing] == ["law evaluation"]
        assert failing[0].value == 1
        assert failing[0].details.startswith("sample 2: CompositionError: arrows not composable")


def test_make_groupoid_factory():
    assert make_groupoid("ginv", shape=(2,)).kind == "ginv"
    assert make_groupoid("action", n=3).n == 3
    assert make_groupoid("pair", dim=2, pool_size=4).pool.shape == (4, 2)
    with pytest.raises(InputError):
        make_groupoid("nope")
