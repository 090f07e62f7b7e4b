import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import per_row_draws
from per_row_draws import stack_rows

from ginv import sampling
from ginv.algebra import AlgebraElement
from ginv.errors import CompositionError, InputError, PreconditionError
from ginv.geninv import GInvPair, is_ginv_pair, mp_pair, sample_ginv_pairs
from ginv.groupoid import (
    ActionArrow,
    ActionGroupoid,
    GInvGroupoid,
    Groupoid,
    IsometryArrow,
    PairArrow,
    PairGroupoid,
    PartialIsometryGroupoid,
    arrow_chain,
    isometry_to_ginv,
    _build_chain,
    make_groupoid,
    verify_axioms,
)
from ginv.sampling import (
    random_block_ranks,
    random_idempotent,
    random_projection,
    random_unitary,
    well_conditioned_element,
)


def mat(entries):
    return AlgebraElement.from_blocks([np.array(entries, dtype=complex)])


def row_0(draw, rng):
    """Row 0 of ``draw(rng, 1)``: the noise of one draw."""
    return sampling.noise_row(draw(rng, 1), 0)


E11, E12, E21 = mat([[1, 0], [0, 0]]), mat([[0, 1], [0, 0]]), mat([[0, 0], [1, 0]])


class TestGInvInstance:
    def setup_method(self):
        self.G = GInvGroupoid((2,))

    def test_check_base_scales_by_the_norm(self):
        # |x x - x| = 1e-6 passes the ginv bound, scaled by |x|^2 = 1e8
        x = mat([[1, 1e4], [1e-10, 0]])
        self.G.check_base(x)
        assert self.G.base_membership_residual(x) > 2 * self.G.tol.residual_tol
        with pytest.raises(InputError):  # the same residual at |x| about 1
            self.G.check_base(mat([[1 + 1e-6, 0], [0, 0]]))

    def test_source_target_of_skew_pair(self):
        g = GInvPair.create(mat([[1, 0], [0, 0]]), mat([[1, 0], [1, 0]]))
        assert self.G.source(g).distance(mat([[1, 0], [1, 0]])) == 0.0
        assert self.G.target(g).distance(mat([[1, 0], [0, 0]])) == 0.0

    def test_identity_is_neutral(self, rng):
        g = self.G.arrow_from(random_idempotent(rng, (2,), ranks=(1,)), rng)
        e = self.G.identity_at(self.G.source(g))
        assert self.G.arrow_distance(self.G.compose(g, e), g) <= 1e-10

    def test_identity_arrow_is_valid_pair(self):
        q = mat([[1, 0], [0, 0]])
        e = self.G.identity_at(q)
        assert is_ginv_pair(e.a, e.b)

    def test_inversion_swaps(self, rng):
        g = self.G.arrow_from(random_idempotent(rng, (2,)), rng)
        gi = self.G.invert(g)
        assert gi.a.distance(g.b) == 0.0
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
        iso = GInvPair.create(a, inv)
        assert self.G.source(iso).distance(one) <= 1e-10
        assert self.G.target(iso).distance(one) <= 1e-10
        # a singular element admits no reflexive pair with source/target the unit
        sing = well_conditioned_element(rng, (2,), ranks=(1,))
        from ginv.geninv import sample_ginv_pairs

        for g in sample_ginv_pairs(sing, seed=11, count=6):
            assert self.G.source(g).distance(one) > 0.4
            assert self.G.target(g).distance(one) > 0.4


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4, 8]), st.floats(0.0, 6.0))
@settings(max_examples=40, deadline=None)
def test_arrow_from_skewed_idempotent_is_a_reflexive_pair(seed, n, log_skew):
    # x = p + k with k = p y (1 - p) nilpotent and ||k|| = 10**log_skew.  Drawn
    # from 160 such x per skew, unbounded exponents raised from skew 10 on
    # (46 of 160 at skew 30); bounded ones raised at none up to skew 1e7.
    rng = np.random.default_rng(seed)
    p = random_projection(rng, (n,), ranks=(1 + seed % (n - 1),)).blocks[0]
    y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = p @ y @ (np.eye(n) - p)
    x = AlgebraElement((n,), (p + k * (10.0**log_skew / np.linalg.norm(k, 2)),))
    g = GInvGroupoid((n,)).arrow_from(x, rng)
    GInvPair.create(g.a, g.b)


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
        # a rank-1 draw: the rank diagonal and the two Gaussian matrices
        m1, m2 = sampling.element_noises(rng, (2, 2), 1)
        v = sampling.partial_isometry_from(((np.array([[1.0, 0.0]]), m1, m2),))[0]
        assert self.G.source(IsometryArrow(v)).distance(one) > 0.4

    def test_base_membership(self):
        with pytest.raises(InputError):
            self.G.identity_at(mat([[1, 0], [1, 0]]))  # idempotent but not Hermitian


class TestActionInstance:
    def setup_method(self):
        self.G = ActionGroupoid(1)

    def test_documented_composition(self):
        # first arrow (x=2, g=3); second must end at 2, e.g. (x=1, g=2)
        g1 = ActionArrow(np.array([2.0]), np.array([[3.0]]))
        g2 = ActionArrow(np.array([1.0]), np.array([[2.0]]))
        out = self.G.compose(g1, g2)
        assert np.array_equal(out.point, [1.0])
        assert np.array_equal(out.g, [[6.0]])

    def test_inversion(self):
        g = ActionArrow(np.array([2.0]), np.array([[4.0]]))
        gi = self.G.invert(g)
        assert np.array_equal(gi.point, [8.0])
        assert np.array_equal(gi.g, [[0.25]])

    def test_singular_group_element_rejected(self):
        with pytest.raises(InputError):
            self.G.validate_arrow(ActionArrow(np.array([1.0]), np.array([[0.0]])))


class TestPairInstance:
    def test_source_target(self):
        G = PairGroupoid(2)
        g = PairArrow((0.0, 1.0), (2.0, 3.0))
        assert np.array_equal(G.source(g), [0.0, 1.0])
        assert np.array_equal(G.target(g), [2.0, 3.0])

    def test_compose_chains_points(self):
        G = PairGroupoid(1)
        g1 = PairArrow((1.0,), (2.0,))  # 1 -> 2
        g0 = PairArrow((0.0,), (1.0,))  # 0 -> 1
        out = G.compose(g1, g0)
        assert np.array_equal(out.x, [0.0]) and np.array_equal(out.y, [2.0])

    def test_pool_is_deterministic(self):
        a = PairGroupoid(2, pool_size=5)
        b = PairGroupoid(2, pool_size=5)
        rng = np.random.default_rng(0)
        assert np.allclose(a.sample_base_point(rng), b.sample_base_point(np.random.default_rng(0)))


@pytest.mark.parametrize("G", [ActionGroupoid(2), PairGroupoid(2), PairGroupoid(2, pool_size=3)],
                         ids=["action", "pair", "pair-pool"])
class TestVectorBasePoints:
    """A base point of a vector kind is a finite point of R^dim."""

    def test_non_finite_points_fail_the_base_check(self, G):
        for bad in ([np.nan, 0.0], [np.inf, 1.0], [0.0, -np.inf]):
            assert G.base_membership_residual(bad) == np.inf
            with pytest.raises(InputError, match="base membership"):
                G.check_base(bad)
        stack = np.array([[1.0, 2.0], [np.nan, 0.0], [3.0, 4.0]])
        assert G.base_membership_residual(stack).tolist() == [0.0, np.inf, 0.0]
        with pytest.raises(InputError, match="base membership"):
            G.check_base(stack)

    def test_finite_points_keep_residual_zero(self, G):
        points = G.base_noises(np.random.default_rng(0), 5)
        assert G.base_membership_residual(points).tolist() == [0.0] * 5
        assert G.base_membership_residual(points[0]) == 0.0
        assert G.base_membership_residual([1e308, -1e308]) == 0.0

    @pytest.mark.parametrize("bad", [np.zeros(3), [np.nan, 0.0], np.zeros((2, 2, 2))],
                             ids=["wrong-length", "nan", "wrong-rank"])
    def test_arrow_from_checks_its_base_point_before_any_draw(self, G, bad):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(InputError, match="base membership"):
            G.arrow_from(bad, rng)
        assert rng.bit_generator.state == state


class SingularActions(ActionGroupoid):
    """Every arrow it builds has the group component 0."""

    def arrow_at(self, x, noise):
        return ActionArrow(x, np.zeros(np.shape(x) + (self.dim,)))


NEARLY_SINGULAR = np.diag([1.0, 1e-300])


class TestSingularInverse:
    """Inverting a singular group component raises the library's error, the
    text of ``validate_arrow``, and not numpy's ``LinAlgError``; so does one
    that ``validate_arrow`` refuses though numpy would invert it."""

    @pytest.mark.parametrize("g", [
        pytest.param(ActionArrow(np.ones(2), np.zeros((2, 2))), id="single"),
        pytest.param(ActionArrow(np.ones((3, 2)), np.stack([np.eye(2), np.zeros((2, 2)),
                                                            np.eye(2)])), id="stacked"),
        pytest.param(ActionArrow(np.ones(2), NEARLY_SINGULAR), id="single-nearly"),
        pytest.param(ActionArrow(np.ones((3, 2)), np.stack([np.eye(2), NEARLY_SINGULAR,
                                                            np.eye(2)])), id="stacked-nearly"),
    ])
    def test_invert_raises_input_error(self, g):
        with pytest.raises(InputError) as err:
            ActionGroupoid(2).validate_arrow(g)
        refused = str(err.value)
        with pytest.raises(InputError) as err:
            ActionGroupoid(2).invert(g)
        assert str(err.value) == refused == "group component is numerically singular"

    def test_verify_axioms_reports_it(self):
        # each one-row rerun records the failed validation, then fails at the inverse
        rep = verify_axioms(SingularActions(2), seed=0, n_samples=3)
        failed = {r.name: r for r in rep.records if not r.passed}
        assert set(failed) == {"G1 base membership", "law evaluation"}
        assert failed["law evaluation"].value == 3
        assert failed["law evaluation"].details.startswith(
            "sample 0: InputError: group component is numerically singular")


ONE_2, ONE_3 = AlgebraElement.identity((2,)), AlgebraElement.identity((3,))
SHAPE_TEXT = "arrow belongs to an algebra of a different shape"
#: per kind: the groupoid, a base point of it, and the bad arrows, each with
#: the text of the InputError every structure map raises on it
STRUCTURE_CASES = [
    (GInvGroupoid((2,)), ONE_2, [
        (PartialIsometryGroupoid((2,)).identity_at(ONE_2), "foreign arrow of type IsometryArrow"),
        (GInvGroupoid((3,)).identity_at(ONE_3), SHAPE_TEXT)]),
    (PartialIsometryGroupoid((2,)), ONE_2, [
        (PairGroupoid(2).identity_at(np.ones(2)), "foreign arrow of type PairArrow"),
        (PartialIsometryGroupoid((3,)).identity_at(ONE_3), SHAPE_TEXT)]),
    (ActionGroupoid(2), np.ones(2), [
        (PairGroupoid(2).identity_at(np.ones(2)), "foreign arrow of type PairArrow"),
        (ActionGroupoid(3).identity_at(np.ones(3)),
         "arrow dimensions do not match the configured action")]),
    (PairGroupoid(2), np.ones(2), [
        (ActionGroupoid(2).identity_at(np.ones(2)), "foreign arrow of type ActionArrow"),
        (PairGroupoid(3).identity_at(np.ones(3)),
         "arrow dimensions do not match the configured space")]),
]
STRUCTURE_MAPS = {
    "source": lambda G, good, bad: G.source(bad),
    "target": lambda G, good, bad: G.target(bad),
    "invert": lambda G, good, bad: G.invert(bad),
    "validate_arrow": lambda G, good, bad: G.validate_arrow(bad),
    "compose-g1": lambda G, good, bad: G.compose(bad, good),
    "compose-g2": lambda G, good, bad: G.compose(good, bad),
}


@pytest.mark.parametrize("G, x, bad", [
    pytest.param(G, x, bad, id=f"{G.kind}-{'foreign' if k == 0 else 'shape'}")
    for G, x, cases in STRUCTURE_CASES for k, bad in enumerate(cases)])
@pytest.mark.parametrize("name", STRUCTURE_MAPS)
def test_structure_errors(G, x, bad, name):
    arrow, text = bad
    with pytest.raises(InputError) as err:
        STRUCTURE_MAPS[name](G, G.identity_at(x), arrow)
    assert type(err.value) is InputError and str(err.value) == text


@pytest.mark.parametrize("make, kind", [(ActionGroupoid, "action"), (PairGroupoid, "pair")])
@pytest.mark.parametrize("dim", [0, -1])
def test_dimension_below_one_is_refused(make, kind, dim):
    with pytest.raises(InputError) as err:
        make(dim)
    assert str(err.value) == f"the {kind} groupoid needs dimension >= 1"


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
        assert arrow.a.distance(E12) == 0.0
        assert arrow.b.distance(E21) == 0.0

    def test_projection_fixed(self):
        p = mat([[1, 0], [0, 0]])
        arrow = isometry_to_ginv(p)
        assert arrow.b.distance(p) == 0.0

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
            G.validate_arrow(mp_pair(a))


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
        bad = GInvPair(good.a, good.b + 0.1 * AlgebraElement.identity((2,)))
        rep = verify_axioms(G, seed=0, n_samples=2, extra_arrows=[bad])
        control = [r for r in rep.records if r.name == "injected-arrow control"]
        assert control and control[0].passed
        assert "membership" in control[0].details or "violated" in control[0].details

    def test_raising_compose_becomes_failing_record(self):
        class RefusesThirdSample(PairGroupoid):
            axiom_chunk = 1  # each chain is checked before the next is drawn

            def chain_noises(self, rng, count, *args, **kwargs):  # one chain per call
                self.sampled = getattr(self, "sampled", 0) + count
                return super().chain_noises(rng, count, *args, **kwargs)

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
    assert make_groupoid("action", n=3).dim == 3
    assert make_groupoid("pair", dim=2, pool_size=4).pool.shape == (4, 2)
    with pytest.raises(InputError):
        make_groupoid("nope")


def one_at_a_time(cls):
    """The same kind with stacking switched off: every sample is checked alone."""
    return type(f"Single{cls.__name__}", (cls,), {"axiom_chunk": 1})


def chunked(cls):
    """The same kind checking 16 chains per stacked pass, so that 40 samples
    take three passes."""
    return type(f"Chunked{cls.__name__}", (cls,), {"axiom_chunk": 16})


def draw_chain(G, rng):
    """The lazy reference draw: three composable arrows ``g1, g2, g3`` and
    one loose arrow, the random inputs of each drawn as it is built."""
    x0 = G.sample_base_point(rng)
    g1 = G.arrow_from(x0, rng)
    g2 = G.arrow_from(G.target(g1), rng)
    g3 = G.arrow_from(G.target(g2), rng)
    return g1, g2, g3, G.sample_arrow(rng)


def noise_key(noise):
    """The matrix (or stack of them) that identifies a draw of arrow noise:
    the first block's matrix of an element kind's raw noise, or the first
    array of an array kind's."""
    first = noise[0]
    return first[0] if isinstance(first, tuple) else first


def arrow_key(g):
    """The matrix (or stack of them) that identifies a ``ginv`` or ``action`` arrow."""
    return g.a.blocks[0] if isinstance(g, GInvPair) else g.g


class MarksThirdChain:
    """Mixin for a kind with stacks that remembers the first arrow of the
    third chain (chain 2): the one built from the first arrow noise of that
    chain, which chunks of any size draw in the same order.  Every chain is
    drawn through ``chain_noises``, so that is where chains are counted.  A
    subclass marks the first arrow of chain ``k`` with ``marked_chain = k``."""

    marked_chain = 2

    def chain_noises(self, rng, count, *args, **kwargs):
        noise = super().chain_noises(rng, count, *args, **kwargs)
        first = getattr(self, "drawn", 0)
        self.drawn = first + count
        if first <= self.marked_chain < self.drawn:
            self.marked_noise = noise_key(sampling.noise_row(noise[1], self.marked_chain - first))
        return noise

    def arrow_at(self, x, noise):
        g = super().arrow_at(x, noise)
        if hasattr(self, "marked_noise") and not hasattr(self, "marked"):
            hit = np.all(noise_key(noise) == self.marked_noise, axis=(-2, -1))
            if np.any(hit):
                a = arrow_key(g)
                self.marked = a[np.argmax(hit)] if a.ndim == 3 else a
        return g

    def holds_marked(self, g):
        """Whether the arrow (or each row of a stacked arrow) is the marked one."""
        marked = getattr(self, "marked", None)
        hit = np.all(arrow_key(g) == marked, axis=(-2, -1)) if marked is not None else False
        return hit


class RefusesMarked(MarksThirdChain):
    def compose(self, g1, g2):
        if np.any(self.holds_marked(g1)) or np.any(self.holds_marked(g2)):
            raise CompositionError(0.5)
        return super().compose(g1, g2)


class ComposeRefusesThirdChain(RefusesMarked, GInvGroupoid):
    pass


class ActionComposeRefusesChain160(RefusesMarked, ActionGroupoid):
    marked_chain = 160


class DistanceOffOnThirdChain(MarksThirdChain, GInvGroupoid):
    def arrow_distance(self, g1, g2):
        d = super().arrow_distance(g1, g2)
        hit = self.holds_marked(g2)
        if isinstance(d, np.ndarray):
            return np.where(hit, d + 1.0, d)
        return d + 1.0 if hit else d


class ValidationRefusesThirdChain(DistanceOffOnThirdChain):
    """Validation refuses the marked arrow, alone or in a stack; its
    distances are off as well, so the laws it enters still fail."""

    def validate_arrow(self, g):
        if np.any(self.holds_marked(g)):
            raise InputError("injected refusal")
        super().validate_arrow(g)


class ComposeRefusesChain20(ComposeRefusesThirdChain):
    marked_chain = 20


class DrawFailsAtChain26(MarksThirdChain, GInvGroupoid):
    """The first arrow of chain 26 cannot be built."""

    marked_chain = 26

    def arrow_at(self, x, noise):
        marked = getattr(self, "marked_noise", None)
        if marked is not None and np.any(np.all(noise_key(noise) == marked, axis=(-2, -1))):
            raise InputError("injected draw failure")
        return super().arrow_at(x, noise)


class TestStackedAxioms:
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize(
        "cls, shape",
        [
            pytest.param(GInvGroupoid, (2,), id="ginv-2"),
            pytest.param(GInvGroupoid, (3,), id="ginv-3"),
            pytest.param(GInvGroupoid, (2, 3), id="ginv-2,3"),
            pytest.param(PartialIsometryGroupoid, (2,), id="partial_isometry-2"),
            pytest.param(PartialIsometryGroupoid, (3,), id="partial_isometry-3"),
        ],
    )
    def test_stacked_equals_one_at_a_time(self, cls, shape, seed):
        stacked = verify_axioms(cls(shape), seed=seed, n_samples=40).to_json_bytes()
        single = verify_axioms(one_at_a_time(cls)(shape), seed=seed, n_samples=40).to_json_bytes()
        assert stacked == single

    @pytest.mark.parametrize(
        "cls, shape, seed, passes",
        [
            # at 300 samples in chunks of 256, sample 160 composed to a pair off
            # bab = b at 1.8e-3, and sample 226 could not be drawn, until arrow
            # exponents were bounded; the injected cases below put both faults
            # back, in the second of three chunks
            pytest.param(GInvGroupoid, (2, 3), 0, True, id="ginv-2,3-rerun"),
            pytest.param(GInvGroupoid, (3,), 1, True, id="ginv-3-draw-error"),
            pytest.param(PartialIsometryGroupoid, (2,), 1, True, id="partial_isometry-2"),
        ],
    )
    def test_two_chunks_equal_one_at_a_time(self, cls, shape, seed, passes):
        stacked = verify_axioms(chunked(cls)(shape), seed=seed, n_samples=40)
        single = verify_axioms(one_at_a_time(cls)(shape), seed=seed, n_samples=40)
        assert stacked.all_passed == passes
        assert stacked.to_json_bytes() == single.to_json_bytes()

    @pytest.mark.parametrize(
        "cls, shape, seed, n_samples, details",
        [
            # the second pass raises and is split into one-row passes
            pytest.param(chunked(ComposeRefusesChain20), (3,), 1, 40,
                         "sample 20: CompositionError", id="ginv-3-injected-rerun"),
            # sample 26 cannot be built; the samples after it are drawn all the same
            pytest.param(chunked(DrawFailsAtChain26), (3,), 1, 40,
                         "sample 26: InputError: injected", id="ginv-3-injected-draw-error"),
            # the same split for array-backed arrows, in the first chunk of 256
            pytest.param(ActionComposeRefusesChain160, 2, 1, 300,
                         "sample 160: CompositionError", id="action-2-injected-rerun"),
        ],
    )
    def test_injected_fault_in_two_chunks_equals_one_at_a_time(
            self, cls, shape, seed, n_samples, details):
        stacked = verify_axioms(cls(shape), seed=seed, n_samples=n_samples)
        single = verify_axioms(one_at_a_time(cls)(shape), seed=seed, n_samples=n_samples)
        failing = [r for r in stacked.records if not r.passed]
        assert [r.name for r in failing] == ["law evaluation"]
        assert failing[0].value == 1 and failing[0].details.startswith(details)
        assert stacked.to_json_bytes() == single.to_json_bytes()

    @pytest.mark.parametrize("n_samples", [40, 300])
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize(
        "cls, dim, config",
        [
            pytest.param(ActionGroupoid, 1, {}, id="action-1"),
            pytest.param(ActionGroupoid, 2, {}, id="action-2"),
            pytest.param(ActionGroupoid, 3, {}, id="action-3"),
            pytest.param(PairGroupoid, 3, {"pool_size": 5}, id="pair-3-pool"),
            pytest.param(PairGroupoid, 3, {}, id="pair-3"),
        ],
    )
    def test_array_kinds_equal_one_at_a_time(self, cls, dim, config, seed, n_samples):
        stacked = verify_axioms(cls(dim, **config), seed=seed, n_samples=n_samples)
        single = verify_axioms(one_at_a_time(cls)(dim, **config), seed=seed, n_samples=n_samples)
        assert stacked.all_passed
        assert stacked.to_json_bytes() == single.to_json_bytes()

    def test_raising_compose_in_stack_names_the_sample(self):
        G = ComposeRefusesThirdChain((2,))
        rep = verify_axioms(G, seed=1, n_samples=5)
        assert np.any(G.marked)  # a zero arrow would mark every rank-0 arrow too
        failing = [r for r in rep.records if not r.passed]
        assert [r.name for r in failing] == ["law evaluation"]
        assert failing[0].value == 1
        assert failing[0].details.startswith("sample 2: CompositionError")
        twin = verify_axioms(one_at_a_time(ComposeRefusesThirdChain)((2,)), seed=1, n_samples=5)
        assert rep.to_json_bytes() == twin.to_json_bytes()

    def test_broken_law_in_stack_gives_single_sample_details(self):
        G = DistanceOffOnThirdChain((2,))
        rep = verify_axioms(G, seed=1, n_samples=5)
        assert np.any(G.marked)
        twin = verify_axioms(one_at_a_time(DistanceOffOnThirdChain)((2,)), seed=1, n_samples=5)
        failing = [r for r in rep.records if not r.passed]
        assert {r.name for r in failing} == {"G3 right identity", "G3 left identity"}
        assert all("at sample 2" in r.details for r in failing)
        assert [(r.name, r.value, r.details) for r in rep.records] == [
            (r.name, r.value, r.details) for r in twin.records
        ]
        assert rep.to_json_bytes() == twin.to_json_bytes()

    def test_law_broken_in_every_row_lists_failures_in_sample_order(self):
        class DistanceOff(GInvGroupoid):
            def arrow_distance(self, g1, g2):
                return super().arrow_distance(g1, g2) + 1.0

        rep = verify_axioms(DistanceOff((2,)), seed=1, n_samples=5)
        twin = verify_axioms(one_at_a_time(DistanceOff)((2,)), seed=1, n_samples=5)
        details = next(r.details for r in rep.records if r.name == "G3 right identity")
        # g1 and g2 of each chain fail in turn
        assert [text.rsplit(" ", 1)[1] for text in details.split("; ")] == ["0", "0", "1"]
        assert rep.to_json_bytes() == twin.to_json_bytes()

    def test_nan_residual_breaks_its_law(self):
        class DistanceNaN(PairGroupoid):
            def arrow_distance(self, g1, g2):
                return super().arrow_distance(g1, g2) * np.nan

        stacked = verify_axioms(DistanceNaN(3), seed=0, n_samples=10)
        twin = verify_axioms(one_at_a_time(DistanceNaN)(3), seed=0, n_samples=10)
        by_distance = {"G2 associativity", "G3 left identity", "G3 right identity",
                       "G4 left inverse", "G4 right inverse"}
        for rep in (stacked, twin):
            for r in rep.records:
                if r.name in by_distance:
                    assert not r.passed and np.isnan(r.value), r
                    assert r.details.startswith(f"{r.name} violated (nan > "), r
                else:
                    assert r.passed and r.value == 0.0, r
        assert stacked.to_json_bytes() == twin.to_json_bytes()

    def test_nan_worst_value_is_strict_json(self):
        class DistanceNaN(PairGroupoid):
            def arrow_distance(self, g1, g2):
                return super().arrow_distance(g1, g2) * np.nan

        def refuse(token):
            raise ValueError(f"bare {token} token")

        rep = verify_axioms(DistanceNaN(3), seed=0, n_samples=10)
        doc = json.loads(rep.to_json_bytes(), parse_constant=refuse)
        values = {r["name"]: r["value"] for r in doc["records"]}
        assert values["G2 associativity"] == "NaN" and values["G1 base membership"] == 0.0

    def test_refused_arrow_in_stack_gives_single_sample_details(self):
        G = ValidationRefusesThirdChain((2,))
        rep = verify_axioms(G, seed=1, n_samples=5)
        assert np.any(G.marked)
        twin = verify_axioms(one_at_a_time(ValidationRefusesThirdChain)((2,)), seed=1, n_samples=5)
        failing = {r.name: r.details for r in rep.records if not r.passed}
        assert failing["G1 base membership"].startswith(
            "G1 base membership violated at sample 2: injected refusal")
        # the refused arrow's chain goes on to the laws, which its distances fail
        assert set(failing) == {"G1 base membership", "G3 right identity", "G3 left identity"}
        assert all("at sample 2" in details for details in failing.values())
        assert rep.to_json_bytes() == twin.to_json_bytes()

    def test_stacked_arrow_checks_every_row(self):
        G = PartialIsometryGroupoid((2,))
        rng = np.random.default_rng(0)
        arrows = [G.sample_arrow(rng) for _ in range(3)]
        stacked = IsometryArrow(AlgebraElement.stack([g.u for g in arrows]))
        G.validate_arrow(stacked)
        scales = G.arrow_scale(stacked)
        assert scales.shape == (3,)
        assert scales.tolist() == [G.arrow_scale(g) for g in arrows]
        bad = IsometryArrow(AlgebraElement.stack([g.u for g in arrows[:2]] + [2.0 * arrows[2].u]))
        with pytest.raises(InputError, match="not a partial isometry"):
            G.validate_arrow(bad)

    def test_stacked_action_arrow_checks_every_row(self):
        G = ActionGroupoid(2)
        rng = np.random.default_rng(0)
        arrows = [G.sample_arrow(rng) for _ in range(3)]
        stacked = ActionArrow(np.stack([g.point for g in arrows]), np.stack([g.g for g in arrows]))
        G.validate_arrow(stacked)
        assert G.arrow_scale(stacked).tolist() == [G.arrow_scale(g) for g in arrows]
        assert np.array_equal(G.target(stacked), [G.target(g) for g in arrows])
        bad = ActionArrow(stacked.point, np.concatenate([stacked.g[:2], np.zeros((1, 2, 2))]))
        with pytest.raises(InputError, match="numerically singular"):
            G.validate_arrow(bad)


def base_bytes(x) -> list:
    """The bytes of every array of a single base point."""
    return [b.tobytes() for b in (x.blocks if isinstance(x, AlgebraElement) else (x,))]


def arrow_bytes(g, row=None):
    """The bytes of every array of an arrow (of one row of a stack)."""
    if isinstance(g, GInvPair):
        arrays = g.a.blocks + g.b.blocks
    elif isinstance(g, IsometryArrow):
        arrays = g.u.blocks
    elif isinstance(g, ActionArrow):
        arrays = (g.point, g.g)
    else:
        arrays = (g.x, g.y)
    return [(b if row is None else b[row]).tobytes() for b in arrays]


STACKED_KINDS = [
    pytest.param(GInvGroupoid, (2,), id="ginv-2"),
    pytest.param(GInvGroupoid, (2, 3), id="ginv-2,3"),
    pytest.param(PartialIsometryGroupoid, (3,), id="partial_isometry-3"),
    pytest.param(ActionGroupoid, 3, id="action-3"),
    pytest.param(PairGroupoid, 3, id="pair-3"),
]


class TestStackedDraws:
    @pytest.mark.parametrize("cls, shape", STACKED_KINDS)
    def test_arrow_at_on_stacks_equals_each_arrow_from(self, cls, shape):
        G = cls(shape)
        rng = np.random.default_rng(3)
        points = [G.sample_base_point(rng) for _ in range(6)]
        state = rng.bit_generator.state
        singles = [G.arrow_from(x, rng) for x in points]
        rng.bit_generator.state = state
        x, noise = stack_rows([(x, row_0(G.arrow_noises, rng)) for x in points])
        stacked = G.arrow_at(x, noise)
        for i, g in enumerate(singles):
            assert arrow_bytes(stacked, i) == arrow_bytes(g)

    @pytest.mark.parametrize("cls, shape", STACKED_KINDS)
    def test_draw_chains_match_single_draws_and_generator_state(self, cls, shape):
        G = cls(shape)
        rng, lazy_rng = np.random.default_rng(4), np.random.default_rng(4)
        noises = [row_0(G.chain_noises, rng) for _ in range(12)]
        lazy = [draw_chain(G, lazy_rng) for _ in range(12)]
        assert rng.bit_generator.state == lazy_rng.bit_generator.state
        for noise, chain in zip(noises, lazy):
            assert [arrow_bytes(g) for g in _build_chain(G, noise)] == [
                arrow_bytes(g) for g in chain]
        stacked = _build_chain(G, stack_rows(noises))
        for i, chain in enumerate(lazy):
            for stacked_arrow, g in zip(stacked, chain):
                assert arrow_bytes(stacked_arrow, i) == arrow_bytes(g)


def off_base_point(G):
    """A point that fails ``G.check_base``: twice the unit of an algebra
    kind, a vector of the wrong length for an array kind."""
    if isinstance(G, (GInvGroupoid, PartialIsometryGroupoid)):
        return AlgebraElement.identity(G.shape) * 2.0
    return np.zeros(G.sample_base_point(np.random.default_rng(0)).shape[-1] + 1)


class TestArrowChain:
    @pytest.mark.parametrize("cls, shape", STACKED_KINDS)
    def test_each_arrow_starts_at_the_last_target(self, cls, shape):
        G = cls(shape)
        rng = np.random.default_rng(0)
        for _ in range(6):
            x_noise, *noises, _ = row_0(G.chain_noises, rng)
            x = G.base_at(x_noise)
            arrows = arrow_chain(G, x, noises)
            assert len(arrows) == 3
            for start, g in zip([x, *(G.target(g) for g in arrows[:-1])], arrows):
                # equal up to rounding; exactly for the array kinds
                assert G.base_distance(G.source(g), start) <= 1e-12 * (1 + G.arrow_scale(g) ** 2)

    @pytest.mark.parametrize("cls, shape", STACKED_KINDS)
    def test_stacked_chain_equals_single_chains(self, cls, shape):
        G = cls(shape)
        rng = np.random.default_rng(0)
        rows = [row_0(G.chain_noises, rng)[:4] for _ in range(6)]
        x_noise, *noises = stack_rows(rows)
        stacked = arrow_chain(G, G.base_at(x_noise), noises)
        for i, (x_noise, *noises) in enumerate(rows):
            single = arrow_chain(G, G.base_at(x_noise), noises)
            assert [arrow_bytes(g, i) for g in stacked] == [arrow_bytes(g) for g in single]

    @pytest.mark.parametrize("cls, shape", STACKED_KINDS)
    def test_off_base_start_raises_before_any_arrow(self, cls, shape, monkeypatch):
        G = cls(shape)
        _, *noises, _ = row_0(G.chain_noises, np.random.default_rng(0))
        built = []
        monkeypatch.setattr(G, "arrow_at", lambda x, noise: built.append(x))
        with pytest.raises(InputError, match="base membership"):
            arrow_chain(G, off_base_point(G), noises)
        assert built == []


class TestArrowEquality:
    """Arrows, single or stacked, are equal when their values are, exactly,
    and are not hashable."""

    @pytest.mark.parametrize("cls, shape", STACKED_KINDS)
    def test_single_and_stacked_arrows(self, cls, shape):
        G = cls(shape)

        def draw(seed, count=None):
            rng = np.random.default_rng(seed)
            if count is None:
                return G.sample_arrow(rng)
            return G.sample_at(G.sample_noises(rng, count))

        for count in (None, 4):
            g, twin, other = draw(0, count), draw(0, count), draw(1, count)
            assert g is not twin and g == twin and not g != twin
            assert g != other and not g == other
            with pytest.raises(TypeError):
                hash(g)
        assert draw(0) != draw(0, 4) and draw(0, 4) != draw(0, 5)
        assert draw(0) != "arrow"

    def test_exact_values(self):
        point = np.ones(2)
        assert ActionArrow(point, np.eye(2)) == ActionArrow(point.copy(), np.eye(2))
        assert ActionArrow(point, np.eye(2)) != ActionArrow(np.nextafter(point, 2.0), np.eye(2))
        assert PairArrow(point, -point) == PairArrow(point, -point)
        assert PairArrow(point, -point) != PairArrow(-point, point)
        assert PairArrow(point, point) != ActionArrow(point, np.eye(2))
        e = mat([[1, 0], [0, 0]])
        pair = GInvPair.create(e, e)
        assert pair == GInvPair.create(e, e)
        ulp = e.blocks[0].copy()
        ulp[0, 0] = np.nextafter(1.0, 2.0)  # b one ulp off
        assert pair != GInvPair(e, AlgebraElement.from_blocks([ulp]))
        assert IsometryArrow(e) == IsometryArrow(mat([[1, 0], [0, 0]]))
        for arrow in (pair, IsometryArrow(e)):
            with pytest.raises(TypeError):
                hash(arrow)


def holds_element(noise) -> bool:
    if isinstance(noise, tuple):
        return any(holds_element(part) for part in noise)
    return isinstance(noise, AlgebraElement)


def flat_arrays(noise):
    """The arrays of a draw in order, however it nests them."""
    if isinstance(noise, (tuple, list)):
        return [a for part in noise for a in flat_arrays(part)]
    return [np.asarray(noise)]


def assert_same_draws(got, want):
    got, want = flat_arrays(got), flat_arrays(want)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def arrow_noise_one_call_per_matrix(G, rng):
    """The noise of one arrow draw made the one-at-a-time way: a generator
    call for each Gaussian matrix, real part before imaginary part."""
    if isinstance(G, ActionGroupoid):
        return (rng.standard_normal((G.dim, G.dim)),)
    scale = 0.35 if isinstance(G, GInvGroupoid) else 0.4
    return tuple(
        tuple(scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
              for n in G.shape)
        for _ in range(2))


class TestOneDrawPerChain:
    KINDS = [
        pytest.param(GInvGroupoid, (2,), id="ginv-2"),
        pytest.param(GInvGroupoid, (2, 3), id="ginv-2,3"),
        pytest.param(PartialIsometryGroupoid, (2,), id="partial_isometry-2"),
        pytest.param(PartialIsometryGroupoid, (2, 3), id="partial_isometry-2,3"),
        pytest.param(ActionGroupoid, 2, id="action-2"),
        pytest.param(ActionGroupoid, 3, id="action-3"),
    ]

    @pytest.mark.parametrize("cls, shape", KINDS)
    def test_chain_noise_equals_three_sequential_draws(self, cls, shape):
        G = cls(shape)
        for seed in range(4):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            chain = row_0(G.chain_noises, rng)
            want = (row_0(G.base_noises, reference),
                    *(arrow_noise_one_call_per_matrix(G, reference) for _ in range(3)),
                    row_0(G.sample_noises, reference))
            assert_same_draws(chain, want)
            assert rng.bit_generator.state == reference.bit_generator.state
            assert rng.standard_normal() == reference.standard_normal()

    @pytest.mark.parametrize("cls, shape", KINDS)
    def test_arrow_noise_equals_one_call_per_matrix(self, cls, shape):
        G = cls(shape)
        rng, reference = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(3):
            assert_same_draws(row_0(G.arrow_noises, rng), arrow_noise_one_call_per_matrix(G, reference))
        assert rng.standard_normal() == reference.standard_normal()

    @pytest.mark.parametrize("cls, shape", STACKED_KINDS)
    def test_arrow_noises_equal_sequential_arrow_noise(self, cls, shape):
        G = cls(shape)
        rng, reference = np.random.default_rng(5), np.random.default_rng(5)
        assert_same_draws(G.arrow_noises(rng, 5),
                          stack_rows([row_0(G.arrow_noises, reference) for _ in range(5)]))
        assert rng.bit_generator.state == reference.bit_generator.state


class TestRawNoise:
    @pytest.mark.parametrize("cls, shape", STACKED_KINDS[:3])
    def test_chain_noise_holds_plain_arrays(self, cls, shape):
        G = cls(shape)
        rng = np.random.default_rng(0)
        assert not any(holds_element(row_0(G.chain_noises, rng)) for _ in range(8))

    @pytest.mark.parametrize("cls, shape", STACKED_KINDS)
    def test_base_at_of_base_noise_is_sample_base_point(self, cls, shape):
        G = cls(shape)
        rng, reference = np.random.default_rng(2), np.random.default_rng(2)
        noises = [row_0(G.base_noises, rng) for _ in range(6)]
        points = [G.sample_base_point(reference) for _ in range(6)]
        assert rng.bit_generator.state == reference.bit_generator.state
        stacked = G.base_at(stack_rows([(x,) for x in noises])[0])
        for i, (noise, x) in enumerate(zip(noises, points)):
            if isinstance(x, AlgebraElement):
                assert G.base_at(noise) == x
                assert [b[i].tobytes() for b in stacked.blocks] == [b.tobytes() for b in x.blocks]
            else:
                assert np.array_equal(G.base_at(noise), x) and stacked[i].tobytes() == x.tobytes()


class TestLooseDraws:
    # seeds whose 12 draws include a row with every block rank 0
    @pytest.mark.parametrize("shape, seed", [((2,), 0), ((2, 3), 3)])
    def test_stacked_ginv_arrows_equal_each_draw(self, shape, seed):
        G = GInvGroupoid(shape)
        rng = np.random.default_rng(seed)
        stacked = G.sample_at(G.sample_noises(rng, 12))
        single_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        zero_rows = []
        for i in range(12):
            assert arrow_bytes(stacked, i) == arrow_bytes(G.sample_arrow(single_rng))
            # the reference draw: a pair of a from sample_ginv_pairs, or (0, 0)
            a = well_conditioned_element(
                reference_rng, shape, ranks=random_block_ranks(reference_rng, shape))
            if a.norm() == 0.0:
                pair = GInvPair.create(a, a)
                zero_rows.append(i)
            else:
                pair = sample_ginv_pairs(a, int(reference_rng.integers(0, 2**63)), 1)[0]
            assert arrow_bytes(stacked, i) == arrow_bytes(pair)
        assert zero_rows
        for i in zero_rows:
            assert all(not np.any(b[i]) for b in stacked.b.blocks)
        assert single_rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize(
        "G",
        [
            pytest.param(PairGroupoid(3), id="pair-3"),
            pytest.param(PairGroupoid(3, pool_size=5), id="pair-3-pool"),
            pytest.param(ActionGroupoid(2), id="action-2"),
            pytest.param(PartialIsometryGroupoid((2,)), id="partial_isometry-2"),
        ],
    )
    def test_stacked_arrows_equal_each_sample_arrow(self, G):
        rng, single_rng = np.random.default_rng(0), np.random.default_rng(0)
        stacked = G.sample_at(G.sample_noises(rng, 12))
        for i in range(12):
            assert arrow_bytes(stacked, i) == arrow_bytes(G.sample_arrow(single_rng))
        assert single_rng.bit_generator.state == rng.bit_generator.state


# -- chunk draws against the per-row reference -------------------------------------------


def kind_id(G):
    shape = getattr(G, "shape", None) or (G.dim,)
    pool = "-pool" if getattr(G, "pool", None) is not None else ""
    return f"{G.kind}-{','.join(map(str, shape))}{pool}"


CHUNK_KINDS = per_row_draws.kinds()


def draw_per_row(monkeypatch):
    """Let every kind draw each chunk of chains row by row through the
    per-row reference draws, stacked: the draws of the kinds before chunk
    draws wrote into preallocated arrays.  A subclass that wraps
    ``chain_noises`` wraps these."""
    def chain_noises(self, rng, count, arrows=3, loose=True):
        return stack_rows([per_row_draws.chain_noise(self, rng, arrows, loose)
                           for _ in range(count)])

    for cls in (GInvGroupoid, PartialIsometryGroupoid, ActionGroupoid, PairGroupoid):
        monkeypatch.setattr(cls, "chain_noises", chain_noises)


@pytest.mark.parametrize("G", CHUNK_KINDS, ids=kind_id)
class TestChunkDraws:
    @pytest.mark.parametrize("arrows, loose", [(3, True), (2, False)])
    @pytest.mark.parametrize("count", [1, 13])
    def test_chain_noises_equal_the_per_row_chains(self, G, count, arrows, loose):
        for seed in range(4):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            got = G.chain_noises(rng, count, arrows, loose)
            want = stack_rows([per_row_draws.chain_noise(G, reference, arrows, loose)
                               for _ in range(count)])
            assert_same_draws(got, want)
            assert all(a.flags.c_contiguous for a in flat_arrays(got))
            assert rng.bit_generator.state == reference.bit_generator.state

    def test_base_arrow_and_sample_noises_equal_the_per_row_draws(self, G):
        rng, reference = np.random.default_rng(7), np.random.default_rng(7)
        assert_same_draws(G.base_noises(rng, 6),
                          stack_rows([(per_row_draws.base_noise(G, reference),)
                                      for _ in range(6)])[0])
        assert_same_draws(G.arrow_noises(rng, 6),
                          stack_rows(per_row_draws.arrow_noises(G, reference, 6)))
        assert_same_draws(G.sample_noises(rng, 6),
                          stack_rows([per_row_draws.sample_noise(G, reference)
                                      for _ in range(6)]))
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_single_draws_build_row_0_of_a_chunk_of_one(self, G):
        """``sample_base_point``, ``arrow_from`` and ``sample_arrow`` build
        row 0 of a draw of ``count = 1``, and the per-row draw."""
        single, chunk, reference = (np.random.default_rng(8) for _ in range(3))
        x = G.sample_base_point(single)
        for noise in (row_0(G.base_noises, chunk), per_row_draws.base_noise(G, reference)):
            assert base_bytes(G.base_at(noise)) == base_bytes(x)
        g = G.arrow_from(x, single)
        for noise in (row_0(G.arrow_noises, chunk), per_row_draws.arrow_noises(G, reference, 1)[0]):
            assert arrow_bytes(G.arrow_at(x, noise)) == arrow_bytes(g)
        g = G.sample_arrow(single)
        for noise in (row_0(G.sample_noises, chunk), per_row_draws.sample_noise(G, reference)):
            assert arrow_bytes(G.sample_at(noise)) == arrow_bytes(g)
        assert single.bit_generator.state == chunk.bit_generator.state == \
            reference.bit_generator.state
        assert_same_draws(row_0(G.chain_noises, chunk), per_row_draws.chain_noise(G, reference))
        assert chunk.bit_generator.state == reference.bit_generator.state

    def test_reports_equal_those_of_the_per_row_draws(self, G, monkeypatch):
        n = 10 if getattr(G, "shape", None) == (8,) else 40
        monkeypatch.setattr(G, "axiom_chunk", 16)
        got = verify_axioms(G, seed=3, n_samples=n).to_json_bytes()
        draw_per_row(monkeypatch)
        assert got == verify_axioms(G, seed=3, n_samples=n).to_json_bytes()


def test_chain_rows_interleave_as_the_per_row_draws_do():
    # criterion 03's draw: rows of three kinds in turn, each written into its own rows
    groupoids = [GInvGroupoid((2,)), GInvGroupoid((3,)), PartialIsometryGroupoid((2, 3))]
    rng, reference = np.random.default_rng(9), np.random.default_rng(9)
    rows = [G.chain_rows(4, arrows=2, loose=j == 2) for j, G in enumerate(groupoids)]
    want = [[], [], []]
    for i in range(12):
        rows[i % 3].draw(rng, i // 3)
        want[i % 3].append(per_row_draws.chain_noise(groupoids[i % 3], reference, 2, i % 3 == 2))
    for drawn, rows_of_kind in zip(rows, want):
        assert_same_draws(drawn.noise(), stack_rows(rows_of_kind))
    assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("shape, seed", [((2,), 0), ((1, 2), 1)])
def test_ginv_rows_of_rank_zero_draw_no_seed(shape, seed, monkeypatch):
    G = GInvGroupoid(shape)
    ranks, seeds = [], []
    draw, default_rng = sampling.WellConditionedRows.draw, np.random.default_rng

    def recording_draw(self, rng, i, r=None):
        ranks.append(tuple(r))
        return draw(self, rng, i, r)

    def recording_rng(seed=None):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(sampling.WellConditionedRows, "draw", recording_draw)
    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    rng = default_rng(seed)
    a, u, v = G.chain_noises(rng, 12)[-1]
    monkeypatch.undo()
    zero = [i for i, r in enumerate(ranks) if not any(r)]
    assert zero and len(seeds) == 12 - len(zero)
    for i in zero:
        assert all(not np.any(b[i]) for b in u + v)
        assert all(not np.any(s[i]) for s, _, _ in a)
    reference = np.random.default_rng(seed)
    per_row = stack_rows([per_row_draws.chain_noise(G, reference) for _ in range(12)])[-1]
    assert_same_draws((a, u, v), per_row)
    assert rng.bit_generator.state == reference.bit_generator.state


class TestRaisingChunk:
    """A chunk whose stacked pass raises is checked again row by row, from
    rows of the same arrays; the report is that of the per-row draws."""

    @pytest.mark.parametrize("cls, shape, n_samples, details", [
        pytest.param(chunked(ComposeRefusesChain20), (3,), 40, "sample 20: CompositionError",
                     id="ginv-3-compose"),
        pytest.param(chunked(DrawFailsAtChain26), (3,), 40, "sample 26: InputError: injected",
                     id="ginv-3-draw"),
        pytest.param(ActionComposeRefusesChain160, 2, 300, "sample 160: CompositionError",
                     id="action-2-compose"),
    ])
    def test_reruns_give_the_report_of_the_per_row_draws(
            self, cls, shape, n_samples, details, monkeypatch):
        rep = verify_axioms(cls(shape), seed=1, n_samples=n_samples)
        failing = [r for r in rep.records if not r.passed]
        assert [r.name for r in failing] == ["law evaluation"]
        assert failing[0].details.startswith(details)
        draw_per_row(monkeypatch)
        per_row = verify_axioms(cls(shape), seed=1, n_samples=n_samples)
        assert rep.to_json_bytes() == per_row.to_json_bytes()

    def test_one_draw_per_chunk_and_reruns_take_its_rows(self, monkeypatch):
        G = chunked(ComposeRefusesChain20)((3,))
        counts, drawn, rows = [], [], []
        chain_noises = type(G).chain_noises
        noise_row = sampling.noise_row

        def counting(self, rng, count, *args, **kwargs):
            counts.append(count)
            noise = chain_noises(self, rng, count, *args, **kwargs)
            drawn.append(noise)
            return noise

        def recording(noise, i):
            if any(noise is chunk for chunk in drawn):  # a row of a whole chunk's draw
                rows.append(i)
            return noise_row(noise, i)

        monkeypatch.setattr(type(G), "chain_noises", counting)
        monkeypatch.setattr(sampling, "noise_row", recording)
        verify_axioms(G, seed=1, n_samples=40)
        assert counts == [16, 16, 8]
        assert rows == list(range(16))  # the second chunk, which holds sample 20
