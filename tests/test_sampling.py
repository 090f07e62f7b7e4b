import numpy as np
import pytest

from ginv import sampling
from ginv.algebra import AlgebraElement, stack_rows

SHAPES = [(1,), (2,), (3,), (8,), (2, 3), (1, 2, 3)]

# The one-at-a-time formulas, block by block, that the draws and builds split.


def one_unitary(rng, n):
    q, r = np.linalg.qr(sampling.random_matrix(rng, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def one_diagonal(n, rank):
    d = np.zeros(n)
    d[:rank] = 1.0
    return d


def one_element(rng, shape, scale):
    return [sampling.random_matrix(rng, n, scale) for n in shape]


def one_hermitian(rng, shape, scale):
    return [0.5 * (m + m.conj().T) for m in one_element(rng, shape, scale)]


def one_well_conditioned(rng, shape, ranks=None):
    blocks = []
    for n, r in zip(shape, ranks or [None] * len(shape)):
        sv = np.zeros(n)
        sv[: n if r is None else r] = rng.uniform(0.5, 2.0, size=n if r is None else r)
        blocks.append((one_unitary(rng, n) * sv) @ one_unitary(rng, n))
    return blocks


def one_projection(rng, shape):
    blocks = []
    for n, r in zip(shape, sampling.random_block_ranks(rng, shape)):
        w = one_unitary(rng, n)
        blocks.append((w * one_diagonal(n, r)) @ w.conj().T)
    return blocks


def one_idempotent(rng, shape):
    blocks = []
    for n, r in zip(shape, sampling.random_block_ranks(rng, shape)):
        s = np.eye(n, dtype=complex) + sampling.random_matrix(rng, n, 0.25)
        blocks.append(s @ np.diag(one_diagonal(n, r)).astype(complex) @ np.linalg.inv(s))
    return blocks


def one_partial_isometry(rng, shape):
    return [(one_unitary(rng, n) * one_diagonal(n, r)) @ one_unitary(rng, n).conj().T
            for n, r in zip(shape, sampling.random_block_ranks(rng, shape))]


def ranked(rng, shape):
    return sampling.random_block_ranks(rng, shape)


#: (name, draw, build, sampler, one-at-a-time formula)
SAMPLERS = [
    ("element", lambda rng, s: sampling.element_noise(rng, s, 0.35), sampling.element_from,
     lambda rng, s: sampling.random_element(rng, s, 0.35),
     lambda rng, s: one_element(rng, s, 0.35)),
    ("hermitian", lambda rng, s: sampling.element_noise(rng, s, 0.4), sampling.hermitian_from,
     lambda rng, s: sampling.random_hermitian_element(rng, s, 0.4),
     lambda rng, s: one_hermitian(rng, s, 0.4)),
    ("well_conditioned", sampling.well_conditioned_noise, sampling.well_conditioned_from,
     sampling.well_conditioned_element, one_well_conditioned),
    ("well_conditioned_ranked",
     lambda rng, s: sampling.well_conditioned_noise(rng, s, ranked(rng, s)),
     sampling.well_conditioned_from,
     lambda rng, s: sampling.well_conditioned_element(rng, s, ranked(rng, s)),
     lambda rng, s: one_well_conditioned(rng, s, ranked(rng, s))),
    ("projection", sampling.projection_noise, sampling.projection_from,
     sampling.random_projection, one_projection),
    ("idempotent", sampling.idempotent_noise, sampling.idempotent_from,
     sampling.random_idempotent, one_idempotent),
    ("partial_isometry", sampling.partial_isometry_noise, sampling.partial_isometry_from,
     sampling.random_partial_isometry, one_partial_isometry),
]


def block_bytes(e: AlgebraElement, row=None) -> list:
    return [(b if row is None else b[row]).tobytes() for b in e.blocks]


def arrays_only(noise) -> bool:
    """Whether a draw holds plain arrays only, at any depth of its tuples."""
    if isinstance(noise, tuple):
        return all(arrays_only(part) for part in noise)
    return isinstance(noise, np.ndarray)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("name, draw, build, sampler, one", SAMPLERS,
                         ids=[s[0] for s in SAMPLERS])
class TestDrawThenBuild:
    def test_single_build_equals_the_one_at_a_time_formula(
            self, name, draw, build, sampler, one, shape):
        rngs = [np.random.default_rng(5) for _ in range(3)]
        for _ in range(8):
            noise = draw(rngs[0], shape)
            assert arrays_only(noise)
            want = [b.tobytes() for b in one(rngs[2], shape)]
            assert block_bytes(build(noise)) == block_bytes(sampler(rngs[1], shape)) == want
        assert len({repr(r.bit_generator.state) for r in rngs}) == 1

    def test_stacked_build_equals_each_draw(self, name, draw, build, sampler, one, shape):
        rng, reference = np.random.default_rng(6), np.random.default_rng(6)
        stacked = build(stack_rows([draw(rng, shape) for _ in range(16)]))
        assert stacked.is_stack and stacked.blocks[0].shape[0] == 16
        for i in range(16):
            assert block_bytes(stacked, i) == [b.tobytes() for b in one(reference, shape)]
        assert rng.bit_generator.state == reference.bit_generator.state


class TestUnitaryFrom:
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_stack_equals_each_matrix_and_is_unitary(self, n):
        rng = np.random.default_rng(n)
        m = np.stack([sampling.random_matrix(rng, n) for _ in range(8)])
        stacked = sampling.unitary_from(m)
        for i in range(8):
            single = sampling.unitary_from(m[i])
            assert stacked[i].tobytes() == single.tobytes()
            assert np.allclose(single.conj().T @ single, np.eye(n), atol=1e-12)

    def test_random_unitary_is_the_build_of_one_gaussian_draw(self):
        rng, reference = np.random.default_rng(2), np.random.default_rng(2)
        u = sampling.random_unitary(rng, 4)
        assert u.tobytes() == sampling.unitary_from(sampling.random_matrix(reference, 4)).tobytes()
        assert rng.bit_generator.state == reference.bit_generator.state


def test_given_ranks_draw_no_ranks():
    rng, reference = np.random.default_rng(3), np.random.default_rng(3)
    noise = sampling.projection_noise(rng, (2, 3), ranks=(1, 2))
    assert [d.tolist() for d, _ in noise] == [[1.0, 0.0], [1.0, 1.0, 0.0]]
    want = [sampling.random_matrix(reference, n) for n in (2, 3)]
    assert [m.tobytes() for _, m in noise] == [m.tobytes() for m in want]
    assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("count", [1, 2, 6])
def test_element_noises_equal_one_draw_at_a_time(shape, count):
    rng, reference = np.random.default_rng(4), np.random.default_rng(4)
    draws = sampling.element_noises(rng, shape, count, 0.35)
    assert len(draws) == count and all(arrays_only(d) for d in draws)
    for draw in draws:
        want = one_element(reference, shape, 0.35)
        assert [m.tobytes() for m in draw] == [m.tobytes() for m in want]
    assert rng.bit_generator.state == reference.bit_generator.state


def per_block_noise(rng, kind, shape):
    """The draws of :mod:`ginv.sampling` with one ``random_matrix`` call per
    Gaussian matrix, block by block, after the rank (or uniform) draws."""
    if kind == "well_conditioned":
        blocks = []
        for n in shape:
            s = rng.uniform(0.5, 2.0, size=n)
            blocks.append((s, sampling.random_matrix(rng, n), sampling.random_matrix(rng, n)))
        return tuple(blocks)
    ranks = sampling.random_block_ranks(rng, shape)
    count, scale = {"projection": (1, 1.0), "idempotent": (1, 0.25),
                    "partial_isometry": (2, 1.0)}[kind]
    return tuple((one_diagonal(n, r), *(sampling.random_matrix(rng, n, scale)
                                        for _ in range(count)))
                 for n, r in zip(shape, ranks))


@pytest.mark.parametrize("shape", [(2,), (3,), (2, 3), (1, 2, 3)], ids=str)
@pytest.mark.parametrize("kind", ["well_conditioned", "projection", "idempotent",
                                  "partial_isometry"])
def test_one_generator_call_per_draw_equals_one_per_block(kind, shape):
    rng, reference = np.random.default_rng(8), np.random.default_rng(8)
    draw = getattr(sampling, f"{kind}_noise")
    for _ in range(3):
        got, want = draw(rng, shape), per_block_noise(reference, kind, shape)
        assert [[a.tobytes() for a in block] for block in got] == \
            [[a.tobytes() for a in block] for block in want]
    assert rng.bit_generator.state == reference.bit_generator.state
