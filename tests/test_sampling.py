import numpy as np
import per_row_draws
import pytest

from ginv import sampling
from ginv.algebra import AlgebraElement

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


def element_noise(rng, shape, scale):
    return sampling.noise_row(sampling.element_noises(rng, shape, 1, scale), 0)


def chunk_build(chunk, build):
    """A sampler of one element as the build of a chunk draw of one row."""
    return lambda rng, s: build(chunk(rng, s, 1))[0]


def isometry_noises(rng, shape, count):
    """``count`` partial-isometry draws, written row by row by
    ``RankedRows(shape, count, 2)``, as the ``partial_isometry`` kind draws
    its loose arrows."""
    rows = sampling.RankedRows(shape, count, 2)
    for i in range(count):
        rows.draw(rng, i)
    return rows.noise()


def isometry_noise(rng, shape):
    return sampling.noise_row(isometry_noises(rng, shape, 1), 0)


#: the single draws of the samplers with a rank (or uniform) draw
SINGLE_DRAWS = {"well_conditioned": sampling.well_conditioned_noise,
                "projection": sampling.projection_noise,
                "idempotent": sampling.idempotent_noise,
                "partial_isometry": isometry_noise}


#: (name, draw, build, sampler, one-at-a-time formula)
SAMPLERS = [
    ("element", lambda rng, s: element_noise(rng, s, 0.35), sampling.element_from,
     lambda rng, s: sampling.random_element(rng, s, 0.35),
     lambda rng, s: one_element(rng, s, 0.35)),
    ("hermitian", lambda rng, s: element_noise(rng, s, 0.4), sampling.hermitian_from,
     chunk_build(lambda rng, s, count: sampling.element_noises(rng, s, count, 0.4),
                 sampling.hermitian_from),
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
    ("partial_isometry", isometry_noise, sampling.partial_isometry_from,
     chunk_build(isometry_noises, sampling.partial_isometry_from), one_partial_isometry),
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
        stacked = build(per_row_draws.stack_rows([draw(rng, shape) for _ in range(16)]))
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
    assert arrays_only(draws) and all(m.shape == (count, n, n) for m, n in zip(draws, shape))
    for i in range(count):
        want = one_element(reference, shape, 0.35)
        assert [m[i].tobytes() for m in draws] == [m.tobytes() for m in want]
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
    draw = SINGLE_DRAWS[kind]
    for _ in range(3):
        got, want = draw(rng, shape), per_block_noise(reference, kind, shape)
        assert [[a.tobytes() for a in block] for block in got] == \
            [[a.tobytes() for a in block] for block in want]
    assert rng.bit_generator.state == reference.bit_generator.state


# -- chunk draws against the per-row reference -------------------------------------------

CHUNK_SHAPES = [(2,), (3,), (8,), (2, 3), (1, 2, 3)]


def flat_arrays(noise) -> list:
    if isinstance(noise, tuple):
        return [a for part in noise for a in flat_arrays(part)]
    return [noise]


def assert_same_stack(got, want):
    """Equal nesting, and arrays of equal dtype, shape and bytes; the chunk
    draw's arrays are C-contiguous, as stacked rows are."""
    assert len(flat_arrays(got)) == len(flat_arrays(want))
    for a, b in zip(flat_arrays(got), flat_arrays(want)):
        assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes()
        assert a.flags.c_contiguous


def given_ranks(shape, count):
    return [tuple((i + b) % (n + 1) for b, n in enumerate(shape)) for i in range(count)]


#: (name, chunk draw, per-row reference draw), each taking (rng, shape, count)
CHUNK_DRAWS = [
    ("element", lambda rng, s, c: sampling.element_noises(rng, s, c, 0.35),
     lambda rng, s, c: per_row_draws.element_noises(rng, s, c, 0.35)),
    ("well_conditioned", sampling.well_conditioned_noises,
     lambda rng, s, c: [per_row_draws.well_conditioned_noise(rng, s) for _ in range(c)]),
    ("well_conditioned_ranked",
     lambda rng, s, c: sampling.well_conditioned_noises(rng, s, c, given_ranks(s, c)),
     lambda rng, s, c: [per_row_draws.well_conditioned_noise(rng, s, r)
                        for r in given_ranks(s, c)]),
]
CHUNK_DRAWS += [
    ("partial_isometry", isometry_noises,
     lambda rng, s, c: [per_row_draws.partial_isometry_noise(rng, s) for _ in range(c)]),
]
for kind in ("projection", "idempotent"):
    CHUNK_DRAWS += [
        (kind, getattr(sampling, f"{kind}_noises"),
         lambda rng, s, c, kind=kind: [getattr(per_row_draws, f"{kind}_noise")(rng, s)
                                       for _ in range(c)]),
        (f"{kind}_ranked",
         lambda rng, s, c, kind=kind: getattr(sampling, f"{kind}_noises")(
             rng, s, c, given_ranks(s, c)),
         lambda rng, s, c, kind=kind: [getattr(per_row_draws, f"{kind}_noise")(rng, s, r)
                                       for r in given_ranks(s, c)]),
    ]


@pytest.mark.parametrize("shape", CHUNK_SHAPES, ids=str)
@pytest.mark.parametrize("name, chunk, per_row", CHUNK_DRAWS, ids=[d[0] for d in CHUNK_DRAWS])
class TestChunkDraws:
    @pytest.mark.parametrize("count", [1, 9])
    def test_chunk_equals_the_per_row_draws(self, name, chunk, per_row, shape, count):
        for seed in range(3):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            got = chunk(rng, shape, count)
            assert_same_stack(got, per_row_draws.stack_rows(per_row(reference, shape, count)))
            assert rng.bit_generator.state == reference.bit_generator.state

    def test_single_draw_is_row_0_of_a_chunk_of_one(self, name, chunk, per_row, shape):
        rng, reference = np.random.default_rng(11), np.random.default_rng(11)
        got = sampling.noise_row(chunk(rng, shape, 1), 0)
        want = per_row(reference, shape, 1)[0]
        assert [a.tobytes() for a in flat_arrays(got)] == [a.tobytes() for a in flat_arrays(want)]
        assert rng.bit_generator.state == reference.bit_generator.state


def test_rows_written_one_at_a_time_equal_the_chunk():
    shape, count = (2, 3), 5
    rng, reference = np.random.default_rng(12), np.random.default_rng(12)
    ranked = sampling.RankedRows(shape, count, matrices=2)
    conditioned = sampling.WellConditionedRows(shape, count)
    for i in range(count):  # rows of two samplers, interleaved
        ranked.draw(rng, i)
        conditioned.draw(rng, i, given_ranks(shape, count)[i])
    isometries, elements = [], []
    for r in given_ranks(shape, count):
        isometries.append(per_row_draws.partial_isometry_noise(reference, shape))
        elements.append(per_row_draws.well_conditioned_noise(reference, shape, r))
    assert_same_stack(ranked.noise(), per_row_draws.stack_rows(isometries))
    assert_same_stack(conditioned.noise(), per_row_draws.stack_rows(elements))
    assert rng.bit_generator.state == reference.bit_generator.state


def test_extra_normals_follow_the_matrices_in_one_call():
    rng, reference = np.random.default_rng(13), np.random.default_rng(13)
    rows = sampling.RankedRows((2,), 3, extra=5)
    for i in range(3):
        rows.draw(rng, i)
    for i in range(3):
        want = per_row_draws.projection_noise(reference, (2,))
        assert_same_stack(sampling.noise_row(rows.noise(), slice(i, i + 1)),
                          per_row_draws.stack_rows([want]))
        assert rows.extra[i].tobytes() == reference.standard_normal(5).tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("kind", ["projection", "idempotent"])
def test_given_ranks_take_every_row_in_one_normal_call(kind, monkeypatch):
    rng = np.random.default_rng(14)
    calls = []
    normal = rng.standard_normal

    class Spy:
        def __getattr__(self, name):
            return getattr(rng, name)

        def standard_normal(self, *args, **kwargs):
            calls.append(args)
            return normal(*args, **kwargs)

        def integers(self, *args, **kwargs):
            raise AssertionError("given ranks are not drawn")

    getattr(sampling, f"{kind}_noises")(Spy(), (2, 3), 7, given_ranks((2, 3), 7))
    assert len(calls) == 1


# -- the merge assumption: k values in one call are k calls of one value -------------------


@pytest.mark.parametrize("k", [1, 2, 7, 64])
@pytest.mark.parametrize("call", [
    pytest.param(lambda rng, size: rng.integers(0, 3, size=size), id="integers-small"),
    pytest.param(lambda rng, size: rng.integers(0, 2**63, size=size), id="integers-seed"),
    pytest.param(lambda rng, size: rng.uniform(*sampling.SV_RANGE, size=size), id="uniform"),
    pytest.param(lambda rng, size: rng.standard_normal(size), id="standard_normal"),
])
def test_one_call_of_k_values_equals_k_calls_of_one(call, k):
    """Every chunk draw rests on this: if a numpy upgrade breaks it, the
    chunk draws no longer equal the per-row draws, and this says why."""
    for seed in range(3):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        merged = call(rng, k)
        single = np.array([call(reference, None) for _ in range(k)])
        assert merged.tobytes() == single.tobytes()
        assert rng.bit_generator.state == reference.bit_generator.state


def test_normals_written_into_rows_equal_one_call():
    rng, reference = np.random.default_rng(15), np.random.default_rng(15)
    out = np.empty((4, 6))
    for row in out:
        rng.standard_normal(out=row)
    assert out.tobytes() == reference.standard_normal((4, 6)).tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state


def test_an_empty_uniform_draw_leaves_the_generator_alone():
    rng = np.random.default_rng(16)
    state = rng.bit_generator.state
    assert rng.uniform(*sampling.SV_RANGE, size=0).size == 0
    assert rng.bit_generator.state == state
