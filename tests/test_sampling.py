import numpy as np
import per_row_draws
import pytest

from ginv import sampling
from ginv.algebra import AlgebraElement
from ginv.errors import InputError

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


def writer_draw(writer):
    """The chunk draw ``(rng, shape, count, ranks=None)`` that the rows writer
    ``writer(shape, count)`` makes: :func:`sampling.draw_rows`, or row by row
    at the per-row ``ranks``."""
    def draw(rng, shape, count, ranks=None):
        rows = writer(shape, count)
        if ranks is None:
            return sampling.draw_rows(rows, rng, count)
        for i in range(count):
            rows.draw(rng, i, ranks[i])
        return rows.noise()

    return draw


#: the chunk draws of the samplers with a rank (or uniform) draw, as the
#: library makes them
CHUNKS = {
    "well_conditioned": writer_draw(sampling.WellConditionedRows),
    "projection": writer_draw(sampling.RankedRows),
    "idempotent": writer_draw(
        lambda shape, count: sampling.RankedRows(shape, count, scale=sampling.IDEMPOTENT_SKEW)),
    # as the ``partial_isometry`` kind draws its loose arrows
    "partial_isometry": writer_draw(lambda shape, count: sampling.RankedRows(shape, count, 2)),
}


def single_draw(chunk):
    """Row 0 of a chunk draw of one row, at ``ranks`` when given."""
    return lambda rng, shape, ranks=None: sampling.noise_row(
        chunk(rng, shape, 1, None if ranks is None else [ranks]), 0)


#: the single draws of the samplers with a rank (or uniform) draw
SINGLE_DRAWS = {kind: single_draw(chunk) for kind, chunk in CHUNKS.items()}


#: (name, draw, build, sampler, one-at-a-time formula)
SAMPLERS = [
    ("element", lambda rng, s: element_noise(rng, s, 0.35), sampling.element_from,
     lambda rng, s: sampling.random_element(rng, s, 0.35),
     lambda rng, s: one_element(rng, s, 0.35)),
    ("hermitian", lambda rng, s: element_noise(rng, s, 0.4), sampling.hermitian_from,
     chunk_build(lambda rng, s, count: sampling.element_noises(rng, s, count, 0.4),
                 sampling.hermitian_from),
     lambda rng, s: one_hermitian(rng, s, 0.4)),
    ("well_conditioned", SINGLE_DRAWS["well_conditioned"], sampling.well_conditioned_from,
     sampling.well_conditioned_element, one_well_conditioned),
    ("well_conditioned_ranked",
     lambda rng, s: SINGLE_DRAWS["well_conditioned"](rng, s, ranked(rng, s)),
     sampling.well_conditioned_from,
     lambda rng, s: sampling.well_conditioned_element(rng, s, ranked(rng, s)),
     lambda rng, s: one_well_conditioned(rng, s, ranked(rng, s))),
    ("projection", SINGLE_DRAWS["projection"], sampling.projection_from,
     sampling.random_projection, one_projection),
    ("idempotent", SINGLE_DRAWS["idempotent"], sampling.idempotent_from,
     sampling.random_idempotent, one_idempotent),
    ("partial_isometry", SINGLE_DRAWS["partial_isometry"], sampling.partial_isometry_from,
     chunk_build(CHUNKS["partial_isometry"], sampling.partial_isometry_from),
     one_partial_isometry),
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
    noise = SINGLE_DRAWS["projection"](rng, (2, 3), ranks=(1, 2))
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
    ("well_conditioned", CHUNKS["well_conditioned"],
     lambda rng, s, c: [per_row_draws.well_conditioned_noise(rng, s) for _ in range(c)]),
    ("well_conditioned_ranked",
     lambda rng, s, c: CHUNKS["well_conditioned"](rng, s, c, given_ranks(s, c)),
     lambda rng, s, c: [per_row_draws.well_conditioned_noise(rng, s, r)
                        for r in given_ranks(s, c)]),
    ("partial_isometry", CHUNKS["partial_isometry"],
     lambda rng, s, c: [per_row_draws.partial_isometry_noise(rng, s) for _ in range(c)]),
]
for kind in ("projection", "idempotent"):
    CHUNK_DRAWS += [
        (kind, CHUNKS[kind],
         lambda rng, s, c, kind=kind: [getattr(per_row_draws, f"{kind}_noise")(rng, s)
                                       for _ in range(c)]),
        (f"{kind}_ranked",
         lambda rng, s, c, kind=kind: CHUNKS[kind](rng, s, c, given_ranks(s, c)),
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


@pytest.mark.parametrize("kind", list(CHUNKS))
def test_rows_at_given_ranks_equal_the_per_row_draws(kind):
    """Rows at given ranks draw no ranks: row by row they make the per-row
    reference's generator calls, with its values and its final state."""
    shape, count = (2, 3), 7
    rng, reference = np.random.default_rng(14), np.random.default_rng(14)

    class NoRankDraws:
        def __getattr__(self, name):
            return getattr(rng, name)

        def integers(self, *args, **kwargs):
            raise AssertionError("given ranks are not drawn")

    got = CHUNKS[kind](NoRankDraws(), shape, count, given_ranks(shape, count))
    per_row = getattr(per_row_draws, f"{kind}_noise")
    assert_same_stack(got, per_row_draws.stack_rows(
        [per_row(reference, shape, r) for r in given_ranks(shape, count)]))
    assert rng.bit_generator.state == reference.bit_generator.state


#: (sampler, build, per-row reference draw) of the samplers that take ranks
RANKED_SAMPLERS = {
    "well_conditioned": (sampling.well_conditioned_element, sampling.well_conditioned_from,
                         per_row_draws.well_conditioned_noise),
    "projection": (sampling.random_projection, sampling.projection_from,
                   per_row_draws.projection_noise),
    "idempotent": (sampling.random_idempotent, sampling.idempotent_from,
                   per_row_draws.idempotent_noise),
}


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("given", [False, True], ids=["drawn", "given"])
@pytest.mark.parametrize("kind", list(RANKED_SAMPLERS))
def test_samplers_build_row_0_of_a_chunk_of_one_and_the_per_row_draw(kind, given, shape):
    sampler, build, per_row = RANKED_SAMPLERS[kind]
    ranks = given_ranks(shape, 2)[1] if given else None
    rngs = [np.random.default_rng(17) for _ in range(3)]
    for _ in range(3):
        got = block_bytes(sampler(rngs[0], shape, ranks=ranks))
        assert got == block_bytes(build(SINGLE_DRAWS[kind](rngs[1], shape, ranks)))
        assert got == block_bytes(build(per_row(rngs[2], shape, ranks)))
    assert len({repr(r.bit_generator.state) for r in rngs}) == 1


@pytest.mark.parametrize("ranks", [(1,), (1, 2, 3), (5, 1), (-1, 2), (0.5, 1), (1, None), 1],
                         ids=repr)
@pytest.mark.parametrize("kind", list(RANKED_SAMPLERS))
def test_malformed_ranks_raise_input_error_before_any_draw(kind, ranks):
    rng = np.random.default_rng(18)
    state = rng.bit_generator.state
    with pytest.raises(InputError, match="one integer rank 0 <= r <= n per block"):
        RANKED_SAMPLERS[kind][0](rng, (2, 3), ranks=ranks)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("kind", list(RANKED_SAMPLERS))
def test_ranks_of_any_integer_type_are_taken(kind):
    sampler = RANKED_SAMPLERS[kind][0]
    want = block_bytes(sampler(np.random.default_rng(19), (2, 3), ranks=(0, 3)))
    for ranks in (np.array([0, 3]), [np.int64(0), np.int32(3)]):
        assert block_bytes(sampler(np.random.default_rng(19), (2, 3), ranks=ranks)) == want


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
