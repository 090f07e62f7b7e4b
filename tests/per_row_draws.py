"""The per-row draws: the reference that the chunk draws are checked against.

Each function here draws one row (one element, one arrow, one chain) as
nested tuples of plain arrays, with its own generator calls, block by
block, and :func:`stack_rows` stacks such rows.  A chunk draw of
``count`` rows of :mod:`ginv.sampling` or of a groupoid kind must equal,
bit for bit, :func:`stack_rows` of ``count`` per-row draws made in a row
from a generator in the same state, and leave the generator in the same
state.
"""

import numpy as np

from ginv import sampling
from ginv.algebra import AlgebraElement, validate_shape
from ginv.groupoid import ActionGroupoid, GInvGroupoid, PairGroupoid, PartialIsometryGroupoid


def stack_rows(rows) -> tuple:
    """Rows of single elements or arrays, or of nested tuples of them such as
    arrow noise, as one row of stacks: part ``j`` stacks part ``j`` of every
    row (an array part along a new leading axis)."""
    def stack(part):
        if isinstance(part[0], AlgebraElement):
            return AlgebraElement.stack(part)
        if isinstance(part[0], np.ndarray):
            return np.stack(part)
        return stack_rows(part)

    return tuple(stack(part) for part in zip(*rows))


# -- samplers -------------------------------------------------------------------------


def element_noises(rng, shape, count: int, scale: float = 1.0) -> list:
    """``count`` rows of one complex Gaussian matrix per block, all from one
    ``standard_normal`` call."""
    shape = validate_shape(shape)
    z = rng.standard_normal((count, sum(2 * n * n for n in shape)))
    blocks, at = [], 0
    for n in shape:  # per draw and block: n*n real parts, then n*n imaginary parts
        re, im = z[:, at:at + n * n], z[:, at + n * n:at + 2 * n * n]
        blocks.append(scale * (re.reshape(count, n, n) + 1j * im.reshape(count, n, n)))
        at += 2 * n * n
    return [tuple(b[i] for b in blocks) for i in range(count)]


def element_noise(rng, shape, scale: float = 1.0) -> tuple:
    return element_noises(rng, shape, 1, scale)[0]


def rank_diagonal(n: int, rank) -> np.ndarray:
    d = np.zeros(n)
    d[: int(rank)] = 1.0
    return d


def well_conditioned_noise(rng, shape, ranks=None) -> tuple:
    shape = validate_shape(shape)
    blocks = []
    for n, r in zip(shape, [None] * len(shape) if ranks is None else ranks):
        r = n if r is None else int(r)
        s = np.zeros(n)
        s[:r] = rng.uniform(*sampling.SV_RANGE, size=r)
        blocks.append((s, *element_noise(rng, (n, n))))
    return tuple(blocks)


def projection_noise(rng, shape, ranks=None) -> tuple:
    shape = validate_shape(shape)
    if ranks is None:
        ranks = sampling.random_block_ranks(rng, shape)
    return tuple((rank_diagonal(n, r), m)
                 for n, r, m in zip(shape, ranks, element_noise(rng, shape)))


def idempotent_noise(rng, shape, ranks=None) -> tuple:
    shape = validate_shape(shape)
    if ranks is None:
        ranks = sampling.random_block_ranks(rng, shape)
    return tuple((rank_diagonal(n, r), m) for n, r, m in
                 zip(shape, ranks, element_noise(rng, shape, sampling.IDEMPOTENT_SKEW)))


def partial_isometry_noise(rng, shape, ranks=None) -> tuple:
    shape = validate_shape(shape)
    if ranks is None:
        ranks = sampling.random_block_ranks(rng, shape)
    pairs = iter(element_noise(rng, [n for n in shape for _ in range(2)]))
    return tuple((rank_diagonal(n, r), next(pairs), next(pairs)) for n, r in zip(shape, ranks))


# -- groupoid kinds ---------------------------------------------------------------------


def base_noise(G, rng):
    if isinstance(G, GInvGroupoid):
        return idempotent_noise(rng, G.shape)
    if isinstance(G, PartialIsometryGroupoid):
        return projection_noise(rng, G.shape)
    if isinstance(G, ActionGroupoid):
        return rng.standard_normal(G.n)
    if G.pool is not None:
        return G.pool[int(rng.integers(0, len(G.pool)))]
    return rng.standard_normal(G.dim)


def arrow_noises(G, rng, count: int) -> list:
    """``count`` arrow noises; the element kinds' Gaussian matrices in one call."""
    if isinstance(G, (GInvGroupoid, PartialIsometryGroupoid)):
        scale = 0.35 if isinstance(G, GInvGroupoid) else 0.4
        noise = iter(element_noises(rng, G.shape, 2 * count, scale))
        return list(zip(noise, noise))
    if isinstance(G, ActionGroupoid):
        return [(w,) for w in rng.standard_normal((count, G.n, G.n))]
    return [(base_noise(G, rng),) for _ in range(count)]


def sample_noise(G, rng) -> tuple:
    if isinstance(G, GInvGroupoid):
        ranks = sampling.random_block_ranks(rng, G.shape)
        a = well_conditioned_noise(rng, G.shape, ranks=ranks)
        if not any(ranks):
            zero = tuple(np.zeros((n, n), dtype=complex) for n in G.shape)
            return a, zero, zero
        pair_rng = np.random.default_rng(int(rng.integers(0, 2**63)))
        return a, element_noise(pair_rng, G.shape), element_noise(pair_rng, G.shape)
    if isinstance(G, PartialIsometryGroupoid):
        return partial_isometry_noise(rng, G.shape)
    return (base_noise(G, rng), *arrow_noises(G, rng, 1)[0])


def chain_noise(G, rng, arrows: int = 3, loose: bool = True) -> tuple:
    """A base point's noise, ``arrows`` arrow noises in one draw, and (with
    ``loose``) a loose arrow's noise."""
    walk = (base_noise(G, rng), *arrow_noises(G, rng, arrows))
    return (*walk, sample_noise(G, rng)) if loose else walk


def kinds():
    """One instance of every kind, at multi-block shapes and at (8,)."""
    return [GInvGroupoid((2,)), GInvGroupoid((2, 3)), GInvGroupoid((1, 2, 3)), GInvGroupoid((8,)),
            PartialIsometryGroupoid((2,)), PartialIsometryGroupoid((1, 2, 3)),
            PartialIsometryGroupoid((8,)), ActionGroupoid(1), ActionGroupoid(3),
            PairGroupoid(3), PairGroupoid(3, pool_size=5)]
