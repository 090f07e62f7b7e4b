"""Seeded random generators for algebra elements and distinguished subsets.

Everything takes an explicit ``numpy.random.Generator`` so callers control
determinism; nothing here keeps state.

Each sampler is two steps.  The *draw* (``*_noise``) makes the sampler's
generator calls, block by block in a fixed order, and returns plain
arrays: one tuple per block.  The *build* (``*_from``) turns a draw into
the element: the QR with phase fix, the products, the inverse or the
Hermitian part.  A build takes one draw or a stack of ``N`` draws made by
:func:`~ginv.algebra.stack_rows` (every array with a leading ``N`` axis),
and row ``i`` of a stacked build equals, bit for bit, the build of draw
``i`` alone.  So a caller that needs many elements draws them all first,
in the one-at-a-time order, and builds them in one pass.  Each public
sampler ``random_*`` is its build applied to its draw.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraElement, validate_shape


def random_matrix(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def _adjoint(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2).conj()


def unitary_from(m: np.ndarray) -> np.ndarray:
    """Haar unitary from a complex Gaussian ``(..., n, n)`` matrix: its QR
    factor ``q`` with the phase of ``diag(r)`` moved into the columns
    (Mezzadri, Notices AMS 2007), matrix by matrix on a stack."""
    q, r = np.linalg.qr(m)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-like unitary via QR of a complex Gaussian matrix."""
    return unitary_from(random_matrix(rng, n))


def _rank_diagonal(n: int, rank) -> np.ndarray:
    d = np.zeros(n)
    d[: int(rank)] = 1.0
    return d


def random_block_ranks(rng: np.random.Generator, shape) -> tuple:
    return tuple(int(rng.integers(0, n + 1)) for n in validate_shape(shape))


# -- draws: generator calls only, plain arrays out ----------------------------------


def element_noise(rng: np.random.Generator, shape, scale: float = 1.0) -> tuple:
    """One complex Gaussian matrix per block, scaled by ``scale``: the
    values of :func:`random_matrix` block by block."""
    return element_noises(rng, shape, 1, scale)[0]


def element_noises(rng: np.random.Generator, shape, count: int, scale: float = 1.0) -> list:
    """``count`` draws of :func:`element_noise` in a row, through one
    generator call.  The values, and the state the generator ends in, are
    those of one :func:`random_matrix` call per block and draw, since the
    normals of consecutive calls follow one another in the generator's
    stream."""
    shape = validate_shape(shape)
    z = rng.standard_normal((count, sum(2 * n * n for n in shape)))
    blocks, at = [], 0
    for n in shape:  # per draw and block: n*n real parts, then n*n imaginary parts
        re, im = z[:, at:at + n * n], z[:, at + n * n:at + 2 * n * n]
        blocks.append(scale * (re.reshape(count, n, n) + 1j * im.reshape(count, n, n)))
        at += 2 * n * n
    return [tuple(b[i] for b in blocks) for i in range(count)]


#: The interval the nonzero singular values of a well-conditioned element are
#: drawn from, uniformly.
SV_RANGE = (0.5, 2.0)
#: The scale of the Gaussian offset of an idempotent's conjugator from the
#: identity: small enough that idempotents stay well conditioned, so chart
#: rank decisions stay clean.
IDEMPOTENT_SKEW = 0.25

# The draws below make one standard_normal call for the Gaussian matrices of
# all blocks (after the rank draws), or of one block (after its uniform
# draw), through element_noise: the values and the generator's final state
# are those of one random_matrix call per matrix, in the same order.


def well_conditioned_noise(rng: np.random.Generator, shape, ranks=None) -> tuple:
    """Per block: the singular values (uniform in :data:`SV_RANGE`, zero past
    the rank) and the Gaussian matrices of the two unitary factors."""
    shape = validate_shape(shape)
    blocks = []
    for n, r in zip(shape, [None] * len(shape) if ranks is None else ranks):
        r = n if r is None else int(r)
        s = np.zeros(n)
        s[:r] = rng.uniform(*SV_RANGE, size=r)
        blocks.append((s, *element_noise(rng, (n, n))))
    return tuple(blocks)


def projection_noise(rng: np.random.Generator, shape, ranks=None) -> tuple:
    """Per block: the rank diagonal and the Gaussian matrix of the unitary."""
    shape = validate_shape(shape)
    if ranks is None:
        ranks = random_block_ranks(rng, shape)
    return tuple((_rank_diagonal(n, r), m)
                 for n, r, m in zip(shape, ranks, element_noise(rng, shape)))


def idempotent_noise(rng: np.random.Generator, shape, ranks=None) -> tuple:
    """Per block: the rank diagonal and the Gaussian offset of the
    conjugator, scaled by :data:`IDEMPOTENT_SKEW`."""
    shape = validate_shape(shape)
    if ranks is None:
        ranks = random_block_ranks(rng, shape)
    return tuple((_rank_diagonal(n, r), m)
                 for n, r, m in zip(shape, ranks, element_noise(rng, shape, IDEMPOTENT_SKEW)))


def partial_isometry_noise(rng: np.random.Generator, shape, ranks=None) -> tuple:
    """Per block: the rank diagonal and the Gaussian matrices of the two unitaries."""
    shape = validate_shape(shape)
    if ranks is None:
        ranks = random_block_ranks(rng, shape)
    pairs = iter(element_noise(rng, [n for n in shape for _ in range(2)]))
    return tuple((_rank_diagonal(n, r), next(pairs), next(pairs)) for n, r in zip(shape, ranks))


# -- builds: one draw or a stack of them -------------------------------------------------


def element_from(noise: tuple) -> AlgebraElement:
    """The element whose blocks are the drawn matrices."""
    return AlgebraElement.from_blocks(noise)


def hermitian_from(noise: tuple) -> AlgebraElement:
    """The Hermitian part ``(m + m*) / 2`` of each drawn matrix."""
    return AlgebraElement.from_blocks(0.5 * (m + _adjoint(m)) for m in noise)


def well_conditioned_from(noise: tuple) -> AlgebraElement:
    return AlgebraElement.from_blocks(
        (unitary_from(m1) * s[..., None, :]) @ unitary_from(m2) for s, m1, m2 in noise)


def projection_from(noise: tuple) -> AlgebraElement:
    def block(d, m):
        w = unitary_from(m)
        return (w * d[..., None, :]) @ _adjoint(w)

    return AlgebraElement.from_blocks(block(*b) for b in noise)


def idempotent_from(noise: tuple) -> AlgebraElement:
    def block(d, m):
        n = d.shape[-1]
        s = np.eye(n, dtype=complex) + m
        model = (d[..., None, :] * np.eye(n)).astype(complex)  # diag(d), row by row
        return s @ model @ np.linalg.inv(s)

    return AlgebraElement.from_blocks(block(*b) for b in noise)


def partial_isometry_from(noise: tuple) -> AlgebraElement:
    return AlgebraElement.from_blocks(
        (unitary_from(m1) * d[..., None, :]) @ _adjoint(unitary_from(m2)) for d, m1, m2 in noise)


# -- samplers: a build of a draw ---------------------------------------------------------


def random_element(
    rng: np.random.Generator, shape, scale: float = 1.0
) -> AlgebraElement:
    return element_from(element_noise(rng, shape, scale))


def well_conditioned_element(rng: np.random.Generator, shape, ranks=None) -> AlgebraElement:
    """Element whose blocks have controlled singular values and optional ranks."""
    return well_conditioned_from(well_conditioned_noise(rng, shape, ranks))


def random_projection(
    rng: np.random.Generator, shape, ranks=None
) -> AlgebraElement:
    """Orthogonal projection with the given (or random) per-block ranks."""
    return projection_from(projection_noise(rng, shape, ranks))


def random_idempotent(rng: np.random.Generator, shape, ranks=None) -> AlgebraElement:
    """Idempotent conjugate to a diagonal model by a mildly non-unitary
    similarity (see :data:`IDEMPOTENT_SKEW`)."""
    return idempotent_from(idempotent_noise(rng, shape, ranks))


def random_partial_isometry(
    rng: np.random.Generator, shape, ranks=None
) -> AlgebraElement:
    """Partial isometry ``W diag(1..1,0..0) V*`` from two Haar-like unitaries."""
    return partial_isometry_from(partial_isometry_noise(rng, shape, ranks))


def random_hermitian_element(
    rng: np.random.Generator, shape, scale: float = 1.0
) -> AlgebraElement:
    return hermitian_from(element_noise(rng, shape, scale))
