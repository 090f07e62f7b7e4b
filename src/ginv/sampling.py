"""Seeded random generators for algebra elements and distinguished subsets.

Everything takes an explicit ``numpy.random.Generator`` so callers control
determinism; nothing here keeps state.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraElement, validate_shape


def random_matrix(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-like unitary via QR of a complex Gaussian matrix."""
    q, r = np.linalg.qr(random_matrix(rng, n))
    # fix the phase convention so the distribution is Haar
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def well_conditioned_matrix(
    rng: np.random.Generator, n: int, rank: int | None = None,
    sv_range: tuple = (0.5, 2.0),
) -> np.ndarray:
    """Random matrix with singular values drawn from ``sv_range``; optional rank."""
    r = n if rank is None else int(rank)
    s = np.zeros(n)
    s[:r] = rng.uniform(*sv_range, size=r)
    return (random_unitary(rng, n) * s) @ random_unitary(rng, n)


def random_element(
    rng: np.random.Generator, shape, scale: float = 1.0
) -> AlgebraElement:
    shape = validate_shape(shape)
    return AlgebraElement(shape, tuple(random_matrix(rng, n, scale) for n in shape))


def well_conditioned_element(
    rng: np.random.Generator, shape, ranks=None, sv_range: tuple = (0.5, 2.0)
) -> AlgebraElement:
    """Element whose blocks have controlled singular values and optional ranks."""
    shape = validate_shape(shape)
    if ranks is None:
        ranks = [None] * len(shape)
    blocks = tuple(
        well_conditioned_matrix(rng, n, rank=r, sv_range=sv_range)
        for n, r in zip(shape, ranks)
    )
    return AlgebraElement(shape, blocks)


def random_block_ranks(rng: np.random.Generator, shape) -> tuple:
    return tuple(int(rng.integers(0, n + 1)) for n in validate_shape(shape))


def random_projection(
    rng: np.random.Generator, shape, ranks=None
) -> AlgebraElement:
    """Orthogonal projection with the given (or random) per-block ranks."""
    shape = validate_shape(shape)
    if ranks is None:
        ranks = random_block_ranks(rng, shape)
    blocks = []
    for n, r in zip(shape, ranks):
        w = random_unitary(rng, n)
        d = np.zeros(n)
        d[: int(r)] = 1.0
        blocks.append((w * d) @ w.conj().T)
    return AlgebraElement(shape, tuple(blocks))


def random_idempotent(
    rng: np.random.Generator, shape, ranks=None, skew: float = 0.25
) -> AlgebraElement:
    """Idempotent conjugate to a diagonal model by a mildly non-unitary similarity.

    ``skew`` controls how far the conjugator strays from the identity; the
    default keeps elements well conditioned so chart-based rank computations
    stay clean.
    """
    shape = validate_shape(shape)
    if ranks is None:
        ranks = random_block_ranks(rng, shape)
    blocks = []
    for n, r in zip(shape, ranks):
        s = np.eye(n, dtype=complex) + random_matrix(rng, n, skew)
        d = np.zeros(n)
        d[: int(r)] = 1.0
        blocks.append(s @ np.diag(d).astype(complex) @ np.linalg.inv(s))
    return AlgebraElement(shape, tuple(blocks))


def random_partial_isometry(
    rng: np.random.Generator, shape, ranks=None
) -> AlgebraElement:
    """Partial isometry ``W diag(1..1,0..0) V*`` from two Haar-like unitaries."""
    shape = validate_shape(shape)
    if ranks is None:
        ranks = random_block_ranks(rng, shape)
    blocks = []
    for n, r in zip(shape, ranks):
        d = np.zeros(n)
        d[: int(r)] = 1.0
        blocks.append((random_unitary(rng, n) * d) @ random_unitary(rng, n).conj().T)
    return AlgebraElement(shape, tuple(blocks))


def random_hermitian_element(
    rng: np.random.Generator, shape, scale: float = 1.0
) -> AlgebraElement:
    shape = validate_shape(shape)
    blocks = []
    for n in shape:
        m = random_matrix(rng, n, scale)
        blocks.append(0.5 * (m + m.conj().T))
    return AlgebraElement(shape, tuple(blocks))
