"""Seeded random generators for algebra elements and distinguished subsets.

Everything takes an explicit ``numpy.random.Generator`` so callers control
determinism; nothing here keeps state.

Each sampler is two steps.  The *draw* (``*_noises``) makes the sampler's
generator calls for ``count`` elements, row by row in a fixed order, and
writes them into preallocated ``(count, ...)`` arrays: per block a tuple
of stacked plain arrays.  The *build* (``*_from``) turns a draw into the
element: the QR with phase fix, the products, the inverse or the
Hermitian part.  A build takes a draw of one element (every array without
the leading axis, as :func:`noise_row` takes it from a draw) or of ``N``,
and row ``i`` of a stacked build equals, bit for bit, the build of row
``i`` alone.

A draw makes exactly the generator calls of drawing its rows one at a
time, in their order, where consecutive calls of one kind may be one
call: ``k`` values from one ``standard_normal``, ``uniform`` or
``integers`` call are the values, and leave the generator in the state,
of ``k`` calls of one value each.  So a row's Gaussian matrices, of all
its blocks, come from one ``standard_normal`` call, and rows whose ranks
are not drawn take all their normals in one call.  Callers whose rows
interleave with other draws write them one at a time through
:class:`RankedRows` and :class:`WellConditionedRows`.  The single draws
(``*_noise``) and the samplers ``random_*`` are the ``count = 1`` case.
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


def random_block_ranks(rng: np.random.Generator, shape) -> tuple:
    return tuple(int(rng.integers(0, n + 1)) for n in validate_shape(shape))


#: The interval the nonzero singular values of a well-conditioned element are
#: drawn from, uniformly.
SV_RANGE = (0.5, 2.0)
#: The scale of the Gaussian offset of an idempotent's conjugator from the
#: identity: small enough that idempotents stay well conditioned, so chart
#: rank decisions stay clean.
IDEMPOTENT_SKEW = 0.25


# -- draws: generator calls only, plain arrays out ----------------------------------


def noise_row(noise, i):
    """Row ``i`` (an index or a slice) of a stacked draw, at every depth of
    its tuples."""
    if isinstance(noise, tuple):
        return tuple(noise_row(part, i) for part in noise)
    return noise[i]


def gaussian_size(shape) -> int:
    """The standard normals of one complex Gaussian matrix per block."""
    return sum(2 * n * n for n in shape)


def gaussian_blocks(z: np.ndarray, shape, scale: float = 1.0) -> tuple:
    """The complex Gaussian matrices, one per block, scaled by ``scale``,
    that the rows of the ``(count, gaussian_size(shape))`` normals ``z``
    hold: per block its ``n*n`` real parts, then its ``n*n`` imaginary
    parts, row-major; the values of one :func:`random_matrix` call per block."""
    count, blocks, at = len(z), [], 0
    for n in shape:
        re, im = z[:, at:at + n * n], z[:, at + n * n:at + 2 * n * n]
        blocks.append(scale * (re.reshape(count, n, n) + 1j * im.reshape(count, n, n)))
        at += 2 * n * n
    return tuple(blocks)


def _rank_diagonals(ranks, shape) -> tuple:
    """Per block the ``(count, n)`` diagonals of ones up to each row's rank,
    from ``(count, len(shape))`` ranks."""
    ranks = np.asarray(ranks, dtype=int).reshape(-1, len(shape))
    return tuple((np.arange(n) < ranks[:, b, None]).astype(float) for b, n in enumerate(shape))


def _ranked_noise(ranks, z: np.ndarray, shape, matrices: int, scale: float) -> tuple:
    """The draw of a sampler with a rank diagonal from its rows' ranks and
    normals: per block the rank diagonal, then ``matrices`` Gaussian
    matrices, which each row's first normals hold block by block."""
    blocks = gaussian_blocks(z, [n for n in shape for _ in range(matrices)], scale)
    return tuple(zip(_rank_diagonals(ranks, shape),
                     *(blocks[k::matrices] for k in range(matrices))))


class RankedRows:
    """``count`` rows of a draw with a rank diagonal (``matrices`` Gaussian
    matrices per block, scaled by ``scale``), written one at a time:
    :meth:`draw` makes row ``i``'s rank draws, then one ``standard_normal``
    call for its matrices and for ``extra`` further normals, which a caller
    that merges its own draws into that call reads from :attr:`extra`.
    :meth:`noise` is the draw of all rows."""

    def __init__(self, shape, count: int, matrices: int = 1, scale: float = 1.0,
                 extra: int = 0):
        self.shape = validate_shape(shape)
        self.matrices, self.scale = matrices, scale
        self.ranks = np.empty((count, len(self.shape)), dtype=int)
        self.z = np.empty((count, matrices * gaussian_size(self.shape) + extra))

    def draw(self, rng: np.random.Generator, i: int):
        self.ranks[i] = random_block_ranks(rng, self.shape)
        rng.standard_normal(out=self.z[i])

    @property
    def extra(self) -> np.ndarray:
        return self.z[:, self.matrices * gaussian_size(self.shape):]

    def noise(self) -> tuple:
        return _ranked_noise(self.ranks, self.z, self.shape, self.matrices, self.scale)


class WellConditionedRows:
    """``count`` rows of :func:`well_conditioned_noises`, written one at a
    time by :meth:`draw`; :meth:`noise` is the draw of them all."""

    def __init__(self, shape, count: int):
        self.shape = validate_shape(shape)
        self.s = [np.zeros((count, n)) for n in self.shape]
        self.z = [np.zeros((count, 4 * n * n)) for n in self.shape]

    def draw(self, rng: np.random.Generator, i: int, ranks=None):
        """Row ``i`` at ``ranks`` (full, or full in a block whose rank is
        ``None``), block by block: the nonzero singular values in one
        ``uniform`` call, then the normals of both Gaussian matrices in one
        ``standard_normal`` call.  Returns ``ranks``."""
        for n, r, s, z in zip(self.shape, (None,) * len(self.shape) if ranks is None else ranks,
                              self.s, self.z):
            r = n if r is None else int(r)
            s[i, :r] = rng.uniform(*SV_RANGE, size=r)
            rng.standard_normal(out=z[i])
        return ranks

    def noise(self) -> tuple:
        return tuple((s, *gaussian_blocks(z, (n, n)))
                     for n, s, z in zip(self.shape, self.s, self.z))


def element_noises(rng: np.random.Generator, shape, count: int, scale: float = 1.0) -> tuple:
    """``count`` elements' complex Gaussian matrices, scaled by ``scale``,
    in one generator call: per block a ``(count, n, n)`` stack."""
    shape = validate_shape(shape)
    return gaussian_blocks(rng.standard_normal((count, gaussian_size(shape))), shape, scale)


def well_conditioned_noises(rng: np.random.Generator, shape, count: int, ranks=None) -> tuple:
    """Per block: the singular values (uniform in :data:`SV_RANGE`, zero past
    the rank) and the Gaussian matrices of the two unitary factors, of
    ``count`` elements at full rank or at the per-row ``ranks``."""
    rows = WellConditionedRows(shape, count)
    for i in range(count):
        rows.draw(rng, i, None if ranks is None else ranks[i])
    return rows.noise()


def _ranked_noises(rng, shape, count, ranks, scale) -> tuple:
    """``count`` rows of one rank diagonal and one Gaussian matrix per block."""
    if ranks is not None:  # no rank draws between the rows: their normals in one call
        shape = validate_shape(shape)
        z = rng.standard_normal((count, gaussian_size(shape)))
        return _ranked_noise(ranks, z, shape, 1, scale)
    rows = RankedRows(shape, count, 1, scale)
    for i in range(count):
        rows.draw(rng, i)
    return rows.noise()


def projection_noises(rng: np.random.Generator, shape, count: int, ranks=None) -> tuple:
    """Per block: the rank diagonal and the Gaussian matrix of the unitary,
    at random ranks (drawn row by row) or at the per-row ``ranks``."""
    return _ranked_noises(rng, shape, count, ranks, 1.0)


def idempotent_noises(rng: np.random.Generator, shape, count: int, ranks=None) -> tuple:
    """Per block: the rank diagonal and the Gaussian offset of the
    conjugator, scaled by :data:`IDEMPOTENT_SKEW`; ranks as in
    :func:`projection_noises`."""
    return _ranked_noises(rng, shape, count, ranks, IDEMPOTENT_SKEW)


def _one(ranks):
    return None if ranks is None else [ranks]


def well_conditioned_noise(rng: np.random.Generator, shape, ranks=None) -> tuple:
    return noise_row(well_conditioned_noises(rng, shape, 1, _one(ranks)), 0)


def projection_noise(rng: np.random.Generator, shape, ranks=None) -> tuple:
    return noise_row(projection_noises(rng, shape, 1, _one(ranks)), 0)


def idempotent_noise(rng: np.random.Generator, shape, ranks=None) -> tuple:
    return noise_row(idempotent_noises(rng, shape, 1, _one(ranks)), 0)


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
    """The partial isometries ``W1 diag(d) W2*`` of a draw with a rank
    diagonal ``d`` and two Gaussian matrices per block, the unitaries ``W1``
    and ``W2`` built from them: the rows of :class:`RankedRows` with
    ``matrices = 2``."""
    return AlgebraElement.from_blocks(
        (unitary_from(m1) * d[..., None, :]) @ _adjoint(unitary_from(m2)) for d, m1, m2 in noise)


# -- samplers: a build of a single draw --------------------------------------------------


def random_element(
    rng: np.random.Generator, shape, scale: float = 1.0
) -> AlgebraElement:
    return element_from(noise_row(element_noises(rng, shape, 1, scale), 0))


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
