"""Seeded random generators for algebra elements and distinguished subsets.

Everything takes an explicit ``numpy.random.Generator`` so callers control
determinism; nothing here keeps state.

Each sampler is two steps.  The *draw* makes the sampler's generator calls
for ``count`` elements, row by row in a fixed order, and writes them into
preallocated ``(count, ...)`` arrays: per block a tuple of stacked plain
arrays.  The *build* (``*_from``) turns a draw into the element: the QR
with phase fix, the products, the inverse or the Hermitian part.  A build
takes a draw of one element (every array without the leading axis, as
:func:`noise_row` takes it from a draw) or of ``N``, and row ``i`` of a
stacked build equals, bit for bit, the build of row ``i`` alone.

Every draw with a rank or a uniform draw is written by a rows writer,
:class:`RankedRows` (projections, idempotents, partial isometries) or
:class:`WellConditionedRows`, whose ``draw(rng, i, ranks=None)`` writes
row ``i``; :func:`draw_rows` fills all rows in turn, and a caller whose
rows interleave with other draws calls ``draw`` itself.  A row's Gaussian
matrices, of all its blocks, come from one ``standard_normal`` call: ``k``
values from one ``standard_normal``, ``uniform`` or ``integers`` call are
the values, and leave the generator in the state, of ``k`` calls of one
value each.  :func:`element_noises`, which draws no ranks, is one call.
The samplers ``random_*`` and :func:`well_conditioned_element` build the
one row of a writer of ``count = 1``, at ranks they check.
"""

from __future__ import annotations

import operator

import numpy as np

from .algebra import AlgebraElement, validate_shape
from .errors import InputError


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


class RankedRows:
    """``count`` rows of a draw with a rank diagonal (``matrices`` Gaussian
    matrices per block, scaled by ``scale``), written one at a time:
    :meth:`draw` makes row ``i``'s rank draws, then one ``standard_normal``
    call for its matrices and for ``extra`` further normals, which a caller
    that merges its own draws into that call reads from :attr:`extra`.
    :meth:`noise` is the draw of all rows: per block the rank diagonal, then
    the ``matrices`` Gaussian matrices."""

    def __init__(self, shape, count: int, matrices: int = 1, scale: float = 1.0,
                 extra: int = 0):
        self.shape = validate_shape(shape)
        self.matrices, self.scale = matrices, scale
        self.ranks = np.empty((count, len(self.shape)), dtype=int)
        self.z = np.empty((count, matrices * gaussian_size(self.shape) + extra))

    def draw(self, rng: np.random.Generator, i: int, ranks=None):
        """Row ``i`` at random ranks, or at the given per-block ``ranks``,
        which draw nothing."""
        self.ranks[i] = random_block_ranks(rng, self.shape) if ranks is None else ranks
        rng.standard_normal(out=self.z[i])

    @property
    def extra(self) -> np.ndarray:
        return self.z[:, self.matrices * gaussian_size(self.shape):]

    def noise(self) -> tuple:
        k = self.matrices
        diagonals = ((np.arange(n) < self.ranks[:, b, None]).astype(float)
                     for b, n in enumerate(self.shape))
        blocks = gaussian_blocks(self.z, [n for n in self.shape for _ in range(k)], self.scale)
        return tuple(zip(diagonals, *(blocks[j::k] for j in range(k))))


class WellConditionedRows:
    """``count`` rows of a well-conditioned draw, written one at a time by
    :meth:`draw`: per block the singular values (uniform in
    :data:`SV_RANGE`, zero past the rank) and the Gaussian matrices of the
    two unitary factors.  :meth:`noise` is the draw of them all."""

    def __init__(self, shape, count: int):
        self.shape = validate_shape(shape)
        self.s = [np.zeros((count, n)) for n in self.shape]
        self.z = [np.zeros((count, 4 * n * n)) for n in self.shape]

    def draw(self, rng: np.random.Generator, i: int, ranks=None):
        """Row ``i`` at full rank or at the per-block ``ranks``, block by
        block: the nonzero singular values in one ``uniform`` call, then the
        normals of both Gaussian matrices in one ``standard_normal`` call.
        Returns ``ranks``."""
        for b, (n, s, z) in enumerate(zip(self.shape, self.s, self.z)):
            r = n if ranks is None else int(ranks[b])
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


def draw_rows(rows, rng: np.random.Generator, count: int) -> tuple:
    """The draw of ``count`` rows of the writer ``rows``, written one after
    another."""
    for i in range(count):
        rows.draw(rng, i)
    return rows.noise()


def _checked_ranks(ranks, shape) -> tuple:
    """``ranks`` as one integer rank ``0 <= r <= n`` per block of ``shape``,
    else :class:`InputError`."""
    try:
        checked = tuple(operator.index(r) for r in ranks)
    except TypeError:
        checked = ()
    if len(checked) != len(shape) or not all(0 <= r <= n for r, n in zip(checked, shape)):
        raise InputError(f"ranks {ranks!r} need one integer rank 0 <= r <= n "
                         f"per block of shape {shape}")
    return checked


def _one_row(rows, rng: np.random.Generator, ranks) -> tuple:
    """The draw of the one row of the writer ``rows``, at its default ranks
    or at the checked ``ranks``."""
    rows.draw(rng, 0, None if ranks is None else _checked_ranks(ranks, rows.shape))
    return noise_row(rows.noise(), 0)


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
    return well_conditioned_from(_one_row(WellConditionedRows(shape, 1), rng, ranks))


def random_projection(
    rng: np.random.Generator, shape, ranks=None
) -> AlgebraElement:
    """Orthogonal projection with the given (or random) per-block ranks."""
    return projection_from(_one_row(RankedRows(shape, 1), rng, ranks))


def random_idempotent(rng: np.random.Generator, shape, ranks=None) -> AlgebraElement:
    """Idempotent conjugate to a diagonal model by a mildly non-unitary
    similarity (see :data:`IDEMPOTENT_SKEW`)."""
    return idempotent_from(_one_row(RankedRows(shape, 1, scale=IDEMPOTENT_SKEW), rng, ranks))
