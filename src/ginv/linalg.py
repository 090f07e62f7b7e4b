"""Dense complex matrix primitives.

SVD-backed rank and norm with a single relative cutoff (one stacked
decision for all rows of an ``(N, rows, cols)`` stack), the product of
square blocks or of stacks of them (entry by entry for 2x2 blocks, where a
stacked ``matmul`` is slow), the Euclidean norm
of vectors or of the rows of an ``(N, n)`` stack, the matrix exponential
of a matrix or of each matrix of a stack, the fixed real
coordinatization of block matrices (of one matrix, or of each matrix of a
stack along the last axes), the matrices of the linear maps ``X -> A X B``
(complex, and real in that coordinatization) and ``X -> X*``, an
orthonormal real basis of the Hermitian elements, and a central-difference
Jacobian kept as an independent reference.  Everything here is a pure
function; matrices are plain ``numpy`` arrays of ``complex128`` (or
``float64`` for real-coordinate work).

A matrix read as a linear map (:func:`map_rank`, :func:`kernel_basis`)
may be complex: it is then the complex-linear map, whose real matrix has
twice its rows and columns and each of its singular values twice.  Each
complex singular value counts as two real dimensions, decided at the
cutoff of that real shape (:func:`map_rank_count`), so the decision is the
one on the real matrix.
Ranks of algebra blocks (:func:`numerical_rank`) count complex rank.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EvaluationError, InputError

#: cube root of double-precision machine epsilon, the classical central
#: difference step scale
_FD_STEP_DEFAULT = float(np.finfo(float).eps) ** (1.0 / 3.0)


@dataclass(frozen=True)
class ToleranceConfig:
    """Knobs that make exact algebraic statements numerically decidable.

    rank_cutoff_factor
        Relative singular-value cutoff; a singular value counts toward the
        rank when it exceeds ``rank_cutoff_factor * max(rows, cols) * sigma_max``
        (or times the norm of the enclosing map, see :func:`numerical_rank`).
    residual_tol
        The ``tol`` of every membership and law check, ``residual <= tol *
        (1 + s1 + s2 + ...)``, where each check names its scales: powers
        and products of its operands' norms
        (:func:`ginv.algebra.residual_bound` and
        :func:`ginv.algebra.verdict`).
    fd_step_scale
        Central-difference step of :func:`finite_diff_jacobian`, its only
        reader: ``fd_step_scale * (1 + |x|_inf)``.
    """

    rank_cutoff_factor: float = 1e-12
    residual_tol: float = 1e-8
    fd_step_scale: float = _FD_STEP_DEFAULT

    def __post_init__(self):
        for name in ("rank_cutoff_factor", "residual_tol", "fd_step_scale"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise InputError(f"{name} must be finite and strictly positive")


DEFAULT_TOL = ToleranceConfig()

#: The most entries that one stacked pass holds: its rows times the
#: ``sum(n * n)`` entries of one element of an algebra of block sizes ``n``.
#: Criterion 12's 20 families of shape (3,) at the default horizon, 1280
#: terms, fill one pass; so do 4 paths of 257 samples in M3, or 11 in M2.
PASS_ENTRIES = 1280 * 9


def pass_size(rows: int, shape) -> int:
    """How many items of ``rows`` rows each, of an algebra of ``shape``, one
    pass of at most :data:`PASS_ENTRIES` entries holds: one at the least."""
    return max(1, PASS_ENTRIES // (rows * sum(n * n for n in shape)))


def ensure_finite(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    m = np.asarray(m)
    if not np.isfinite(m).all():  # a complex entry is finite iff both parts are
        raise InputError(f"{what} has non-finite entries")
    return m


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values in descending order, one row of them per matrix of
    an ``(N, rows, cols)`` stack; empty input gives rows of none."""
    m = ensure_finite(m)
    if m.size == 0:
        return np.zeros((*m.shape[:-2], min(m.shape[-2:])))
    return np.linalg.svd(m, compute_uv=False)


def rank_from_singular_values(
    s: np.ndarray, shape, tol: ToleranceConfig = DEFAULT_TOL, scale: float = 0.0
):
    """Count the singular values ``s`` (descending, of a matrix of the given
    shape) above ``rank_cutoff_factor * max(shape) * max(sigma_max, scale)``;
    the one place the relative rank cutoff is applied.

    ``s`` of shape ``(k,)`` gives an int.  An ``(N, k)`` array, the singular
    values of ``N`` matrices of that shape, gives the ``(N,)`` ranks, row
    ``i`` by the same arithmetic as the call on row ``i`` alone.
    """
    s = np.asarray(s)
    rows = np.atleast_2d(s)  # a single set of values is a one-row stack
    cutoff = tol.rank_cutoff_factor * max(shape) * np.maximum(rows[:, :1], scale)
    ranks = (rows > cutoff).sum(axis=1)
    return ranks if s.ndim == 2 else int(ranks[0])


def numerical_rank(
    m: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, scale: float = 0.0
):
    """Count singular values above the relative cutoff; the zero matrix has rank 0.

    The cutoff is relative to ``max(sigma_max, scale)``.  A matrix that is a
    piece of a larger linear map passes that map's norm as ``scale``: a piece
    that vanishes up to rounding then has rank 0 instead of reading its own
    rounding noise as rank.  An ``(N, rows, cols)`` stack gives an ``(N,)``
    array, the rank of each matrix, from one stacked SVD and one stacked
    :func:`rank_from_singular_values` decision.
    """
    m = np.asarray(m)
    return rank_from_singular_values(singular_values(m), m.shape[-2:], tol, scale)


def real_degree(m: np.ndarray) -> int:
    """The real dimensions that one column, or one singular value, of the
    linear map ``m`` stands for: 2 for a complex ``m``, 1 for a real one."""
    return 2 if np.iscomplexobj(m) else 1


def map_rank_count(
    s: np.ndarray, shape, degree: int, tol: ToleranceConfig = DEFAULT_TOL, scale: float = 0.0
) -> int:
    """How many of the singular values ``s`` (descending) of a linear map's
    matrix count toward its rank; the matrix has ``shape`` and
    :func:`real_degree` ``degree``; ``scale`` as in :func:`numerical_rank`.

    A complex matrix (degree 2) is a complex-linear map.  Its real matrix
    has twice the rows and twice the columns, and each of its singular
    values twice, so every value is decided at the cutoff of that real
    shape, and each one counted stands for ``degree`` real dimensions.  The
    one place that rule lives.
    """
    return rank_from_singular_values(s, (degree * shape[0], degree * shape[1]), tol, scale)


def map_rank(m: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, scale: float = 0.0) -> int:
    """Real rank of the linear map ``m``, real or complex (see
    :func:`map_rank_count`); ``scale`` as in :func:`numerical_rank`."""
    degree = real_degree(m)
    return degree * map_rank_count(singular_values(m), m.shape, degree, tol, scale)


def operator_norm(m: np.ndarray):
    """Largest singular value; an ``(N,)`` array of them for an
    ``(N, rows, cols)`` stack, row ``i`` bit for bit that of matrix ``i``."""
    s = singular_values(m)
    if m.ndim == 3:
        return s[:, 0]
    return float(s[0]) if s.size else 0.0


def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix product ``a @ b`` of square ``(n, n)`` blocks or ``(N, n, n)``
    stacks of them, broadcast as ``@`` broadcasts.

    A stacked ``matmul`` takes a 2x2 stack one small matrix at a time, so for
    ``n == 2`` the product is the sum of two broadcast outer products, column
    ``k`` of ``a`` times row ``k`` of ``b``; other sizes go to ``@``.  Either
    way every entry is computed on its own, so row ``i`` of a stack's product
    equals, bit for bit, the product of the matrices of row ``i`` alone.
    """
    if a.shape[-1] == 2:
        return a[..., :, 0, None] * b[..., None, 0, :] + a[..., :, 1, None] * b[..., None, 1, :]
    return a @ b


#: numerator coefficients of the degree-13 Pade approximant to exp, divided
#: by the constant one so that the approximant at zero is exactly the identity
_PADE13 = tuple(c / 64764752532480000.0 for c in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0))
#: largest 1-norm at which that approximant is accurate to double precision
_THETA13 = 5.371920351148152


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential of an ``(n, n)`` matrix or of each matrix of an
    ``(N, n, n)`` stack, real for real input.

    Scaling and squaring with the degree-13 Pade approximant (Higham, SIAM
    J. Matrix Anal. Appl. 26, 2005): each matrix is scaled by ``2**-s``,
    with ``s`` the least count that brings its own 1-norm to at most
    5.3719, and its approximant is squared ``s`` times.  The six products
    of the approximant and the squarings go through :func:`product`, entry
    by entry for 2x2 blocks.  A single matrix is a one-row stack here, so
    row ``i`` of a stack's result equals, bit for bit, the exponential of
    matrix ``i`` alone.
    """
    m = ensure_finite(m)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise InputError(f"expm takes square matrices or a stack of them, not {m.shape}")
    a = m.astype(complex if np.iscomplexobj(m) else float).reshape(-1, *m.shape[-2:])
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    with np.errstate(divide="ignore"):  # a zero matrix needs no scaling
        s = np.maximum(0, np.ceil(np.log2(norms / _THETA13))).astype(int)
    a = a * np.ldexp(1.0, -s)[:, None, None]
    b = _PADE13
    ident = np.eye(a.shape[-1])
    a2 = product(a, a)
    a4 = product(a2, a2)
    a6 = product(a4, a2)
    u = product(a, product(a6, b[13] * a6 + b[11] * a4 + b[9] * a2)
                + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (product(a6, b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max(initial=0))):
        rows = np.flatnonzero(s > k)
        r[rows] = product(r[rows], r[rows])
    return r.reshape(m.shape)


def vector_norm(x: np.ndarray):
    """Euclidean norm of an ``(n,)`` vector as a float, or of each row of an
    ``(N, n)`` stack as an ``(N,)`` array.

    Row ``i`` equals ``float(np.linalg.norm(x[i]))`` bit for bit.  The
    stacked ``np.linalg.norm(x, axis=-1)`` sums in another order and does
    not; a stacked row-times-column product does.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])
    return float(np.linalg.norm(x))


def kernel_basis(
    m: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, scale: float = 0.0,
    dim: int | None = None,
) -> np.ndarray:
    """Orthonormal basis (columns, of ``m``'s dtype) of the numerical
    kernel of the linear map ``m``, real or complex, decided as in
    :func:`map_rank_count`; ``scale`` as in :func:`numerical_rank`.  With
    ``dim``, the kernel's column count is not decided here but given: the
    basis is the ``dim`` right singular vectors of the smallest singular
    values, which no cutoff is applied to.

    The kernel is read from the rows of ``V*`` past the rank, so a wide
    matrix needs all of them; a tall one has them all in its thin factors
    and skips the full ``U``."""
    m = ensure_finite(m)
    rows, cols = m.shape
    if m.size == 0:
        return np.eye(cols, dtype=m.dtype)
    _, s, vh = np.linalg.svd(m, full_matrices=rows < cols)
    rank = map_rank_count(s, m.shape, real_degree(m), tol, scale) if dim is None else cols - dim
    return vh[rank:].conj().T


def finite_diff_jacobian(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray:
    """Central-difference Jacobian of ``f: R^k -> R^m`` at ``x``.

    Uses a single step ``h = fd_step_scale * (1 + |x|_inf)`` for every
    coordinate; the entrywise error is O(h^2) for three-times-differentiable
    maps.  Raises :class:`EvaluationError` (carrying the offending
    coordinate) when ``f`` returns a non-finite value.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InputError("evaluation point must be a flat real vector")
    h = tol.fd_step_scale * (1.0 + (float(np.max(np.abs(x))) if x.size else 0.0))
    cols = []
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        try:
            fp = np.asarray(f(x + step), dtype=float)
            fm = np.asarray(f(x - step), dtype=float)
        except FloatingPointError as exc:  # propagate with coordinate context
            raise EvaluationError(i, str(exc)) from exc
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise EvaluationError(i)
        cols.append((fp - fm) / (2.0 * h))
    if not cols:
        base = np.asarray(f(x), dtype=float)
        return np.zeros((base.size, 0))
    return np.column_stack(cols)


# -- real coordinatization ---------------------------------------------------
#
# The basis order is fixed once and for all: real parts row-major, then
# imaginary parts row-major, block by block.  Every differential-based
# dimension in the package relies on this convention being used
# consistently.


def mat_to_realvec(m: np.ndarray) -> np.ndarray:
    """Real coordinates of a matrix; of each one, along the last axis, for an
    ``(N, rows, cols)`` stack."""
    m = np.asarray(m, dtype=complex)
    lead = m.shape[:-2]
    return np.concatenate([m.real.reshape(*lead, -1), m.imag.reshape(*lead, -1)], axis=-1)


def realvec_to_mat(v: np.ndarray, rows: int, cols: int | None = None) -> np.ndarray:
    """Inverse of :func:`mat_to_realvec`: a ``(2 rows cols,)`` vector gives one
    matrix, an ``(N, 2 rows cols)`` array a stack of ``N``."""
    cols = rows if cols is None else cols
    v = np.asarray(v, dtype=float)
    n = rows * cols
    if v.shape[-1:] != (2 * n,):
        raise InputError(f"expected {2 * n} real coordinates, got shape {v.shape}")
    lead = v.shape[:-1]
    return v[..., :n].reshape(*lead, rows, cols) + 1j * v[..., n:].reshape(*lead, rows, cols)


def block_diag(*mats: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix of the 2-d ``mats``, of their common result dtype."""
    rows, cols = sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats)
    out = np.zeros((rows, cols), dtype=np.result_type(*mats))
    r = c = 0
    for m in mats:
        out[r:r + m.shape[0], c:c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    return out


def realify(m: np.ndarray, sizes: Sequence[int] | None = None) -> np.ndarray:
    """The real matrix ``[[Re m, -Im m], [Im m, Re m]]`` of the complex
    ``m``: its columns are the real coordinates of the columns of ``m`` and
    then of those of ``i m``, so an orthonormal complex basis ``V`` gives
    the orthonormal real basis ``[V, iV]`` of the same space.

    With ``sizes``, the rows of ``m`` are complex coordinates on a direct
    sum of pieces of ``sizes`` entries each, and those of the result are
    their fixed real coordinates: each piece's real parts, then its
    imaginary parts.  Without, all real parts come first, then all
    imaginary parts.
    """
    re, im = m.real, m.imag
    cols = m.shape[1]
    out = np.empty((2 * m.shape[0], 2 * cols))
    at = 0
    for n in (m.shape[0],) if sizes is None else sizes:
        piece = slice(at, at + n)
        real_rows, imag_rows = slice(2 * at, 2 * at + n), slice(2 * at + n, 2 * (at + n))
        out[real_rows, :cols] = out[imag_rows, cols:] = re[piece]
        out[imag_rows, :cols] = im[piece]
        np.negative(im[piece], out=out[real_rows, cols:])
        at += n
    return out


def _krons(left: Sequence[np.ndarray], right: Sequence[np.ndarray]) -> list:
    """``kron(A, B^T)`` for each block's ``A`` and ``B``."""
    krons = []
    for a, b in zip(left, right):
        a, bt = np.asarray(a), np.transpose(b)
        k = np.multiply(a[:, None, :, None], bt[None, :, None, :])  # the entries of kron(a, bt)
        krons.append(k.reshape(a.shape[0] * bt.shape[0], a.shape[1] * bt.shape[1]))
    return krons


def complex_sandwich_matrix(
    left: Sequence[np.ndarray], right: Sequence[np.ndarray]
) -> np.ndarray:
    """Complex matrix of ``X -> A X B`` on a direct sum of square blocks, in
    complex coordinates (each block's entries row-major, block by block):
    ``kron(A, B^T)`` of each block on the block diagonal.  ``left`` and
    ``right`` hold one ``A`` and one ``B`` per block."""
    return block_diag(*_krons(left, right))


def sandwich_matrix(left: Sequence[np.ndarray], right: Sequence[np.ndarray]) -> np.ndarray:
    """Real matrix of ``X -> A X B`` on a direct sum of square blocks.

    ``left`` and ``right`` hold one ``A`` and one ``B`` per block.  Row-major
    vectorization turns ``A X B`` into ``K vec(X)`` with ``K = kron(A, B^T)``;
    each block's :func:`realify` of ``K`` is its real matrix in the fixed
    coordinatization, and sits on the diagonal.
    """
    return block_diag(*(realify(k) for k in _krons(left, right)))


def adjoint_matrix(sizes: Sequence[int]) -> np.ndarray:
    """Real matrix of ``X -> X*`` on a direct sum of square blocks of the
    given sizes.  Built once per shape; the array is read-only."""
    return _adjoint_matrix(tuple(int(n) for n in sizes))


@functools.lru_cache(maxsize=32)
def _adjoint_matrix(sizes: tuple) -> np.ndarray:
    mats = []
    for n in sizes:
        transpose = np.eye(n * n)[np.arange(n * n).reshape(n, n).T.ravel()]
        mats.append(block_diag(transpose, -transpose))
    out = block_diag(*mats)
    out.setflags(write=False)
    return out


def hermitian_basis(sizes: Sequence[int]) -> np.ndarray:
    """Orthonormal real basis (columns) of the Hermitian elements of a
    direct sum of square blocks of the given sizes, in the fixed
    coordinatization: per block ``E_kk`` for each ``k``, then
    ``(E_kl + E_lk) / sqrt 2`` and then ``i (E_kl - E_lk) / sqrt 2`` for each
    ``k < l``; ``sum(n * n)`` columns in all.  Built once per shape; the
    array is read-only."""
    return _hermitian_basis(tuple(int(n) for n in sizes))


@functools.lru_cache(maxsize=32)
def _hermitian_basis(sizes: tuple) -> np.ndarray:
    dims = [n * n for n in sizes]
    out = np.zeros((2 * sum(dims), sum(dims)))
    r = c = 0
    for n, d in zip(sizes, dims):
        k, l = np.divmod(np.arange(d), n)  # entry (k, l) sits at row-major position k n + l
        k, l = k[k < l], l[k < l]
        diag, sym, anti = np.arange(n), n + np.arange(len(k)), n + len(k) + np.arange(len(k))
        block = out[r:r + 2 * d, c:c + d]  # real parts in the first d rows, imaginary after
        block[diag * (n + 1), diag] = 1.0
        block[k * n + l, sym] = block[l * n + k, sym] = np.sqrt(0.5)
        block[d + k * n + l, anti] = np.sqrt(0.5)
        block[d + l * n + k, anti] = -np.sqrt(0.5)
        r, c = r + 2 * d, c + d
    out.setflags(write=False)
    return out
