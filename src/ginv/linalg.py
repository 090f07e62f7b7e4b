"""Dense complex matrix primitives.

SVD-backed rank and norm with a single relative cutoff (one stacked
decision for all rows of an ``(N, rows, cols)`` stack), the Euclidean norm
of vectors or of the rows of an ``(N, n)`` stack, the matrix exponential
of a matrix or of each matrix of a stack, joint kernel dimensions, the
fixed real coordinatization of block matrices (of one matrix, or of each
matrix of a stack along the last axes) and the exact real matrices of the
linear maps ``X -> A X B`` and ``X -> X*`` in it, and a central-difference
Jacobian kept as an independent reference.  Everything here is a pure
function; matrices are plain ``numpy`` arrays of ``complex128`` (or
``float64`` for real-coordinate work).
"""

from __future__ import annotations

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
        Baseline for all residual tests (scaled by powers of the operand
        norms at each call site).
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


def ensure_finite(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    m = np.asarray(m)
    if not np.isfinite(m).all():  # a complex entry is finite iff both parts are
        raise InputError(f"{what} has non-finite entries")
    return m


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values in descending order; empty input gives an empty array."""
    m = ensure_finite(m)
    if m.size == 0:
        return np.zeros(0)
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
    if s.ndim == 2:
        if s.shape[1] == 0:
            return np.zeros(len(s), dtype=int)
        cutoff = tol.rank_cutoff_factor * max(shape) * np.maximum(s[:, 0], scale)
        return np.count_nonzero(s > cutoff[:, None], axis=1)
    if s.size == 0 or s[0] == 0.0:
        return 0
    cutoff = tol.rank_cutoff_factor * max(shape) * max(s[0], scale)
    return int(np.count_nonzero(s > cutoff))


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
    m = ensure_finite(m)
    s = singular_values(m)
    if m.ndim == 3:
        s = s.reshape(len(m), min(m.shape[1:]))
        return rank_from_singular_values(s, m.shape[1:], tol, scale)
    return rank_from_singular_values(s, m.shape, tol, scale)


def operator_norm(m: np.ndarray):
    """Largest singular value; an ``(N,)`` array of them for an
    ``(N, rows, cols)`` stack, row ``i`` bit for bit that of matrix ``i``."""
    s = singular_values(m)
    if m.ndim == 3:
        return s[:, 0]
    return float(s[0]) if s.size else 0.0


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
    5.3719, and its approximant is squared ``s`` times.  A single matrix is
    a one-row stack here, so row ``i`` of a stack's result equals, bit for
    bit, the exponential of matrix ``i`` alone.
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
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max(initial=0))):
        rows = np.flatnonzero(s > k)
        r[rows] = r[rows] @ r[rows]
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
    m: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, scale: float = 0.0
) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical kernel of a real matrix;
    ``scale`` as in :func:`numerical_rank`.

    The kernel is read from the rows of ``V*`` past the rank, so a wide
    matrix needs all of them; a tall one has them all in its thin factors
    and skips the full ``U``."""
    m = ensure_finite(m)
    rows, cols = m.shape
    if m.size == 0:
        return np.eye(cols)
    _, s, vh = np.linalg.svd(m, full_matrices=rows < cols)
    return vh[rank_from_singular_values(s, m.shape, tol, scale):].conj().T


def orthonormal_range(
    m: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, scale: float = 0.0
) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical column space of a real
    matrix; ``scale`` as in :func:`numerical_rank`."""
    m = ensure_finite(m)
    if m.size == 0:
        return np.zeros((m.shape[0], 0))
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, : rank_from_singular_values(s, m.shape, tol, scale)]


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


def joint_kernel_dim(
    maps: Sequence[np.ndarray], tol: ToleranceConfig = DEFAULT_TOL
) -> int:
    """Dimension of the intersection of kernels of real matrices with a common domain."""
    if not maps:
        raise InputError("need at least one matrix")
    mats = [ensure_finite(np.atleast_2d(np.asarray(m, dtype=float))) for m in maps]
    cols = mats[0].shape[1]
    for m in mats[1:]:
        if m.shape[1] != cols:
            raise InputError(
                f"mismatched column counts: {m.shape[1]} != {cols}"
            )
    stacked = np.vstack(mats)
    return cols - numerical_rank(stacked, tol)


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


def sandwich_matrix(left: Sequence[np.ndarray], right: Sequence[np.ndarray]) -> np.ndarray:
    """Real matrix of ``X -> A X B`` on a direct sum of square blocks.

    ``left`` and ``right`` hold one ``A`` and one ``B`` per block.  Row-major
    vectorization turns ``A X B`` into ``K vec(X)`` with ``K = kron(A, B^T)``,
    whose real matrix in the fixed coordinatization is
    ``[[K.real, -K.imag], [K.imag, K.real]]``; each block's is written
    straight into its place on the diagonal.
    """
    krons = []
    for a, b in zip(left, right):
        a, bt = np.asarray(a), np.transpose(b)
        k = np.multiply(a[:, None, :, None], bt[None, :, None, :])  # the entries of kron(a, bt)
        krons.append(k.reshape(a.shape[0] * bt.shape[0], a.shape[1] * bt.shape[1]))
    rows, cols = 2 * sum(k.shape[0] for k in krons), 2 * sum(k.shape[1] for k in krons)
    out = np.zeros((rows, cols), dtype=np.result_type(*(k.real for k in krons)))
    r = c = 0
    for k in krons:
        m, n = k.shape
        out[r:r + m, c:c + n] = out[r + m:r + 2 * m, c + n:c + 2 * n] = k.real
        out[r + m:r + 2 * m, c:c + n] = k.imag
        np.negative(k.imag, out=out[r:r + m, c + n:c + 2 * n])
        r, c = r + 2 * m, c + 2 * n
    return out


def adjoint_matrix(sizes: Sequence[int]) -> np.ndarray:
    """Real matrix of ``X -> X*`` on a direct sum of square blocks of the given sizes."""
    mats = []
    for n in sizes:
        transpose = np.eye(n * n)[np.arange(n * n).reshape(n, n).T.ravel()]
        mats.append(block_diag(transpose, -transpose))
    return block_diag(*mats)
