"""Dense complex matrix primitives.

SVD-backed rank and norm with a single relative cutoff, joint kernel
dimensions, the fixed real coordinatization of block matrices (of one
matrix, or of each matrix of a stack along the last axes) and the exact real
matrices of the linear maps ``X -> A X B`` and ``X -> X*`` in it, and a
central-difference Jacobian kept as an independent reference.  Everything
here is a pure function; matrices are plain ``numpy`` arrays of
``complex128`` (or ``float64`` for real-coordinate work).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

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
) -> int:
    """Count the singular values ``s`` (descending, of a matrix of the given
    shape) above ``rank_cutoff_factor * max(shape) * max(sigma_max, scale)``;
    the one place the relative rank cutoff is applied."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    cutoff = tol.rank_cutoff_factor * max(shape) * max(s[0], scale)
    return int(np.count_nonzero(s > cutoff))


def numerical_rank(
    m: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, scale: float = 0.0
) -> int:
    """Count singular values above the relative cutoff; the zero matrix has rank 0.

    The cutoff is relative to ``max(sigma_max, scale)``.  A matrix that is a
    piece of a larger linear map passes that map's norm as ``scale``: a piece
    that vanishes up to rounding then has rank 0 instead of reading its own
    rounding noise as rank.
    """
    m = ensure_finite(m)
    return rank_from_singular_values(singular_values(m), m.shape, tol, scale)


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    s = singular_values(m)
    return float(s[0]) if s.size else 0.0


def kernel_basis(
    m: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, scale: float = 0.0
) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical kernel of a real matrix;
    ``scale`` as in :func:`numerical_rank`."""
    m = ensure_finite(m)
    cols = m.shape[1]
    if m.size == 0:
        return np.eye(cols)
    _, s, vh = np.linalg.svd(m)
    return vh[rank_from_singular_values(s, m.shape, tol, scale):].conj().T


def orthonormal_range(
    m: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, scale: float = 0.0
) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical column space of a real
    matrix; ``scale`` as in :func:`numerical_rank`."""
    m = ensure_finite(m)
    if m.size == 0:
        return np.zeros((m.shape[0], 0))
    u, s, _ = np.linalg.svd(m)
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


def _realify(m: np.ndarray) -> np.ndarray:
    """Real matrix of the complex-linear map ``m`` in the fixed coordinatization."""
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


def sandwich_matrix(left: Sequence[np.ndarray], right: Sequence[np.ndarray]) -> np.ndarray:
    """Real matrix of ``X -> A X B`` on a direct sum of square blocks.

    ``left`` and ``right`` hold one ``A`` and one ``B`` per block.  Row-major
    vectorization turns ``A X B`` into ``kron(A, B^T) vec(X)``.
    """
    return scipy.linalg.block_diag(
        *(_realify(np.kron(a, np.transpose(b))) for a, b in zip(left, right))
    )


def adjoint_matrix(sizes: Sequence[int]) -> np.ndarray:
    """Real matrix of ``X -> X*`` on a direct sum of square blocks of the given sizes."""
    mats = []
    for n in sizes:
        transpose = np.eye(n * n)[np.arange(n * n).reshape(n, n).T.ravel()]
        mats.append(scipy.linalg.block_diag(transpose, -transpose))
    return scipy.linalg.block_diag(*mats)
