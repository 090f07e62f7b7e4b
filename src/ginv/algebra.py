"""Finite-dimensional C*-algebras as block-diagonal complex matrix algebras.

An algebra is a direct sum of full matrix blocks; an element stores one
square complex matrix per block.  Elementwise *-algebra operations live
here together with the classification predicates for the distinguished
subsets: idempotents, orthogonal projections, partial isometries and
regular elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg

from .errors import InputError, PreconditionError, ShapeMismatchError
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    ensure_finite,
    mat_to_realvec,
    operator_norm,
    realvec_to_mat,
)

AlgebraShape = tuple  # block sizes, e.g. (2, 3) for M2 + M3


def validate_shape(shape: Sequence[int]) -> tuple:
    shape = tuple(int(n) for n in shape)
    if not shape:
        raise InputError("algebra shape must have at least one block")
    if any(n < 1 for n in shape):
        raise InputError("every block size must be >= 1")
    return shape


@dataclass(frozen=True)
class AlgebraElement:
    """One square complex matrix per block of the algebra."""

    shape: tuple
    blocks: tuple

    def __post_init__(self):
        shape = validate_shape(self.shape)
        if len(self.blocks) != len(shape):
            raise InputError(
                f"expected {len(shape)} blocks, got {len(self.blocks)}"
            )
        frozen = []
        for n, b in zip(shape, self.blocks):
            b = np.array(b, dtype=complex)
            if b.shape != (n, n):
                raise InputError(f"block of size {b.shape} does not match {n}x{n}")
            ensure_finite(b, "block")
            b.setflags(write=False)
            frozen.append(b)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "blocks", tuple(frozen))

    # -- constructors --------------------------------------------------------

    @classmethod
    def _trusted(cls, shape: tuple, blocks: tuple) -> "AlgebraElement":
        """Wrap already-validated complex blocks without copying.

        No library code calls it: batch pipelines keep stacked arrays (see
        ``paths.APath``).  It stays only while ``perfbench/tracing.py``
        binds it by name; the public constructors validate.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "shape", shape)
        object.__setattr__(obj, "blocks", blocks)
        return obj

    @classmethod
    def from_blocks(cls, blocks: Iterable[np.ndarray]) -> "AlgebraElement":
        blocks = [np.atleast_2d(np.asarray(b, dtype=complex)) for b in blocks]
        return cls(tuple(b.shape[0] for b in blocks), tuple(blocks))

    @classmethod
    def identity(cls, shape: Sequence[int]) -> "AlgebraElement":
        shape = validate_shape(shape)
        return cls(shape, tuple(np.eye(n, dtype=complex) for n in shape))

    @classmethod
    def zeros(cls, shape: Sequence[int]) -> "AlgebraElement":
        shape = validate_shape(shape)
        return cls(shape, tuple(np.zeros((n, n), dtype=complex) for n in shape))

    # -- arithmetic ------------------------------------------------------------

    def _check_shape(self, other: "AlgebraElement"):
        if self.shape != other.shape:
            raise ShapeMismatchError(f"shapes {self.shape} and {other.shape} differ")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_shape(other)
        return AlgebraElement(self.shape, tuple(a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_shape(other)
        return AlgebraElement(self.shape, tuple(a - b for a, b in zip(self.blocks, other.blocks)))

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.shape, tuple(-b for b in self.blocks))

    def __mul__(self, scalar) -> "AlgebraElement":
        return AlgebraElement(self.shape, tuple(scalar * b for b in self.blocks))

    __rmul__ = __mul__

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_shape(other)
        return AlgebraElement(self.shape, tuple(a @ b for a, b in zip(self.blocks, other.blocks)))

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.shape, tuple(b.conj().T for b in self.blocks))

    @property
    def h(self) -> "AlgebraElement":
        return self.adjoint()

    # -- metrics and coordinates ------------------------------------------------

    def norm(self) -> float:
        """C*-norm: the largest operator norm over the blocks."""
        return max(operator_norm(b) for b in self.blocks)

    def distance(self, other: "AlgebraElement") -> float:
        return (self - other).norm()

    def real_coords(self) -> np.ndarray:
        return np.concatenate([mat_to_realvec(b) for b in self.blocks])

    @classmethod
    def from_real_coords(cls, shape: Sequence[int], v: np.ndarray) -> "AlgebraElement":
        shape = validate_shape(shape)
        v = np.asarray(v, dtype=float)
        blocks, pos = [], 0
        for n in shape:
            span = 2 * n * n
            blocks.append(realvec_to_mat(v[pos : pos + span], n))
            pos += span
        if pos != v.size:
            raise InputError(f"coordinate vector has {v.size} entries, expected {pos}")
        return cls(shape, tuple(blocks))

    def is_close(self, other: "AlgebraElement", atol: float) -> bool:
        return self.distance(other) <= atol

    def __repr__(self):
        return f"AlgebraElement(shape={self.shape})"


def real_dimension(shape: Sequence[int]) -> int:
    """Real dimension of the algebra in the fixed coordinatization."""
    return sum(2 * n * n for n in validate_shape(shape))


def element_product(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Blockwise matrix product (associative up to rounding)."""
    return a @ b


def element_adjoint(a: AlgebraElement) -> AlgebraElement:
    """Blockwise conjugate transpose; involutive, (ab)* = b*a*."""
    return a.adjoint()


def expm_element(a: AlgebraElement) -> AlgebraElement:
    """Blockwise matrix exponential."""
    return AlgebraElement(a.shape, tuple(scipy.linalg.expm(b) for b in a.blocks))


@dataclass(frozen=True)
class ElementClass:
    """Membership report for the distinguished subsets of the algebra.

    ``regular`` is hard-coded true: every matrix has a rank factorization,
    so every element of a finite-dimensional algebra is regular.  The field
    exists so reports can still speak about the regular set.
    """

    idempotent: bool
    projection: bool
    partial_isometry: bool
    regular: bool
    max_residual: float

    def __post_init__(self):
        if self.projection and not self.idempotent:
            raise InputError("projection implies idempotent")
        if self.partial_isometry and not self.regular:
            raise InputError("partial isometry implies regular")


def classify(a: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL) -> ElementClass:
    """Scale-aware classification of ``a``.

    Residual tolerances are scaled by powers of ``norm(a)`` matching the
    polynomial degree of each defining equation, so elements of norm >> 1
    are not misclassified.
    """
    nrm = a.norm()
    r_idem = (a @ a - a).norm()
    r_sa = (a.adjoint() - a).norm()
    r_pi = (a @ a.adjoint() @ a - a).norm()
    idempotent = r_idem <= tol.residual_tol * (1.0 + nrm**2)
    projection = idempotent and r_sa <= tol.residual_tol * (1.0 + nrm)
    partial_isometry = r_pi <= tol.residual_tol * (1.0 + nrm**3)
    return ElementClass(
        idempotent=idempotent,
        projection=projection,
        partial_isometry=partial_isometry,
        regular=True,
        max_residual=max(r_idem, r_sa, r_pi),
    )


def corner_compress(
    q: AlgebraElement, a: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL
) -> AlgebraElement:
    """Compress ``a`` to the corner algebra with unit ``q``: returns ``q a q``."""
    if not classify(q, tol).idempotent:
        raise PreconditionError("corner_compress needs an idempotent compressor")
    return q @ a @ q
