"""Finite-dimensional C*-algebras as block-diagonal complex matrix algebras.

An algebra is a direct sum of full matrix blocks; an element stores one
square complex matrix per block.  Elementwise *-algebra operations live
here together with the classification predicates for the distinguished
subsets: idempotents, orthogonal projections and partial isometries (every
element of a finite-dimensional algebra is regular).

An element may also be a stack of ``N`` elements: every block is then an
``(N, n, n)`` array, with the same ``N`` in every block.  Products, sums,
scalar multiples and adjoints act row by row (and broadcast a single
element against a stack), and :meth:`AlgebraElement.norm` returns an
``(N,)`` array of C*-norms.  Row ``i`` of every result equals, bit for bit,
the result of the same operation on the single elements of row ``i``.
The coordinates of a stack are an ``(N, D)`` array in the same fixed order,
row ``i`` holding those of row ``i``, and ``x[i]`` is row ``i`` itself;
:func:`stack_rows` stacks rows of drawn inputs.  Classification and the
wire format stay single-element.  :func:`emax`, :func:`epow` and
:func:`first_excess` give threshold arithmetic that reads the same on a
norm and on an array of norms.
"""

from __future__ import annotations

import functools
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
    """One square complex matrix per block of the algebra, or one ``(N, n, n)``
    stack per block for ``N`` elements at once."""

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
            if b.ndim not in (2, 3) or b.shape[-2:] != (n, n):
                raise InputError(f"block of size {b.shape} does not match {n}x{n}")
            if frozen and b.shape[:-2] != frozen[0].shape[:-2]:
                raise InputError(
                    f"blocks stack {frozen[0].shape[:-2]} and {b.shape[:-2]} elements"
                )
            ensure_finite(b, "block")
            b.setflags(write=False)
            frozen.append(b)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "blocks", tuple(frozen))

    # -- constructors --------------------------------------------------------

    @classmethod
    def _trusted(cls, shape: tuple, blocks: tuple) -> "AlgebraElement":
        """Wrap already-validated complex blocks without copying.

        No library code calls it: batches are stacked elements (see
        ``paths.APath``), built through the validating constructors.  It
        stays only while ``perfbench/tracing.py`` binds it by name.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "shape", shape)
        object.__setattr__(obj, "blocks", blocks)
        return obj

    @classmethod
    def from_blocks(cls, blocks: Iterable[np.ndarray]) -> "AlgebraElement":
        blocks = [np.atleast_2d(np.asarray(b, dtype=complex)) for b in blocks]
        return cls(tuple(b.shape[-1] for b in blocks), tuple(blocks))

    @classmethod
    def stack(cls, elements: Sequence["AlgebraElement"]) -> "AlgebraElement":
        """The stack of single elements of one shape, row ``i`` being ``elements[i]``."""
        first = elements[0]
        for e in elements:
            first._check_shape(e)
            if e.is_stack:
                raise InputError("only single elements can be stacked")
        return cls(first.shape, tuple(np.stack(b) for b in zip(*(e.blocks for e in elements))))

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
        """Scaling by a number, or row by row on a stack by an ``(N,)`` array."""
        if isinstance(scalar, np.ndarray):
            scalar = scalar[:, None, None]
        return AlgebraElement(self.shape, tuple(scalar * b for b in self.blocks))

    __rmul__ = __mul__

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_shape(other)
        return AlgebraElement(self.shape, tuple(a @ b for a, b in zip(self.blocks, other.blocks)))

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.shape, tuple(np.swapaxes(b, -1, -2).conj() for b in self.blocks))

    @property
    def h(self) -> "AlgebraElement":
        return self.adjoint()

    @property
    def is_stack(self) -> bool:
        return self.blocks[0].ndim == 3

    def _require_single(self, what: str):
        if self.is_stack:
            raise InputError(f"{what} takes a single element, not a stack")

    def __getitem__(self, i) -> "AlgebraElement":
        """Row ``i`` of a stack."""
        if not self.is_stack:
            raise InputError("a single element has no rows")
        return AlgebraElement(self.shape, tuple(b[i] for b in self.blocks))

    # -- metrics and coordinates ------------------------------------------------

    def norm(self):
        """C*-norm: the largest operator norm over the blocks; an ``(N,)``
        array of them for a stack.  Blocks are finite by construction, so the
        SVD runs without a second finiteness scan."""
        if self.is_stack:
            return np.max([np.linalg.svd(b, compute_uv=False)[:, 0] for b in self.blocks], axis=0)
        return max(float(np.linalg.svd(b, compute_uv=False)[0]) for b in self.blocks)

    def distance(self, other: "AlgebraElement"):
        return (self - other).norm()

    def real_coords(self) -> np.ndarray:
        """Real coordinates in the fixed order: a ``(D,)`` vector, or an
        ``(N, D)`` array for a stack, row ``i`` being those of row ``i``."""
        return np.concatenate([mat_to_realvec(b) for b in self.blocks], axis=-1)

    @classmethod
    def from_real_coords(cls, shape: Sequence[int], v: np.ndarray) -> "AlgebraElement":
        """Inverse of :meth:`real_coords`: a ``(D,)`` vector gives one
        element, an ``(N, D)`` array a stack of ``N``."""
        shape = validate_shape(shape)
        v = np.asarray(v, dtype=float)
        if v.ndim not in (1, 2):
            raise InputError(f"coordinates must be a vector or rows of them, not {v.shape}")
        blocks, pos = [], 0
        for n in shape:
            span = 2 * n * n
            blocks.append(realvec_to_mat(v[..., pos : pos + span], n))
            pos += span
        if pos != v.shape[-1]:
            raise InputError(f"coordinate vectors have {v.shape[-1]} entries, expected {pos}")
        return cls(shape, tuple(blocks))

    def is_close(self, other: "AlgebraElement", atol: float) -> bool:
        return self.distance(other) <= atol

    def __repr__(self):
        return f"AlgebraElement(shape={self.shape})"


def emax(*values):
    """The largest of ``values``: a float for norms, row by row once any of
    them is the ``(N,)`` array of a stack."""
    if any(isinstance(v, np.ndarray) for v in values):
        return functools.reduce(np.maximum, values)
    return max(values)


def epow(x, k: int):
    """``x ** k`` in Python floats, row by row on an ``(N,)`` array.

    ``numpy.power`` rounds some of these powers differently from Python's
    ``float ** int``, so a stacked threshold would not equal the single one.
    """
    if isinstance(x, np.ndarray):
        return np.array([v**k for v in x.tolist()])
    return x**k


def first_excess(residual, bound):
    """The first residual above its bound (row by row on stacks), or ``None``."""
    if isinstance(residual, np.ndarray):
        over = np.flatnonzero(residual > bound)
        return float(residual[over[0]]) if over.size else None
    return residual if residual > bound else None


def stack_rows(rows: Sequence) -> tuple:
    """Rows of single elements, or of nested tuples of them such as arrow
    noise, as one row of stacks: part ``j`` stacks part ``j`` of every row."""
    return tuple(
        AlgebraElement.stack(part) if isinstance(part[0], AlgebraElement) else stack_rows(part)
        for part in zip(*rows)
    )


def real_dimension(shape: Sequence[int]) -> int:
    """Real dimension of the algebra in the fixed coordinatization."""
    return sum(2 * n * n for n in validate_shape(shape))


def expm_element(a: AlgebraElement) -> AlgebraElement:
    """Blockwise matrix exponential."""
    return AlgebraElement(a.shape, tuple(scipy.linalg.expm(b) for b in a.blocks))


@dataclass(frozen=True)
class ElementClass:
    """Membership report for the distinguished subsets of the algebra.

    The regular set needs no field: every matrix has a rank factorization,
    so every element of a finite-dimensional algebra is regular.
    """

    idempotent: bool
    projection: bool
    partial_isometry: bool
    max_residual: float

    def __post_init__(self):
        if self.projection and not self.idempotent:
            raise InputError("projection implies idempotent")


def classify(a: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL) -> ElementClass:
    """Scale-aware classification of ``a``.

    Residual tolerances are scaled by powers of ``norm(a)`` matching the
    polynomial degree of each defining equation, so elements of norm >> 1
    are not misclassified.
    """
    a._require_single("classify")
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
        max_residual=max(r_idem, r_sa, r_pi),
    )


def corner_compress(
    q: AlgebraElement, a: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL
) -> AlgebraElement:
    """Compress ``a`` to the corner algebra with unit ``q``: returns ``q a q``."""
    if not classify(q, tol).idempotent:
        raise PreconditionError("corner_compress needs an idempotent compressor")
    return q @ a @ q
