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
Products hold to that because each block's product comes from
:func:`ginv.linalg.product`, which computes each row's product on its
own: entry by entry on 2x2 blocks, where a stacked ``@`` is slow, and by
``@`` on the others.
The coordinates of a stack are an ``(N, D)`` array in the same fixed order,
row ``i`` holding those of row ``i``, and ``x[i]`` is row ``i`` itself.
Classification and the wire format stay single-element.  Elements are
immutable: equality compares shapes and blocks exactly, and the first
:meth:`AlgebraElement.norm` call stores its value for the later ones;
:func:`norms` takes those of several elements in one stacked call, and
:func:`max_norm` the largest norm of a stack, factoring only the rows
whose largest entry modulus can reach it.
:func:`emax`, :func:`epow` and :func:`first_excess` give threshold
arithmetic that reads the same on a norm and on an array of norms.
:func:`expm_element` takes its exponential from :func:`ginv.linalg.expm`,
so nothing here needs scipy.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, PreconditionError, ShapeMismatchError
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    ensure_finite,
    expm,
    mat_to_realvec,
    numerical_rank,
    product,
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


def same_value(x, y) -> bool:
    """Exact value equality: arrays entry by entry, tuples part by part,
    anything else (elements included) by ``==``."""
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return isinstance(x, np.ndarray) and isinstance(y, np.ndarray) and np.array_equal(x, y)
    if isinstance(x, tuple) or isinstance(y, tuple):
        return (isinstance(x, tuple) and isinstance(y, tuple) and len(x) == len(y)
                and all(same_value(a, b) for a, b in zip(x, y)))
    return bool(x == y)


class ExactEquality:
    """Exact value equality of a dataclass's fields, by :func:`same_value`,
    for dataclasses that may hold arrays; such values are not hashable.
    Declare the dataclass with ``eq=False``, or its generated ``__eq__``
    replaces this one."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(same_value(getattr(self, f.name), getattr(other, f.name))
                   for f in dataclasses.fields(self))

    __hash__ = None


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """One square complex matrix per block of the algebra, or one ``(N, n, n)``
    stack per block for ``N`` elements at once.

    Two elements are equal when they have the same shape and the same
    blocks, exactly; elements are not hashable.
    """

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

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.shape == other.shape and all(
            np.array_equal(a, b) for a, b in zip(self.blocks, other.blocks))

    __hash__ = None

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
        return AlgebraElement(
            self.shape, tuple(product(a, b) for a, b in zip(self.blocks, other.blocks)))

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.shape, tuple(np.swapaxes(b, -1, -2).conj() for b in self.blocks))

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
        """C*-norm: the largest operator norm over the blocks; a read-only
        ``(N,)`` array of them for a stack.  A single element runs as a
        one-row stack, so row ``i`` of a stack's norms is the norm of row
        ``i`` alone, bit for bit.  Each block's operator norm is ``|a|`` for
        a 1x1 block, a closed form for a 2x2 one (:func:`_norms_2x2`) and
        the top singular value of a values-only SVD for larger ones; blocks
        are finite by construction, so no second finiteness scan runs.  The
        blocks never change, so the first call stores the value and later
        calls return it; it takes no part in equality."""
        value = self.__dict__.get("_norm")
        if value is None:
            _store_norms([self])
            value = self.__dict__["_norm"]
        return value

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

    def __repr__(self):
        return f"AlgebraElement(shape={self.shape})"


def norms(*elements: AlgebraElement) -> tuple:
    """The :meth:`AlgebraElement.norm` of each of ``elements``, all of one
    shape and one stack height, from one stacked call: the residuals and
    operands of one check are one stack, not one call each.  Each element
    stores its value, as its own ``norm()`` would, bit for bit; an element
    whose value is stored, or that is an earlier one again, is not computed
    again."""
    first = elements[0]
    for e in elements:
        first._check_shape(e)
        if e.blocks[0].shape[:-2] != first.blocks[0].shape[:-2]:
            raise ShapeMismatchError("elements of one norms() call share one stack height")
    todo = {id(e): e for e in elements if "_norm" not in e.__dict__}
    if todo:
        _store_norms(list(todo.values()))
    return tuple(e.__dict__["_norm"] for e in elements)


def max_norm(x: AlgebraElement) -> float:
    """The largest C*-norm over the rows of a stack, equal bit for bit to
    ``float(np.max(x.norm()))``; ``float(x.norm())`` for a single element.

    Entry size bounds an ``n x n`` block's operator norm from both sides,
    ``max|a_jk| <= |a| <= n max|a_jk|`` (Golub and Van Loan, *Matrix
    Computations*, 2.3).  So a row whose largest entry modulus over its
    blocks, ``m_i``, has ``n m_i`` below the largest ``m_j``, with ``n``
    the largest block size, cannot hold the maximum.  Only the other rows
    are factored, with a relative slack of 1e-9 for the rounding of the
    moduli and of the norms; each row's norm is that of the row alone,
    bit for bit, so the maximum is the same float.  A stack of zeros
    factors one row.  Nothing is stored on ``x``.
    """
    if not x.is_stack:
        return float(x.norm())
    m = functools.reduce(np.maximum, (np.abs(b).max(axis=(-2, -1)) for b in x.blocks))
    top = m.max()
    keep = np.flatnonzero(max(x.shape) * m * (1.0 + 1e-9) >= top) if top > 0.0 else [0]
    return float(np.max(functools.reduce(
        np.maximum, (_operator_norms(b[keep]) for b in x.blocks))))


def _store_norms(elements: list):
    """Compute the norms of ``elements``, of one shape and one stack height,
    as one stack of rows, and store each element's own."""
    first = elements[0]
    height = len(first.blocks[0]) if first.is_stack else 1
    rows = []
    for k in range(len(first.shape)):
        parts = [e.blocks[k] if e.is_stack else e.blocks[k][None] for e in elements]
        rows.append(np.concatenate(parts) if len(parts) > 1 else parts[0])
    values = functools.reduce(np.maximum, (_operator_norms(b) for b in rows))
    for i, e in enumerate(elements):
        value = values[i * height:(i + 1) * height]
        if e.is_stack:
            value.setflags(write=False)
        else:
            value = float(value[0])
        object.__setattr__(e, "_norm", value)


def _operator_norms(b: np.ndarray) -> np.ndarray:
    """Operator norm of each matrix of an ``(N, n, n)`` stack of finite blocks."""
    n = b.shape[-1]
    if n == 1:
        return np.abs(b[:, 0, 0])
    if n == 2:
        return _norms_2x2(b)
    return np.linalg.svd(b, compute_uv=False)[:, 0]


def _norms_2x2(b: np.ndarray) -> np.ndarray:
    """Operator norm of each matrix of an ``(N, 2, 2)`` stack: with ``m`` the
    largest entry modulus and ``[[p, q], [conj(q), r]]`` the Gram matrix of
    the block divided by ``m``, the top singular value is
    ``m sqrt((p + r) / 2 + hypot((p - r) / 2, |q|))``.  The sum has no
    cancellation, and the division keeps the squares clear of overflow
    and underflow; a zero block gives exactly ``0.0``.  The Gram matrix is
    taken by :func:`ginv.linalg.product`, entry by entry, so each row's
    norm is that of the block alone, bit for bit."""
    m = np.abs(b).max(axis=(-2, -1))
    # divide the real and imaginary parts: numpy divides a complex by a real
    # through its reciprocal, which overflows when m is subnormal
    parts = np.ascontiguousarray(b).view(float) / np.where(m > 0.0, m, 1.0)[:, None, None]
    c = parts.view(complex)
    gram = product(np.swapaxes(c, -1, -2).conj(), c)
    p, r = gram[:, 0, 0].real, gram[:, 1, 1].real
    return m * np.sqrt(0.5 * (p + r) + np.hypot(0.5 * (p - r), np.abs(gram[:, 0, 1])))


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


def expm_element(a: AlgebraElement) -> AlgebraElement:
    """Blockwise matrix exponential, row by row on a stack (:func:`~ginv.linalg.expm`)."""
    return AlgebraElement(a.shape, tuple(expm(b) for b in a.blocks))


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
    nrm, r_idem, r_sa, r_pi = norms(a, a @ a - a, a.adjoint() - a, a @ a.adjoint() @ a - a)
    idempotent = r_idem <= tol.residual_tol * (1.0 + nrm**2)
    projection = idempotent and r_sa <= tol.residual_tol * (1.0 + nrm)
    partial_isometry = r_pi <= tol.residual_tol * (1.0 + nrm**3)
    return ElementClass(
        idempotent=idempotent,
        projection=projection,
        partial_isometry=partial_isometry,
        max_residual=max(r_idem, r_sa, r_pi),
    )


def block_ranks(x: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL) -> tuple:
    """The numerical rank of each block of ``x``: the complete orbit
    invariant of idempotents and of projections."""
    return tuple(numerical_rank(b, tol) for b in x.blocks)


def corner_compress(
    q: AlgebraElement, a: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL
) -> AlgebraElement:
    """Compress ``a`` to the corner algebra with unit ``q``: returns ``q a q``."""
    if not classify(q, tol).idempotent:
        raise PreconditionError("corner_compress needs an idempotent compressor")
    return q @ a @ q
