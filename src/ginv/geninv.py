"""Moore-Penrose inversion and reflexive generalized-inverse pairs.

Two independent inversion routes are provided: a blockwise SVD
pseudo-inverse (rank decided by the shared relative cutoff) and a
Newton-Schulz iteration that serves as a cross-check.  Pairs ``(a, b)``
with ``aba = a`` and ``bab = b`` are the arrows of the generalized-inverse
groupoid; this module owns their construction and validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, ExactEquality, emax, epow, norms, residual_bound, verdict
from .errors import ConsistencyError, ConvergenceError, InputError, ShapeMismatchError
from .linalg import DEFAULT_TOL, ToleranceConfig, rank_from_singular_values


@dataclass(frozen=True)
class PenroseResidual:
    """Norm residuals of the four Moore-Penrose equations.

    r1: ||aba - a||   r2: ||bab - b||   r3: ||(ba)* - ba||   r4: ||(ab)* - ab||

    On stacks each residual is an ``(N,)`` array, and so is :meth:`max`.
    """

    r1: float
    r2: float
    r3: float
    r4: float

    def max(self):
        return emax(self.r1, self.r2, self.r3, self.r4)


@dataclass(frozen=True, eq=False)
class GInvPair(ExactEquality):
    """An ordered pair (a, b) with aba = a and bab = b: an arrow of the
    ``ginv`` groupoid (:class:`~ginv.groupoid.GInvGroupoid`), from ``ba``
    to ``ab``.

    Construct through :meth:`create`, which enforces both reflexivity
    residuals; the raw constructor is reserved for deliberately invalid
    pairs in negative controls.  Two pairs are equal when their elements
    are, exactly; pairs are not hashable.
    """

    a: AlgebraElement
    b: AlgebraElement

    @classmethod
    def create(
        cls, a: AlgebraElement, b: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL
    ) -> "GInvPair":
        """Validated pair; on stacks of ``a`` and ``b`` a stack of pairs,
        raising when any row fails."""
        for law, excess in zip(("aba = a", "bab = b"), _reflexivity(a, b, tol)):
            if excess is not None:
                raise InputError(f"{law} fails with residual {excess:.3e}")
        return cls(a, b)

    def swap(self) -> "GInvPair":
        return GInvPair(self.b, self.a)


def _reflexivity(a: AlgebraElement, b: AlgebraElement, tol: ToleranceConfig):
    """The first ``||aba - a||`` and the first ``||bab - b||`` above its
    norm-scaled bound (``None`` when none is), row by row on stacks; the
    two residuals and the two norms from one stacked call, and the one
    residual once when ``a is b``."""
    if a.shape != b.shape:
        raise ShapeMismatchError("pair components must share the algebra shape")
    aba = a @ b @ a - a
    bab = aba if a is b else b @ a @ b - b
    r_aba, r_bab, na, nb = norms(aba, bab, a, b)
    return (
        verdict(r_aba, residual_bound(tol.residual_tol, epow(na, 2) * nb)).excess,
        verdict(r_bab, residual_bound(tol.residual_tol, epow(nb, 2) * na)).excess,
    )


def _pinv_block(m: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Pseudo-inverse of one block or of an ``(N, n, n)`` stack of them, each
    row at its own rank; rank-0 rows are exact ``+0.0``."""
    u, s, vh = np.linalg.svd(m)
    ranks = rank_from_singular_values(s.reshape(-1, s.shape[-1]), m.shape[-2:], tol)
    ranks = ranks.reshape(s.shape[:-1])
    kept = np.arange(s.shape[-1]) < ranks[..., None]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=kept)
    out = (np.swapaxes(vh, -1, -2).conj() * inv[..., None, :]) @ np.swapaxes(u, -1, -2).conj()
    return np.where(ranks[..., None, None] == 0, 0.0, out)


def moore_penrose(a: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL) -> AlgebraElement:
    """Blockwise SVD pseudo-inverse, of one element or row by row of a stack.

    The rank decision is delegated entirely to the shared relative cutoff,
    so rank-drop experiments have a single knob.  The output is independent
    of SVD sign and phase conventions, and row ``i`` of a stack's result
    equals, bit for bit, the pseudo-inverse of row ``i`` alone.
    """
    return AlgebraElement(a.shape, tuple(_pinv_block(b, tol) for b in a.blocks))


def newton_schulz(
    a: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL, max_iter: int = 64
) -> AlgebraElement:
    """Iterative pseudo-inverse, the independent cross-check route; of one
    element or row by row of a stack.

    Iterates ``X <- X (2*1 - a X)`` from ``X0 = a* / sigma_max(a)^2`` and
    stops when the relative step drops below ``residual_tol``.  Near-rank-
    deficient inputs either settle on the pseudo-inverse of the truncated
    rank (tiny directions grow too slowly to move the stopping test) or
    exhaust ``max_iter`` and raise :class:`ConvergenceError`.

    A stack iterates as one: each row stops on its own test and leaves the
    active rows, so row ``i`` of the result equals, bit for bit, the call on
    row ``i`` alone (a single element runs as a one-row stack).  When rows
    exhaust ``max_iter``, the error is that of the first of them, as its
    single call raises it.
    """
    if max_iter < 1:
        raise InputError("max_iter must be >= 1")
    single = not a.is_stack
    if single:
        a = AlgebraElement(a.shape, tuple(b[None] for b in a.blocks))
    smax = a.norm()
    if np.any(smax == 0.0):
        raise InputError("newton_schulz needs a nonzero element")
    out = [np.empty_like(b) for b in a.blocks]
    active = np.arange(len(smax))
    x = a.adjoint() * (1.0 / epow(smax, 2))
    two = AlgebraElement.identity(a.shape) * 2.0
    for _ in range(max_iter):
        x_next = x @ (two - a @ x)
        step = (x_next - x).norm()
        done = step <= tol.residual_tol * np.maximum(x.norm(), 1e-300)
        x = x_next
        for o, b in zip(out, x.blocks):
            o[active[done]] = b[done]
        if done.all():
            return AlgebraElement(a.shape, tuple(o[0] for o in out) if single else tuple(out))
        if done.any():
            keep = ~done
            a, x, step, active = a[keep], x[keep], step[keep], active[keep]
    raise ConvergenceError(step[0] / max(float(x.norm()[0]), 1e-300), max_iter)


def penrose_residuals(a: AlgebraElement, b: AlgebraElement) -> PenroseResidual:
    """The four Moore-Penrose equation residual norms, exact up to rounding."""
    if a.shape != b.shape:
        raise ShapeMismatchError("operands must share the algebra shape")
    ab, ba = a @ b, b @ a
    return PenroseResidual(
        r1=(a @ b @ a - a).norm(),
        r2=(b @ a @ b - b).norm(),
        r3=(ba.adjoint() - ba).norm(),
        r4=(ab.adjoint() - ab).norm(),
    )


def is_ginv_pair(
    a: AlgebraElement, b: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """True when both reflexivity residuals pass (in every row of stacks).

    The two symmetry conditions are deliberately not required: the set of
    reflexive pairs is strictly larger than the Moore-Penrose graph.
    """
    return all(excess is None for excess in _reflexivity(a, b, tol))


def reflexive_inverse(
    a: AlgebraElement, dagger: AlgebraElement, u: AlgebraElement, v: AlgebraElement
) -> AlgebraElement:
    """The reflexive inverse ``g_u a g_v`` of ``a``, row by row on stacks.

    ``dagger`` is the pseudo-inverse ``a+``.  The inner inverses
    ``g_w = a+ + s w - a+ a (s w) a a+`` form an affine family, and products
    of two of them sweep the reflexive inverses.  ``s = 1 / (1 + norm(a+))``
    keeps residual scaling uniform across test matrices.
    """
    scale = 1.0 / (1.0 + dagger.norm())
    proj_left = dagger @ a   # a+ a
    proj_right = a @ dagger  # a a+

    def inner_inverse(w: AlgebraElement) -> AlgebraElement:
        w = w * scale  # AlgebraElement.__mul__: scale may be an (N,) array
        return dagger + w - proj_left @ w @ proj_right

    return inner_inverse(u) @ a @ inner_inverse(v)


def sample_ginv_pairs(
    a: AlgebraElement,
    seed: int,
    count: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> list:
    """Reflexive-inverse pairs of ``a`` drawn from the classical parametrization.

    Each pair is :func:`reflexive_inverse` at ``u`` and ``v`` with
    independent standard normal real and imaginary parts, drawn block by
    block, ``u`` first.  Deterministic for a fixed seed.
    """
    from .sampling import random_element

    if count < 1:
        raise InputError("count must be >= 1")
    rng = np.random.default_rng(seed)
    dagger = moore_penrose(a, tol)
    pairs = []
    for _ in range(count):
        u, v = random_element(rng, a.shape), random_element(rng, a.shape)
        b = reflexive_inverse(a, dagger, u, v)
        try:
            pairs.append(GInvPair.create(a, b, tol))
        except InputError as exc:
            raise ConsistencyError(
                f"sampled reflexive inverse failed validation: {exc}"
            ) from exc
    return pairs


def mp_pair(a: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL) -> GInvPair:
    """Pair an element with its Moore-Penrose inverse: ``a -> (a, a+)``."""
    return GInvPair.create(a, moore_penrose(a, tol), tol)
