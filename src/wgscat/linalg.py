"""Dense complex linear algebra substrate.

Matrices are plain ``numpy.ndarray`` (complex128, 2-D); this module adds the
validated operations the rest of the package builds on: guarded inverses,
SVD kernel projectors, contour (Riesz) projectors, Hermitian splitting and
positivity diagnostics.  Every dense inverse, solve and condition figure
comes from one LAPACK ``gesv`` per block against the identity, guarded by
the exact 1-norm condition ``|A|_1 |A^-1|_1`` read off the inverse it
forms.

A block-diagonal operator is held as its stack of diagonal blocks, a 3-D
array ``(n_blocks, m, m)``; its coordinates run through the blocks in order.
:func:`inverse`, :func:`inverse_with_cond`, :func:`cond_estimate`,
:func:`opnorm`, :func:`kernel_basis`, :func:`real_part`,
:func:`imaginary_part` and :func:`skew_defect` accept a stack as the
operator it stands for; an inverse of a stack is the stack of the blocks'
inverses, under the one guard of the whole operator, and a kernel basis of
a stack has block-supported columns.

All operations are pure functions of their inputs; results never alias
internal state, so concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .errors import (
    AccuracyError,
    ContourError,
    DimensionError,
    SingularMatrixError,
)

# Inverses refuse matrices whose exact 1-norm condition exceeds this.
COND_LIMIT = 1e-3 / np.finfo(float).eps  # ~4.5e12

DEFAULT_RANK_TOL = 1e-8   # kernel detection: sigma < tol * sigma_max
REFINE_STEPS = 2          # Newton steps of the oracle inverse
RIESZ_N_QUAD = 64         # trapezoid points on a Riesz projection contour
ZERO_GROUP_TOL = 1e-8     # |eigenvalue| / spectral scale that counts as 0

_GESV = sla.get_lapack_funcs("gesv", (np.zeros(1, dtype=complex),))


def require_square(a, stack: bool = False) -> np.ndarray:
    """Validate and return ``a`` as a finite complex square 2-D array; with
    ``stack``, a 3-D stack of square diagonal blocks is accepted too."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 and not (stack and m.ndim == 3):
        kind = "2-D or 3-D" if stack else "2-D"
        raise DimensionError(f"expected a {kind} array, got ndim={m.ndim}")
    if m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DimensionError("matrix has non-finite entries")
    return m


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each block of a stack."""
    return a.conj().swapaxes(-1, -2)


def opnorm(a: np.ndarray) -> float:
    """Spectral norm (largest singular value); of a stack, the largest over
    its blocks."""
    if a.size == 0:
        return 0.0
    return float(np.max(np.linalg.norm(a, 2, axis=(-2, -1))))


def thin_product_norm(left: np.ndarray, right: np.ndarray) -> float:
    """``|left @ right^*|_2`` for thin factors of equal column count.

    With thin QRs ``left = Q_l R_l`` and ``right = Q_r R_r`` the product is
    ``Q_l (R_l R_r^*) Q_r^*``, so its norm is that of the small core
    ``R_l R_r^*``: ``O(n m^2)`` work for ``n x m`` factors and no ``n x n``
    matrix.
    """
    if left.shape[1] == 0:
        return 0.0
    r_left = np.linalg.qr(left, mode="r")
    r_right = np.linalg.qr(right, mode="r")
    return opnorm(r_left @ r_right.conj().T)


@dataclass(frozen=True)
class Projection:
    """A (not necessarily orthogonal) projection matrix with its certificates.

    Idempotence below ``tol`` is checked at construction; whether it is
    orthogonal is :meth:`adjoint_defect`.  ``basis`` is computed on first
    use and kept.
    """

    matrix: np.ndarray
    tol: float = 1e-8

    def __post_init__(self):
        p = require_square(self.matrix)
        scale = max(1.0, opnorm(p) ** 2)
        defect = opnorm(p @ p - p)
        if defect > self.tol * scale:
            raise AccuracyError(f"projection idempotence defect {defect:.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return int(round(float(np.trace(self.matrix).real)))

    @cached_property
    def basis(self) -> np.ndarray:
        """Orthonormal basis (columns) of the range."""
        u, sv, _ = np.linalg.svd(self.matrix)
        return u[:, : int(np.sum(sv > 0.5))]

    def adjoint_defect(self) -> float:
        p = self.matrix
        return opnorm(p - p.conj().T)


def zero_projection(n: int) -> Projection:
    return Projection(np.zeros((n, n), dtype=complex))


def identity_projection(n: int) -> Projection:
    return Projection(np.eye(n, dtype=complex))


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a^-1 b`` from the guarded :func:`inverse`, which raises
    :class:`SingularMatrixError` (a reference solve: the package's own
    callers need the inverse itself)."""
    a = require_square(a)
    b = np.asarray(b, dtype=complex)
    if b.shape[0] != a.shape[0]:
        raise DimensionError(f"rhs rows {b.shape[0]} != matrix dim {a.shape[0]}")
    return inverse(a) @ b


def inverse_with_cond(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Condition-guarded dense inverse of a matrix or a block stack, and its
    exact 1-norm condition; of a stack, block by block under the block guard
    ``max_b |A_b|_1 * max_b |A_b^-1|_1`` of the whole operator (1 when
    empty), read off the inverse.

    The one guarded dense inverse: a matrix is a one-block stack, and one
    LAPACK ``gesv`` per block solves against the identity in place, into
    column-major blocks.  Raises :class:`SingularMatrixError` at an exactly
    zero pivot (``info > 0``) and unless ``cond <= COND_LIMIT``, which
    refuses NaN and inf too."""
    m = require_square(a, stack=True)
    blocks = m if m.ndim == 3 else m[None]
    out = np.empty(blocks.shape, dtype=complex).swapaxes(1, 2)
    if out.size == 0:
        return out.reshape(m.shape), 1.0
    out[...] = np.eye(m.shape[-1])
    for b, block in enumerate(blocks):
        if _GESV(block, out[b], overwrite_b=True)[3] > 0:
            raise SingularMatrixError("matrix is exactly singular")
    cond = float(np.max(np.linalg.norm(blocks, 1, axis=(1, 2)))
                 * np.max(np.linalg.norm(out, 1, axis=(1, 2))))
    if not cond <= COND_LIMIT:
        raise SingularMatrixError("matrix is singular to working tolerance", cond)
    return out.reshape(m.shape), cond


def inverse(a: np.ndarray) -> np.ndarray:
    """Condition-guarded dense inverse of a matrix or a block stack."""
    return inverse_with_cond(a)[0]


def refined_inverse(a: np.ndarray) -> np.ndarray:
    """Newton-refined dense inverse (oracle-grade accuracy).

    Starts from the guarded :func:`inverse`; each of the ``REFINE_STEPS``
    steps squares the residual ``1 - a x``, pushing the forward error to the
    rounding floor even at moderate ill-conditioning.  The refinement runs
    in extended precision when the platform provides it, so the result can
    serve as a reference for algorithms that beat plain float64 inversion.
    Intended for small matrices (oracle use only).
    """
    a = require_square(a)
    eye = np.eye(a.shape[0], dtype=complex)
    wide = getattr(np, "complex256", complex)
    ax, xx, ee = (m.astype(wide) for m in (a, inverse(a), eye))
    for _ in range(REFINE_STEPS):
        xx = xx + xx @ (ee - ax @ xx)
    return xx.astype(complex)


def cond_estimate(a: np.ndarray) -> float:
    """Exact 1-norm condition ``|A|_1 |A^-1|_1`` of a matrix, or of a block
    stack its block guard ``max_b |A_b|_1 * max_b |A_b^-1|_1``: the figure
    :func:`inverse` checks.  Past ``COND_LIMIT`` it is the refused
    value; ``inf`` when exactly singular."""
    try:
        return inverse_with_cond(a)[1]
    except SingularMatrixError as exc:
        return exc.cond


def kernel_basis(a: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical kernel of ``a``.

    Kernel directions are the right singular vectors whose singular values
    satisfy ``sigma < DEFAULT_RANK_TOL * sigma_max``.  A zero matrix has a full
    kernel.  ``scale`` overrides ``sigma_max`` as the reference when the
    matrix is a compression whose natural scale is known externally (e.g.
    a near-zero block of a larger operator).  A block stack is the
    block-diagonal operator: ``sigma_max`` is the largest over the blocks,
    and each kernel column is one block's right singular vector, zero
    outside that block (``scipy.linalg.block_diag`` of the blocks' kernel
    columns, in block order).
    """
    a = require_square(a, stack=True)
    if a.shape[-1] == 0:
        return np.zeros((0, 0), dtype=complex)
    _, s, vh = np.linalg.svd(a if a.ndim == 3 else a[None])
    nb, m = s.shape
    smax = s.max() if s.size else 0.0
    ref = max(smax, scale) if scale is not None else smax
    if ref == 0.0:
        return np.eye(nb * m, dtype=complex)
    mask = s < DEFAULT_RANK_TOL * ref
    return sla.block_diag(*(vh[b][mask[b]].conj().T for b in range(nb)))


def kernel_projector(a: np.ndarray) -> Projection:
    """Orthogonal projector ``Q Q^*`` onto the numerical kernel of ``a``, with
    ``Q`` the orthonormal :func:`kernel_basis`.

    Satisfies ``norm(a @ P) <= 2 * DEFAULT_RANK_TOL * sigma_max * dim``.
    """
    q = kernel_basis(a)
    return Projection(q @ q.conj().T, tol=1e-12)


def riesz_projection(a: np.ndarray, radius: float) -> Projection:
    """Contour projector ``(2 pi i)^-1  oint (z - a)^-1 dz`` on ``|z| = radius``.

    The circle is discretized by the ``RIESZ_N_QUAD``-point trapezoid rule,
    which is spectrally accurate for the analytic resolvent.  The idempotence
    defect must come out below 1e-8 (the :class:`Projection` certificate) or
    an :class:`AccuracyError` is raised.  Each resolvent is one guarded
    :func:`inverse`; one that its exact condition refuses on the contour
    raises :class:`ContourError`.
    """
    a = require_square(a)
    if radius <= 0:
        raise DimensionError("radius must be positive")
    n = a.shape[0]
    eye = np.eye(n, dtype=complex)
    acc = np.zeros((n, n), dtype=complex)
    theta = 2.0 * np.pi * np.arange(RIESZ_N_QUAD) / RIESZ_N_QUAD
    for t in theta:
        zeta = radius * np.exp(1j * t)
        try:
            acc += zeta * inverse(zeta * eye - a)
        except SingularMatrixError as exc:
            raise ContourError(
                f"contour |z|={radius:.3e} passes near the spectrum at angle {t:.3f}"
            ) from exc
    return Projection(acc / RIESZ_N_QUAD)


def riesz_projection_at_zero(a: np.ndarray) -> Projection:
    """Riesz projector for the eigenvalue group at 0, with an automatic radius.

    Eigenvalues with ``|e| <= ZERO_GROUP_TOL * scale`` form the zero group;
    the contour radius is half the distance from 0 to the nearest eigenvalue
    outside the group, discretized by ``RIESZ_N_QUAD`` points.  Returns the
    zero projection when 0 is not in the spectrum, and the identity when the
    whole spectrum sits at 0.
    """
    a = require_square(a)
    n = a.shape[0]
    if n == 0:
        return zero_projection(0)
    ev = np.linalg.eigvals(a)
    scale = max(1.0, float(np.max(np.abs(ev))))
    inner = np.abs(ev) <= ZERO_GROUP_TOL * scale
    if not np.any(inner):
        return zero_projection(n)
    if np.all(inner):
        return identity_projection(n)
    gap = float(np.min(np.abs(ev[~inner])))
    return riesz_projection(a, gap / 2.0)


def real_part(a: np.ndarray) -> np.ndarray:
    """Hermitian part ``(a + a*) / 2`` (self-adjoint by construction)."""
    a = require_square(a, stack=True)
    return (a + adjoint(a)) / 2.0


def imaginary_part(a: np.ndarray) -> np.ndarray:
    """Skew part ``(a - a*) / (2i)`` (self-adjoint by construction)."""
    a = require_square(a, stack=True)
    return (a - adjoint(a)) / 2j


def skew_defect(a: np.ndarray) -> float:
    """``max(0, -lambda_min(imaginary_part(a)))``: 0 means the skew part of
    ``a`` is positive semidefinite.  The skew part is self-adjoint by
    construction, so nothing else is checked; 0 when ``a`` is empty."""
    y = imaginary_part(a)
    if y.shape[-1] == 0:
        return 0.0
    return max(0.0, -float(np.min(np.linalg.eigvalsh(y))))
