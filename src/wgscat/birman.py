"""Free-resolvent kernels, the sandwiched grid operator, and spectral scans.

The 1-D free resolvent has kernel ``R0(z)(x, x') = i/(2 sqrt z) *
exp(i sqrt z |x - x'|)`` with the branch ``Im(sqrt z) > 0`` off ``[0, inf)``
and the boundary value from the upper half-plane on the cut.  The full-guide
resolvent is the transverse mode sum ``sum_n P_n (x) R0(z - lambda_n)``;
sandwiching with the potential factors gives the dense grid operator
``u + v R0(z) v`` whose inverse drives everything else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchPointError,
    DomainError,
    ModelError,
    TruncationError,
)
from .waveguide import WaveguideModel, gauss_legendre_panels

_MODE_CHUNK_ENTRIES = 4_000_000  # chunk mode stacks to bound working memory


def sqrt_upper(z: complex) -> complex:
    """Square root with ``Im >= 0``: principal branch reflected into the
    closed upper half-plane, continuous from above on ``[0, inf)``."""
    w = np.sqrt(complex(z))
    if w.imag < 0:
        w = -w
    return w


def free_kernel(z: complex, x, xp):
    """Kernel of ``(P^2 - z)^-1`` at ``(x, x')``; vectorized over nodes.

    Raises :class:`BranchPointError` at ``z = 0`` (callers must switch to
    the threshold expansions there).
    """
    if z == 0:
        raise BranchPointError("free kernel has a branch point at z = 0")
    rt = sqrt_upper(z)
    d = np.abs(np.asarray(x) - np.asarray(xp))
    return (1j / (2.0 * rt)) * np.exp(1j * rt * d)


def free_kernel_matrix(z: complex, x_nodes: np.ndarray) -> np.ndarray:
    """Unweighted kernel samples ``R0(z)(x_k, x_l)`` as a dense matrix."""
    x = np.asarray(x_nodes, dtype=float)
    return free_kernel(z, x[:, None], x[None, :])


def free_kernel_matrix_diff(z_new: complex, z_old: complex, x_nodes: np.ndarray) -> np.ndarray:
    """``R0(z_new) - R0(z_old)`` sampled, organized to avoid cancellation.

    Uses ``a - b = (z_new - z_old)/(a + b)`` for the root difference and
    ``expm1`` for the phase difference.
    """
    if z_new == 0 or z_old == 0:
        raise BranchPointError("free kernel difference at a branch point")
    a = sqrt_upper(z_new)
    b = sqrt_upper(z_old)
    x = np.asarray(x_nodes, dtype=float)
    d = np.abs(x[:, None] - x[None, :])
    delta = (z_new - z_old) / (a + b)  # = a - b, cancellation-free
    phase_b = np.exp(1j * b * d)
    term1 = np.expm1(1j * delta * d) / a
    term2 = -delta / (a * b)
    return (1j / 2.0) * phase_b * (term1 + term2)


@dataclass(frozen=True)
class SpectralPoint:
    """Energy parametrized as ``z = lam - kappa^2`` near ``lam``.

    ``kappa`` must lie in the closed fourth-quadrant sector (open region:
    ``Re > 0, Im < 0``; boundary rays: positive real axis / negative
    imaginary axis; ``kappa = 0`` marks the boundary value ``lam + i0``).
    """

    lam: float
    kappa: complex

    def __post_init__(self):
        k = complex(self.kappa)
        if k != 0 and (k.real < -1e-15 or k.imag > 1e-15):
            raise DomainError(f"kappa {k} outside the closed fourth-quadrant sector")

    @property
    def z(self) -> complex:
        return self.lam - complex(self.kappa) ** 2


@dataclass(frozen=True)
class GridOperator:
    """``u + v R0(z) v`` on the composite grid, with its truncation record."""

    matrix: np.ndarray
    n_used: int
    tail_bound: float

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def tail_bound_value(model: WaveguideModel, z: complex, n_used: int) -> float:
    """Certified operator-norm bound for the omitted closed-channel sum.

    The omitted modes form a transverse direct sum, so their total norm is
    controlled by the largest single term: ``|v|_inf^2 * cap /
    (lambda_(n+1) - Re z)``, using ``|R0(-mu^2)| = mu^-2`` for the resolvent
    of a nonnegative operator and a cap on the quadrature norms of the mode
    vectors.
    """
    lam_next = model.eigenvalue(n_used + 1)
    gap = lam_next - z.real
    if gap <= 0:
        return float("inf")
    return model.v_norm_inf() ** 2 * model.cross_section.quadrature_cap(model.n_max) / gap


def _choose_n_used(model: WaveguideModel, z: complex, tail_tol: float,
                   n_cap: int) -> int:
    n_min = 0
    for n in range(1, n_cap + 1):
        if model.eigenvalue(n) <= z.real + 1e-12:
            n_min = n
    n_min = max(n_min, 1)
    for n in range(n_min, n_cap + 1):
        if tail_bound_value(model, z, n) <= tail_tol:
            return n
    raise TruncationError(
        f"tail tolerance {tail_tol:.2e} unattainable with {n_cap} modes "
        f"(bound {tail_bound_value(model, z, n_cap):.2e} at the cap)"
    )


def mode_sum_matrix(
    model: WaveguideModel,
    z: complex,
    mode_indices: list[int] | np.ndarray,
    x_kernel=None,
) -> np.ndarray:
    """``sum_n v (P_n (x) K_n) v`` over the given mode indices, with
    symmetric weighting on the composite grid.

    ``x_kernel(n) -> (n_x, n_x)`` supplies the longitudinal kernel per mode;
    it defaults to the free resolvent at ``z - lambda_n``.
    """
    grid = model.grid
    n_omega, n_x = grid.n_omega, grid.n_x
    dim = grid.dim
    out = np.zeros((dim, dim), dtype=complex)
    if len(mode_indices) == 0:
        return out
    x = grid.x_nodes
    sqwx = np.sqrt(grid.x_weights)
    pot = model.potential
    idx = np.asarray(mode_indices, dtype=int)
    if x_kernel is None:
        x_kernel = lambda n: free_kernel_matrix(z - model.eigenvalue(int(n)), x)

    chunk = max(1, _MODE_CHUNK_ENTRIES // (n_x * n_x))
    if pot.separable:
        dx = pot.x_factor * sqwx  # sqrt(|W(x)|) with weights
        phi = np.array(
            [model.modes[n - 1].samples * pot.omega_factor for n in idx]
        ) * np.sqrt(grid.omega_weights)
        for lo in range(0, idx.size, chunk):
            sel = idx[lo : lo + chunk]
            ks = np.empty((sel.size, n_x * n_x), dtype=complex)
            for j, n in enumerate(sel):
                ks[j] = (dx[:, None] * x_kernel(int(n)) * dx[None, :]).reshape(-1)
            pmat = np.einsum("ni,nj->nij", phi[lo : lo + chunk], phi[lo : lo + chunk])
            block = pmat.reshape(sel.size, -1).T @ ks  # (n_omega^2, n_x^2)
            out += (
                block.reshape(n_omega, n_omega, n_x, n_x)
                .transpose(0, 2, 1, 3)
                .reshape(dim, dim)
            )
        return out

    sw = grid.composite_sqrt_weights().reshape(n_omega, n_x)
    for lo in range(0, idx.size, chunk):
        sel = idx[lo : lo + chunk]
        a = np.array(
            [model.modes[n - 1].samples[:, None] * pot.v * sw for n in sel]
        )  # (m, n_omega, n_x)
        ks = np.array([x_kernel(int(n)) for n in sel])
        out += np.einsum("nik,nkl,njl->ikjl", a, ks, a, optimize=True).reshape(dim, dim)
    return out


def bs_operator(
    pt: SpectralPoint,
    model: WaveguideModel,
    tail_tol: float = 1e-4,
    n_max: int | None = None,
) -> GridOperator:
    """Assemble ``u + v R0(lam - kappa^2) v`` with a certified mode cutoff.

    The number of retained transverse modes is the smallest meeting
    ``tail_tol`` (see :func:`tail_bound_value`); all modes open at ``Re z``
    are always retained.  Raises :class:`TruncationError` when the cap
    ``n_max`` (default: the model's stored modes) cannot meet the tolerance,
    and :class:`BranchPointError` when ``z`` collides with a threshold.
    """
    z = pt.z
    n_cap = n_max if n_max is not None else model.n_max
    if n_cap > model.n_max:
        raise ModelError("n_max exceeds the modes stored in the model")
    for n in range(1, n_cap + 1):
        if abs(z - model.eigenvalue(n)) < 1e-12 * max(1.0, abs(z)):
            raise BranchPointError(
                f"z collides with threshold lambda_{n}; use the expansion machinery"
            )
    n_used = _choose_n_used(model, z, tail_tol, n_cap)
    mat = np.diag(model.u_diag()) + mode_sum_matrix(model, z, list(range(1, n_used + 1)))
    return GridOperator(mat, n_used, tail_bound_value(model, z, n_used))


# ---------------------------------------------------------------------------
# Weighted Hilbert-Schmidt diagnostics
# ---------------------------------------------------------------------------

HS_WEIGHT_TAIL = 1e-10   # relative weight mass the HS window may leave out
HS_X_CAP = 4000.0        # the HS window never grows past [-X_CAP, X_CAP]
HS_PER_PANEL = 12        # Gauss-Legendre nodes per panel of the HS window


def _window_rule(s: float):
    """Symmetric panel rule on [-X, X] with X set by the weight tail.

    The relative tail ``int_{|x|>X} (1+x^2)^(-s) dx`` is pushed below
    ``HS_WEIGHT_TAIL`` when reachable under ``X <= HS_X_CAP``; the panels
    carry ``HS_PER_PANEL`` nodes each.  The achieved value is returned with
    the rule.
    """
    import scipy.integrate as si

    def tail(xv):
        val, _ = si.quad(lambda t: (1.0 + t * t) ** (-s), xv, np.inf)
        return 2.0 * val

    total, _ = si.quad(lambda t: (1.0 + t * t) ** (-s), -np.inf, np.inf)
    x_win = 2.0
    while x_win < HS_X_CAP and tail(x_win) > HS_WEIGHT_TAIL * total:
        x_win *= 2.0
    achieved = tail(x_win) / total
    # geometric panels toward the edges, denser near 0
    edges = [0.0]
    step = 0.5
    while edges[-1] < x_win:
        edges.append(min(x_win, edges[-1] + step))
        step *= 1.6
    edges = np.array(edges)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        n, w = gauss_legendre_panels(lo, hi, HS_PER_PANEL, 1)
        nodes.append(n)
        weights.append(w)
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    nodes = np.concatenate([-nodes[::-1], nodes])
    weights = np.concatenate([weights[::-1], weights])
    return nodes, weights, achieved


def hs_diagnostic(lam: float, zeta: complex, s: float):
    """Weighted Hilbert-Schmidt norms of the 1-D free resolvent.

    Returns ``(hs_norm, diff_norm)`` where ``hs_norm`` approximates
    ``|| <x>^-s R0(lam + zeta) <x>^-s ||_HS`` on a window wide enough for
    the weight tail (``HS_WEIGHT_TAIL``, ``HS_X_CAP``, ``HS_PER_PANEL``; see
    :func:`_window_rule`), and ``diff_norm`` the same for ``R0(lam + zeta) -
    R0(lam)`` (requires ``s > 3/2``; returned as ``nan`` otherwise).
    """
    if abs(lam) < 1e-9:
        raise DomainError("lam must stay away from the branch point")
    if zeta.imag < -1e-15:
        raise DomainError("zeta must lie in the closed upper half-plane")
    if s <= 0.5:
        raise DomainError("the weighted kernel is Hilbert-Schmidt only for s > 1/2")
    nodes, weights, _ = _window_rule(s)
    wgt = (1.0 + nodes**2) ** (-s / 2.0)
    z = lam + zeta if zeta != 0 else lam + 0j
    kern = free_kernel_matrix(z, nodes)
    scaled = (wgt * np.sqrt(weights))[:, None] * kern * (wgt * np.sqrt(weights))[None, :]
    hs_norm = float(np.linalg.norm(scaled))
    if s > 1.5:
        dk = free_kernel_matrix_diff(z, complex(lam), nodes)
        scaled_d = (wgt * np.sqrt(weights))[:, None] * dk * (wgt * np.sqrt(weights))[None, :]
        diff_norm = float(np.linalg.norm(scaled_d))
    else:
        diff_norm = float("nan")
    return hs_norm, diff_norm


# ---------------------------------------------------------------------------
# Point-spectrum search
# ---------------------------------------------------------------------------

DETECT_REL = 1e-6        # refined sigma_min / sigma_max below this marks an eigenvalue
THRESHOLD_MARGIN = 1e-6  # gap the search window keeps from every threshold
SIGMA_ITERS = 12         # steps of each singular-value iteration


@dataclass(frozen=True)
class EigenvalueCandidate:
    lam: float
    sigma_min: float
    rel_dip: float          # sigma_min / ||operator||


def golden_min(f, a: float, b: float, tol: float) -> float:
    """Deterministic golden-section minimizer of ``f`` on ``[a, b]``: shrinks
    the bracket below ``tol`` and returns its midpoint."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def _boundary_operator(model: WaveguideModel, lam: float, tail_tol: float):
    """``u + v R0(lam + i0) v`` with the two fixed unit start vectors of the
    singular-value iterations, drawn in this order from one seeded generator:
    the first for :func:`_sigma_max`, the second for :func:`_sigma_min`."""
    a = bs_operator(SpectralPoint(lam, 0.0), model, tail_tol).matrix
    n = a.shape[0]
    rng = np.random.default_rng(1234)
    x_max, x_min = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
    return a, x_max / np.linalg.norm(x_max), x_min / np.linalg.norm(x_min)


def _sigma_max(a: np.ndarray, x: np.ndarray) -> float:
    """Largest singular value estimate of ``a`` by power iteration from ``x``."""
    for _ in range(SIGMA_ITERS):
        y = a.conj().T @ (a @ x)
        nrm = np.linalg.norm(y)
        if nrm == 0:
            break
        x = y / nrm
    return float(np.linalg.norm(a @ x))


def _sigma_min(a: np.ndarray, x: np.ndarray) -> float:
    """Smallest singular value estimate of ``a`` by LU-based inverse
    iteration from ``x``; 0 when the factorization detects exact
    singularity."""
    import scipy.linalg as sla

    try:
        lu, piv = sla.lu_factor(a, check_finite=False)
    except Exception:
        return 0.0
    if np.any(np.abs(np.diag(lu)) == 0.0):
        return 0.0
    for _ in range(SIGMA_ITERS):
        y = sla.lu_solve((lu, piv), x, trans=0, check_finite=False)
        y = sla.lu_solve((lu, piv), y, trans=2, check_finite=False)
        nrm = np.linalg.norm(y)
        if not np.isfinite(nrm) or nrm == 0:
            return 0.0
        x = y / nrm
    return float(1.0 / np.sqrt(nrm))


def eigenvalue_search(
    window: tuple[float, float],
    model: WaveguideModel,
    resolution: int = 48,
    tail_tol: float = 1e-3,
    refine_width: float = 1e-10,
) -> list[EigenvalueCandidate]:
    """Scan the smallest singular value of ``u + v R0(lam + i0) v``.

    Interior local minima of the scan are refined by golden-section search
    to ``refine_width`` and kept when the refined relative dip
    ``sigma_min / sigma_max`` is below ``DETECT_REL``; ``sigma_max`` is
    computed at the refined points only.  An empty result is a valid
    outcome.  The window must avoid the thresholds by ``THRESHOLD_MARGIN``.
    """
    lo, hi = window
    if not hi > lo:
        raise DomainError("empty search window")
    for n in range(1, model.n_max + 1):
        t = model.eigenvalue(n)
        if lo - THRESHOLD_MARGIN < t < hi + THRESHOLD_MARGIN:
            raise DomainError(f"window touches threshold lambda_{n} = {t}")

    def sigma_min(lam: float) -> float:
        a, _, x = _boundary_operator(model, lam, tail_tol)
        return _sigma_min(a, x)

    lams = np.linspace(lo, hi, resolution)
    sig = [sigma_min(float(lam)) for lam in lams]
    out: list[EigenvalueCandidate] = []
    for i in range(1, resolution - 1):
        if not (sig[i] <= sig[i - 1] and sig[i] <= sig[i + 1]):
            continue
        lam_star = golden_min(sigma_min, float(lams[i - 1]), float(lams[i + 1]), refine_width)
        a, x_max, x_min = _boundary_operator(model, lam_star, tail_tol)
        s_star = _sigma_min(a, x_min)
        rel = s_star / max(_sigma_max(a, x_max), 1e-300)
        if rel < DETECT_REL:
            out.append(EigenvalueCandidate(lam_star, s_star, rel))
    return out
