"""Shared test utilities: independent oracles and fixture tuning."""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from wgscat import birman, expansion, linalg, waveguide


def oned_well_levels(depth: float, width: float = 1.0) -> list[float]:
    """Bound-state energies of the 1-D square well ``-depth`` on ``[0, width]``.

    Independent oracle: matching conditions for even/odd states about the
    well center,

        even:  k tan(k w / 2) = sqrt(depth - k^2),
        odd:  -k cot(k w / 2) = sqrt(depth - k^2),

    solved by bracketed root finding; energies are ``k^2 - depth``.
    """
    out = []
    kmax = np.sqrt(depth)

    def even(k):
        return k * np.tan(k * width / 2.0) - np.sqrt(max(depth - k * k, 0.0))

    def odd(k):
        return -k / np.tan(k * width / 2.0) - np.sqrt(max(depth - k * k, 0.0))

    for f in (even, odd):
        # scan between the poles of tan/cot for sign changes
        grid = np.linspace(1e-9, kmax - 1e-12, 4000)
        vals = np.array([f(k) for k in grid])
        for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
            if np.isfinite(fa) and np.isfinite(fb) and fa * fb < 0 and abs(fa) < 50 and abs(fb) < 50:
                k0 = brentq(f, a, b, xtol=1e-14)
                out.append(k0 * k0 - depth)
    return sorted(out)


def fit_slope(xs, ys) -> float:
    """Least-squares slope of log ys against log xs."""
    return float(np.polyfit(np.log(np.asarray(xs, float)),
                            np.log(np.asarray(ys, float)), 1)[0])


def tune_resonant_depth(bracket: tuple[float, float], width: float = 1.0,
                        n_omega: int = 5, n_x: int = 50, n_max: int = 24,
                        tail_tol: float = 0.1, lam: float = 4.0,
                        omega_profile: dict | None = None) -> float:
    """Depth at which the discrete level-1 operator develops a kernel.

    Minimizes the level-1 kernel gap over the bracket (the gap is V-shaped
    at an eigenvalue crossing, so golden section localizes the zero).
    """
    cs = waveguide.Interval(np.pi)

    def gap(depth: float) -> float:
        m = waveguide.square_well_model(
            cs, depth, (0.0, width), n_omega=n_omega, n_x=n_x, n_max=n_max,
            omega_profile=omega_profile,
        )
        return expansion.level1_kernel_gap(m, lam, eps=2e-2, tail_tol=tail_tol)

    return birman.golden_min(gap, *bracket, tol=1e-13)


def dense_projections(ladder) -> list[np.ndarray]:
    """Dense ``S0, S1, S2`` of a threshold ladder (``S2 = 0`` below level 3)."""
    b2 = ladder.b2
    s2 = np.zeros((ladder.dim, ladder.dim), dtype=complex) if b2 is None else b2 @ b2.conj().T
    return [ladder.s0, ladder.s1, s2]


def dense_commutator_norms(ladder, ev) -> dict:
    """Dense oracle of ``expansion.commutator_norms``: ``(|S_j X_l - X_l S_j|_2,
    |X_l|_2)`` keyed by ``(j, l)``, with every ``S_j`` and level inverse
    ``X_l`` formed as a ``dim x dim`` matrix."""
    mats = dense_projections(ladder)
    invs = [ev.g0, ev.h1]
    if ev.h2 is not None:
        invs.append(ladder.b1 @ ev.h2 @ ladder.b1.conj().T)
    max_level = ladder.terminal_level() - 1
    return {
        (j, level): (linalg.opnorm(mats[j] @ invs[level] - invs[level] @ mats[j]),
                     linalg.opnorm(invs[level]))
        for j in range(max_level + 1) for level in range(j + 1)
    }
