"""Shared test utilities: independent oracles and fixture tuning."""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.optimize import brentq

from wgscat import birman, expansion, linalg, scattering, waveguide


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


def same_bits(x, y) -> bool:
    """``x`` and ``y`` are arrays of one dtype and shape with identical bytes."""
    x, y = np.asarray(x), np.asarray(y)
    return (x.dtype, x.shape) == (y.dtype, y.shape) and (
        np.ascontiguousarray(x).tobytes() == np.ascontiguousarray(y).tobytes())


def record_gesv(monkeypatch) -> list[np.ndarray]:
    """Route the guarded inverse's LAPACK ``gesv`` binding through a recorder
    for the rest of the test; returns the list that receives a copy of each
    block it factors, in call order."""
    factored = []
    gesv = linalg._GESV

    def recording(a, *args, **kwargs):
        factored.append(np.array(a))
        return gesv(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "_GESV", recording)
    return factored


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


def dense(blocks) -> np.ndarray:
    """Dense matrix of a stack of diagonal blocks."""
    return scipy.linalg.block_diag(*blocks)


def dense_projections(ladder) -> list[np.ndarray]:
    """Dense ``S0, S1, S2`` of a threshold ladder in its sector coordinates
    (``S2 = 0`` below level 3)."""
    b2 = ladder.b2
    s2 = np.zeros((ladder.dim, ladder.dim), dtype=complex) if b2 is None else b2 @ b2.conj().T
    return [dense(ladder.s0), dense(ladder.s1), s2]


def sector_blocks(sectors, a: np.ndarray) -> np.ndarray:
    """The diagonal sector blocks ``(n_blocks, block_dim, block_dim)`` of a
    dense grid matrix ``a``, in sector coordinates."""
    a_sec = sectors.to_sector(sectors.to_sector(a).T).T
    idx = np.arange(sectors.n_blocks)
    m = sectors.block_dim
    return a_sec.reshape(sectors.n_blocks, m, sectors.n_blocks, m)[idx, :, idx, :]


def dense_commutator_norms(ladder, ev) -> dict:
    """Dense oracle of ``expansion.commutator_norms``: ``(|S_j X_l - X_l S_j|_2,
    |X_l|_2)`` keyed by ``(j, l)``, with every ``S_j`` and level inverse
    ``X_l`` formed as a dense matrix over the ladder's core sectors, the
    only ones where an ``S_j`` (and so a commutator) is nonzero and the only
    ones where ``ev`` holds the level inverses."""
    core = list(ladder.core)
    s2 = ladder.b2
    s2 = (np.zeros((0, 0)) if s2 is None
          else ladder.on_core(s2).reshape(-1, s2.shape[1]))
    mats = [dense(ladder.s0[core]), dense(ladder.s1[core]), s2 @ s2.conj().T]
    invs = [dense(ev.g0), dense(ev.h1)]
    if ev.h2 is not None:
        b1 = ladder.on_core(ladder.b1).reshape(-1, ladder.r1)
        invs.append(b1 @ ev.h2 @ b1.conj().T)
    max_level = ladder.terminal_level() - 1
    return {
        (j, level): (linalg.opnorm(mats[j] @ invs[level] - invs[level] @ mats[j]),
                     linalg.opnorm(invs[level]))
        for j in range(max_level + 1) for level in range(j + 1)
    }


def dense_level_inverses(ladder, kappa) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense-path ``G0``, ``H1`` and ``M1`` of a threshold ladder in grid
    coordinates, assembled from grid-basis mode sums with no sector basis:
    the oracle of the block path (``ladder.at(kappa).g0``/``.h1`` on the core
    sectors, ``.m1inv`` the inverse of ``M1``'s other sector blocks)."""
    model, k = ladder.model, complex(kappa)
    x = model.grid.x_nodes
    members = list(ladder.members)
    vt = np.array([model.weighted_mode_vector(n) for n in members])
    u, sv, _ = np.linalg.svd(vt.T, full_matrices=False)
    u_n = u[:, sv > linalg.DEFAULT_RANK_TOL * max(sv.max(initial=0.0), 1e-300)]
    pn = u_n @ u_n.conj().T
    s0 = np.eye(model.dim) - pn
    udiag = np.diag(model.u_diag())

    def group(kk):
        return birman.mode_sum_matrix(
            model, 0.0, members, x_kernel=lambda n: expansion._group_kernel(kk, x)
        )

    others = ladder.other_modes()
    m1 = group(k) + udiag + birman.mode_sum_matrix(model, ladder.lam - k * k, others)
    g0 = linalg.inverse(vt.T @ vt.conj() + 2.0 * k * m1 + s0)
    m10 = group(0.0) + udiag + birman.mode_sum_matrix(model, complex(ladder.lam), others)
    b1 = linalg.kernel_basis(s0 @ m10 @ s0 + pn)
    i1 = (s0 - s0 @ g0 @ s0) / (2.0 * k)
    h1 = linalg.inverse(i1 + b1 @ b1.conj().T + pn) - pn
    return g0, h1, m1


def extended_i1(ladder, kappa) -> np.ndarray:
    """The defining quotient ``I1 = (S0 - S0 G0 S0)/(2 kappa)`` over a
    threshold ladder's core sectors, evaluated in extended precision
    (``np.clongdouble``): the reference of ``ladder.at(kappa).i1``.

    ``S0 G0^-1 = S0 + 2 kappa S0 M1`` needs ``S0 N0 = 0`` and ``S0^2 = S0``,
    which the float64 ``u_n`` and ``N0`` meet only to rounding, and the
    quotient divides that rounding by ``2 kappa``.  So ``u_n`` is first
    orthonormalized by one Newton step and ``N0`` projected onto its span,
    both in extended precision (an O(eps) change of the data, not divided by
    kappa).  ``G0`` is then Newton-refined from ``linalg.inverse`` of the
    float64 ``I0 + S0``, as ``linalg.refined_inverse`` does before its cast,
    and the quotient is taken in that precision."""
    wide, k = np.clongdouble, complex(kappa)
    core = list(ladder.core)
    m1 = ladder.m1(k)[core]
    u = ladder.on_core(ladder.u_n).astype(wide)
    eye = np.eye(u.shape[2], dtype=wide)
    u = u @ (1.5 * eye - 0.5 * (linalg.adjoint(u) @ u).sum(axis=0))
    pn = u @ linalg.adjoint(u)
    s0 = np.eye(pn.shape[-1], dtype=wide) - pn
    a = pn @ ladder.n0[core].astype(wide) @ pn + 2 * wide(k) * m1.astype(wide) + s0
    x = linalg.inverse(ladder.n0[core] + 2.0 * k * m1 + ladder.s0[core]).astype(wide)
    for _ in range(linalg.REFINE_STEPS):
        x = x + x @ (np.eye(a.shape[-1], dtype=wide) - a @ x)
    return (s0 - s0 @ x @ s0) / (2 * wide(k))


def open_sectors(model, lam) -> tuple[np.ndarray, list[int]]:
    """The sector of each open channel at ``lam`` (``-1`` for a mode that
    vanishes on the lattice, 0 for every channel of a coupled model), and the
    sectors that hold one."""
    chans = scattering.open_channels(lam, model)
    mode_sector = model.sectors.mode_sector
    home = (np.zeros(len(chans), dtype=int) if mode_sector is None
            else mode_sector[[n - 1 for n, _ in chans]])
    return home, sorted(set(home[home >= 0].tolist()))


def dense_open_sector_smatrix(model, lam, tail_tol) -> np.ndarray:
    """Dense oracle of ``scattering.channel_smatrix``: the sector blocks of
    :func:`birman.bs_blocks` that hold an open channel (a coupled model's one
    block), inverted with the guarded ``linalg.inverse``, between the
    channels' trace rows in sector coordinates, each on its own sector; a
    channel with no sector keeps its row and column of the identity."""
    sec = model.sectors
    chans = scattering.open_channels(lam, model)
    home, blocks = open_sectors(model, lam)
    n_used, _ = birman._truncation(model, complex(lam), tail_tol)
    inv = linalg.inverse(birman.bs_blocks(model, complex(lam), n_used)[blocks])
    rows = sec.blocked(sec.to_sector(
        np.array([scattering.trace_row(lam, n, s, model) for n, s in chans]).T))
    out = np.eye(len(chans), dtype=complex)
    for i, j in np.ndindex(out.shape):
        if home[i] == home[j] >= 0:
            b = blocks.index(home[i])
            out[i, j] -= 2j * np.pi * rows[home[i], :, i] @ inv[b] @ rows[home[j], :, j].conj()
    return out


def cond_bound(op) -> float:
    """One band's certified condition bound: its norm bound times its
    inverse bound, the per-band factor of ``birman.guard`` where that
    certifies."""
    return op.norm_bound * op._inverse_bound()


def cond_estimate(op) -> float:
    """One band's condition figure: its norm bound times its exact inverse
    norm, the per-band factor of ``birman.guard`` where the bound fails."""
    return op.norm_bound * op._inverse_norm()


def inverse_norm(blocks) -> float:
    """``max_b |A_b^-1|_1`` of dense blocks, from numpy's inverse of each."""
    return max(np.linalg.norm(np.linalg.inv(b), 1) for b in blocks)


def band_det_factors(op) -> tuple[np.ndarray, int]:
    """The node blocks' determinants ``det D_k`` (from the inverses the
    ``BoundaryOperator`` keeps), then U's diagonal of its condensed band LU
    (row ``2 s`` of the ``zgbtrf`` storage, ``s`` the half bandwidth), and
    the number of row interchanges, so that ``det A = (-1)^swaps
    prod(factors)``: ``det A = prod_k det D_k * det K``, because the f/g
    part of the embedding is unit block bidiagonal (``det E = det A``) and
    eliminating each node's values leaves ``det E = det D * det K``; the
    node order is a symmetric permutation of the sector coordinates."""
    factors = np.concatenate([1.0 / np.linalg.det(op.dinv), op.lu[2 * op._width]])
    return factors, int(np.count_nonzero(op.piv != np.arange(op.piv.size)))


def dense_two_term(model, lam, kappa, tail_tol) -> np.ndarray:
    """Dense oracle of an eigenvalue ladder's ``M`` at ``kappa``: the
    two-term formula in grid coordinates on ``birman.bs_operator``'s matrix
    ``T0`` at the certified cutoff, with the kernel of ``T0`` from one dense
    SVD and no sector basis."""
    k = complex(kappa)
    z = lam - k**2
    n_used, _ = birman._truncation(model, complex(lam), tail_tol)
    t0 = birman.bs_operator(model, complex(lam), n_used)
    x = model.grid.x_nodes
    t1 = birman.mode_sum_matrix(
        model, z, list(range(1, n_used + 1)),
        x_kernel=lambda n: birman.free_kernel_matrix_diff(
            z - model.eigenvalue(n), lam - model.eigenvalue(n), x
        ),
    ) / k**2
    basis = linalg.kernel_basis(t0)
    g = linalg.inverse(t0 + k**2 * t1 + basis @ basis.conj().T)
    if not basis.shape[1]:
        return g
    j1 = (np.eye(basis.shape[1]) - basis.conj().T @ g @ basis) / k**2
    return g + (g @ basis) @ (linalg.inverse(j1) / k**2) @ (basis.conj().T @ g)
