"""Channel trace rows, scattering matrices and continuity probes.

A channel is a pair ``(n, sigma)`` of transverse mode and direction, open at
energy ``lam`` when ``lambda_n < lam``.  The trace row of a channel is the
grid functional

    row[(i,k)] = 2^(-1/2) (lam-l_n)^(-1/4) (2 pi)^(-1/2)
                 conj(f_n(omega_i)) exp(-i sigma sqrt(lam-l_n) x_k)
                 v(omega_i, x_k) sqrt(w_I),

i.e. the energy-shell restriction of the unitary Fourier transform composed
with multiplication by ``v``.  The channel scattering matrix is

    S(lam) = 1 - 2 pi i F (u + v R0(lam) v)^-1 F*            (rows stacked)

and near thresholds / eigenvalues the entries are evaluated through the
expansion machinery:

    S(lam-k^2) - delta = -2 pi i F(lam-k^2) M(lam, k) F(lam-k^2)*.

``continuity_probes`` reads these entries along the two approach rays for a
built ladder of either kind (threshold or eigenvalue), with one evaluation
of ``M`` per kappa shared by every channel pair.

The discrete optical identity ``B_n* B_n = Im(v (P_n (x) R0) v)`` holds
exactly on the grid (it pins the Fourier normalization), which makes the
discrete scattering matrix unitary to rounding at regular energies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import birman, expansion, linalg
from .errors import ChannelClosedError, DomainError, EigenvalueHitError
from .expansion import EigenvalueLadder, ThresholdLadder
from .inversion import fit_exponent
from .linalg import opnorm
from .waveguide import WaveguideModel

SMOOTHNESS_STEPS = (1e-2, 5e-3, 2.5e-3, 1.25e-3)  # halving energy steps


def open_channels(lam: float, model: WaveguideModel) -> list[tuple[int, int]]:
    """Channels ``(n, sigma)`` open at ``lam``, mode-major, ``-`` before ``+``."""
    out = []
    for n in range(1, model.n_max + 1):
        if model.eigenvalue(n) < lam:
            out.append((n, -1))
            out.append((n, +1))
    return out


def _row(model: WaveguideModel, n: int, coeff: float, x_factor: np.ndarray) -> np.ndarray:
    """``coeff conj(f_n) (x) x_factor`` composed with ``v``, weighted by
    ``sqrt(w_I)`` and flattened: the body of every channel row."""
    grid = model.grid
    f = model.modes[n - 1].samples
    sw = grid.composite_sqrt_weights().reshape(grid.n_omega, grid.n_x)
    mat = coeff * np.conj(f)[:, None] * x_factor[None, :] * model.potential.v * sw
    return mat.reshape(-1)


def trace_row(lam: float, n: int, sigma: int, model: WaveguideModel) -> np.ndarray:
    """Grid coefficients of the shell functional of channel ``(n, sigma)``
    composed with ``v``; :class:`DomainError` unless ``sigma`` is -1 or +1
    and ``1 <= n <= n_max``, :class:`ChannelClosedError` unless ``lam >
    lambda_n``."""
    if sigma not in (-1, 1) or not 1 <= n <= model.n_max:
        raise DomainError(f"channel (n={n}, sigma={sigma}) needs sigma = -1 or +1 "
                          f"and 1 <= n <= n_max = {model.n_max}")
    ln = model.eigenvalue(n)
    if not lam > ln:
        raise ChannelClosedError(f"channel (n={n}, sigma={sigma:+d}) closed at lam={lam}")
    phase = np.exp(-1j * sigma * math.sqrt(lam - ln) * model.grid.x_nodes)
    coeff = (lam - ln) ** (-0.25) / math.sqrt(2.0) / math.sqrt(2.0 * math.pi)
    return _row(model, n, coeff, phase)


def gamma_row(j: int, n: int, model: WaveguideModel) -> np.ndarray:
    """Row of ``gamma_j(n)`` composed with ``v``: the ``x^j``-moment of the
    mode-``n`` component, normalized by ``1/(2 j! sqrt(pi))``."""
    coeff = 1.0 / (2.0 * math.factorial(j) * math.sqrt(math.pi))
    return _row(model, n, coeff, model.grid.x_nodes**j)


def b_rows(lam: float, n: int, model: WaveguideModel) -> np.ndarray:
    """Stacked ``sqrt(pi) * (row(-), row(+))`` for mode ``n`` at ``lam``.

    Its Gram matrix reproduces the skew part of the mode's sandwiched
    resolvent exactly on the grid (discrete optical identity).
    """
    rm = trace_row(lam, n, -1, model)
    rp = trace_row(lam, n, +1, model)
    return math.sqrt(math.pi) * np.vstack([rm, rp])


@dataclass(frozen=True)
class SMatrix:
    """Open-channel scattering matrix at one energy."""

    lam: float
    channels: tuple[tuple[int, int], ...]
    matrix: np.ndarray
    unitarity_defect: float

    def entry(self, n: int, sigma: int, np_: int, sigmap: int) -> complex:
        i = self.channels.index((n, sigma))
        j = self.channels.index((np_, sigmap))
        return complex(self.matrix[i, j])

    def block(self, members: tuple[int, ...], sigma: int,
              members_p: tuple[int, ...], sigmap: int) -> np.ndarray:
        """Matrix block across two degeneracy groups (fixed directions)."""
        rows = [self.channels.index((n, sigma)) for n in members]
        cols = [self.channels.index((n, sigmap)) for n in members_p]
        return self.matrix[np.ix_(rows, cols)]


def smatrix_bands(lam: float, model: WaveguideModel, tail_tol: float = 1e-4):
    """``(chans, home, blocks, ops)``: the open channels at ``lam``, each
    one's sector (``-1``: its mode vanishes on the lattice; 0 on a coupled
    model), the sectors that hold one and their bands, on which
    :func:`channel_smatrix` and ``scripts/guard_oracle.py`` read the guard."""
    chans = open_channels(lam, model)
    if not chans:
        raise DomainError(f"no open channels at lam={lam}")
    sec = model.sectors
    home = (np.zeros(len(chans), dtype=int) if sec.basis is None
            else sec.mode_sector[[n - 1 for n, _ in chans]])
    blocks = sorted(set(home[home >= 0].tolist()))
    ops = [birman.boundary_operator(lam, model, tail_tol, None if sec.basis is None else b)
           for b in blocks]
    return chans, home, blocks, ops


def channel_smatrix(
    lam: float,
    model: WaveguideModel,
    tail_tol: float = 1e-4,
) -> SMatrix:
    """Assemble ``S(lam)`` over all open channels at a regular energy.

    A channel's trace row lives in its mode's sector and ``A`` is block
    diagonal over the sectors, so on a decomposing model ``S`` is the direct
    sum of one-sector S-matrices, each on its sector's one-block band
    (:func:`smatrix_bands`): entries across sectors are exact zeros, and a
    channel with no sector (its mode vanishes on the lattice) keeps its
    identity row and column.  A coupled model is the one-part case, on its
    whole band.  Past ``COND_LIMIT`` on ``birman.guard`` of the bands (each
    band's certified bound, its exact inverse norm only where the bound
    fails: the band whose channel just opened), :class:`EigenvalueHitError`
    (use the expansion machinery there).
    """
    chans, home, blocks, ops = smatrix_bands(lam, model, tail_tol)
    cond = birman.guard(ops)
    if cond > linalg.COND_LIMIT:
        raise EigenvalueHitError(
            f"boundary operator singular at lam={lam} (guard {cond:.3e}); "
            "use the expansion machinery"
        )
    sec = model.sectors
    rows = sec.blocked(sec.to_sector(np.array([trace_row(lam, n, s, model) for n, s in chans]).T))
    parts = [np.flatnonzero(home == b) for b in blocks]
    rows = [rows[b].T[i] for b, i in zip(blocks, parts)]   # each a new C-ordered array
    # every band solve before the first complex product: after one, OpenBLAS
    # runs a narrow zgbtrs several times slower
    xs = [op.solve(r.conj().T) for op, r in zip(ops, rows)]
    s = np.eye(len(chans), dtype=complex)
    for i, r, x in zip(parts, rows, xs):
        s[np.ix_(i, i)] -= 2j * np.pi * r @ x
    defect = opnorm(s.conj().T @ s - np.eye(len(chans)))
    return SMatrix(lam, tuple(chans), s, defect)


# ---------------------------------------------------------------------------
# Trace-row expansions at a threshold
# ---------------------------------------------------------------------------

OPEN_EXPONENT_TARGET = 3.9     # remainder exponent an open-channel row must reach (4 exact)
OPENING_EXPONENT_TARGET = 1.4  # remainder exponent an opening row must reach (3/2 exact)


@dataclass(frozen=True)
class F0ExpansionReport:
    """Fitted remainder exponents of the two trace-row expansions of
    :func:`f0_expansion_check`.  ``ok`` holds when each reaches its target
    (``OPEN_EXPONENT_TARGET``, ``OPENING_EXPONENT_TARGET``) or its fit used
    fewer than 3 points above the rounding floor."""

    lam: float
    n: int
    sigma: int
    open_exponent: float       # remainder exponent of the open-channel form
    open_n_used: int
    opening_exponent: float    # remainder exponent of the opening form
    opening_n_used: int

    @property
    def ok(self) -> bool:
        open_ok = self.open_exponent >= OPEN_EXPONENT_TARGET or self.open_n_used < 3
        opening_ok = (
            self.opening_exponent >= OPENING_EXPONENT_TARGET or self.opening_n_used < 3
        )
        return open_ok and opening_ok


def f0_expansion_check(
    lam0: float,
    n: int,
    sigma: int,
    kappas,
    model: WaveguideModel,
) -> F0ExpansionReport:
    """Measure both trace-row expansions near the threshold ``lam0``.

    Open channel (``lambda_n < lam0``): the row at ``lam0 - k^2`` minus its
    quadratic model built from the row and its ``x``-weighted companion at
    ``lam0`` must shrink like ``k^4``.  Opening channel (``lambda_n = lam0``,
    approach from the right, ``kappa = -it``): the row must match
    ``t^(-1/2) gamma_0 - i sigma t^(1/2) gamma_1`` up to ``O(t^(3/2))``;
    the opening mode is the first member of the threshold group at ``lam0``.
    """
    ln = model.eigenvalue(n)
    if not ln < lam0:
        raise ChannelClosedError("pass an open channel n; opening mode is separate")
    delta = lam0 - ln
    row0 = trace_row(lam0, n, sigma, model)
    rowq = row0 * np.tile(model.grid.x_nodes, model.grid.n_omega)
    vals = []
    for k in kappas:
        k = complex(k)
        lamk = (lam0 - k**2).real
        actual = trace_row(lamk, n, sigma, model)
        modeled = row0 * (1.0 + k**2 / (4.0 * delta)) + (
            1j * sigma * k**2 / (2.0 * math.sqrt(delta))
        ) * rowq
        vals.append(float(np.linalg.norm(actual - modeled)))
    floor = 1e-12 * max(1.0, float(np.linalg.norm(row0)))
    open_expo, open_used = fit_exponent(kappas, vals, floor)

    m_open = model.group_at(lam0).members[0]
    g0 = gamma_row(0, m_open, model)
    g1 = gamma_row(1, m_open, model)
    vals2, ts = [], []
    for k in kappas:
        t = abs(complex(k))
        ts.append(t)
        lamk = lam0 + t**2          # kappa = -it: z = lam0 + t^2 > lam0
        actual = trace_row(lamk, m_open, sigma, model)
        modeled = t ** (-0.5) * g0 - 1j * sigma * t**0.5 * g1
        vals2.append(float(np.linalg.norm(actual - modeled)))
    floor2 = 1e-12 * max(1.0, float(np.linalg.norm(g0)))
    opening_expo, opening_used = fit_exponent(ts, vals2, floor2)
    return F0ExpansionReport(
        lam0, n, sigma, open_expo, open_used, opening_expo, opening_used
    )


# ---------------------------------------------------------------------------
# Continuity probes
# ---------------------------------------------------------------------------

def _channel_entries(mmat: np.ndarray, lam: float, pairs, model: WaveguideModel) -> list[complex]:
    """Channel entries of ``S(lam)`` for ``pairs`` from a matrix ``mmat`` of
    ``(u + v R0 v)^-1`` at ``lam``, with one trace row per channel."""
    rows = {c: trace_row(lam, *c, model) for c in {c for pair in pairs for c in pair}}
    return [complex((1.0 if c == cp else 0.0) - 2j * np.pi * rows[c] @ mmat @ np.conj(rows[cp]))
            for c, cp in pairs]


def _entries_via_expansion(ladder, kappa: complex, pairs) -> list[complex]:
    """Channel entries of ``S(lam - kappa^2)`` for ``pairs``, from one
    expansion matrix."""
    lamk = (ladder.lam - complex(kappa) ** 2).real
    return _channel_entries(expansion.m_function(ladder, kappa), lamk, pairs, ladder.model)


@dataclass
class ProbeReport:
    """Limit behavior of one channel entry along the two approach rays."""

    lam: float
    chan: tuple[int, int]
    chan_p: tuple[int, int]
    h_values: list[float]
    left_entries: list[complex] = field(default_factory=list)
    right_entries: list[complex] = field(default_factory=list)
    left_cauchy: list[float] = field(default_factory=list)
    right_cauchy: list[float] = field(default_factory=list)
    gap: float | None = None           # |left - right| at the finest h
    gaps_per_h: list[float] = field(default_factory=list)
    terminal_abs: float | None = None  # |entry| at the finest h (right ray)

    def to_dict(self):
        return {
            "lam": self.lam,
            "chan": list(self.chan),
            "chan_p": list(self.chan_p),
            "h_values": self.h_values,
            "left": [[e.real, e.imag] for e in self.left_entries],
            "right": [[e.real, e.imag] for e in self.right_entries],
            "left_cauchy": self.left_cauchy,
            "right_cauchy": self.right_cauchy,
            "gap": self.gap,
            "gaps_per_h": self.gaps_per_h,
            "terminal_abs": self.terminal_abs,
            "fits": {},  # kept for the threshold_scan.json schema
        }


def continuity_probes(
    ladder: ThresholdLadder | EigenvalueLadder,
    pairs: list[tuple[tuple[int, int], tuple[int, int]]],
    h_values,
) -> list[ProbeReport]:
    """Trace channel entries of ``S(lam - kappa^2)`` toward ``ladder.lam``,
    a threshold or an eigenvalue.

    The expansion matrix and each channel's trace row are evaluated once per
    kappa and shared across all pairs.  Left ray ``kappa = h`` (energy below
    ``lam``) is evaluated only for pairs whose channels are both open
    strictly below ``lam``; the right ray ``kappa = -ih`` (energy above)
    always.  Cauchy defects along each ray, the left/right gap and the
    terminal magnitude are recorded per pair (``gap``/``terminal_abs`` refer
    to the finest ``h``); the limits themselves are the caller's assertion.
    Raises :class:`DomainError` when ``h_values`` is empty or holds an ``h``
    that is not finite and positive (``kappa = -ih`` with ``h < 0`` leaves
    the closed fourth quadrant).
    """
    model, lam = ladder.model, ladder.lam
    hs = sorted(float(h) for h in h_values)
    if not hs:
        raise DomainError("continuity probes need at least one h value")
    if not all(math.isfinite(h) and h > 0 for h in hs):
        raise DomainError(f"continuity probes need finite h > 0 (got {hs})")
    reps = [ProbeReport(lam, c, cp, hs) for (c, cp) in pairs]
    left = [i for i, pair in enumerate(pairs)  # both channels open below lam
            if all(model.eigenvalue(n) < lam - 1e-12 for n, _ in pair)]
    for h in hs:
        for rep, e in zip(reps, _entries_via_expansion(ladder, -1j * h, pairs)):
            rep.right_entries.append(e)
        if left:
            entries = _entries_via_expansion(ladder, complex(h), [pairs[i] for i in left])
            for i, e in zip(left, entries):
                reps[i].left_entries.append(e)
    for rep in reps:
        rep.left_cauchy = [abs(a - b) for a, b in zip(rep.left_entries, rep.left_entries[1:])]
        rep.right_cauchy = [abs(a - b) for a, b in zip(rep.right_entries, rep.right_entries[1:])]
        if rep.left_entries:
            rep.gap = abs(rep.left_entries[0] - rep.right_entries[0])
        rep.gaps_per_h = [abs(a - b) for a, b in zip(rep.left_entries, rep.right_entries)]
        rep.terminal_abs = abs(rep.right_entries[0])
    return reps


def row_kernel_fit(
    model: WaveguideModel, lam: float, basis: np.ndarray | None, chan: tuple[int, int], h_values
) -> tuple[float, int]:
    """Vanishing rate of channel ``chan``'s trace row at ``lam - h^2``
    contracted with the columns of ``basis`` (sector coordinates; ``None``
    for an empty kernel): ``(exponent, n_used)`` as from
    :func:`fit_exponent`.

    Expected quadratic for a nontrivial ``ker T0`` of an eigenvalue ladder,
    or ``b1`` of a threshold ladder against an open channel; ``(inf, n < 3)``
    when the contraction vanishes identically (symmetry protection, or an
    empty kernel).
    """
    if basis is None:
        return float("inf"), 0
    hs = sorted(float(h) for h in h_values)
    n, sigma = chan
    basis = model.sectors.to_grid(basis)
    vals = []
    for h in hs:
        row = trace_row(lam - h * h, n, sigma, model)
        vals.append(float(np.linalg.norm(row @ basis)))
    row0 = trace_row(lam, n, sigma, model)
    floor = 1e-12 * max(1.0, float(np.linalg.norm(row0)))
    return fit_exponent(hs, vals, floor)


def smoothness_probe(lam: float, model: WaveguideModel, tail_tol: float = 1e-4) -> list[float]:
    """Cauchy defects of the finite-difference derivative of ``S`` entries
    under step halving through ``SMOOTHNESS_STEPS`` (smoothness off the
    thresholds and eigenvalues); :class:`DomainError` when a threshold lies
    within the largest step, where the channel count changes."""
    h = max(SMOOTHNESS_STEPS)
    if open_channels(lam - h, model) != open_channels(lam + h, model):
        raise DomainError(f"a threshold lies within {h} of lam={lam}: "
                          "the smoothness probe needs one channel set")
    ders = []
    for h in SMOOTHNESS_STEPS:
        sp = channel_smatrix(lam + h, model, tail_tol)
        sm = channel_smatrix(lam - h, model, tail_tol)
        ders.append((sp.matrix - sm.matrix) / (2.0 * h))
    return [float(np.max(np.abs(a - b))) for a, b in zip(ders, ders[1:])]
