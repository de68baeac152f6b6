"""Threshold and embedded-eigenvalue expansion ladders.

At a threshold ``lam`` the sandwiched operator splits as

    u + v R0(lam - k^2) v = (1/(2k)) I0(k),
    I0(k) = N0 + 2k M1(k),
    M1(k) = N1(k) + u + W(k),

with ``N0`` the rank-``|N|`` leading kernel of the threshold group,
``N1(k)`` its regular part (assembled as an exact difference, no small-k
cancellation) and ``W(k)`` the remaining mode sum.  One assembly, ``_m1``,
forms ``M1(k)`` at every kappa; ``M1(0)``, from which the ladder's kappa = 0
data is built, is its value at ``k = 0``, where the regular part's kernel
``(exp(-k y) - 1)/(2k)`` takes its limit ``-y/2``.  Iterating the projection
inversion produces nested kernel projections ``S0 >= S1 >= S2`` plus a
final contour projection ``S3``, and compressed operators ``I1, I2, I3``
whose inverses resolve the four-term expansion

    M(lam, k) = 2k G0 + G0 S0 H1 S0 G0 + (1/k) [...] + (1/k^2) [...],

with ``G0 = (I0(k)+S0)^-1`` and ``H1 = (I1(k)+S1)^-1``.  At an eigenvalue
off the thresholds the two-term form applies instead:

    M(lam, k) = (J0(k)+S)^-1 + (1/k^2)(J0(k)+S)^-1 S J1(k)^-1 S (J0(k)+S)^-1.

A ladder holds the kappa-independent data (projections ``S_j``, level
operators at ``k = 0``).  On a threshold ladder ``ladder.at(k)`` returns one
immutable evaluation with every kappa-dependent operator down to the
terminal level, each computed once: ``G0``, ``I1 = S0 M1 G0 S0`` (the product
form of ``(S0 - S0 G0 S0)/(2k)``), ``H1``, ``I2``, ``(I2+S2)^-1``, ``I3``, ``I3^-1``.
``ladder.terms(k)`` gives the expansion terms at one kappa, one block
stack and at most one low-rank product (from one evaluation on a threshold
ladder, from ``(J0+S)^-1`` and ``J1`` on an eigenvalue ladder), and
``m_function`` sums the two for either kind of ladder.

Both ladders work in the model's sector coordinates (``model.sectors``):
where the transverse sectors decouple, every level operator (``T0`` and
``J0`` on an eigenvalue ladder) is a stack of ``n_omega`` blocks of size
``n_x``, inverted block by block; any other model is one block of size
``dim``, on the same code.  ``m_function`` embeds the sum once into the
dense grid-basis matrix.

A threshold ladder is a direct sum over the sectors.  ``N0``, ``P_N`` and
``S1`` (and so ``S2`` and ``S3``) live in its ``core``, the sectors that
hold the threshold group's vectors or a level-1 kernel.  On any other
sector ``S0 = 1`` and the operator is ``M1(k)``: ``G0 = (1 + 2k M1)^-1``,
``H1 = G0^-1 M1^-1``, and the block of ``M`` is ``2k G0 + G0 H1 G0 =
M1(k)^-1`` exactly.  The levels run on the core sectors only; every other
block of ``M`` is one guarded inverse of ``M1(k)``, free of the eps/|k|
cancellation of the composed form.  A one-block model's core is its block.

Off the rays (``Re k > 0 > Im k``) ``oracle_error`` measures the sum against
a dense inverse assembled in grid coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import birman, linalg
from .errors import (
    AccuracyError,
    DomainError,
    HypothesisError,
    StructuralError,
)
from .inversion import fit_exponent, skew_part_psd, two_term_invert
from .linalg import DEFAULT_RANK_TOL, Projection, opnorm
from .waveguide import Sectors, WaveguideModel

STRUCT_TOL = 1e-8        # defect tolerance of the structural identities
KAPPA_PER_DECADE = 8     # |kappa| samples per decade on each structural ray
CERTIFICATE_TOL = 1e-10  # level-1 positivity defect allowed, relative to max(1, |M10|)


def _group_kernel(kappa: complex, x_nodes: np.ndarray) -> np.ndarray:
    """Regular part ``(exp(-k y) - 1) / (2 k)`` of the threshold group's
    longitudinal kernel (the full kernel minus its ``1/(2k)`` singular part),
    ``y = |x - x'|``; at ``k = 0`` its limit ``-y/2``."""
    y = np.abs(x_nodes[:, None] - x_nodes[None, :])
    if kappa == 0:
        return -y / 2.0 + 0j
    return np.expm1(-kappa * y) / (2.0 * kappa)


def _m1(model: WaveguideModel, lam: float, members: tuple[int, ...], others: list[int],
        u: np.ndarray, kappa: complex) -> np.ndarray:
    """``M1(k) = N1(k) + u + W(k)`` as sector blocks: the group modes
    ``members`` through :func:`_group_kernel` (an exact difference, no
    small-k cancellation), the potential's sign stack ``u`` and the mode sum
    over the ``others`` at ``z = lam - k^2``.  At ``k = 0`` this is ``M1(0)``."""
    kernel = _group_kernel(kappa, model.grid.x_nodes)
    n1 = birman.mode_sum_blocks(model, 0.0, list(members), x_kernel=lambda n: kernel)
    return n1 + u + birman.mode_sum_blocks(model, lam - kappa**2, others)


def kappa_sample_paths(lo: float = 1e-4, hi: float = 1e-2) -> dict[str, np.ndarray]:
    """Geometric |kappa| grids on the two boundary rays and the diagonal,
    ``KAPPA_PER_DECADE`` points per decade."""
    ndec = np.log10(hi / lo)
    ts = np.geomspace(lo, hi, max(2, int(round(ndec * KAPPA_PER_DECADE)) + 1))
    diag = (1.0 - 1.0j) / np.sqrt(2.0)
    return {
        "left": ts.astype(complex),   # kappa = t    -> z < lam
        "right": -1j * ts,            # kappa = -it  -> z > lam
        "diagonal": diag * ts,        # interior ray
    }


# ---------------------------------------------------------------------------
# Threshold ladder
# ---------------------------------------------------------------------------

def _direct_sum(core: tuple[int, ...], on_core: np.ndarray, off_core: np.ndarray) -> np.ndarray:
    """The block stack holding ``on_core`` at the sectors ``core`` and
    ``off_core`` at the others, in sector order (``on_core`` itself when no
    sector is off the core)."""
    if not len(off_core):
        return on_core
    out = np.empty((len(core) + len(off_core), *on_core.shape[1:]), dtype=complex)
    on = np.zeros(len(out), dtype=bool)
    on[list(core)] = True
    out[on], out[~on] = on_core, off_core
    return out


@dataclass(frozen=True)
class LadderEvaluation:
    """Every kappa-dependent operator of a threshold ladder at one kappa.

    The ladder is a direct sum over the sectors: the levels run on its
    ``core`` sectors only, and on every other sector the operator is
    ``M1(kappa)``, whose inverse ``m1inv`` is the sector's block of ``M``.
    ``g0 = (I0+S0)^-1``, ``i1`` and ``h1 = (I1+S1)^-1`` (extended by zero
    outside ``S0 H``) are block stacks over the core sectors, in sector
    coordinates, and ``m1inv`` the stack over the others; ``h2 = (I2+S2)^-1``
    lives in S1 coordinates and ``i3c``/``i3inv = I3^-1`` in S2 coordinates.
    Entries below the ladder's terminal level are ``None``.
    """

    kappa: complex
    core: tuple[int, ...]
    g0: np.ndarray
    i1: np.ndarray
    h1: np.ndarray
    m1inv: np.ndarray
    h2: np.ndarray | None = None
    i3c: np.ndarray | None = None
    i3inv: np.ndarray | None = None

    @property
    def terminal_inverse(self) -> np.ndarray:
        """The deepest compressed inverse of the whole operator: ``H1`` (a
        stack over every sector), ``(I2+S2)^-1`` or ``I3^-1``.  Off the core
        ``H1 = G0^-1 M1^-1 = M1^-1 + 2 kappa``, since ``G0 = (1 + 2 kappa M1)^-1``
        there."""
        if self.i3inv is not None:
            return self.i3inv
        if self.h2 is not None:
            return self.h2
        eye = np.eye(self.h1.shape[-1], dtype=complex)
        return _direct_sum(self.core, self.h1, self.m1inv + 2.0 * self.kappa * eye)


@dataclass
class ThresholdLadder:
    """All kappa-independent data of the expansion at one threshold.

    Everything lives in the model's sector coordinates (``model.sectors``):
    level operators are block stacks ``(n_blocks, m, m)``; the threshold
    vectors (rows) and the bases ``u_n`` and ``b1`` (columns, each supported
    on one block) are ``dim`` long, in sector order.  ``core`` lists the
    sectors where ``u_n`` or ``b1`` has support (``b2`` and ``S3`` lie in
    ``b1``'s span): off the core ``N0``, ``P_N`` and ``S1`` vanish, so the
    operator there is ``M1(kappa)`` and needs no level of the ladder.
    ``m10_norm`` is ``|M1(0)|``, formed once by the builder for the level-1
    certificate and read by :func:`verify_structural_lemmas` and
    :func:`ladder_report`.
    """

    model: WaveguideModel
    lam: float
    members: tuple[int, ...]
    eps: float
    n_used: int
    tail_bound: float
    # level 0
    vtil: np.ndarray          # (|N|, dim) weighted threshold vectors
    u_n: np.ndarray           # (dim, rank N0) orthonormal basis of span(vtil)
    pn: np.ndarray            # projector onto span(vtil)
    s0: np.ndarray            # I - pn
    n0: np.ndarray
    n20: np.ndarray
    u: np.ndarray             # the potential's sign u as a stack
    m10: np.ndarray
    m10_norm: float           # |M1(0)|
    g00: np.ndarray           # (N0 + S0)^-1, exact block form
    # level 1
    i10: np.ndarray           # I1(0) = S0 M1(0) S0
    b1: np.ndarray | None     # (dim, r1) kernel basis of I1(0) inside S0 H
    s1: np.ndarray            # b1 b1^*
    core: tuple[int, ...]     # sectors where u_n or b1 has support
    # level 2
    i2c0: np.ndarray | None   # (r1, r1)
    kc2: np.ndarray | None    # (r1, r2) kernel basis of I2(0) in S1 coordinates
    # level 3
    i3c0: np.ndarray | None = None
    s3c: Projection | None = None

    # -- static structure ----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.model.dim

    @property
    def sectors(self) -> Sectors:
        return self.model.sectors

    @property
    def off_core(self) -> list[int]:
        return [b for b in range(self.sectors.n_blocks) if b not in self.core]

    @property
    def r1(self) -> int:
        return 0 if self.b1 is None else self.b1.shape[1]

    @property
    def r2(self) -> int:
        return 0 if self.kc2 is None else self.kc2.shape[1]

    @property
    def b2(self) -> np.ndarray | None:
        if self.kc2 is None or self.b1 is None:
            return None
        return self.b1 @ self.kc2

    def terminal_level(self) -> int:
        if self.r1 == 0:
            return 1
        if self.r2 == 0:
            return 2
        return 3

    def on_core(self, q: np.ndarray) -> np.ndarray:
        """Sector-coordinate columns ``(dim, r)`` as per-block rows over the
        core sectors, ``(len(core), block_dim, r)``."""
        return self.sectors.blocked(q)[list(self.core)]

    # -- kappa-dependent operators --------------------------------------------

    def other_modes(self) -> list[int]:
        return [n for n in range(1, self.n_used + 1) if n not in self.members]

    def m1(self, kappa: complex) -> np.ndarray:
        if kappa == 0:
            return self.m10
        return _m1(self.model, self.lam, self.members, self.other_modes(), self.u, kappa)

    def g0(self, kappa: complex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``((I0(kappa) + S0)^-1, M1(kappa)^-1, M1(kappa))`` at ``kappa != 0``
        from one ``M1(kappa)``, with ``I0(kappa) = N0 + 2 kappa M1(kappa)``:
        the first and last over the core sectors, the inverse over the others."""
        m1 = self.m1(kappa)
        core = list(self.core)
        # m1[core] is a fresh array, which numpy reuses in place for the
        # product with a Python complex kappa: that fixes the operand order,
        # and so the rounding, of the complex product (a view would not be
        # reused, and would round differently on a one-block model)
        g0 = linalg.inverse(self.n0[core] + 2.0 * kappa * m1[core] + self.s0[core])
        return g0, linalg.inverse(m1[self.off_core]), m1[core]

    def at(self, kappa: complex) -> LadderEvaluation:
        """The ladder at ``kappa != 0``, on the core sectors: each level inverse
        computed once, down to the terminal level, and no division by kappa
        before level 2; every other sector's block is one inverse of ``M1(kappa)``."""
        if kappa == 0:
            raise DomainError("the ladder is evaluated at kappa != 0 only")
        # one scalar type, so the bits do not depend on the caller's kappa type
        kappa = complex(kappa)
        g0, m1inv, m1 = self.g0(kappa)
        core = list(self.core)
        u = self.on_core(self.u_n)
        uh = linalg.adjoint(u)
        # I1 = (S0 - S0 G0 S0)/(2 kappa) = S0 M1 G0 S0 since S0 (I0 + S0) = S0 +
        # 2 kappa S0 M1; S0 through rank updates rather than projector products
        ts = m1 @ g0 - m1 @ (g0 @ u) @ uh
        i1 = ts - u @ (uh @ ts)
        # I1 + S1 + P_N is the identity on the complement of S0 H
        pn = self.pn[core]
        h1 = linalg.inverse(i1 + self.s1[core] + pn) - pn
        levels = (kappa, self.core, g0, i1, h1, m1inv)
        if self.b1 is None:
            return LadderEvaluation(*levels)
        b1 = self.on_core(self.b1)
        i2c = (np.eye(self.r1, dtype=complex) - (linalg.adjoint(b1) @ h1 @ b1).sum(axis=0)) / kappa
        s2c = (
            self.kc2 @ self.kc2.conj().T
            if self.kc2 is not None
            else np.zeros((self.r1, self.r1), dtype=complex)
        )
        h2 = linalg.inverse(i2c + s2c)
        if self.kc2 is None:
            return LadderEvaluation(*levels, h2)
        i3c = (np.eye(self.r2, dtype=complex) - self.kc2.conj().T @ h2 @ self.kc2) / kappa
        # s3c is unset only while the builder extrapolates I3(0) from i3c
        i3inv = None if self.s3c is None else two_term_invert(i3c, self.s3c)
        return LadderEvaluation(*levels, h2, i3c, i3inv)

    def terms(self, kappa: complex) -> tuple[np.ndarray, tuple | None]:
        """The four-term expansion at ``kappa != 0`` in sector coordinates:
        the block term as one stack, ``2k G0 + G0 H1 G0`` on the core sectors
        and ``M1^-1`` on the others, then the ``1/k`` and ``1/k^2`` terms as
        one ``(left, core, right)`` product (the two share their thin
        factors, which vanish off the core), ``None`` when ``r1 = 0``."""
        k = complex(kappa)
        ev = self.at(k)
        g0k, h1, h2 = ev.g0, ev.h1, ev.h2
        block = _direct_sum(self.core, 2.0 * k * g0k + g0k @ h1 @ g0k, ev.m1inv)
        if self.r1 == 0:
            return block, None
        b1 = self.on_core(self.b1)
        sec = self.sectors
        left = np.zeros((sec.n_blocks, sec.block_dim, self.r1), dtype=complex)
        right = np.zeros((sec.n_blocks, self.r1, sec.block_dim), dtype=complex)
        left[list(self.core)] = g0k @ (h1 @ b1)
        right[list(self.core)] = (linalg.adjoint(b1) @ h1) @ g0k
        mid = h2 / k
        if self.r2 > 0:
            mid = mid + (h2 @ self.kc2) @ ev.i3inv @ (self.kc2.conj().T @ h2) / k**2
        return block, (left.reshape(self.dim, -1), mid, sec.rows(right))


def _level0_data(model: WaveguideModel, lam: float, eps: float, tail_tol: float) -> dict:
    """Kappa-independent level-0 assembly shared by the ladder builder and
    the resonance-gap probe (both must see the identical operator): the
    ladder fields up to ``I1(0)``, keyed by field name, without the ones
    only the builder reads (``N0``, ``N2``, ``(N0 + S0)^-1``).  Block stacks
    and bases in sector coordinates.  ``lam`` may be off the threshold by
    ``THRESHOLD_REL_TOL`` (what ``model.group_at`` accepts); the data, and
    the field ``lam``, are those of the threshold itself, where the group's
    ``mu`` is exactly ``i kappa``."""
    group = model.group_at(lam)
    lam = group.value
    # mode count fixed at the threshold; the kappa excursion moves Re z by
    # at most eps^2, absorbed in the gap margin
    n_used, tail_bound = birman._choose_n_used(model, complex(lam + eps**2), tail_tol)
    members = tuple(n for n in group.members if n <= n_used)
    if members != group.members:
        raise DomainError("threshold group extends beyond the retained modes")

    sec = model.sectors
    vtil = sec.to_sector(np.array([model.weighted_mode_vector(n) for n in members]).T).T
    # one QR per block of the threshold vectors' restrictions (rounding-level
    # restrictions left out); the rank cut is relative to the largest R
    # diagonal over all blocks
    blocks = sec.blocked(vtil.T)
    norms = np.linalg.norm(blocks, axis=1)
    present = norms > DEFAULT_RANK_TOL * norms.max(initial=0.0)
    factors = [np.linalg.qr(vb[:, keep]) for vb, keep in zip(blocks, present)]
    rmax = max([np.abs(np.diag(r)).max(initial=0.0) for _, r in factors] + [1e-300])
    u_n = sla.block_diag(
        *(q[:, np.abs(np.diag(r)) > DEFAULT_RANK_TOL * rmax] for q, r in factors)
    ).astype(complex)

    others = [n for n in range(1, n_used + 1) if n not in members]
    u = sec.diagonal(model.potential.u)
    m10 = _m1(model, lam, members, others, u, 0.0)

    ub = sec.blocked(u_n)
    pn = ub @ linalg.adjoint(ub)
    s0 = np.eye(sec.block_dim, dtype=complex) - pn
    return {
        "lam": lam, "n_used": n_used, "tail_bound": tail_bound, "members": members, "vtil": vtil,
        "u_n": u_n, "u": u, "m10": m10, "pn": pn, "s0": s0, "i10": s0 @ m10 @ s0,
    }


def level1_kernel_gap(
    model: WaveguideModel, lam: float, eps: float = 1e-2, tail_tol: float = 1e-3
) -> float:
    """Smallest singular value of the level-1 operator inside ``S0 H``
    (the smallest over its sector blocks).

    A value at rounding scale signals a threshold resonance or a threshold
    eigenvalue of the discrete family (the ladder then carries a nontrivial
    level-1 kernel).  Used to tune critical couplings.  The level-0 span is
    cut at ``linalg.DEFAULT_RANK_TOL``, as in the ladder builder.
    """
    d = _level0_data(model, lam, eps, tail_tol)
    sv = np.linalg.svd(d["i10"] + d["pn"], compute_uv=False)
    return float(sv.min())


def build_threshold_ladder(
    model: WaveguideModel,
    lam: float,
    eps: float = 1e-2,
    tail_tol: float = 1e-3,
) -> ThresholdLadder:
    """Assemble the kappa-independent ladder data at threshold ``lam``
    (snapped to the threshold group's value, as ``model.group_at`` finds it).

    Every kernel (the level-0 span and the level-1 and level-2 kernels) is
    detected at ``linalg.DEFAULT_RANK_TOL``.  The positivity certificate of
    the orthogonal-projection levels (the skew part of the level-1
    compression must be positive semidefinite, and the level-2 compression
    self-adjoint) is asserted, the first to ``CERTIFICATE_TOL``; failure
    raises :class:`StructuralError` because every later step builds on it.
    """
    d0 = _level0_data(model, lam, eps, tail_tol)
    m10, i10 = d0["m10"], d0["i10"]
    sec = model.sectors
    u_n = sec.blocked(d0["u_n"])
    vt = sec.blocked(d0["vtil"].T)
    n0 = np.zeros((sec.n_blocks, sec.block_dim, sec.block_dim), dtype=complex)
    for i in range(vt.shape[2]):
        n0 += vt[:, :, i, None] * vt[:, None, :, i].conj()
    x = model.grid.x_nodes
    quadratic = (x[:, None] - x[None, :]) ** 2 / 4.0 + 0j
    n20 = birman.mode_sum_blocks(model, 0.0, list(d0["members"]), x_kernel=lambda n: quadratic)
    # exact (N0 + S0)^-1: block inverse on span(vtil), identity on its kernel
    if u_n.shape[2]:
        core = (linalg.adjoint(u_n) @ n0 @ u_n).sum(axis=0)
        g00 = d0["s0"] + u_n @ linalg.inverse(core) @ linalg.adjoint(u_n)
    else:
        g00 = np.broadcast_to(np.eye(sec.block_dim, dtype=complex), n0.shape).copy()

    # level 1: ker(I1(0)) inside S0 H == ker(I1(0) + P_N)
    m10_norm = opnorm(m10)
    im_defect = linalg.skew_defect(i10)
    if im_defect > CERTIFICATE_TOL * max(1.0, m10_norm):
        raise StructuralError(
            f"level-1 positivity certificate failed (defect {im_defect:.3e})"
        )
    b1_full = linalg.kernel_basis(i10 + d0["pn"])
    b1 = b1_full if b1_full.shape[1] else None

    i2c0 = kc2 = None
    if b1 is not None:
        b1b = sec.blocked(b1)
        part_a = (linalg.adjoint(b1b) @ n20 @ b1b).sum(axis=0)
        part_b = 2.0 * (linalg.adjoint(b1b) @ m10 @ g00 @ m10 @ b1b).sum(axis=0)
        i2c0 = part_a - part_b
        herm = opnorm(i2c0 - i2c0.conj().T)
        scale2 = max(opnorm(part_a), opnorm(part_b), 1.0)
        if herm > 1e-10 * scale2:
            raise StructuralError(
                f"level-2 self-adjointness certificate failed ({herm:.3e})"
            )
        # kernel detection against the scale of the constituents, not of the
        # (possibly exactly cancelling) difference
        kc2_b = linalg.kernel_basis(i2c0, scale=scale2)
        kc2 = kc2_b if kc2_b.shape[1] else None

    # S0, S1, S2 are orthogonal projections exactly when their bases are
    # orthonormal
    for name, q in (("u_n", d0["u_n"]), ("b1", b1), ("b2", None if kc2 is None else b1 @ kc2)):
        if q is not None and opnorm(q.conj().T @ q - np.eye(q.shape[1])) > 1e-10:
            raise AccuracyError(f"basis {name} is not orthonormal to tolerance")

    b1_blocks = sec.blocked(b1_full)
    support = np.any(u_n != 0, axis=(1, 2)) | np.any(b1_blocks != 0, axis=(1, 2))
    ladder = ThresholdLadder(
        model=model,
        eps=eps,
        **d0,
        m10_norm=m10_norm,
        n0=n0,
        n20=n20,
        g00=g00,
        b1=b1,
        s1=b1_blocks @ linalg.adjoint(b1_blocks),
        core=tuple(int(b) for b in np.flatnonzero(support)),
        i2c0=i2c0,
        kc2=kc2,
    )

    if kc2 is not None:
        # I3(0) by polynomial extrapolation along the real ray
        ks = np.array([eps * 0.04, eps * 0.02, eps * 0.01])
        vals = np.array([ladder.at(float(k)).i3c for k in ks])
        coef = np.polyfit(ks, vals.reshape(ks.size, -1), 2)
        ladder.i3c0 = np.ascontiguousarray(coef[-1].reshape(vals.shape[1:]))
        ladder.s3c = linalg.riesz_projection_at_zero(ladder.i3c0)

    return ladder


# ---------------------------------------------------------------------------
# Eigenvalue ladder
# ---------------------------------------------------------------------------

@dataclass
class EigenvalueLadder:
    """Two-term expansion data at ``lam`` off the threshold set, in sector
    coordinates as on a :class:`ThresholdLadder` (``t0``, ``s``: stacks)."""

    model: WaveguideModel
    lam: float
    eps: float
    n_used: int
    t0: np.ndarray             # T0 = u + v R0(lam) v
    basis: np.ndarray | None   # (dim, r) kernel basis of T0; None when regular
    s: np.ndarray              # basis basis^*, the projection onto ker T0
    t0b: np.ndarray            # T0 b per block (rounding-scale: b spans ker T0)

    @property
    def rank(self) -> int:
        return 0 if self.basis is None else self.basis.shape[1]

    def t1(self, kappa: complex) -> np.ndarray:
        """``(1/k^2) sum_n v {P_n (x) (R0(z-l_n) - R0(lam-l_n))} v`` with the
        cancellation-free kernel difference."""
        if kappa == 0:
            raise DomainError("t1 requires kappa != 0")
        z = self.lam - complex(kappa) ** 2
        x = self.model.grid.x_nodes
        diff = birman.mode_sum_blocks(
            self.model, z, list(range(1, self.n_used + 1)),
            x_kernel=lambda n: birman.free_kernel_matrix_diff(
                z - self.model.eigenvalue(n), self.lam - self.model.eigenvalue(n), x
            ),
        )
        return diff / complex(kappa) ** 2

    def terms(self, kappa: complex) -> tuple[np.ndarray, tuple | None]:
        """The two-term expansion at ``kappa != 0`` as
        :meth:`ThresholdLadder.terms` gives it: ``(J0+S)^-1`` as a stack and
        the ``1/k^2`` term built from ``J1`` (in S coordinates) as a
        ``(left, core, right)`` product, ``None`` when ``ker T0`` is trivial.  With
        ``g = (J0+S)^-1``, ``J1 = (1 - b* g b)/k^2 = b* g J0 b/k^2`` exactly, so
        it is formed without subtraction as ``b* g T1 b + b* g (T0 b)/k^2``."""
        k = complex(kappa)
        t1 = self.t1(k)
        g = linalg.inverse(self.t0 + k**2 * t1 + self.s)  # (J0 + S)^-1
        if self.basis is None:
            return g, None
        sec = self.model.sectors
        b = sec.blocked(self.basis)
        bg = linalg.adjoint(b) @ g
        j1 = (bg @ (t1 @ b)).sum(axis=0) + (bg @ self.t0b).sum(axis=0) / k**2
        left = (g @ b).reshape(self.model.dim, -1)
        return g, (left, linalg.inverse(j1) / k**2, sec.rows(bg))


def build_eigenvalue_ladder(
    model: WaveguideModel,
    lam: float,
    eps: float = 1e-2,
    tail_tol: float = 1e-3,
) -> EigenvalueLadder:
    """Assemble the two-term ladder at ``lam`` (eigenvalue or regular point).

    ``lam`` must keep its kappa excursion clear of every threshold.  The
    kernel of the boundary operator is detected at
    ``linalg.DEFAULT_RANK_TOL``; an empty kernel yields the regular-point
    ladder (plain inverse).
    """
    for n in range(1, model.n_max + 2):
        if abs(model.eigenvalue(n) - lam) <= 4 * eps**2:
            raise DomainError(
                f"lam = {lam} is within the kappa excursion of threshold lambda_{n}"
            )
    n_used, _ = birman._truncation(model, complex(lam), tail_tol)
    t0 = birman.bs_blocks(model, complex(lam), n_used)
    d, psd = skew_part_psd(t0)
    if not psd:
        raise HypothesisError(f"skew part of T0 not positive semidefinite ({d:.3e})")
    basis = linalg.kernel_basis(t0)
    b = model.sectors.blocked(basis)
    return EigenvalueLadder(
        model=model,
        lam=lam,
        eps=eps,
        n_used=n_used,
        t0=t0,
        basis=basis if basis.shape[1] else None,
        s=b @ linalg.adjoint(b),
        t0b=t0 @ b,
    )


# ---------------------------------------------------------------------------
# The expansion of either ladder
# ---------------------------------------------------------------------------

def direct_inverse(model: WaveguideModel, lam: float, kappa: complex, n_used: int) -> np.ndarray:
    """Dense inverse of the directly assembled ``u + v R0(lam - k^2) v``.

    Independent route: every retained mode enters through its full free
    kernel in grid coordinates (no singular-part split, no sector basis),
    a genuine oracle for the expansion formulas at the same truncation.
    """
    return linalg.inverse(birman.bs_operator(model, lam - complex(kappa) ** 2, n_used))


def oracle_error(ladder: ThresholdLadder | EigenvalueLadder, kappa: complex,
                 m: np.ndarray) -> float:
    """Relative Frobenius distance of the expansion ``m`` at ``kappa`` from
    :func:`direct_inverse`; ``kappa`` must lie strictly inside the sector."""
    k = complex(kappa)
    if not (k.real > 0 and k.imag < 0):
        raise DomainError("the dense oracle needs kappa strictly inside the sector")
    direct = direct_inverse(ladder.model, ladder.lam, k, ladder.n_used)
    return float(np.linalg.norm(m - direct) / max(np.linalg.norm(direct), 1e-300))


def m_function(ladder: ThresholdLadder | EigenvalueLadder, kappa: complex) -> np.ndarray:
    """Evaluate the expansion of ``(u + v R0(lam-k^2) v)^-1`` at ``kappa``:
    the four-term form at a threshold (``M1(k)^-1`` on the sectors off a
    threshold ladder's core), the two-term form at an eigenvalue or regular
    point.  The block stack of :meth:`terms` is embedded once into the
    grid-basis matrix and the low-rank product added through its thin
    factors.  :func:`oracle_error` measures it against the dense oracle.
    """
    if kappa == 0:
        raise DomainError("the expansion is evaluated at kappa != 0 only")
    if abs(kappa) > ladder.eps:
        raise DomainError(f"|kappa| = {abs(kappa):.3e} outside the ladder region")
    k = complex(kappa)
    block, product = ladder.terms(k)
    # left to right: the order fixes the rounding; the block term is
    # embedded once, the product through its thin factors
    sec = ladder.model.sectors
    out = sec.grid_blocks(block)
    if product is not None:
        left, core, right = product
        out += (sec.to_grid(left) @ core) @ sec.to_grid(right.T).T
    return out


# ---------------------------------------------------------------------------
# Structural report
# ---------------------------------------------------------------------------

@dataclass
class CheckLine:
    name: str
    value: float
    tol: float | None
    passed: bool | None        # None marks informational lines
    note: str = ""

    def to_dict(self):
        return {"name": self.name, "value": float(self.value),
                "tol": None if self.tol is None else float(self.tol),
                "passed": None if self.passed is None else bool(self.passed),
                "note": self.note}


@dataclass
class FitLine:
    name: str
    exponent: float
    target: float
    n_used: int
    passed: bool
    note: str = ""

    def to_dict(self):
        return {"name": self.name, "exponent": float(self.exponent),
                "target": float(self.target), "n_used": int(self.n_used),
                "passed": bool(self.passed), "note": self.note}


@dataclass
class StructuralReport:
    lam: float
    ranks: dict
    checks: list[CheckLine]
    fits: list[FitLine]

    @property
    def ok(self) -> bool:
        return all(c.passed is not False for c in self.checks) and all(
            f.passed for f in self.fits
        )

    def to_dict(self):
        return {
            "lam": float(self.lam),
            "ranks": {k: int(v) for k, v in self.ranks.items()},
            "ok": bool(self.ok),
            "checks": [c.to_dict() for c in self.checks],
            "fits": [f.to_dict() for f in self.fits],
        }


def commutator_norm(q: np.ndarray, xq: np.ndarray, xhq: np.ndarray) -> float:
    """``|[Q Q^*, X]|_2`` from orthonormal columns ``Q`` and the thin products
    ``X Q`` and ``X^* Q``: the commutator is ``L R^*`` with ``L = [Q, -X Q]``
    and ``R = [X^* Q, Q]``, a rank-``2r`` product (``[S0, X] = -[P_N, X]``
    gives ``S0`` through ``Q = u_n``)."""
    return linalg.thin_product_norm(np.hstack([q, -xq]), np.hstack([xhq, q]))


def commutator_norms(ladder: ThresholdLadder, ev: LadderEvaluation) -> dict:
    """``|[S_j, X_l]|_2`` for ``l <= j`` below the terminal level, keyed by
    ``(j, l)``: ``S_j`` through its basis (``u_n``, ``b1``, ``b2``) and the
    level inverses ``X_0 = G0``, ``X_1 = H1``, ``X_2 = b1 (I2+S2)^-1 b1^*``
    through their products with it, in sector coordinates.  No
    ``dim x dim`` product is formed.  Every ``S_j`` vanishes off the core
    sectors, so the products are formed there and are zero elsewhere."""
    max_level = ladder.terminal_level() - 1
    bases = (ladder.u_n, ladder.b1, ladder.b2)
    core = list(ladder.core)
    out = {}
    for j in range(max_level + 1):
        q = bases[j]
        qb = ladder.on_core(q)
        for level in range(j + 1):
            if level < 2:
                x = (ev.g0, ev.h1)[level]
                xq, xhq = np.zeros((2, *ladder.sectors.blocked(q).shape), dtype=complex)
                xq[core] = x @ qb
                xhq[core] = linalg.adjoint(linalg.adjoint(qb) @ x)
                xq, xhq = xq.reshape(q.shape), xhq.reshape(q.shape)
            else:
                c = ladder.b1.conj().T @ q
                xq = ladder.b1 @ (ev.h2 @ c)
                xhq = ladder.b1 @ (ev.h2.conj().T @ c)
            out[(j, level)] = commutator_norm(q, xq, xhq)
    return out


def verify_structural_lemmas(
    ladder: ThresholdLadder,
    kappa_lo: float = 1e-4,
    kappa_hi: float = 1e-2,
) -> StructuralReport:
    """Measure every structural identity of the ladder and fit the kappa
    growth exponents of the commutators.  Report-only: a failed check is a
    report line, not an exception.

    Identity defects are judged at ``STRUCT_TOL``, ranks at
    ``linalg.DEFAULT_RANK_TOL``, and the kappa samples come from
    :func:`kappa_sample_paths` on ``[kappa_lo, kappa_hi]``
    (``KAPPA_PER_DECADE`` per decade); unless ``0 < kappa_lo < kappa_hi <=
    eps`` (the ladder's), :class:`DomainError` is raised, as
    :func:`m_function` does outside its region.  The
    report works in the ladder's sector coordinates, where every 2-norm is
    the grid one.  Norms that involve ``S_j`` are taken from its orthonormal
    basis (thin factors, no dense ``S_j``); the SVD kernel projector of
    ``N0`` that ``S0`` is checked against is a block stack.

    Identically vanishing quantities (for instance symmetry-protected rows)
    pass their growth targets vacuously and are flagged in the notes.
    """
    from . import scattering  # deferred import; scattering builds on this module

    if not 0 < kappa_lo < kappa_hi:
        raise DomainError(f"kappa_lo = {kappa_lo}, kappa_hi = {kappa_hi}; "
                          "need 0 < kappa_lo < kappa_hi")
    if kappa_hi > ladder.eps:
        raise DomainError(f"kappa_hi = {kappa_hi:.3e} outside the ladder region "
                          f"|kappa| <= eps = {ladder.eps:.3e}")
    checks: list[CheckLine] = []
    fits: list[FitLine] = []
    model = ladder.model
    sec = ladder.sectors
    tol = STRUCT_TOL
    u_n, b1, b2 = ladder.u_n, ladder.b1, ladder.b2

    # one SVD per block of N0 gives its norm, its rank and the independent
    # kernel projector
    _, sv, vh = np.linalg.svd(ladder.n0)
    n0_norm = float(sv.max(initial=0.0))
    rank_n0 = int(np.sum(sv > DEFAULT_RANK_TOL * max(n0_norm, 1e-300)))
    checks.append(
        CheckLine("leading_kernel_rank_at_most_group_size",
                  float(rank_n0), float(len(ladder.members)),
                  rank_n0 <= len(ladder.members))
    )

    v_ker = sec.blocked(linalg.kernel_from_svd(sv, vh))
    s0_svd = v_ker @ linalg.adjoint(v_ker)
    agree = opnorm(s0_svd - ladder.s0)
    checks.append(CheckLine("s0_svd_vs_span_construction", agree, 1e-9, agree <= 1e-9))

    d_vec = max(
        [np.linalg.norm(s0_svd @ sec.blocked(v)) / max(np.linalg.norm(v), 1e-300)
         for v in ladder.vtil] + [0.0]
    )
    checks.append(CheckLine("s0_annihilates_threshold_vectors", d_vec, tol, d_vec <= tol))
    # |N0 S0_svd| = |N0 V_ker|: the kernel columns are block-supported
    d_n0 = opnorm(ladder.n0 @ v_ker) / max(n0_norm, 1e-300)
    checks.append(CheckLine("s0_annihilates_leading_kernel", d_n0, tol, d_n0 <= tol))

    # informational: the full per-mode compression is not annihilated once
    # the longitudinal grid has more than one point; the identity holds for
    # the constant-profile contraction checked above.
    if u_n.shape[1]:
        left, right = _mode_projector_factors(model, ladder.members[0])
        u_grid = sec.to_grid(u_n)
        d_op = linalg.thin_product_norm(left, right - u_grid @ (u_grid.conj().T @ right))
        d_op /= max(linalg.thin_product_norm(left, right), 1e-300)
        checks.append(
            CheckLine("mode_projector_operator_form", d_op, None, None,
                      "defect of the full operator form, shown for reference; "
                      "only the constant-profile contraction vanishes")
        )

    open_others = [n for n in ladder.other_modes() if model.eigenvalue(n) < ladder.lam]
    b1_grid = None if b1 is None else sec.to_grid(b1)
    if ladder.r1 > 0:
        # |B_n S1| = |S1 B_n^*| = |B_n b1|
        worst_b = 0.0
        for n in open_others:
            bn = scattering.b_rows(ladder.lam, n, model)
            worst_b = max(worst_b, opnorm(bn @ b1_grid) / max(opnorm(bn), 1e-300))
        checks.append(
            CheckLine("open_row_factors_annihilate_s1", worst_b, tol,
                      worst_b <= tol, f"{len(open_others)} open channels")
        )

    if ladder.r2 > 0:
        b2b = sec.blocked(b2)
        x0 = linalg.real_part(ladder.m10)
        xs = max(opnorm(x0), 1e-300)
        d_x = max(opnorm((x0 @ b2b).reshape(b2.shape)),
                  opnorm(sec.rows(linalg.adjoint(b2b) @ x0))) / xs
        checks.append(CheckLine("real_part_annihilates_s2", d_x, tol, d_x <= tol))
        xq = model.grid.x_nodes
        d_q = 0.0
        for i in range(len(ladder.members)):
            qv = (ladder.vtil[i].reshape(model.grid.n_omega, model.grid.n_x) * xq).reshape(-1)
            d_q = max(d_q, np.linalg.norm(b2.conj().T @ qv) / max(np.linalg.norm(qv), 1e-300))
        checks.append(CheckLine("s2_kills_q_weighted_threshold_vectors", d_q, tol, d_q <= tol))
        ms = max(ladder.m10_norm, 1e-300)
        d_m = max(opnorm((ladder.m10 @ b2b).reshape(b2.shape)),
                  opnorm(sec.rows(linalg.adjoint(b2b) @ ladder.m10))) / ms
        checks.append(CheckLine("m1_at_zero_annihilates_s2", d_m, tol, d_m <= tol))

    if ladder.i2c0 is not None:
        herm = opnorm(ladder.i2c0 - ladder.i2c0.conj().T) / max(1.0, opnorm(ladder.i2c0))
        checks.append(CheckLine("i2_self_adjoint", herm, 1e-10, herm <= 1e-10))

    # S1 S0 - S1 = -b1 (b1^* u_n) u_n^* and S2 S1 - S2 = b2 ((b2^* b1) b1^* - b2^*);
    # the reversed products are their adjoints
    nest = 0.0
    if ladder.r1 > 0:
        nest = opnorm(b1.conj().T @ u_n)
        if ladder.r2 > 0:
            nest = max(nest, opnorm((b2.conj().T @ b1) @ b1.conj().T - b2.conj().T))
    checks.append(CheckLine("projection_nesting", nest, 1e-10, nest <= 1e-10))

    # one ladder evaluation per kappa sample feeds the commutator growth
    # exponents and, on the two boundary rays, the terminal-inverse norms
    paths = kappa_sample_paths(kappa_lo, kappa_hi)
    ray = np.concatenate([paths["left"], paths["right"]])
    ks = np.concatenate([ray, paths["diagonal"]])
    comm_vals: dict = {}
    terminal_vals = []
    for i, k in enumerate(ks):
        ev = ladder.at(k)
        for key, value in commutator_norms(ladder, ev).items():
            comm_vals.setdefault(key, []).append(value)
        if i < ray.size:
            terminal_vals.append(opnorm(ev.terminal_inverse))
    floor = 1e-12 * max(1.0, ladder.m10_norm)
    for (j, k_level), vals in comm_vals.items():
        target = 1.9 if (j, k_level) == (2, 0) else 0.9
        expo, used = fit_exponent(ks, vals, floor)
        fits.append(
            FitLine(f"commutator_growth_{j}{k_level}", expo, target, used,
                    expo >= target or used < 3,
                    "below noise floor on all samples" if used < 3 else "")
        )

    # trace rows against S1: quadratic vanishing for an open channel, on the
    # left ray (z = lam - t^2 keeps the channel open)
    if ladder.r1 > 0 and open_others:
        expo, used = scattering.row_kernel_fit(
            model, ladder.lam, b1, (open_others[0], +1), paths["left"].real)
        fits.append(
            FitLine("trace_row_vs_s1", expo, 1.9, used, expo >= 1.9 or used < 3,
                    "identically zero to precision" if used < 3 else "")
        )

    # boundedness of the terminal inverse along both rays
    expo, used = fit_exponent(ray, terminal_vals, 0.0)
    expo_val = expo if np.isfinite(expo) else 0.0
    fits.append(
        FitLine("terminal_inverse_bounded", expo_val, -0.15, used,
                expo_val >= -0.15,
                "growth exponent of the terminal inverse norm; ~0 means bounded")
    )

    ranks = {
        "group_size": len(ladder.members),
        "rank_n0": rank_n0,
        "r1": ladder.r1,
        "r2": ladder.r2,
        "r3_kernel": 0 if ladder.s3c is None else ladder.s3c.rank,
        "terminal_level": ladder.terminal_level(),
    }
    return StructuralReport(ladder.lam, ranks, checks, fits)


def _mode_projector_factors(model: WaveguideModel, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Thin factors ``(L, R)``, each ``dim x n_x`` in grid coordinates, of
    the weighted compression ``(P_n (x) 1) v = L R^*`` (reference
    diagnostics): ``L = f (x) 1`` and ``R = v L``."""
    grid = model.grid
    f = model.modes[n - 1].samples * np.sqrt(grid.omega_weights)
    left = np.kron(f[:, None], np.eye(grid.n_x)).astype(complex)
    return left, model.potential.v.reshape(-1)[:, None] * left


def ladder_report(ladder: ThresholdLadder) -> dict:
    """JSON-serializable summary: ranks, tail record, level norms."""
    return {
        "lam": ladder.lam,
        "members": list(ladder.members),
        "n_used": ladder.n_used,
        "tail_bound": ladder.tail_bound,
        "eps": ladder.eps,
        "ranks": {
            "rank_n0": int(ladder.u_n.shape[1]),
            "r1": ladder.r1,
            "r2": ladder.r2,
            "terminal_level": ladder.terminal_level(),
        },
        "norms": {
            "m1_at_zero": ladder.m10_norm,
            "n0": opnorm(ladder.n0),
            "g00": opnorm(ladder.g00),
        },
    }
