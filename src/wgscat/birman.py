"""Free-resolvent kernels, the sandwiched grid operator, and spectral scans.

The 1-D free resolvent has kernel ``R0(z)(x, x') = i/(2 sqrt z) *
exp(i sqrt z |x - x'|)`` with the branch ``Im(sqrt z) > 0`` off ``[0, inf)``
and the boundary value from the upper half-plane on the cut.  The full-guide
resolvent is the transverse mode sum ``sum_n P_n (x) R0(z - lambda_n)``;
sandwiching with the potential factors gives the grid operator
``A = u + v R0(z) v`` whose inverse drives everything else.

``A`` comes in three forms, one job each.  :func:`bs_operator` assembles the
dense dim x dim matrix over the modes its caller names: it is the oracle,
with no cutoff of its own, and its callers pass the mode count of the path
they check.  The other two forms take theirs from one certified cutoff,
:func:`_choose_n_used`, which :func:`_truncation` puts behind a threshold
check off the thresholds.  Both expansion ladders assemble ``A``
with :func:`mode_sum_blocks`, as the diagonal blocks of the model's
transverse sectors (``model.sectors``); :func:`bs_blocks` is the whole of
``A`` in that form.  :func:`boundary_operator` serves the real-energy
solves and never forms ``A``.  For ``x > x'`` the mode-sum kernel
``sum_n [v f_n e^(i mu_n x)] (i / 2 mu_n) [f_n v e^(-i mu_n x')]`` is
semiseparable of rank ``n_used`` (Eidelman-Gohberg, Integral Equations
Operator Theory 34, 1999), so ``A`` is the Schur complement of a sparse
state-space embedding over the ``n_x`` longitudinal nodes.  The embedding is
built on the same sector blocks as the ladders: a coupled model is one block
with ``w = n_omega`` values and ``q = n_used`` mode slots per node, and each
sector of a decomposing model carries ``w = 1`` transverse value and the
``q`` mode slots of the fullest sector per node, with inert slots padding
the sectors that hold fewer modes.  ``model.sectors`` owns the layout: it
records each mode's sector and transforms vectors between grid and sector
coordinates.  Each node's ``w`` values are eliminated through its node block
``D_k = u_k - a_k^T diag(c) a_k`` (one batched inverse of the ``(n, w, w)``
stack, a scalar one for sectors), which leaves the forward and backward sums, ``s = 2 q`` unknowns
per node; all blocks stack into one band of half bandwidth ``s`` over
``n_blocks n_x`` nodes.  Its LU costs about ``16 n_blocks n_x s^3`` flops
and ``n_blocks n_x s (3 s + 1)`` stored entries, against ``(8/3) dim^3``
flops and ``dim^2`` entries for the dense LU plus ``O(n_used dim^2)`` for the
assembly, and ``det A = prod_k det D_k * det K`` (``K`` the condensed
band).  What does not depend on the energy (the grid mode factors and signs,
their gather into the mode slots and the ``x`` steps, ``O(n_used dim)`` work)
is a :class:`BandLayout`, built once per model and mode count and kept on
the model; each energy builds only the ``mu``-dependent entries,
``O(n_blocks n_x (s^2 w + w^3))`` of node blocks and band fill beside the
LU.  Every band is the whole model's (the scan, its candidates) or one
sector block's (:meth:`BandLayout.subset`: golden-section points, and the
one-sector S-matrices whose direct sum is a decomposing model's S).  The
S-matrix guard (:func:`guard`) is blockwise, ``max_b |A_b|_1 max_b |A_b^-1|_1``,
from per-band factors: a bound off each band's node blocks and LU, and the
exact inverse norm off that LU only on a band whose bound fails
``COND_LIMIT``, so it is an upper bound at every energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import (
    BranchPointError,
    DimensionError,
    DomainError,
    SingularMatrixError,
    TruncationError,
)
from .linalg import COND_LIMIT
from .waveguide import Sectors, WaveguideModel, gauss_legendre_panels

_MODE_CHUNK_ENTRIES = 4_000_000  # chunk mode stacks to bound working memory
_INVERSE_CHUNK = 128             # identity columns per band solve of an inverse norm


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
    """Unweighted kernel samples ``R0(z)(x_k, x_l)`` as a dense matrix: the
    one-``z`` :func:`_free_kernel_stack`."""
    return _free_kernel_stack([z], x_nodes)[0]


def _free_kernel_stack(zs, x_nodes: np.ndarray) -> np.ndarray:
    """Kernel samples ``R0(z)(x_k, x_l)`` at each of ``zs``, one
    ``(len(zs), n_x, n_x)`` stack from one ``exp`` over the distinct
    distances ``|x - x'|``; the per-``z`` factors are formed as
    :func:`free_kernel` forms them, so every entry is its value."""
    if any(zk == 0 for zk in zs):
        raise BranchPointError("free kernel has a branch point at z = 0")
    x = np.asarray(x_nodes, dtype=float)
    dist, where = np.unique(np.abs(x[:, None] - x[None, :]), return_inverse=True)
    rts = [sqrt_upper(zk) for zk in zs]
    phase = np.array([1j * rt for rt in rts])[:, None] * dist
    np.exp(phase, out=phase)
    out = phase[:, where.reshape(-1)].reshape(len(zs), x.size, x.size)
    return np.multiply(np.array([1j / (2.0 * rt) for rt in rts])[:, None, None], out, out=out)


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


def tail_bound_value(model: WaveguideModel, z: complex, n_used: int) -> float:
    """Certified operator-norm bound for the omitted closed-channel sum.

    The omitted modes form a transverse direct sum, so their total norm is
    controlled by the largest single term: ``|v|_inf^2 * cap /
    (lambda_(n+1) - Re z)``, using ``|R0(-mu^2)| = mu^-2`` for the resolvent
    of a nonnegative operator and a cap on the quadrature norms of the mode
    vectors.
    """
    return _tail_bound(_tail_scale(model), model, z, n_used)


def _tail_scale(model: WaveguideModel) -> float:
    """``|v|_inf^2 * cap``, the model constant of :func:`tail_bound_value`."""
    return model.v_norm_inf() ** 2 * model.cross_section.quadrature_cap(model.n_max)


def _tail_bound(scale: float, model: WaveguideModel, z: complex, n_used: int) -> float:
    """:func:`tail_bound_value` given its model constant ``scale``."""
    gap = model.eigenvalue(n_used + 1) - z.real
    if gap <= 0:
        return float("inf")
    return scale / gap


def _choose_n_used(model: WaveguideModel, z: complex, tail_tol: float) -> tuple[int, float]:
    """``(n_used, tail_bound)``: the fewest of the model's ``n_max`` modes,
    all open ones included, whose tail bound meets ``tail_tol``."""
    scale = _tail_scale(model)
    n_min = 0
    for n in range(1, model.n_max + 1):
        if model.eigenvalue(n) <= z.real + 1e-12:
            n_min = n
    n_min = max(n_min, 1)
    for n in range(n_min, model.n_max + 1):
        bound = _tail_bound(scale, model, z, n)
        if bound <= tail_tol:
            return n, bound
    raise TruncationError(
        f"tail tolerance {tail_tol:.17g} unattainable with {model.n_max} modes "
        f"(bound {_tail_bound(scale, model, z, model.n_max):.17g} at the cap)"
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
    return _mode_sum(model, z, mode_indices, x_kernel, Sectors.single(grid.n_omega, grid.n_x))[0]


def mode_sum_blocks(
    model: WaveguideModel,
    z: complex,
    mode_indices: list[int] | np.ndarray,
    x_kernel=None,
) -> np.ndarray:
    """:func:`mode_sum_matrix` in the model's sector coordinates
    (``model.sectors``), as its stack of diagonal blocks
    ``(n_blocks, block_dim, block_dim)``; a coupled model's one block is
    :func:`mode_sum_matrix` itself, from the same code."""
    return _mode_sum(model, z, mode_indices, x_kernel, model.sectors)


def _mode_sum(model: WaveguideModel, z: complex, mode_indices, x_kernel,
              sectors: Sectors) -> np.ndarray:
    """The mode sum as the diagonal blocks of ``sectors``.

    Separable potential: one path for every block width ``w = n_omega /
    n_blocks`` (``n_omega`` for one block, 1 per sector).  Block ``b`` of
    mode ``n`` is weighted by ``p_b p_b^T``, ``p_b`` the block's slice of
    ``p_n = phi_n`` (one block) or ``basis^T phi_n`` (sectors): one product
    of the weights with the scaled kernel stack, one transposed accumulate.
    A non-separable potential never decomposes; its one block is the grid
    matrix, from one ``einsum``.  The default free-resolvent kernels of a
    chunk of modes come from one :func:`_free_kernel_stack`; a given
    ``x_kernel`` is called once per mode.
    """
    grid = model.grid
    n_omega, n_x = grid.n_omega, grid.n_x
    nb, dim = sectors.n_blocks, grid.dim
    out = np.zeros((nb, dim // nb, dim // nb), dtype=complex)
    if len(mode_indices) == 0:
        return out
    x = grid.x_nodes
    sqwx = np.sqrt(grid.x_weights)
    pot = model.potential
    idx = np.asarray(mode_indices, dtype=int)
    if x_kernel is None:
        kernels = lambda sel: _free_kernel_stack([z - model.eigenvalue(int(n)) for n in sel], x)
    else:
        kernels = lambda sel: np.array([x_kernel(int(n)) for n in sel])

    chunk = max(1, _MODE_CHUNK_ENTRIES // (n_x * n_x))
    if pot.separable:
        dx = pot.x_factor * sqwx  # sqrt(|W(x)|) with weights
        phi = np.array(
            [model.modes[n - 1].samples * pot.omega_factor for n in idx]
        ) * np.sqrt(grid.omega_weights)
        if sectors.basis is not None:
            phi = phi @ sectors.basis
        w = n_omega // nb
        for lo in range(0, idx.size, chunk):
            sel = idx[lo : lo + chunk]
            ks = kernels(sel)
            ks *= dx[:, None]
            ks *= dx[None, :]
            p = phi[lo : lo + chunk].reshape(sel.size, nb, w)
            weights = (p[..., :, None] * p[..., None, :]).reshape(sel.size, -1)
            block = weights.T @ ks.reshape(sel.size, -1)  # (nb w^2, n_x^2)
            out += block.reshape(nb, w, w, n_x, n_x).transpose(0, 1, 3, 2, 4).reshape(out.shape)
        return out

    sw = grid.composite_sqrt_weights().reshape(n_omega, n_x)
    for lo in range(0, idx.size, chunk):
        sel = idx[lo : lo + chunk]
        a = np.array(
            [model.modes[n - 1].samples[:, None] * pot.v * sw for n in sel]
        )  # (m, n_omega, n_x)
        ks = kernels(sel)
        out[0] += np.einsum("nik,nkl,njl->ikjl", a, ks, a, optimize=True).reshape(dim, dim)
    return out


def _truncation(model: WaveguideModel, z: complex, tail_tol: float) -> tuple[int, float]:
    """``(n_used, tail_bound)`` of the certified mode cutoff at ``z``: the
    fewest modes, all modes open at ``Re z`` included, whose tail bound
    (:func:`tail_bound_value`) meets ``tail_tol``.

    Raises :class:`BranchPointError` when ``z`` collides with a threshold
    and :class:`TruncationError` when the model's ``n_max`` modes cannot
    meet ``tail_tol``.
    """
    for n in range(1, model.n_max + 1):
        if abs(z - model.eigenvalue(n)) < 1e-12 * max(1.0, abs(z)):
            raise BranchPointError(
                f"z collides with threshold lambda_{n}; use the expansion machinery"
            )
    return _choose_n_used(model, z, tail_tol)


def bs_operator(model: WaveguideModel, z: complex, n_used: int) -> np.ndarray:
    """``u + v R0(z) v`` over the modes ``1..n_used`` as the dense grid
    matrix: the oracle.  It has no cutoff or threshold check of its own;
    callers pass the ``n_used`` of the path they check (:func:`_truncation`
    gives the certified one)."""
    return np.diag(model.u_diag()) + mode_sum_matrix(model, z, list(range(1, n_used + 1)))


def bs_blocks(model: WaveguideModel, z: complex, n_used: int) -> np.ndarray:
    """:func:`bs_operator` in the model's sector coordinates, as its stack of
    diagonal blocks: ``u`` plus :func:`mode_sum_blocks` over the modes
    ``1..n_used``, with no cutoff or threshold check of its own."""
    return model.sectors.diagonal(model.potential.u) + mode_sum_blocks(
        model, z, list(range(1, n_used + 1)))


# ---------------------------------------------------------------------------
# Banded state-space embedding of the boundary operator
# ---------------------------------------------------------------------------

def _sweep(ratio: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``f[k] = ratio[k] * f[k-1] + t[k]`` along axis 0 (``ratio[0]`` unused).

    Evaluated by log-depth doubling; ``|ratio| <= 1``, so every product of
    ratios stays bounded.
    """
    f, r = t.copy(), ratio
    d = 1
    while d < f.shape[0]:
        f[d:] += r[d:] * f[:-d]
        r = np.concatenate([r[:d], r[d:] * r[:-d]])
        d *= 2
    return f


def _mode_sums(ratio: np.ndarray, t: np.ndarray, n_blocks: int) -> np.ndarray:
    """``sum_l rho(k, l) t[l]`` along axis 0, where ``rho(k, l)`` is the
    product of the step ratios between nodes ``l`` and ``k``: the forward
    sums plus the backward sums, less the node term both count.  Each of the
    ``n_blocks`` blocks of axis 0 (ratio 0 at its start) is swept on its own
    nodes, all as one batch with the block axis behind the node axis."""
    ratio, t = (np.ascontiguousarray(a.reshape(n_blocks, -1, *a.shape[1:]).swapaxes(0, 1))
                for a in (ratio, t))
    back = np.roll(ratio[::-1], 1, axis=0)
    out = _sweep(ratio, t) + _sweep(back, t[::-1])[::-1] - t
    return out.swapaxes(0, 1).reshape(-1, *out.shape[2:])


def _node_slices(sec: Sectors, t: np.ndarray) -> np.ndarray:
    """Sector-coordinate values ``(dim, m)`` or ``(n_omega, n_x, m)`` as the
    band's node slices ``(n_blocks * n_x, n_omega / n_blocks, m)``: block-major,
    then node-major, with the block's transverse values at each node."""
    nb, m = sec.n_blocks, t.shape[-1]
    return t.reshape(nb, -1, sec.n_x, m).transpose(0, 2, 1, 3).reshape(nb * sec.n_x, -1, m)


def _sector_values(sec: Sectors, nodes: np.ndarray) -> np.ndarray:
    """Band node slices as sector-coordinate values ``(dim, m)``: :func:`_node_slices` undone."""
    m = nodes.shape[2]
    return nodes.reshape(sec.n_blocks, sec.n_x, -1, m).transpose(0, 2, 1, 3).reshape(sec.dim, m)


@dataclass(frozen=True)
class BoundaryOperator:
    """``A = u + v R0(z) v`` held through its banded state-space embedding.

    Built by :func:`boundary_operator`; the dense matrix is never formed.
    Its one view is the band's node slices ``(n, w, m)`` (:func:`_node_slices`):
    the slot factors and signs of ``layout`` (the model's :class:`BandLayout`,
    shared read-only), this energy's slot prefactors ``cn`` and step ratios
    ``rn``, the inverses ``dinv`` of the node blocks with the node maps
    ``jad`` and ``dcj`` formed from them, and the LU of the condensed band.
    Grid vectors (the order of :func:`bs_operator`, 1-D or as columns) enter
    and leave only at :meth:`solve` and :meth:`matvec`, through the
    transforms of ``layout.sectors``; the products, the norm bound, the
    inverse bound and norm and the scan's Lanczos runs stay on the node
    slices.
    ``u``, ``v`` and the modes are real and the kernel symmetric in ``x, x'``,
    so ``A`` is complex symmetric there as on the grid: ``A^H y = conj(A
    conj(y))``, and the adjoint solve is the conjugated one.
    """

    layout: BandLayout     # energy-independent part of the band
    cn: np.ndarray         # (n, q) slot prefactors i / (2 mu_n), 0 in inert slots
    rn: np.ndarray         # (n, q) step ratios exp(i mu_n dx), 0 in inert slots, block starts
    dinv: np.ndarray       # (n, w, w) inverses of the node blocks D_k = u_k - a_k^T diag(c) a_k
    jad: np.ndarray        # (n, 2q, w) J^T a_k D_k^-1: node values to the band's right-hand side
    dcj: np.ndarray        # (n, w, 2q) D_k^-1 C_k J: the band's solution to node values
    lu: np.ndarray         # band LU of the condensed embedding (zgbtrf layout)
    piv: np.ndarray
    singular: bool         # the band LU met an exactly zero pivot
    n_used: int
    tail_bound: float

    @property
    def dim(self) -> int:
        return self.layout.un.size

    @property
    def slots(self) -> int:  # mode slots per node of the band
        return self.layout.an.shape[1]

    @property
    def _width(self) -> int:
        """Unknowns per node of the band, the forward and backward sums of
        each slot, which is also its half bandwidth."""
        return 2 * self.slots

    def _nodes(self, y) -> np.ndarray:
        """Grid vector(s) ``(dim,)`` or ``(dim, m)`` as the node slices of the band."""
        y = np.asarray(y, dtype=complex)
        if y.shape[0] != self.dim:
            raise DimensionError(f"vector length {y.shape[0]} != operator dim {self.dim}")
        sec = self.layout.sectors
        return _node_slices(sec, sec.to_sector(y.reshape(self.dim, -1)))

    def _grid(self, nodes: np.ndarray, like) -> np.ndarray:
        """Node slices of the band as grid vector(s) shaped like ``like``."""
        sec = self.layout.sectors
        out = sec.to_grid(_sector_values(sec, nodes))
        return out[:, 0] if np.ndim(like) == 1 else out

    def _apply(self, nodes: np.ndarray) -> np.ndarray:
        """``A`` on node slices ``(n, w, m)``: the signs plus, per mode slot,
        the forward and backward mode sums.  ``rn`` is 0 at every block
        start, so no sum crosses from one block into the next."""
        an = self.layout.an
        t = np.einsum("kpi,kim->kpm", an, nodes)
        h = self.cn[:, :, None] * _mode_sums(self.rn[:, :, None], t, self.layout.sectors.n_blocks)
        return self.layout.un[:, :, None] * nodes + np.einsum("kpi,kpm->kim", an, h)

    def matvec(self, y) -> np.ndarray:
        """``A @ y`` for grid vector(s) ``y``."""
        return self._grid(self._apply(self._nodes(y)), y)

    def solve(self, b) -> np.ndarray:
        """``A^-1 b``: the ``y`` part of the embedding's solution for ``(b, 0, 0)``."""
        return self._grid(self._band_solve(self._nodes(b)), b)

    def _band_solve(self, nodes: np.ndarray) -> np.ndarray:
        """:meth:`solve` on band node slices ``(n, w, m)``: one ``zgbtrs`` for
        the sums ``f, g`` with ``a_k D_k^-1 b_k`` in both halves of node ``k``,
        then ``y_k = D_k^-1 (b_k - C_k (f_k + g_k))``.  On a narrow band
        ``w = 1``, and the Lanczos runs solve one vector, so no node product
        is a complex matrix-matrix BLAS product (after one, OpenBLAS runs a
        narrow ``zgbtrs`` several times slower)."""
        n, _, m = nodes.shape
        x, _ = _GBTRS(self.lu, self._width, self._width, (self.jad @ nodes).reshape(-1, m),
                      self.piv)
        return self.dinv @ nodes - self.dcj @ x.reshape(n, -1, m)

    @cached_property
    def norm_bound(self) -> float:
        """Upper bound on ``max_b |A_b|_1`` over the sector blocks: the largest
        column sum of ``|u|`` plus the mode terms of :meth:`_apply` taken in
        absolute value one by one, which is exact for a single mode.  Formed
        once per operator; :func:`guard` takes the largest over its bands."""
        an = np.abs(self.layout.an)
        sums = _mode_sums(np.abs(self.rn)[:, :, None], an.sum(axis=2)[:, :, None],
                          self.layout.sectors.n_blocks)[:, :, 0]
        cols = np.abs(self.layout.un) + np.einsum("kpi,kp->ki", an, np.abs(self.cn) * sums)
        return float(cols.max())

    def _inverse_bound(self) -> float:
        """Upper bound on ``max_b |A_b^-1|_1`` over the sector blocks, ``inf``
        when the band LU is singular: the largest column sum of ``|D^-1| +
        |D^-1 C| J |K^-1| J^T |a D^-1| >= |A^-1|``, from ``A^-1 = D^-1 - D^-1
        C J K^-1 J^T a D^-1`` (``K`` the condensed band, ``J^T`` the copy of a
        node's ``q`` slots into its ``f`` and ``g`` halves), and ``|K^-1| <=
        M(U)^-1 prod_j |L_j^-1| P_j`` (``M`` the comparison matrix; Higham,
        *Accuracy and Stability*, 2nd ed., ch. 8): with negated moduli off U's
        diagonal, one real transposed ``gbtrs`` on the column sums of ``|D^-1
        C| J`` forms the middle product, with no cancellation."""
        if self.singular:
            return float("inf")
        s = self._width
        m = np.abs(self.lu)
        m *= -1.0
        m[2 * s] *= -1.0                        # U's diagonal keeps its modulus
        h = np.abs(self.dcj).sum(axis=1)        # column sums of |D^-1 C J|
        z, _ = _DGBTRS(m, s, s, h.reshape(-1, 1), self.piv, trans=1)
        cols = np.abs(self.dinv).sum(axis=1) + np.einsum("kp,kpi->ki", z.reshape(h.shape),
                                                         np.abs(self.jad))
        return float(cols.max())

    def _inverse_norm(self) -> float:
        """``max_b |A_b^-1|_1`` over the sector blocks of this band (``|A^-1|_1``
        of their direct sum, whose node order only permutes it), ``inf`` when
        the band LU is singular: the largest column sum of the inverse the
        band LU forms against the identity, ``_INVERSE_CHUNK`` node-slice
        columns per solve.  The rule ``linalg.inverse_with_cond`` applies to
        a dense block; :func:`guard` reads it where :meth:`_inverse_bound`
        fails."""
        if self.singular:
            return float("inf")
        n, w = self.dinv.shape[:2]
        top = 0.0
        for start in range(0, self.dim, _INVERSE_CHUNK):
            eye = np.zeros((self.dim, min(_INVERSE_CHUNK, self.dim - start)), dtype=complex)
            np.fill_diagonal(eye[start:], 1.0)
            x = self._band_solve(eye.reshape(n, w, -1))
            top = max(top, float(np.abs(x).sum(axis=(0, 1)).max()))
        return top


def guard(ops) -> float:
    """The S-matrix guard of the bands ``ops`` (``scattering.smatrix_bands``:
    a coupled model's one band, or one band per open sector), ``inf`` if one
    is singular: the largest :attr:`~BoundaryOperator.norm_bound` times the
    largest per-band factor.  A band's factor is its certified
    :meth:`~BoundaryOperator._inverse_bound` wherever that times the largest
    norm bound is within ``COND_LIMIT``, and its exact
    :meth:`~BoundaryOperator._inverse_norm` elsewhere, in practice on the
    band whose channel just opened.  So the guard is an upper bound on the
    exact ``max_b |A_b|_1 * max_b |A_b^-1|_1`` at every energy, to the
    rounding of the inverse it reads.  ``scripts/guard_oracle.py`` prints
    it."""
    norm, bounds = max(op.norm_bound for op in ops), [op._inverse_bound() for op in ops]
    return norm * max(b if norm * b <= COND_LIMIT else op._inverse_norm()
                      for op, b in zip(ops, bounds))


_GBTRF, _GBTRS = (get_lapack_funcs(name, (np.zeros(1, dtype=complex),))
                  for name in ("gbtrf", "gbtrs"))
_DGBTRS = get_lapack_funcs("gbtrs", (np.zeros(1),))


def _mode_slots(sec: Sectors, n_used: int) -> np.ndarray:
    """Retained-mode index (0-based) per block and slot, ``-1`` for an
    inert slot: one block carries every mode, and in a decomposing model
    each mode goes to the sector :func:`transverse_sectors` recorded for it
    (``sec.mode_sector``), a mode that vanishes on the lattice to none."""
    if sec.basis is None:
        return np.arange(n_used)[None, :]
    members = [np.flatnonzero(sec.mode_sector[:n_used] == s) for s in range(sec.n_blocks)]
    q = max(m.size for m in members)
    return np.array([np.pad(m, (0, q - m.size), constant_values=-1) for m in members])


@dataclass(frozen=True)
class BandLayout:
    """The energy-independent part of the embedding of :func:`boundary_operator`
    for one model and mode count, all of it on the band's node slices: the
    ``x`` steps, the slot table, and the mode factors and signs placed in
    the band's mode slots.  The grid mode factors they are gathered from are
    not kept.  Built once per model and ``n_used`` by :func:`band_layout` and
    shared by every operator built on it, so its arrays are read-only."""

    dx: np.ndarray         # (n_x,) steps x_k - x_(k-1), 0 at the first node
    sectors: Sectors       # block layout of the band
    live: np.ndarray       # (n_blocks, q) the slot holds a retained mode
    mode: np.ndarray       # (n_blocks, q) that mode's index (0-based), 0 in inert slots
    an: np.ndarray         # (n_blocks n_x, q, w) slot mode factors per node, 0 in inert slots
    un: np.ndarray         # (n_blocks n_x, w) signs per node
    subsets: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def subset(self, block: int) -> BandLayout:
        """The layout of the band over the sector block ``block`` alone: its
        rows of this one (same ``q`` slots) on ``Sectors.single`` of its ``w``
        values, whose vectors are the block's sector coordinates; kept in
        ``subsets`` from its first use on, as :func:`band_layout` keeps the
        whole band's."""
        layout = self.subsets.get(block)
        if layout is None:
            n_x = self.dx.size
            b, rows = slice(block, block + 1), slice(block * n_x, (block + 1) * n_x)
            layout = self.subsets.setdefault(block, BandLayout(
                self.dx, Sectors.single(self.un.shape[1], n_x), self.live[b], self.mode[b],
                self.an[rows], self.un[rows]))
        return layout


def band_layout(model: WaveguideModel, n_used: int) -> BandLayout:
    """The :class:`BandLayout` of ``model`` for the modes ``1..n_used``, kept
    in ``model.band_layouts`` from its first use on.  Raises
    :class:`DimensionError` unless the ``x`` nodes increase strictly."""
    layout = model.band_layouts.get(n_used)
    if layout is None:
        # setdefault keeps the first layout stored, so a library caller's
        # threads still share one (the CLI maps its energies serially)
        layout = model.band_layouts.setdefault(n_used, _build_layout(model, n_used))
    return layout


def _build_layout(model: WaveguideModel, n_used: int) -> BandLayout:
    """A new :class:`BandLayout`; :func:`band_layout` keeps it."""
    grid, sec = model.grid, model.sectors
    n_omega, n_x, p = grid.n_omega, grid.n_x, n_used
    x = grid.x_nodes
    if np.any(np.diff(x) <= 0):
        raise DimensionError("the x nodes must increase strictly")
    sw = grid.composite_sqrt_weights().reshape(n_omega, n_x)
    samples = np.array([model.modes[n].samples for n in range(p)])
    a = (samples[:, :, None] * (model.potential.v * sw)).transpose(2, 0, 1)

    # q mode slots per node in every block: each slot's mode factors, zero in
    # inert slots
    a_sec = a if sec.basis is None else a @ sec.basis
    slots = _mode_slots(sec, n_used)
    (nb, q), w = slots.shape, n_omega // sec.n_blocks
    live, mode = slots >= 0, np.maximum(slots, 0)
    an = a_sec.reshape(n_x, p, nb, w)[:, mode, np.arange(nb)[:, None], :]   # (n_x, nb, q, w)
    an = np.where(live[:, :, None], an, 0.0).transpose(1, 0, 2, 3).reshape(nb * n_x, q, w)
    an = np.ascontiguousarray(an)   # the build views its products as interleaved parts
    un = _node_slices(sec, model.potential.u[:, :, None])[:, :, 0]  # u is constant along omega
    return BandLayout(np.diff(x, prepend=x[0]), sec, live, mode, an, un)


def boundary_operator(lam: float, model: WaveguideModel, tail_tol: float = 1e-4,
                      block: int | None = None) -> BoundaryOperator:
    """Factor ``u + v R0(lam + i0) v`` at the real energy ``lam`` through its
    state-space embedding.

    The mode cutoff, its tail bound and the threshold check are those of
    :func:`_truncation`.  At each longitudinal node ``x_k`` the embedding
    carries ``y_k`` (the ``w`` grid values) and, per retained mode, the
    forward and backward sums

        f_n(k) = rho_n(k) f_n(k-1) + t_n(k),
        g_n(k) = rho_n(k+1) g_n(k+1) + t_n(k),    t_n(k) = a^n_k . y_k,

    with ``a^n_ik = f_n(omega_i) v(omega_i, x_k) sqrt(w_ik)`` and
    ``rho_n(k) = exp(i mu_n (x_k - x_(k-1)))``, ``|rho_n| <= 1`` on the
    upper branch ``mu_n = sqrt(z - lambda_n)``.  The node equation
    ``u_k y_k + sum_n c_n a^n_k (f_n(k) + g_n(k) - t_n(k)) = b_k``,
    ``c_n = i / (2 mu_n)``, closes the system; eliminating ``f`` and ``g``
    leaves exactly ``A y = b``.  The band instead eliminates ``y_k`` through
    the node block ``D_k = diag(u_k) - sum_n c_n a^n_k a^n_k^T``, so that
    ``y_k = D_k^-1 (b_k - C_k (f(k) + g(k)))`` with ``C_k = (c a_k)^T``: it
    holds the ``2 q`` sums alone, with node block ``[[I + P_k, P_k], [P_k, I
    + P_k]]``, ``P_k = a_k D_k^-1 C_k``, the right-hand side ``a_k D_k^-1 b_k``
    in both halves, and the ``-rho`` couplings of the recursions.

    Node-block policy.  Wherever ``V <= 0``, ``sigma_min(D_k) >= 1``: on the
    ``u = -1`` rows ``-D_k = I + sum_n c_n a a^T`` has real part ``I`` plus
    ``a a^T / (2 |mu_n|)`` over the closed modes (``c_n`` is imaginary for
    an open one), so ``Re(-D_k) >= I``; on ``v = 0`` rows ``a`` vanishes and
    ``D_k`` is ``u = +-1`` there.  Where ``V > 0``, ``Re D_k = I - sum_closed
    a a^T / (2 |mu_n|)`` can be singular just below a threshold.  The build
    raises :class:`SingularMatrixError` when ``max_k |D_k|_1 * max_k
    |D_k^-1|_1`` exceeds ``COND_LIMIT`` (or ``D_k`` is exactly singular): it
    is the condensation that fails there, not ``A``, so the operator is not
    marked ``singular``, which the eigenvalue scan reads as a level.

    The embedding is built once per sector block of ``model.sectors``: a
    coupled model is one block with ``n_omega`` values per node and every
    mode, a sector of a decomposing model one value per node and the modes
    ``model.sectors`` records there.  The blocks are padded to a common
    ``q`` mode slots with inert ones (``a = 0``, ``c = 0``, ratio 0) and
    stacked block-major, then node-major, with the ratios cut to 0 at every
    block start, so one band of half bandwidth ``s = 2 q`` holds them all
    and one LAPACK ``zgbtrf`` factors it (``D_k`` is ``n_omega x n_omega``
    for one block, a scalar for sectors; the cost model is in the module
    docstring).  The energy-independent part comes from the model's
    :func:`band_layout` for ``n_used``; each call computes only ``mu``,
    ``cn``, ``rn`` and the node blocks the operator keeps, and writes every
    band node block straight into the band storage.  Given a sector
    ``block`` (an open sector of an S-matrix, a golden-section point's
    block), the same code builds that block's band alone from its rows of
    the layout (:meth:`BandLayout.subset`), whose LU and solves equal those
    rows of the whole band's.  Raises :class:`DimensionError` unless the
    ``x`` nodes increase strictly.
    """
    z = complex(lam)
    n_used, tail = _truncation(model, z, tail_tol)
    lay = band_layout(model, n_used)
    if block is not None:
        lay = lay.subset(block)
    mu = np.array([sqrt_upper(z - model.eigenvalue(n)) for n in range(1, n_used + 1)])
    c = 1j / (2.0 * mu)
    ratio = np.exp(1j * lay.dx[:, None] * mu[None, :])

    # each slot's prefactor and ratios, zero in inert slots
    n, q, w = lay.an.shape
    live, mode = lay.live, lay.mode
    cn = np.repeat(np.where(live, c[mode], 0.0), model.grid.n_x, axis=0)
    rn = np.where(live[:, None, :], ratio[:, mode].transpose(1, 0, 2), 0.0)
    rn[:, 0] = 0.0                                                  # cut at block starts
    rn = rn.reshape(n, q)

    # node blocks D = u - a^T diag(c) a and their inverses; J^T a D^-1, and
    # D^-1 C J = (diag(c J) J^T a D^-1)^T (D is complex symmetric) with
    # C = (c a)^T and J = [I I] the sum of a node's two halves; a real
    # factor multiplies the interleaved parts of a complex one
    an = lay.an
    d = np.ascontiguousarray(an.transpose(0, 2, 1)) @ (cn[:, :, None] * an).view(float)
    d = -d.view(complex)
    d.reshape(n, -1)[:, :: w + 1] += lay.un
    try:
        # a scalar D_k (every decomposing model) is inverted elementwise: the
        # batched LAPACK inverse spends about 0.1 us of set-up per node
        with np.errstate(divide="ignore", invalid="ignore"):
            dinv = 1.0 / d if w == 1 else np.linalg.inv(d)
            cond = float(np.abs(d).sum(axis=1).max() * np.abs(dinv).sum(axis=1).max())
    except np.linalg.LinAlgError:
        cond = float("inf")
    if not cond <= COND_LIMIT:
        raise SingularMatrixError(f"node block of the band at lam={lam} is singular", cond)
    jan = np.concatenate([an, an], axis=1)
    jad = (jan @ dinv.view(float)).view(complex)
    dcj = (jad.reshape(n, 2, q, w) * cn[:, None, :, None]).reshape(n, 2 * q, w)
    dcj = np.ascontiguousarray(dcj.transpose(0, 2, 1))

    # node block I + J^T a D^-1 C J = [[I + P, P], [P, I + P]] over [f(k),
    # g(k)], s = 2 q unknowns, P = a D^-1 C; band storage ab[kl+ku+r-c, c]
    # is filled through its transpose abt, where entry (r, c) of node k's
    # block sits at abt[k, c, 2 s - c + r], offset 2 s + r + 3 s c into the node
    s = 2 * q
    abt = np.zeros((n, s, 3 * s + 1), dtype=complex)
    item = abt.itemsize
    block = np.lib.stride_tricks.as_strided(
        abt.reshape(-1)[2 * s:], (n, s, s), (s * (3 * s + 1) * item, item, 3 * s * item))
    block[...] = (jan @ dcj.view(float)).view(complex)
    abt[:, :, 2 * s] += 1.0         # the block's diagonal
    abt[:-1, :q, 3 * s] = -rn[1:]   # f(k) <- f(k-1)
    abt[1:, q:, s] = -rn[1:]        # g(k) <- g(k+1)
    lu, piv, info = _GBTRF(abt.reshape(n * s, 3 * s + 1).T, s, s, overwrite_ab=1)
    return BoundaryOperator(lay, cn, rn, dinv, jad, dcj, lu, piv, info > 0, n_used, tail)


# ---------------------------------------------------------------------------
# Weighted Hilbert-Schmidt diagnostics
# ---------------------------------------------------------------------------

HS_WEIGHT_TAIL = 1e-10   # relative weight mass the HS window may leave out
HS_X_CAP = 4000.0        # the HS window never grows past [-X_CAP, X_CAP]
HS_PER_PANEL = 12        # Gauss-Legendre nodes per panel of the HS window


def _window_rule(s: float):
    """Symmetric panel rule ``(nodes, weights)`` on [-X, X] with X set by the
    weight tail.

    X doubles from 2 until the relative tail ``int_{|x|>X} (1+x^2)^(-s) dx /
    int_R (1+x^2)^(-s) dx``, which is the regularized incomplete beta
    function ``I_{1/(1+X^2)}(s - 1/2, 1/2)`` (substitute ``u = 1/(1+x^2)``),
    is at most ``HS_WEIGHT_TAIL``, or until ``X`` reaches ``HS_X_CAP``; the
    panels carry ``HS_PER_PANEL`` nodes each.
    """
    from scipy.special import betainc

    x_win = 2.0
    while x_win < HS_X_CAP and betainc(s - 0.5, 0.5, 1.0 / (1.0 + x_win**2)) > HS_WEIGHT_TAIL:
        x_win *= 2.0
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
    return nodes, weights


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
    nodes, weights = _window_rule(s)
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
SIGMA_ITERS = 12         # Lanczos steps of each singular-value estimate, at most
SIGMA_RTOL = 1e-15       # relative change of the largest Ritz value that ends a Lanczos run


@dataclass(frozen=True)
class EigenvalueCandidate:
    lam: float
    sigma_min: float
    rel_dip: float          # sigma_min / ||operator||


def golden_min(f, a: float, b: float, tol: float) -> float:
    """Deterministic golden-section minimizer of ``f`` on ``[a, b]``: shrinks
    the bracket below ``tol`` or until its state repeats (its interior points
    no longer separate from its ends), and returns its midpoint."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    seen = set()
    while b - a > tol and (a, b, c, d) not in seen:
        seen.add((a, b, c, d))
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def _start_vectors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The fixed unit start vectors of :func:`_sigma_max` and
    :func:`_sigma_min`, drawn in this order from one seeded generator."""
    rng = np.random.default_rng(1234)
    x_max, x_min = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
    return x_max / np.linalg.norm(x_max), x_min / np.linalg.norm(x_min)


def _lanczos(apply, x: np.ndarray, ritz: bool = False):
    """Largest eigenvalue of a Hermitian positive semidefinite operator on
    each row of ``x`` ``(rows, n)``, by one batched run of the plain Lanczos
    recurrence (no reorthogonalization) from the unit rows of ``x``.  One
    ``apply`` call per step maps the whole stack, and it must map each row
    on its own.  Each row keeps its own ``alpha``, ``beta``, tridiagonal and
    stop: its largest Ritz value never decreases, and the row stops once it
    grows by at most ``SIGMA_RTOL`` relative, or after ``SIGMA_ITERS`` steps
    (Parlett, *The Symmetric Eigenvalue Problem*, ch. 12).  The Ritz values
    come from one stacked ``eigvalsh`` per step.  Returns the largest Ritz
    value per row, ``inf`` where ``apply`` overflows; a one-row run is the
    plain one-vector recurrence, bit for bit.

    With ``ritz`` (the scan's runs) the Ritz pairs come from ``eigh``; a row
    also stops once ``theta + beta |s|``, its Ritz value plus the residual
    norm of its Ritz pair (``s`` the last entry of the tridiagonal's
    eigenvector), is below the largest Ritz value of all rows, where it can
    no longer hold the maximum; and the unit Ritz vector of each row is
    returned as well."""
    n_rows = x.shape[0]
    t = np.zeros((n_rows, SIGMA_ITERS + 1, SIGMA_ITERS + 1))
    theta, beta, vecs = [0.0] * n_rows, [0.0] * n_rows, np.zeros((n_rows, SIGMA_ITERS))
    q, q_prev, live, basis = x, None, list(range(n_rows)), []
    for j in range(SIGMA_ITERS):
        basis.append(q)
        w = apply(q)
        for r in live:
            if j:
                w[r] -= beta[r] * q_prev[r]
            # real products only: a complex BLAS product (zgemm) slows the narrow
            # zgbtrs of _sigma_min about 9x (the zgemm -> zgbtrs FOUND line of CHANGES.md)
            t[r, j, j] = alpha = np.vdot(q[r].view(float), w[r].view(float))
            w[r] -= alpha * q[r]
            beta[r] = np.sqrt(np.vdot(w[r].view(float), w[r].view(float)))
        if ritz:
            vals, s = np.linalg.eigh(t[:, : j + 1, : j + 1])
        else:
            vals = np.linalg.eigvalsh(t[:, : j + 1, : j + 1])
        prev = theta[:]
        for r in live:
            theta[r] = vals[r, -1]
        top, ended = max(theta), []
        for r in live:
            if ritz:
                vecs[r, : j + 1] = s[r, :, -1]
            if (theta[r] - prev[r] <= SIGMA_RTOL * theta[r] or not 0 < beta[r] < np.inf
                    or ritz and theta[r] + beta[r] * abs(s[r, -1, -1]) < top):
                ended.append(r)
                w[r] = 0.0      # a stopped row carries zeros from here on
        live = [r for r in live if r not in ended]
        if not live:
            break
        for r in live:
            t[r, j + 1, j] = beta[r]
            w[r] /= beta[r]
        q_prev, q = q, w
    theta = np.array([th if b < np.inf else np.inf for th, b in zip(theta, beta)])
    if not ritz:
        return theta
    # the Ritz vectors from real products on the interleaved parts: no
    # complex BLAS product, as above
    y = np.einsum("rk,krn->rn", vecs[:, : len(basis)], np.array(basis).view(float)).view(complex)
    return theta, y / np.linalg.norm(y, axis=1, keepdims=True)


def _gram(op: BoundaryOperator, f):
    """``y -> conj f(conj f(y))`` on a stack of rows of the whole band's node
    slices (one row, or one per sector block), ``f`` a map of node slices:
    ``A^H A`` for ``op._apply``, ``A^-H A^-1`` for ``op._band_solve`` (``A``
    is complex symmetric).  One pair of ``f`` calls serves every row, since
    the band never couples two blocks."""
    shape = op.layout.un.shape + (1,)
    return lambda y: np.conj(f(np.conj(f(y.reshape(shape))))).reshape(y.shape)


def _sigma_max(op: BoundaryOperator, x: np.ndarray) -> float:
    """Largest singular value estimate of ``op``: a one-row :func:`_lanczos`
    on ``A^H A`` in the band's node slices."""
    return float(np.sqrt(_lanczos(_gram(op, op._apply), op._nodes(x).reshape(1, -1))[0]))


def _sigma_min(op: BoundaryOperator, x: np.ndarray) -> float:
    """Smallest singular value estimate of ``op``: a one-row
    :func:`_lanczos` on ``A^-H A^-1`` in the band's node slices, from the
    fixed vector ``x``; 0 when ``op`` is singular.  :func:`eigenvalue_search`
    runs it at its golden-section points, on the band of the block its scan
    names, and at its refined candidates; its scan runs :func:`_scan`."""
    if op.singular:
        return 0.0
    return float(1.0 / np.sqrt(_lanczos(_gram(op, op._band_solve), op._nodes(x).reshape(1, -1))[0]))


def _scan(lams, model: WaveguideModel, tail_tol: float,
          x: np.ndarray) -> tuple[list[float], list[int]]:
    """The smallest singular value of the whole band at each energy of
    ``lams``, and the sector block that holds it: ``1 / sqrt(max_b
    theta_b)`` from one batched :func:`_lanczos` run per energy, whose rows
    are the sector blocks (a coupled model has one row) and ``theta_b`` the
    largest eigenvalue of block ``b``'s ``A_b^-H A_b^-1``, and the row ``b``
    with the largest ``theta_b`` (the lowest on a tie; block 0 at a singular
    energy, whose value is 0).  Each row starts from its own Ritz vector at
    the previous energy; at the first energy, and after a singular one, from
    the normalized block slices of ``x`` in node coordinates.  A row that
    can no longer hold the maximum stops early.  One row per block keeps
    each block's own start: a single whole-band row warm-started this way
    keeps following the block that held the minimum before, and reads high
    once another block takes it over."""
    sig, named, rows = [], [], None
    for lam in lams:
        op = boundary_operator(float(lam), model, tail_tol)
        value, block = 0.0, 0
        if not op.singular:
            if rows is None:
                rows = op._nodes(x).reshape(model.sectors.n_blocks, -1)
                rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
            theta, rows = _lanczos(_gram(op, op._band_solve), rows, ritz=True)
            value, block = float(1.0 / np.sqrt(theta.max())), int(np.argmax(theta))
        if value == 0.0:
            rows = None
        sig.append(value)
        named.append(block)
    return sig, named


def check_model_range(energy: float, model: WaveguideModel) -> None:
    """Raise :class:`DomainError` unless ``energy`` lies ``THRESHOLD_MARGIN``
    below ``lambda_(n_max + 1)``: from there up more channels are open than
    the model stores modes, so no mode cutoff meets any tail tolerance."""
    top = model.eigenvalue(model.n_max + 1)
    if not energy < top - THRESHOLD_MARGIN:
        raise DomainError(f"energy {energy} is not {THRESHOLD_MARGIN:g} below "
                          f"lambda_{model.n_max + 1} = {top}, the first threshold "
                          f"past the {model.n_max} stored modes")


def check_window(window: tuple[float, float], model: WaveguideModel) -> None:
    """Raise :class:`DomainError` unless ``window`` is finite, nonempty,
    within the model's range (:func:`check_model_range` of its top) and
    ``THRESHOLD_MARGIN`` clear of ``lambda_1 .. lambda_n_max``."""
    lo, hi = window
    if not -np.inf < lo < hi < np.inf:
        raise DomainError("empty or unbounded search window")
    check_model_range(hi, model)
    for n in range(1, model.n_max + 1):
        t = model.eigenvalue(n)
        if lo - THRESHOLD_MARGIN < t < hi + THRESHOLD_MARGIN:
            raise DomainError(f"window touches threshold lambda_{n} = {t}")


def eigenvalue_search(
    window: tuple[float, float],
    model: WaveguideModel,
    resolution: int = 48,
    tail_tol: float = 1e-3,
    refine_width: float = 1e-10,
) -> list[EigenvalueCandidate]:
    """Scan the smallest singular value of ``u + v R0(lam + i0) v``.

    The scan is :func:`_scan`, which also names, at each energy, the sector
    block that holds the minimum.  Interior local minima of the scan are
    refined by golden-section search to ``refine_width`` on the band of the
    block named there (a coupled model is its own block 0), from that
    block's normalized slice of the start vector, and kept when the refined
    relative dip ``sigma_min / sigma_max`` is below ``DETECT_REL``; both are
    the whole band's one-row :func:`_lanczos` estimates from the fixed start
    vectors, and ``sigma_max`` is computed at the refined points only.  An
    empty result is a valid outcome.  :func:`check_window` vets the window;
    ``resolution < 3`` raises :class:`DomainError`."""
    check_window(window, model)
    if resolution < 3:
        raise DomainError(f"resolution = {resolution}; the scan needs at least 3 points")
    x_max, x_min = _start_vectors(model.dim)
    sec = model.sectors
    x_blocks = sec.blocked(sec.to_sector(x_min))[:, :, 0]
    x_blocks = x_blocks / np.linalg.norm(x_blocks, axis=1, keepdims=True)
    lams = np.linspace(*window, resolution)
    sig, named = _scan(lams, model, tail_tol, x_min)
    out: list[EigenvalueCandidate] = []
    for i in range(1, resolution - 1):
        if not (sig[i] <= sig[i - 1] and sig[i] <= sig[i + 1]):
            continue
        b = named[i]
        lam_star = golden_min(
            lambda lam: _sigma_min(boundary_operator(lam, model, tail_tol, b), x_blocks[b]),
            float(lams[i - 1]), float(lams[i + 1]), refine_width)
        op = boundary_operator(lam_star, model, tail_tol)
        s_star = _sigma_min(op, x_min)
        rel = s_star / max(_sigma_max(op, x_max), 1e-300)
        if rel < DETECT_REL:
            out.append(EigenvalueCandidate(lam_star, s_star, rel))
    return out
