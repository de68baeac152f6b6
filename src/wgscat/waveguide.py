"""Waveguide model: transverse modes, thresholds, potential factors, grid.

The guide is ``Sigma x R`` with Dirichlet boundary on the cross-section
``Sigma``.  Everything downstream lives on a composite quadrature grid over
``supp V = Sigma x [a, b]`` with the symmetric weighting convention: a
kernel operator ``K`` is stored as ``M[I, J] = sqrt(w_I) K(node_I, node_J)
sqrt(w_J)`` so matrix adjoints represent operator adjoints, and
multiplication operators are diagonal.

Composite index convention: ``I = i_omega * n_x + k_x`` (transverse index
major, longitudinal minor).  :class:`Sectors` is the transverse basis in
which a model's grid operators are block diagonal.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigError, DimensionError, ModelError

MODEL_SCHEMA_VERSION = 1

ORTHONORMALITY_TOL = 1e-8
THRESHOLD_REL_TOL = 1e-9   # eigenvalues this close (relative) share a threshold


# ---------------------------------------------------------------------------
# Cross-sections and transverse modes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransverseMode:
    """Dirichlet eigenpair sampled on the transverse quadrature nodes."""

    index: int              # 1-based position in the sorted eigenvalue list
    eigenvalue: float
    samples: np.ndarray     # f_n at the transverse nodes (unweighted)


@dataclass(frozen=True)
class Interval:
    """Cross-section ``(0, length)``; modes are Dirichlet sines."""

    length: float

    def __post_init__(self):
        if not 0 < self.length < math.inf:
            raise ModelError("interval length must be positive and finite")

    def transverse_rule(self, n_omega: int):
        # Dirichlet lattice (interior trapezoid rule): orthonormalizes the
        # sine modes n <= n_omega exactly and keeps mode sectors decoupled
        # on the grid.
        nodes, weights = dirichlet_lattice(self.length, n_omega)
        return nodes.reshape(-1, 1), weights

    def eigenvalue(self, n: int) -> float:
        return (n * math.pi / self.length) ** 2

    def quadrature_cap(self, n_modes: int) -> float:
        """Cap on ``sum_i w_i f_n(omega_i)^2`` over all mode indices."""
        return 2.0

    def modes(self, n_max: int, nodes: np.ndarray) -> list[TransverseMode]:
        om = nodes[:, 0]
        out = []
        for n in range(1, n_max + 1):
            f = math.sqrt(2.0 / self.length) * np.sin(n * math.pi * om / self.length)
            out.append(TransverseMode(n, self.eigenvalue(n), f))
        return out


@dataclass(frozen=True)
class Rectangle:
    """Cross-section ``(0, l1) x (0, l2)``; modes are sine products.

    Eigenvalues sort ascending with lexicographic ``(p, q)`` tie order.
    """

    l1: float
    l2: float

    def __post_init__(self):
        if not (0 < self.l1 < math.inf and 0 < self.l2 < math.inf):
            raise ModelError("rectangle sides must be positive and finite")

    def transverse_rule(self, n_omega: int):
        # n_omega points per axis, Dirichlet lattice on each
        n1, w1 = dirichlet_lattice(self.l1, n_omega)
        n2, w2 = dirichlet_lattice(self.l2, n_omega)
        nodes = np.array([(a, b) for a in n1 for b in n2])
        weights = np.array([wa * wb for wa in w1 for wb in w2])
        return nodes, weights

    def _lam(self, p: int, q: int) -> float:
        return (p * math.pi / self.l1) ** 2 + (q * math.pi / self.l2) ** 2

    @cache
    def _pairs(self, count: int) -> tuple[tuple[float, int, int], ...]:
        """The ``count`` lowest ``(lambda, p, q)`` in sorted order.  Each has
        ``p, q <= count``: the ``p - 1`` pairs ``(1..p-1, q)`` sort before
        ``(p, q)``, and so do the ``q - 1`` pairs ``(p, 1..q-1)``."""
        r = range(1, count + 1)
        return tuple(sorted((self._lam(p, q), p, q) for p in r for q in r)[:count])

    def eigenvalue(self, n: int) -> float:
        return self._pairs(n)[n - 1][0]

    def quadrature_cap(self, n_modes: int) -> float:
        """Cap on ``sum_i w_i f_n(omega_i)^2`` over all mode indices."""
        return 4.0

    def modes(self, n_max: int, nodes: np.ndarray) -> list[TransverseMode]:
        out = []
        for idx, (lam, p, q) in enumerate(self._pairs(n_max), start=1):
            f = (
                math.sqrt(2.0 / self.l1)
                * np.sin(p * math.pi * nodes[:, 0] / self.l1)
                * math.sqrt(2.0 / self.l2)
                * np.sin(q * math.pi * nodes[:, 1] / self.l2)
            )
            out.append(TransverseMode(idx, lam, f))
        return out


@dataclass(frozen=True)
class Custom:
    """User-supplied transverse data: quadrature rule plus eigenpairs.

    ``samples[k]`` holds eigenfunction ``k`` at the supplied nodes; the
    eigenvalues must be nondecreasing and the eigenfunctions orthonormal
    under the supplied rule to 1e-8.
    """

    nodes: np.ndarray
    weights: np.ndarray
    eigenvalues: tuple[float, ...]
    samples: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_2d(np.asarray(self.nodes, dtype=float))
        if nodes.shape[0] == 1 and nodes.shape[1] > 1 and np.asarray(self.weights).size != 1:
            nodes = nodes.T
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if self.weights.ndim != 1 or nodes.ndim != 2 or nodes.shape[0] != self.weights.size:
            raise ModelError("custom rule needs one node row per weight")
        ev = np.asarray(self.eigenvalues, dtype=float)
        if not all(np.all(np.isfinite(x)) for x in (nodes, self.weights, ev, self.samples)):
            raise ModelError("custom cross-section data must be finite")
        if np.any(np.diff(ev) < 0):
            raise ModelError("custom eigenvalues must be nondecreasing")
        if self.samples.shape != (ev.size, self.weights.size):
            raise ModelError("samples must be (n_modes, n_nodes)")
        gram = np.einsum("i,ki,li->kl", self.weights, self.samples, self.samples)
        if not np.max(np.abs(gram - np.eye(ev.size))) <= ORTHONORMALITY_TOL:
            raise ModelError("custom eigenfunctions are not orthonormal under the rule")

    def transverse_rule(self, n_omega: int):
        # the supplied rule is authoritative; n_omega is ignored
        return self.nodes, self.weights

    def eigenvalue(self, n: int) -> float:
        ev = self.eigenvalues
        if n <= len(ev):
            return float(ev[n - 1])
        # best-effort extrapolation flag: repeat the last supplied value
        return float(ev[-1])

    def quadrature_cap(self, n_modes: int) -> float:
        """``max(1, sum_i w_i f_n(omega_i)^2)`` measured over the first
        ``n_modes`` supplied modes (no analytic cap is known)."""
        phi = self.samples[:n_modes] * np.sqrt(self.weights)
        return float(max(1.0, np.max(np.sum(phi**2, axis=1))))

    def modes(self, n_max: int, nodes: np.ndarray) -> list[TransverseMode]:
        if n_max > len(self.eigenvalues):
            raise ModelError("custom cross-section has too few supplied modes")
        return [
            TransverseMode(n, float(self.eigenvalues[n - 1]), self.samples[n - 1])
            for n in range(1, n_max + 1)
        ]


@dataclass(frozen=True)
class ThresholdGroup:
    """A threshold value with the indices of all modes degenerate with it."""

    value: float
    members: tuple[int, ...]


def threshold_groups(modes: Sequence[TransverseMode]) -> list[ThresholdGroup]:
    """Greedy clustering of sorted eigenvalues into degeneracy groups, at
    ``THRESHOLD_REL_TOL`` relative to the eigenvalue."""
    groups: list[ThresholdGroup] = []
    current: list[int] = []
    anchor = None
    for m in modes:
        tol = THRESHOLD_REL_TOL * max(1.0, abs(m.eigenvalue))
        if anchor is not None and abs(m.eigenvalue - anchor) <= tol:
            current.append(m.index)
        else:
            if current:
                groups.append(ThresholdGroup(anchor, tuple(current)))
            anchor = m.eigenvalue
            current = [m.index]
    if current:
        groups.append(ThresholdGroup(anchor, tuple(current)))
    return groups


# ---------------------------------------------------------------------------
# Quadrature grid
# ---------------------------------------------------------------------------

def dirichlet_lattice(length: float, n_nodes: int):
    """Interior equispaced rule on ``(0, length)`` with uniform weights.

    For Dirichlet sine modes this rule is exact for all inner products
    ``<f_m, f_n>`` with ``m, n <= n_nodes`` (discrete sine orthogonality).
    """
    if n_nodes < 2:
        raise DimensionError("need at least 2 transverse nodes")
    h = length / (n_nodes + 1)
    nodes = h * np.arange(1, n_nodes + 1)
    weights = np.full(n_nodes, h)
    return nodes, weights


@cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n``-point Gauss-Legendre rule on [-1, 1], computed once per
    order and shared, so its arrays are read-only."""
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


def gauss_legendre_panels(a: float, b: float, n_nodes: int, n_panels: int = 1):
    """Composite Gauss-Legendre rule: ``n_nodes`` total over equal panels."""
    if n_nodes < 2:
        raise DimensionError("need at least 2 nodes")
    if n_panels < 1 or n_nodes % n_panels != 0:
        raise DimensionError("n_nodes must split evenly across panels")
    per = n_nodes // n_panels
    x_ref, w_ref = _legendre_rule(per)
    nodes, weights = [], []
    edges = np.linspace(a, b, n_panels + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = (hi - lo) / 2.0
        nodes.append(lo + half * (x_ref + 1.0))
        weights.append(half * w_ref)
    return np.concatenate(nodes), np.concatenate(weights)


@dataclass(frozen=True)
class Grid:
    """Composite quadrature over ``Sigma x [a, b]``."""

    omega_nodes: np.ndarray    # (n_omega, d-1)
    omega_weights: np.ndarray  # (n_omega,)
    x_nodes: np.ndarray        # (n_x,)
    x_weights: np.ndarray      # (n_x,)

    def __post_init__(self):
        parts = (self.omega_nodes, self.omega_weights, self.x_nodes, self.x_weights)
        if not all(np.all(np.isfinite(x)) for x in parts):
            raise ModelError("quadrature nodes and weights must be finite")
        if not (np.all(self.omega_weights > 0) and np.all(self.x_weights > 0)):
            raise ModelError("quadrature weights must be positive")

    @property
    def n_omega(self) -> int:
        return self.omega_weights.size

    @property
    def n_x(self) -> int:
        return self.x_weights.size

    @property
    def dim(self) -> int:
        return self.n_omega * self.n_x

    def composite_sqrt_weights(self) -> np.ndarray:
        return np.sqrt(np.kron(self.omega_weights, self.x_weights))


def build_grid(cross_section, support: tuple[float, float], n_omega: int, n_x: int,
               n_panels: int = 1) -> Grid:
    """Grid for ``supp V``: transverse rule from the cross-section kind,
    Gauss-Legendre panels longitudinally on ``[a, b]``."""
    a, b = support
    if not -math.inf < a < b < math.inf:
        raise ModelError("support box must be finite with positive length")
    om_nodes, om_weights = cross_section.transverse_rule(n_omega)
    x_nodes, x_weights = gauss_legendre_panels(a, b, n_x, n_panels)
    return Grid(om_nodes, om_weights, x_nodes, x_weights)


# ---------------------------------------------------------------------------
# Potential
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialModel:
    """Pointwise factorization ``V = v u v`` on the grid.

    ``v = |V|^(1/2) >= 0`` and ``u = +1`` where ``V >= 0``, ``-1`` where
    ``V < 0`` (points with ``V = 0`` get ``+1``; ``v`` vanishes there).
    ``x_factor``/``omega_factor`` are set when ``V`` factors as
    ``g(omega) * W(x)`` with ``g >= 0`` (fast assembly path).
    """

    values: np.ndarray         # V on the grid, shape (n_omega, n_x)
    v: np.ndarray
    u: np.ndarray
    omega_factor: np.ndarray | None = None   # sqrt(g) at omega nodes
    x_factor: np.ndarray | None = None       # sqrt(|W|) at x nodes

    @property
    def separable(self) -> bool:
        return self.x_factor is not None


def factorize_potential(values: np.ndarray,
                        omega_factor: np.ndarray | None = None,
                        x_factor: np.ndarray | None = None) -> PotentialModel:
    """Pointwise ``v``/``u`` factors of a bounded potential table."""
    vals = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ModelError("potential has non-finite values")
    v = np.sqrt(np.abs(vals))
    u = np.where(vals >= 0.0, 1.0, -1.0)
    return PotentialModel(vals, v, u, omega_factor, x_factor)


# ---------------------------------------------------------------------------
# Assembled model
# ---------------------------------------------------------------------------

@dataclass
class WaveguideModel:
    """Cross-section modes + potential factors + grid, ready for assembly.

    The threshold groups (:attr:`groups`) and the sector basis
    (:attr:`sectors`) are derived from these fields on first use."""

    cross_section: Interval | Rectangle | Custom
    grid: Grid
    modes: list[TransverseMode]
    potential: PotentialModel
    # the energy-independent band layouts of birman.boundary_operator, keyed
    # by mode count and built on first use (birman.band_layout); a copy made
    # by dataclasses.replace starts with none
    band_layouts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.potential.values.shape != (self.grid.n_omega, self.grid.n_x):
            raise DimensionError("potential table does not match the grid")

    @property
    def n_max(self) -> int:
        return len(self.modes)

    @property
    def dim(self) -> int:
        return self.grid.dim

    def eigenvalue(self, n: int) -> float:
        """lambda_n for any n >= 1 (analytic beyond the stored modes)."""
        if n <= len(self.modes):
            return self.modes[n - 1].eigenvalue
        return self.cross_section.eigenvalue(n)

    def thresholds(self) -> list[float]:
        return [g.value for g in self.groups]

    def group_at(self, lam: float) -> ThresholdGroup:
        """The threshold group within ``THRESHOLD_REL_TOL`` (relative) of
        ``lam``; :class:`ModelError` when ``lam`` is not a threshold."""
        for g in self.groups:
            if abs(g.value - lam) <= THRESHOLD_REL_TOL * max(1.0, abs(lam)):
                return g
        raise ModelError(f"{lam} is not a threshold of this model")

    def v_norm_inf(self) -> float:
        return float(np.max(self.potential.v))

    def u_diag(self) -> np.ndarray:
        return self.potential.u.reshape(-1).astype(complex)

    def weighted_mode_vector(self, n: int) -> np.ndarray:
        """Composite vector ``f_n(omega) v(omega,x) sqrt(w)`` (the rank-one
        factor of the leading threshold kernel)."""
        f = self.modes[n - 1].samples
        sw = self.grid.composite_sqrt_weights().reshape(self.grid.n_omega, self.grid.n_x)
        return (f[:, None] * self.potential.v * sw).reshape(-1)

    def mode_quadrature_vectors(self, count: int | None = None) -> np.ndarray:
        """Stack of ``f_n(omega_i) sqrt(w_omega_i)`` rows, shape (count, n_omega)."""
        count = count if count is not None else len(self.modes)
        sq = np.sqrt(self.grid.omega_weights)
        return np.array([m.samples * sq for m in self.modes[:count]])

    def orthonormality_defect(self, n_upto: int | None = None) -> float:
        phi = self.mode_quadrature_vectors(n_upto)
        gram = phi @ phi.T
        return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))

    @cached_property
    def groups(self) -> list[ThresholdGroup]:
        """The degeneracy groups of the stored modes (:func:`threshold_groups`
        at its default tolerance)."""
        return threshold_groups(self.modes)

    @cached_property
    def sectors(self) -> Sectors:
        """The transverse sector basis of the grid operators (:func:`transverse_sectors`)."""
        return transverse_sectors(self)


# ---------------------------------------------------------------------------
# Transverse sectors
# ---------------------------------------------------------------------------

SECTOR_TOL = 1e-12   # parallel / orthogonal tolerance of the weighted mode vectors


@dataclass(frozen=True)
class Sectors:
    """Transverse basis in which the grid operators of a model are block diagonal.

    Two shapes occur.  A decomposing model has an orthonormal transverse
    ``basis`` (``n_omega x n_omega``, sector ``s`` its column ``s``) and the
    sector ``mode_sector[n - 1]`` of each stored mode ``n`` (``-1`` where it
    vanishes on the lattice): sector coordinates are the grid coordinates
    transformed by :meth:`to_sector` (sector ``s`` holds indices
    ``s * n_x + k``), and the operators split into ``n_omega`` diagonal
    blocks of size ``n_x``, one per sector.  Any other model, and the band
    of one sector block, has ``basis=None`` (:meth:`single`): one block whose
    sector coordinates are the grid coordinates.  Operators are stored as
    stacks ``(n_blocks, block_dim, block_dim)``.
    """

    basis: np.ndarray | None
    n_omega: int
    n_x: int
    mode_sector: np.ndarray | None = None

    @classmethod
    def single(cls, n_omega: int, n_x: int) -> Sectors:
        """One block: the grid coordinates themselves."""
        return cls(None, n_omega, n_x)

    @property
    def n_blocks(self) -> int:
        return 1 if self.basis is None else self.n_omega

    @property
    def dim(self) -> int:
        return self.n_omega * self.n_x

    @property
    def block_dim(self) -> int:
        return self.dim // self.n_blocks

    def _transverse(self, q: np.ndarray | None, y) -> np.ndarray:
        """``q`` tensored with the identity in ``x``, applied to ``y``; one real
        product on the interleaved parts of a complex ``y``, since after a
        complex BLAS product OpenBLAS runs a narrow ``zgbtrs`` several times slower."""
        y = np.asarray(y)
        if q is None:
            return y
        t = y.reshape(self.n_omega, -1)
        if np.iscomplexobj(t):
            return (q @ np.ascontiguousarray(t).view(float)).view(complex).reshape(y.shape)
        return (q @ t).reshape(y.shape)

    def to_sector(self, y) -> np.ndarray:
        """Grid vector(s) ``(dim,)`` or ``(dim, r)`` in sector coordinates."""
        return self._transverse(None if self.basis is None else self.basis.T, y)

    def to_grid(self, y) -> np.ndarray:
        """Sector-coordinate vector(s) ``(dim,)`` or ``(dim, r)`` in grid coordinates."""
        return self._transverse(self.basis, y)

    def grid_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """The dense grid matrix of a block stack, a new array (for one
        block, a copy of it): entry ``(i k, j l)`` is ``sum_s basis[i, s]
        basis[j, s] B_s[k, l]``, one real product of the sector weights with
        the interleaved parts of the blocks, then one transposed write."""
        if self.basis is None:
            return blocks[0].copy()
        n, n_x = self.n_omega, self.n_x
        weights = (self.basis[:, None, :] * self.basis[None, :, :]).reshape(n * n, n)
        parts = np.ascontiguousarray(blocks, dtype=complex).reshape(n, -1).view(float)
        prod = (weights @ parts).view(complex).reshape(n, n, n_x, n_x)
        out = np.empty((self.dim, self.dim), dtype=complex)
        out.reshape(n, n_x, n, n_x)[...] = prod.transpose(0, 2, 1, 3)
        return out

    def blocked(self, y: np.ndarray) -> np.ndarray:
        """Sector-coordinate columns ``(dim, r)`` as per-block rows ``(n_blocks, block_dim, r)``."""
        return y.reshape(self.n_blocks, self.block_dim, -1)

    def rows(self, y: np.ndarray) -> np.ndarray:
        """Per-block rows ``(n_blocks, r, block_dim)`` as sector-coordinate rows ``(r, dim)``."""
        return y.transpose(1, 0, 2).reshape(y.shape[1], self.dim)

    def diagonal(self, values: np.ndarray) -> np.ndarray:
        """Stack of a multiplication operator given on the grid ``(n_omega, n_x)``
        that is constant along ``omega`` wherever the model decomposes."""
        d = np.asarray(values, dtype=complex).reshape(self.n_blocks, self.block_dim)
        out = np.zeros((self.n_blocks, self.block_dim, self.block_dim), dtype=complex)
        idx = np.arange(self.block_dim)
        out[:, idx, idx] = d
        return out


def transverse_sectors(model: WaveguideModel) -> Sectors:
    """Sector basis from the model's own weighted mode vectors
    ``phi_n = sqrt(g) f_n sqrt(w_omega)`` (``g`` the transverse potential
    factor), ``n = 1..n_max``, with the sector of each mode.

    Nonzero ``phi_n`` are grouped into classes of parallel vectors; vectors
    at ``SECTOR_TOL`` of zero relative to the largest (aliased images such
    as ``n = n_omega + 1`` on an interval lattice) carry no weight and get
    no sector.  The model decomposes when the potential is separable, its
    sign ``u`` does not vary along ``omega``, and the classes are mutually
    orthogonal to ``SECTOR_TOL``: then every retained mode sum is diagonal
    in the classes completed to an orthonormal transverse basis (class ``c``
    its column ``c``), and ``u + v R0 v`` splits into ``n_omega`` blocks of
    size ``n_x``.  Any other model is one block.
    """
    grid, pot = model.grid, model.potential
    single = Sectors.single(grid.n_omega, grid.n_x)
    if not pot.separable or np.any(pot.u != pot.u[:1]):
        return single
    phi = np.array([m.samples for m in model.modes]) * pot.omega_factor
    phi = phi * np.sqrt(grid.omega_weights)
    norms = np.linalg.norm(phi, axis=1)
    reps: list[np.ndarray] = []
    home = np.full(len(model.modes), -1)
    for n, (f, nrm) in enumerate(zip(phi, norms)):
        if nrm <= SECTOR_TOL * norms.max():
            continue
        e = f / nrm
        overlap = np.array([r @ e for r in reps])
        near = np.abs(overlap) > SECTOR_TOL
        if not near.any():
            home[n] = len(reps)
            reps.append(e)
            continue
        c = int(np.argmax(np.abs(overlap)))
        if near.sum() > 1 or np.linalg.norm(e - overlap[c] * reps[c]) > SECTOR_TOL:
            return single
        home[n] = c
    basis = np.linalg.qr(np.array(reps).reshape(-1, grid.n_omega).T, mode="complete")[0]
    return Sectors(basis, grid.n_omega, grid.n_x, home)


def _omega_profile(kind: dict | None, nodes: np.ndarray, length: float) -> np.ndarray:
    """Nonnegative transverse profile ``g(omega)`` for separable presets."""
    om = nodes[:, 0]
    name = "uniform" if kind is None else config_value(kind, "kind", str, "uniform")
    if name == "uniform":
        return np.ones_like(om)
    if name == "cosine":
        amp = config_value(kind, "amplitude", json_float, 0.0)
        harmonic = config_value(kind, "harmonic", json_int, 1)
        if abs(amp) >= 1.0:
            raise ModelError("cosine profile amplitude must satisfy |a| < 1")
        return 1.0 + amp * np.cos(harmonic * math.pi * om / length)
    raise ModelError(f"unknown omega profile {kind!r}")


def square_well_model(
    cross_section,
    depth: float,
    x_box: tuple[float, float],
    n_omega: int,
    n_x: int,
    n_max: int,
    omega_profile: dict | None = None,
    n_panels: int = 1,
) -> WaveguideModel:
    """Attractive square well ``V = -depth * g(omega)`` on ``x in [a, b]``.

    The box spans the full cross-section; ``g`` is a nonnegative profile
    (uniform by default), so ``V`` factors as ``g(omega) W(x)`` and the fast
    separable assembly path applies.  Threshold groups use the default
    ``THRESHOLD_REL_TOL`` clustering of :func:`threshold_groups`.
    """
    if depth < 0:
        raise ModelError("depth is the well magnitude; must be >= 0")
    grid = build_grid(cross_section, x_box, n_omega, n_x, n_panels)
    length = getattr(cross_section, "length", None)
    if length is None and isinstance(cross_section, Rectangle):
        length = cross_section.l1
    g = _omega_profile(omega_profile, grid.omega_nodes, length or 1.0)
    w_x = -depth * np.ones(grid.n_x)
    values = g[:, None] * w_x[None, :]
    pot = factorize_potential(values, omega_factor=np.sqrt(g), x_factor=np.sqrt(np.abs(w_x)))
    modes = cross_section.modes(n_max, grid.omega_nodes)
    return WaveguideModel(cross_section, grid, modes, pot)


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------

_REQUIRED = object()


def json_float(value) -> float:
    """A JSON number with a finite value (``0.2`` or ``1``) as a ``float``;
    a string, a boolean, ``NaN`` or an infinity raises ``ValueError``."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise ValueError(f"expected a finite number, got {value!r}")


def json_array(value) -> np.ndarray:
    """A JSON number or (nested) array of :func:`json_float` numbers as a
    float array; a ragged array raises ``ValueError``."""
    def floats(v):
        return [floats(x) for x in v] if isinstance(v, list) else json_float(v)
    return np.asarray(floats(value), dtype=float)


def config_value(section: dict, key: str, convert=json_float, default=_REQUIRED):
    """``convert(section[key])`` for one field of a JSON config section, or
    ``default`` when the key is absent and a default is given.

    A section that is not an object, a missing required key, or a value that
    ``convert`` rejects raises :class:`ConfigError`.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"expected an object holding {key!r}, got {type(section).__name__}")
    if key not in section:
        if default is _REQUIRED:
            raise ConfigError(f"missing {key!r}")
        return default
    try:
        return convert(section[key])
    except (TypeError, ValueError, LookupError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


def json_list(value, convert=json_float, length: int | None = None) -> list:
    """A JSON array with ``convert`` applied to each item, of the given
    length if any."""
    if not isinstance(value, list) or (length is not None and len(value) != length):
        raise ValueError(f"expected an array of {length or 'any number of'} items")
    return [convert(v) for v in value]


def json_int(value) -> int:
    """A JSON number with an integral value (``24`` or ``24.0``) as an
    ``int``; a string, a boolean or a fraction raises ``ValueError``."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"expected an integer, got {value!r}")


def json_object(value) -> dict:
    """``value`` itself when it is a JSON object (a config section)."""
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def model_from_config(doc: dict) -> WaveguideModel:
    """Build a model from its JSON description.

    Schema (version 1)::

        {"schema_version": 1,
         "cross_section": {"kind": "interval", "length": L}
                          | {"kind": "rectangle", "l1": L1, "l2": L2}
                          | {"kind": "custom", "nodes": [...], "weights": [...],
                             "eigenvalues": [...], "samples": [[...], ...]},
         "grid": {"n_omega": int, "n_x": int, "n_panels": int},
         "n_max": int,
         "potential": {"kind": "square_well", "depth": d, "x_box": [a, b],
                       "omega_profile": {...}?}
                      | {"kind": "table", "x_box": [a, b],
                         "values": [[...], ...]}}

    A missing or malformed field (an integer field, ``n_omega``, ``n_x``,
    ``n_panels``, ``n_max`` or ``harmonic``, must be a JSON number with an
    integral value: :func:`json_int`; every other number, array entries
    included, a finite JSON number: :func:`json_float`), ``n_max < 1``, a
    grid with fewer than 2 nodes per axis (``n_omega`` is ignored for a
    custom cross-section), an ``n_panels`` that does not divide ``n_x``, or
    a ``values`` table whose shape is not the grid's raises
    :class:`ConfigError`, and an unsupported schema version or kind raises
    :class:`ModelError`; all before the model is built.
    """
    if not isinstance(doc, dict) or doc.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise ModelError("unsupported model schema_version")
    cs_doc = config_value(doc, "cross_section", json_object)
    kind = config_value(cs_doc, "kind", str)
    if kind == "interval":
        cs = Interval(config_value(cs_doc, "length"))
    elif kind == "rectangle":
        cs = Rectangle(config_value(cs_doc, "l1"), config_value(cs_doc, "l2"))
    elif kind == "custom":
        cs = Custom(
            config_value(cs_doc, "nodes", json_array),
            config_value(cs_doc, "weights", json_array),
            tuple(config_value(cs_doc, "eigenvalues", json_list)),
            config_value(cs_doc, "samples", json_array),
        )
    else:
        raise ModelError(f"unknown cross-section kind {kind!r}")
    gr = config_value(doc, "grid", json_object)
    n_omega, n_x = config_value(gr, "n_omega", json_int), config_value(gr, "n_x", json_int)
    n_panels = config_value(gr, "n_panels", json_int, 1)
    if n_x < 2 or (kind != "custom" and n_omega < 2):
        raise ConfigError("the grid needs at least 2 nodes along each axis")
    if n_panels < 1 or n_x % n_panels:
        raise ConfigError(f"n_panels = {n_panels} does not split n_x = {n_x} evenly")
    pot_doc = config_value(doc, "potential", json_object)
    x_box = tuple(config_value(pot_doc, "x_box", lambda v: json_list(v, length=2)))
    n_max = config_value(doc, "n_max", json_int)
    if n_max < 1:
        raise ConfigError("n_max must be at least 1")
    pot_kind = config_value(pot_doc, "kind", str)
    if pot_kind == "square_well":
        return square_well_model(
            cs,
            config_value(pot_doc, "depth"),
            x_box,
            n_omega,
            n_x,
            n_max,
            omega_profile=config_value(pot_doc, "omega_profile", json_object, None),
            n_panels=n_panels,
        )
    if pot_kind == "table":
        grid = build_grid(cs, x_box, n_omega, n_x, n_panels)
        values = config_value(pot_doc, "values", json_array)
        if values.shape != (grid.n_omega, grid.n_x):
            raise ConfigError(
                f"potential table of shape {values.shape} does not match the "
                f"{grid.n_omega} x {grid.n_x} grid"
            )
        pot = factorize_potential(values)
        modes = cs.modes(n_max, grid.omega_nodes)
        return WaveguideModel(cs, grid, modes, pot)
    raise ModelError(f"unknown potential kind {pot_kind!r}")

