"""Generalized inversion engine for singular operator families.

Implements the two-projection inversion scheme for families
``A(z) = A0 + z * A1(z)`` with a projection ``S`` satisfying

    (i)  ``A0 + S`` invertible,
    (ii) ``S (A0 + S)^-1 S = S``,

namely the bounded operator ``B(z)`` on ``ran(S)``, the exact inverse
formula for ``A(z)^-1``, hypothesis checks for the natural projection
choices (contour vs orthogonal-onto-kernel), and iterated projection
ladders with a final two-term step.  ``B(z)`` has one form,
``S G0 A1(z) G S`` with ``G0 = (A0+S)^-1`` and ``G = (A(z)+S)^-1``: under
(ii) it equals the defining quotient ``(S - S G S) / z`` exactly, and it is
formed without cancellation or division by ``z``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .errors import (
    AccuracyError,
    ConfigError,
    DimensionError,
    DomainError,
    HypothesisError,
    SingularMatrixError,
)
from .linalg import Projection, opnorm
from .waveguide import config_value, json_list, json_object

CONDITION_TOL = 1e-8      # defects of condition (ii) and the annihilation identities
PSD_TOL = 1e-10           # positivity of the skew part, relative to ||A0||
RESIDUAL_TOL = 1e-8       # ||A(z) X - 1|| of an inverse, relative to cond(A(z))


@dataclass(frozen=True)
class OperatorFamily:
    """Family ``z -> base + z * remainder(z)`` on a punctured disk.

    ``remainder`` must be a pure function of ``z`` returning a matrix of the
    same shape as ``base`` with norm at most ``bound`` on the domain; the
    domain is ``0 < |z| < radius``, optionally restricted to the closed
    angular sector ``sector = (theta_min, theta_max)``.
    """

    base: np.ndarray
    remainder: Callable[[complex], np.ndarray]
    bound: float
    radius: float
    sector: tuple[float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "base", linalg.require_square(self.base))

    @property
    def dim(self) -> int:
        return self.base.shape[0]

    def a1(self, z: complex) -> np.ndarray:
        """Evaluate ``A1(z) = remainder(z)``, checked against the base shape."""
        r = linalg.require_square(self.remainder(z))
        if r.shape != self.base.shape:
            raise DimensionError("remainder shape differs from base shape")
        return r

    def a(self, z: complex) -> np.ndarray:
        """Evaluate ``A(z) = base + z * remainder(z)``."""
        return self.base + z * self.a1(z)

    def contains(self, z: complex) -> bool:
        """Whether ``z`` lies in the domain: ``0 < |z| < radius`` and, with a
        sector, ``theta_min <= arg z <= theta_max`` for some branch of
        ``arg``, the angles :meth:`spot_check` samples."""
        if not 0 < abs(z) < self.radius:
            return False
        if self.sector is None:
            return True
        lo, hi = self.sector
        return (np.angle(z) - lo) % (2.0 * np.pi) <= hi - lo

    def spot_check(self, rng: np.random.Generator, samples: int = 4) -> float:
        """Sample ``norm(remainder(z))`` on the domain; returns the max seen."""
        worst = 0.0
        for _ in range(samples):
            r = self.radius * 10.0 ** rng.uniform(-3, -0.05)
            if self.sector is None:
                ang = rng.uniform(-np.pi, np.pi)
            else:
                ang = rng.uniform(*self.sector)
            worst = max(worst, opnorm(self.remainder(r * np.exp(1j * ang))))
        return worst


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of checking conditions (i) and (ii) for a pair ``(A0, S)``."""

    cond_i_margin: float
    cond_ii_defect: float
    ok: bool


def verify_conditions(a0: np.ndarray, s: Projection) -> ConditionReport:
    """Check invertibility of ``A0 + S`` and the compression identity, the
    latter to ``CONDITION_TOL``.

    Never raises on mathematical failure; the report carries the margins.
    """
    return _conditions(a0, s)[0]


def _conditions(a0: np.ndarray, s: Projection):
    """:func:`verify_conditions` and ``(A0 + S)^-1`` (``None`` when singular)."""
    a0 = linalg.require_square(a0)
    if a0.shape != s.matrix.shape:
        raise DimensionError("A0 and S shapes differ")
    try:
        g, cond = linalg.inverse_with_cond(a0 + s.matrix)
    except SingularMatrixError:
        return ConditionReport(0.0, float("inf"), False), None
    sm = s.matrix
    defect = opnorm(sm @ g @ sm - sm) / max(1.0, opnorm(sm))
    return ConditionReport(1.0 / cond, defect, defect <= CONDITION_TOL), g


def _b(sm: np.ndarray, g0: np.ndarray, a1: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``B(z) = S G0 A1(z) G S`` from ``G0 = (A0+S)^-1`` and ``G = (A(z)+S)^-1``.

    Under (ii) ``S = S G0 S``, and ``G0 - G = z G0 A1(z) G``, so this product
    equals the defining quotient ``(S - S G S) / z`` exactly, with no
    cancellation and no division by ``z``."""
    return sm @ g0 @ a1 @ g @ sm


def _schur_step(g: np.ndarray, s: Projection, block: np.ndarray, c, singular: str):
    """``G + (c G) Q Block^-1 (Q* S) G`` with the block compressed to ``ran(S)``
    (``Q = s.basis``; ``c=None`` means ``c = 1``).  A singular compressed
    block raises :class:`SingularMatrixError` with the message ``singular``."""
    q = s.basis
    try:
        block_inv = linalg.inverse(q.conj().T @ block @ q)
    except SingularMatrixError as exc:
        raise SingularMatrixError(singular, exc.cond) from exc
    cg = g if c is None else c * g
    return g + cg @ (q @ block_inv @ (q.conj().T @ s.matrix)) @ g


def jn_invert(fam: OperatorFamily, s: Projection, z: complex) -> np.ndarray:
    """Invert ``A(z)`` through the projection formula.

    ``A(z)^-1 = (A(z)+S)^-1 + (1/z)(A(z)+S)^-1 S B(z)^-1 S (A(z)+S)^-1``
    where ``B(z)^-1`` is taken inside ``ran(S)`` and ``B(z)`` is the product
    ``S G0 A1(z) G S`` (``G0 = (A0+S)^-1``, ``G = (A(z)+S)^-1``), which is
    exact under condition (ii).  Conditions (i) and (ii) are checked to
    ``CONDITION_TOL`` and raise :class:`HypothesisError` when they fail; a
    projection of rank above the corank of ``A0`` violates (ii).  ``z = 0``
    raises :class:`DomainError`.  A singular ``B(z)`` means ``A(z)`` itself
    is not invertible and raises :class:`SingularMatrixError` (that
    equivalence is exact, not a numerical failure).  The residual
    ``norm(A(z) X - 1)`` is checked internally against
    ``RESIDUAL_TOL * max(1, cond(A(z)))``.  ``A1(z)``, ``(A0+S)^-1`` and
    ``(A(z)+S)^-1`` are each computed once; with ``S = 0`` that one LU of
    ``A(z)`` gives its condition too.
    """
    if z == 0:
        raise DomainError("the projection formula is evaluated at z != 0 only")
    a1 = fam.a1(z)
    az = fam.base + z * a1
    sm = s.matrix
    g, cond = linalg.inverse_with_cond(az + sm)
    if s.rank == 0:
        x = g
    else:
        cert, g0 = _conditions(fam.base, s)
        if not cert.ok:
            raise HypothesisError(
                f"inversion conditions fail (margin {cert.cond_i_margin:.3e}, "
                f"defect {cert.cond_ii_defect:.3e})"
            )
        x = _schur_step(g, s, _b(sm, g0, a1, g), 1.0 / z,
                        "B(z) singular on ran(S): A(z) is not invertible at this z")
        cond = linalg.cond_estimate(az)  # a guard independent of the X it checks
    resid = opnorm(az @ x - np.eye(fam.dim))
    if resid > RESIDUAL_TOL * max(1.0, cond):
        raise AccuracyError(
            f"inversion residual {resid:.3e} exceeds {RESIDUAL_TOL:.1e} * cond"
        )
    return x


@dataclass(frozen=True)
class AnnihilationReport:
    """Defects of the contour projector annihilation identities."""

    defect_a0_s: float      # ||A0 S_r|| / ||A0||
    defect_s_a0: float      # ||S_r A0|| / ||A0||
    rank: int
    ok: bool


def skew_part_psd(a0: np.ndarray) -> tuple[float, bool]:
    """Positivity defect of the skew part of ``A0`` (a matrix or a block
    stack), :func:`linalg.skew_defect`, and whether it is within ``PSD_TOL``
    (relative to ``||A0||``): the one skew-part rule of the inversion
    hypotheses and of :func:`expansion.build_eigenvalue_ladder`."""
    d = linalg.skew_defect(a0)
    return d, d <= PSD_TOL * max(1.0, opnorm(a0))


def check_a0_annihilation(a0: np.ndarray) -> AnnihilationReport:
    """Verify ``A0 S_r = S_r A0 = 0`` to ``CONDITION_TOL`` for ``A0 = X + iY``
    with ``Y >= 0``; ``S_r`` is :func:`linalg.riesz_projection_at_zero`
    (``linalg.RIESZ_N_QUAD`` contour points).

    Preconditions: the skew part must be positive semidefinite to ``PSD_TOL``
    and 0 must be isolated in the spectrum (both raise
    :class:`HypothesisError` / :class:`ContourError` otherwise).
    """
    a0 = linalg.require_square(a0)
    d, hyp_ok = skew_part_psd(a0)
    if not hyp_ok:
        raise HypothesisError(
            f"imaginary part is not positive semidefinite (defect {d:.3e})"
        )
    sr = linalg.riesz_projection_at_zero(a0)
    scale = max(opnorm(a0), 1e-30)
    d1 = opnorm(a0 @ sr.matrix) / scale
    d2 = opnorm(sr.matrix @ a0) / scale
    return AnnihilationReport(d1, d2, sr.rank, max(d1, d2) <= CONDITION_TOL)


@dataclass(frozen=True)
class RieszOrthogonalReport:
    """Comparison of the contour projector with the kernel projector."""

    diff_norm: float
    hypothesis_ok: bool
    ok: bool


def check_riesz_orthogonal(a0: np.ndarray) -> RieszOrthogonalReport:
    """Report ``||S_r - S_o||`` for ``A0 = X + iY`` with ``Y >= 0``.

    ``S_r`` is :func:`linalg.riesz_projection_at_zero` (``linalg.RIESZ_N_QUAD``
    contour points) and ``S_o`` the kernel projector at
    ``linalg.DEFAULT_RANK_TOL``.  The hypothesis holds when the skew part is
    positive semidefinite to ``PSD_TOL``; the check passes when it holds and
    the difference is at most ``CONDITION_TOL``.  When the positivity
    hypothesis fails the report flags it instead of raising, so deliberately
    broken inputs can be used as negative controls.
    """
    _, hyp_ok = skew_part_psd(linalg.require_square(a0))
    sr = linalg.riesz_projection_at_zero(a0)
    so = linalg.kernel_projector(a0)
    diff = opnorm(sr.matrix - so.matrix)
    return RieszOrthogonalReport(diff, hyp_ok, hyp_ok and diff <= CONDITION_TOL)


@dataclass(frozen=True)
class FactorAnnihilationReport:
    defect_zs: float       # max_m ||Z_m S|| / max_m ||Z_m||
    defect_sz: float       # max_m ||S Z_m*|| / max_m ||Z_m||
    ok: bool


def check_factor_annihilation(
    zs: Sequence[np.ndarray],
    x: np.ndarray,
    s: Projection,
) -> FactorAnnihilationReport:
    """Verify ``Z_m S = 0`` and ``S Z_m* = 0`` given ``A0 S = 0 = S A0``.

    ``A0 := X + i sum_m Z_m* Z_m`` is assembled from the factors; the
    annihilation precondition on ``A0`` is checked first and raises
    :class:`HypothesisError` when violated.  Both the precondition and the
    result are judged at ``CONDITION_TOL``.
    """
    a0 = linalg.require_square(x).copy()
    zs = [np.asarray(zm, dtype=complex) for zm in zs]
    for zm in zs:
        a0 += 1j * zm.conj().T @ zm
    scale = max(1.0, opnorm(a0))
    pre = max(opnorm(a0 @ s.matrix), opnorm(s.matrix @ a0)) / scale
    if pre > CONDITION_TOL:
        raise HypothesisError(f"A0 does not annihilate S (defect {pre:.3e})")
    zscale = max([opnorm(zm) for zm in zs] + [1e-30])
    d1 = max(opnorm(zm @ s.matrix) for zm in zs) / zscale
    d2 = max(opnorm(s.matrix @ zm.conj().T) for zm in zs) / zscale
    return FactorAnnihilationReport(d1, d2, max(d1, d2) <= CONDITION_TOL)


@dataclass
class LadderLevel:
    """One level of an iterated projection ladder.

    ``projection`` is the kernel projector of this level's leading operator
    inside the carrier subspace (the previous level's range); ``terminal``
    marks an invertible leading operator (empty kernel).
    """

    level: int
    projection: Projection
    leading: np.ndarray
    terminal: bool


def _next_family(
    fam: OperatorFamily, s: Projection, complement: np.ndarray, g: np.ndarray
) -> OperatorFamily:
    """Family for the next ladder level: ``z -> B(z)`` recentred at 0.

    All inverses are taken on the carrier subspace by augmenting with the
    identity on its orthogonal complement, each operator summed as
    ``(A + complement) + S``.  With ``G0 = (A0 + S)^-1`` (carrier-augmented,
    the inverse :func:`verify_conditions` factored) the new base is
    ``B(0) = S G0 A1(0) G0 S`` and the remainder ``D(z) = (B(z) - B(0)) / z``.
    At 0 the remainder is ``B'(0)`` by one Richardson step, ``2 D(h/2) -
    D(h)``, with ``h = 1e-4 radius`` on a ray of the domain (the sector's
    mid-angle, or the positive real axis): its error is ``O(h^2)``, where
    the one-sided ``D(h)`` errs by ``O(h)``.
    """
    sm = s.matrix
    base_next = _b(sm, g, fam.remainder(0.0), g)
    angle = 0.0 if fam.sector is None else 0.5 * (fam.sector[0] + fam.sector[1])
    h = 1e-4 * fam.radius * np.exp(1j * angle)

    def quotient(z: complex) -> np.ndarray:
        a1 = fam.a1(z)
        gz = linalg.inverse(fam.base + z * a1 + complement + sm)
        return (_b(sm, g, a1, gz) - base_next) / z

    def remainder_next(z: complex) -> np.ndarray:
        if z == 0:
            return 2.0 * quotient(h / 2.0) - quotient(h)
        return quotient(z)

    bound = 4.0 * (1.0 + opnorm(fam.base) + fam.bound) ** 3 * opnorm(g) ** 2
    return OperatorFamily(
        base=base_next,
        remainder=remainder_next,
        bound=bound,
        radius=fam.radius,
        sector=fam.sector,
    )


def build_ladder(fam: OperatorFamily, max_depth: int = 4) -> list[LadderLevel]:
    """Iterate the inversion scheme until the leading operator is invertible.

    Level ``j`` holds ``S_j``, the kernel projector of ``I_j(0)`` inside the
    previous level's range (at ``linalg.DEFAULT_RANK_TOL``).  Exhausting
    ``max_depth`` without termination is reported on the last level
    (``terminal=False``), not raised.
    """
    if max_depth > 4:
        raise DomainError("ladders deeper than 4 are outside the supported regime")
    n = fam.dim
    levels: list[LadderLevel] = []
    current = fam
    carrier = np.eye(n, dtype=complex)
    for j in range(max_depth + 1):
        complement = np.eye(n, dtype=complex) - carrier
        # kernel inside the carrier: augment by the identity on the complement
        s = linalg.kernel_projector(current.base + complement)
        if s.rank == 0:
            levels.append(LadderLevel(j, s, current.base.copy(), terminal=True))
            return levels
        # one factorization of the level operator serves the conditions and
        # the next family
        cert, g = _conditions(current.base + complement, s)
        if not cert.ok:
            raise HypothesisError(
                f"level {j}: inversion conditions fail "
                f"(margin {cert.cond_i_margin:.3e}, defect {cert.cond_ii_defect:.3e})"
            )
        levels.append(LadderLevel(j, s, current.base.copy(), terminal=False))
        if j == max_depth:
            return levels
        current = _next_family(current, s, complement, g)
        carrier = s.matrix
    return levels


@dataclass(frozen=True)
class FinalStepResult:
    """Inverse of a terminal-level family plus a boundedness probe."""

    inverse: np.ndarray
    bounded: bool
    growth_exponent: float


def two_term_invert(i3: np.ndarray, s3: Projection) -> np.ndarray:
    """``I3^-1`` from ``(I3+S3)^-1`` and the Schur block on ``ran(S3)``.

    ``I3^-1 = G + G S3 {S3 - S3 G S3}^-1 S3 G`` with ``G = (I3+S3)^-1``.
    Raises :class:`SingularMatrixError` when the Schur block is singular
    (that would mean the family is genuinely singular at this point).
    """
    sm = s3.matrix
    g = linalg.inverse(i3 + sm)
    if s3.rank == 0:
        return g
    return _schur_step(g, s3, sm - sm @ g @ sm, None,
                       "final-step Schur block singular: family genuinely singular")


def fit_exponent(kappas, values, floor: float):
    """Least-squares slope of ``log value`` vs ``log |kappa|``.

    Returns ``(exponent, n_used)``; the exponent is ``inf`` when fewer than
    three samples rise above ``floor`` (the quantity vanishes to precision).
    """
    ks = np.asarray([abs(k) for k in kappas], dtype=float)
    vs = np.asarray(values, dtype=float)
    mask = vs > floor
    if int(mask.sum()) < 3:
        return float("inf"), int(mask.sum())
    slope = float(np.polyfit(np.log(ks[mask]), np.log(vs[mask]), 1)[0])
    return slope, int(mask.sum())


def final_step_invert(
    i3fam: OperatorFamily,
    z: complex,
    probe_decades: tuple[float, float] = (1e-5, 1e-2),
    points_per_decade: int = 8,
) -> FinalStepResult:
    """Invert the terminal family at ``z`` and probe ``norm(I3(k)^-1)``.

    ``S3`` is the contour projector of ``I3(0)`` at 0 (zero projection when 0
    is not in the spectrum), from :func:`linalg.riesz_projection_at_zero`
    with its ``linalg.RIESZ_N_QUAD``-point contour rule.  The probe samples
    ``|k|`` geometrically on the positive real ray, at three points at
    least, and fits the growth exponent of the inverse norm
    (:func:`fit_exponent`); the family is reported bounded when the norm
    does not grow as ``k -> 0``.
    """
    s3 = linalg.riesz_projection_at_zero(i3fam.base)
    inv_z = two_term_invert(i3fam.a(z), s3)

    lo, hi = probe_decades
    ndec = np.log10(hi / lo)
    ks = np.geomspace(lo, hi, max(3, int(round(ndec * points_per_decade)) + 1))
    norms = [opnorm(two_term_invert(i3fam.a(k), s3)) for k in ks]
    slope, _ = fit_exponent(ks, norms, 0.0)
    bounded = slope >= -0.1
    return FinalStepResult(inv_z, bounded, slope)


# ---------------------------------------------------------------------------
# JSON family descriptions
# ---------------------------------------------------------------------------

FAMILY_SCHEMA_VERSION = 1


def _matrix_from_json(entries) -> np.ndarray:
    """Square matrix from a list of rows of ``[re, im]`` pairs of finite
    numbers; raises ``ValueError``/``TypeError`` on anything else."""
    entry = lambda pair: complex(*json_list(pair, length=2))
    m = np.asarray(json_list(entries, lambda row: json_list(row, entry)), dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix of [re, im] pairs")
    return m


def _matrix_to_json(m: np.ndarray):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def family_from_dict(doc: dict) -> OperatorFamily:
    """Build an :class:`OperatorFamily` from its JSON description.

    Schema (version 1)::

        {"schema_version": 1,
         "base": [[[re, im], ...], ...],
         "remainder": {"kind": "polynomial", "coeffs": [matrix, ...]}
                      | {"kind": "rational", "num": [matrix, ...],
                         "den": [c0, c1, ...]},
         "bound": float, "radius": float,
         "sector": [lo, hi] | null}

    Polynomial remainder: ``A1(z) = sum_k coeffs[k] z^k``.  Rational:
    ``A1(z) = (sum_k num[k] z^k) / (sum_k den[k] z^k)`` with scalar real
    denominator coefficients, ``den`` nonvanishing on the domain.

    A missing or malformed field, an unsupported schema version or an
    unknown remainder kind raises :class:`ConfigError`.
    """
    if not isinstance(doc, dict) or doc.get("schema_version") != FAMILY_SCHEMA_VERSION:
        raise ConfigError("unsupported family schema_version")
    base = config_value(doc, "base", _matrix_from_json)
    rem = config_value(doc, "remainder", json_object)
    kind = config_value(rem, "kind", str)

    def matrices(key: str) -> list[np.ndarray]:
        mats = config_value(rem, key, lambda v: json_list(v, _matrix_from_json))
        if any(m.shape != base.shape for m in mats):
            raise ConfigError(f"remainder {key!r} matrices must match the base shape")
        return mats

    def polynomial(mats: list[np.ndarray], z: complex) -> np.ndarray:
        acc = np.zeros_like(base)
        zz = 1.0 + 0j
        for c in mats:
            acc = acc + zz * c
            zz *= z
        return acc

    if kind == "polynomial":
        coeffs = matrices("coeffs")
        remainder = lambda z: polynomial(coeffs, z)
    elif kind == "rational":
        num = matrices("num")
        den = config_value(rem, "den", json_list)

        def remainder(z: complex) -> np.ndarray:
            acc = polynomial(num, z)
            q = 0.0 + 0j
            zz = 1.0 + 0j
            for c in den:
                q += c * zz
                zz *= z
            if abs(q) < 1e-14:
                raise DomainError("rational remainder denominator vanishes")
            return acc / q

    else:
        raise ConfigError(f"unknown remainder kind {kind!r}")
    sector = config_value(
        doc, "sector", lambda v: None if v is None else tuple(json_list(v, length=2)), None
    )
    return OperatorFamily(
        base=base,
        remainder=remainder,
        bound=config_value(doc, "bound"),
        radius=config_value(doc, "radius"),
        sector=sector,
    )


def load_families(path) -> list[OperatorFamily]:
    """The families of a JSON file holding one family document or a list of
    them; a file that is not JSON (or not UTF-8) raises :class:`ConfigError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise ConfigError(f"family file {path} is not JSON: {exc}") from exc
    return [family_from_dict(d) for d in (doc if isinstance(doc, list) else [doc])]


def random_family_dict(
    rng: np.random.Generator, dim: int, kernel_dim: int, radius: float = 0.05
) -> dict:
    """Random structured family document with an engineered kernel.

    The base is ``X + i Z* Z`` with a shared kernel of dimension
    ``kernel_dim``, so the natural projection hypotheses hold; the kernel is
    made exactly representable (a zero block conjugated by a random signed
    permutation, both exact in floating point), keeping the hypothesis
    defect at true zero rather than at rounding scale.  The remainder is a
    dense affine polynomial.
    """
    if kernel_dim >= dim:
        raise DimensionError("kernel_dim must be smaller than dim")
    m = dim - kernel_dim
    xb = rng.normal(size=(m, m))
    xb = (xb + xb.T) / 2 + np.diag(rng.choice([-1.0, 1.0], size=m))
    x = np.zeros((dim, dim))
    x[:m, :m] = xb
    zb = rng.normal(size=(max(1, m), dim))
    zb[:, m:] = 0.0
    perm = rng.permutation(dim)
    signs = rng.choice([-1.0, 1.0], size=dim)
    p = np.zeros((dim, dim))
    p[perm, np.arange(dim)] = signs  # exact orthogonal matrix
    base = p @ (x + 1j * zb.T @ zb) @ p.T
    c0 = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    c1 = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    c0 /= max(1.0, opnorm(c0))
    c1 /= max(1.0, opnorm(c1))
    return {
        "schema_version": FAMILY_SCHEMA_VERSION,
        "base": _matrix_to_json(base),
        "remainder": {
            "kind": "polynomial",
            "coeffs": [_matrix_to_json(c0), _matrix_to_json(c1)],
        },
        "bound": 2.0,
        "radius": radius,
        "sector": None,
    }
