"""Inversion engine: B(z), the projection formula, ladders, hypothesis checks."""

import sys

import numpy as np
import pytest

import helpers
from wgscat import expansion, inversion, linalg
from wgscat.errors import (
    ConfigError,
    DomainError,
    HypothesisError,
    SingularMatrixError,
)


def scalar_family():
    """A(z) = z on C^1."""
    return inversion.OperatorFamily(
        np.zeros((1, 1), dtype=complex),
        lambda z: np.eye(1, dtype=complex),
        bound=1.0,
        radius=0.5,
    )


def family_from_random(rng, dim, kernel_dim, radius=0.05):
    return inversion.family_from_dict(
        inversion.random_family_dict(rng, dim, kernel_dim, radius)
    )


class TestVerifyConditions:
    def test_invertible_base_trivial_projection(self):
        rep = inversion.verify_conditions(
            np.diag([2.0, -1.0]).astype(complex), linalg.zero_projection(2)
        )
        assert rep.ok and rep.cond_i_margin > 0

    def test_zero_base_identity_projection(self):
        rep = inversion.verify_conditions(
            np.zeros((2, 2), dtype=complex), linalg.identity_projection(2)
        )
        assert rep.ok and rep.cond_ii_defect <= 1e-12

    def test_structured_base_with_kernel(self):
        rng = np.random.default_rng(1)
        fam = family_from_random(rng, 8, 2)
        s = linalg.kernel_projector(fam.base)
        rep = inversion.verify_conditions(fam.base, s)
        assert rep.ok

    def test_failure_is_reported_not_raised(self):
        # A0 + S singular: A0 = -S on a 1-dim space
        s = linalg.identity_projection(1)
        rep = inversion.verify_conditions(-np.eye(1, dtype=complex), s)
        assert not rep.ok


class TestJnInvert:
    @pytest.mark.parametrize("index", [2, 6])
    def test_large_z_matches_refined_inverse(self, index):
        # |z| = 0.9 radius, where the Neumann series of B(z) in z A1 G0 does
        # not converge fast (family 2: |z| ||A1 G0|| = 1.03)
        rng = np.random.default_rng(0)
        fam = [family_from_random(rng, 6, 2, radius=0.5) for _ in range(index + 1)][index]
        s = linalg.kernel_projector(fam.base)
        x = inversion.jn_invert(fam, s, 0.45)
        direct = linalg.refined_inverse(fam.a(0.45))
        assert np.linalg.norm(x - direct) <= 1e-12 * np.linalg.norm(direct)

    def test_condition_ii_violated_raises(self):
        # a projection of rank above the corank of A0: A0 + S stays invertible
        # but S (A0+S)^-1 S != S, where the product form of B(z) is not exact
        rng = np.random.default_rng(11)
        fam = family_from_random(rng, 8, 2)
        q, _ = np.linalg.qr(np.column_stack(
            [linalg.kernel_basis(fam.base), rng.normal(size=8) + 1j * rng.normal(size=8)]))
        s = linalg.Projection(q @ q.conj().T)
        assert s.rank == 3 and inversion.verify_conditions(fam.base, s).cond_i_margin > 0
        with pytest.raises(HypothesisError, match="conditions fail"):
            inversion.jn_invert(fam, s, 1e-3 - 2e-3j)

    def test_zero_z_is_outside_the_domain(self):
        with pytest.raises(DomainError):
            inversion.jn_invert(scalar_family(), linalg.identity_projection(1), 0.0)

    def test_scalar_gives_reciprocal(self):
        fam = scalar_family()
        s = linalg.identity_projection(1)
        for z in (1e-6, 1e-3, 1e-2 - 5e-3j):
            x = inversion.jn_invert(fam, s, z)
            assert abs(x[0, 0] - 1.0 / z) <= 1e-9 * abs(1.0 / z)

    def test_invertible_base_trivial_projection(self):
        rng = np.random.default_rng(2)
        a0 = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)) + 3 * np.eye(5)
        fam = inversion.OperatorFamily(a0, lambda z: np.eye(5, dtype=complex), 1.0, 0.1)
        x = inversion.jn_invert(fam, linalg.zero_projection(5), 0.01)
        assert np.allclose(x, np.linalg.inv(fam.a(0.01)))

    def test_oracle_equivalence_corpus(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            dim = int(rng.integers(3, 13))
            kdim = int(rng.integers(0, min(4, dim)))
            fam = family_from_random(rng, dim, kdim)
            s = linalg.kernel_projector(fam.base)
            z = 10.0 ** rng.uniform(-6, -2) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            x = inversion.jn_invert(fam, s, z)
            direct = linalg.refined_inverse(fam.a(z))
            rel = np.linalg.norm(x - direct) / np.linalg.norm(direct)
            assert rel <= 1e-9

    def test_singular_b_iff_singular_family(self):
        # family singular exactly at z0: A(z) = diag(z, 1 - z/z0)
        z0 = 5e-3
        a0 = np.diag([0.0, 1.0]).astype(complex)
        a1 = np.diag([1.0, -1.0 / z0]).astype(complex)
        fam = inversion.OperatorFamily(a0, lambda z: a1, bound=1.0 / z0, radius=0.02)
        s = linalg.kernel_projector(a0)
        with pytest.raises(SingularMatrixError):
            inversion.jn_invert(fam, s, z0)
        assert np.linalg.cond(fam.a(z0)) > 1e12
        x = inversion.jn_invert(fam, s, 1.7 * z0)
        assert np.allclose(x @ fam.a(1.7 * z0), np.eye(2), atol=1e-8)


class TestFactorizationCounts:
    """Each ingredient of the projection formula is computed once per call."""

    @pytest.fixture
    def counts(self, monkeypatch):
        # "lu" holds the blocks the guarded inverse factors
        counts = {"lu": helpers.record_gesv(monkeypatch), "svd": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        svd = counted("svd", np.linalg.svd)
        monkeypatch.setattr(np.linalg, "svd", svd)
        # ``numpy.linalg.norm(a, 2)`` reaches svd through its defining module
        home = sys.modules.get("numpy.linalg._linalg") or sys.modules["numpy.linalg.linalg"]
        monkeypatch.setattr(home, "svd", svd)
        return counts

    @pytest.mark.parametrize("reuse_projection", [False, True])
    def test_jn_invert_counts(self, counts, reuse_projection):
        fam = family_from_random(np.random.default_rng(11), 8, 2)
        a1_calls = []

        def remainder(z):
            a1_calls.append(z)
            return fam.remainder(z)

        counted = inversion.OperatorFamily(fam.base, remainder, fam.bound, fam.radius)
        s = linalg.kernel_projector(fam.base)
        assert s.rank == 2
        for repeat in range(2):
            if repeat and not reuse_projection:
                # a fresh projection has no cached range basis
                s = linalg.kernel_projector(fam.base)
            a1_calls.clear()
            counts["lu"].clear()
            counts.update(svd=0)
            x = inversion.jn_invert(counted, s, 1e-3 - 2e-3j)
            # A1(z) once; LU of A(z)+S, A0+S, the block on ran(S) and A(z)
            assert len(a1_calls) == 1
            assert 0 < len(counts["lu"]) <= 4
            # ||S G0 S - S||, ||S|| and the residual, plus the range basis of S
            # on the first call with that projection only
            assert counts["svd"] <= (3 if repeat and reuse_projection else 4)
        assert np.allclose(x, linalg.refined_inverse(fam.a(1e-3 - 2e-3j)))

    def test_jn_invert_factors_once_without_projection(self, counts):
        # with S = 0, A(z) + S is A(z): its one LU gives X and the guard
        fam = family_from_random(np.random.default_rng(11), 8, 0)
        counts["lu"].clear()
        x = inversion.jn_invert(fam, linalg.zero_projection(8), 1e-3 - 2e-3j)
        assert len(counts["lu"]) == 1
        assert np.allclose(x, linalg.refined_inverse(fam.a(1e-3 - 2e-3j)))

    def test_verify_conditions_factors_once(self, counts):
        fam = family_from_random(np.random.default_rng(12), 8, 2)
        s = linalg.kernel_projector(fam.base)
        counts["lu"].clear()
        assert inversion.verify_conditions(fam.base, s).ok
        assert len(counts["lu"]) == 1


class TestAnnihilationChecks:
    def test_self_adjoint_machine_zero(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        a0 = q @ np.diag([0.0, 0.0, 1.0, 2.0, -1.5, 0.8]) @ q.T
        rep = inversion.check_a0_annihilation(a0.astype(complex))
        assert rep.ok and max(rep.defect_a0_s, rep.defect_s_a0) <= 1e-10

    def test_structured_with_engineered_kernel(self):
        rng = np.random.default_rng(4)
        fam = family_from_random(rng, 9, 2)
        rep = inversion.check_a0_annihilation(fam.base)
        assert rep.ok and rep.rank == 2

    def test_psd_hypothesis_violation_rejected(self):
        a0 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(HypothesisError):
            inversion.check_a0_annihilation(a0)

    def test_riesz_equals_orthogonal(self):
        rng = np.random.default_rng(5)
        for _ in range(4):
            fam = family_from_random(rng, 8, int(rng.integers(1, 3)))
            rep = inversion.check_riesz_orthogonal(fam.base)
            assert rep.hypothesis_ok and rep.diff_norm <= 1e-8

    def test_riesz_orthogonal_negative_control(self):
        # inject a negative-definite skew direction
        rng = np.random.default_rng(6)
        fam = family_from_random(rng, 6, 1)
        a0 = fam.base - 2j * np.eye(6)
        rep = inversion.check_riesz_orthogonal(a0)
        assert not rep.hypothesis_ok

    def test_factor_annihilation(self):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(7, 7)))
        qr = q[:, 2:]
        x = qr @ np.diag(rng.uniform(0.5, 2.0, size=5)) @ qr.T
        zs = [rng.normal(size=(3, 7)) @ (qr @ qr.T) for _ in range(3)]
        a0 = x + 1j * sum(z.T @ z for z in zs)
        s = linalg.kernel_projector(a0.astype(complex))
        rep = inversion.check_factor_annihilation(zs, x, s)
        assert rep.ok and max(rep.defect_zs, rep.defect_sz) <= 1e-10

    def test_factor_annihilation_trivial_projection(self):
        rng = np.random.default_rng(8)
        zs = [rng.normal(size=(2, 5))]
        x = np.zeros((5, 5))
        rep = inversion.check_factor_annihilation(zs, x, linalg.zero_projection(5))
        assert rep.ok

    def test_factor_annihilation_precondition(self):
        zs = [np.eye(3)]
        with pytest.raises(HypothesisError):
            inversion.check_factor_annihilation(
                zs, np.eye(3), linalg.identity_projection(3)
            )


class TestLadder:
    def test_invertible_base_terminates_immediately(self):
        a0 = np.diag([1.0, 2.0]).astype(complex)
        fam = inversion.OperatorFamily(a0, lambda z: np.eye(2, dtype=complex), 1.0, 0.1)
        levels = inversion.build_ladder(fam)
        assert len(levels) == 1 and levels[0].terminal
        assert levels[0].projection.rank == 0

    def test_scalar_ladder(self):
        levels = inversion.build_ladder(scalar_family())
        assert [l.level for l in levels] == [0, 1]
        assert levels[0].projection.rank == 1
        assert abs(levels[1].leading[0, 0] - 1.0) <= 1e-10
        assert levels[1].terminal

    def test_nesting_invariant(self):
        rng = np.random.default_rng(9)
        fam = family_from_random(rng, 8, 2)
        levels = inversion.build_ladder(fam)
        for a, b in zip(levels, levels[1:]):
            sa, sb = a.projection.matrix, b.projection.matrix
            assert linalg.opnorm(sb @ sa - sb) <= 1e-10
            assert linalg.opnorm(sa @ sb - sb) <= 1e-10

    def test_waveguide_family_ranks_match_brute_force(self, resonant_model):
        # generic engine against independently computed kernels per level
        lad = expansion.build_threshold_ladder(resonant_model, 4.0, eps=2e-2, tail_tol=0.1)
        fam = inversion.OperatorFamily(
            helpers.dense(lad.n0), lambda k: 2.0 * helpers.dense(lad.m1(k)),
            bound=4.0 * linalg.opnorm(lad.m10), radius=2e-2,
        )
        levels = inversion.build_ladder(fam, max_depth=2)
        # S0 rank from the engine == corank of the leading kernel
        s0 = linalg.kernel_projector(lad.n0)
        assert levels[0].projection.rank == s0.rank
        # level-1 kernel dim == dim ker(S0 M1(0) S0) on S0 H (brute force)
        i10 = lad.s0 @ lad.m10 @ lad.s0
        brute = linalg.kernel_basis(i10 + lad.pn).shape[1]
        assert levels[1].projection.rank == brute == lad.r1

    def test_waveguide_family_reaches_the_terminal_level(self, deep_ladder):
        # the generic ladder of the deep fixture's family follows the
        # waveguide ladder down to its invertible level-3 operator: with the
        # family's factor 2, its level-3 base is 2 I3(0)
        lad = deep_ladder
        fam = inversion.OperatorFamily(
            helpers.dense(lad.n0), lambda k: 2.0 * helpers.dense(lad.m1(k)),
            bound=4.0 * linalg.opnorm(lad.m10), radius=2e-2,
        )
        levels = inversion.build_ladder(fam, max_depth=3)
        ranks = [level.projection.rank for level in levels]
        assert ranks == [lad.dim - lad.u_n.shape[1], lad.r1, lad.r2, 0]
        assert levels[-1].terminal and lad.s3c.rank == 0
        top = linalg.opnorm(levels[-1].leading)
        assert abs(top - 2.0 * linalg.opnorm(lad.i3c0)) <= 1e-2 * top

    def test_one_factorization_per_level_operator(self, monkeypatch):
        # the conditions check and the next family share the guarded LU of
        # each level operator (A0 + complement) + S
        fam = family_from_random(np.random.default_rng(9), 8, 2)
        factored = helpers.record_gesv(monkeypatch)
        levels = inversion.build_ladder(fam)
        assert len(levels) >= 2
        eye = np.eye(fam.dim, dtype=complex)
        carrier = eye
        for level in levels[:-1]:  # every level that built a next family
            op = level.leading + (eye - carrier) + level.projection.matrix
            same = [a for a in factored if np.linalg.norm(a - op) <= 1e-12 * np.linalg.norm(op)]
            assert len(same) == 1
            carrier = level.projection.matrix

    def test_level_two_base_of_a_quadratic_family(self):
        # A(z) = A0 + z^2 C: B(z) = S0 G0 (z C) G(z) S0 vanishes at 0, so the
        # level-1 operator is 0 on ran(S0) and the level-2 base is the
        # derivative of B at 0, S0 G0 C G0 S0 with G0 = (A0 + S0)^-1
        fam = family_from_random(np.random.default_rng(3), 8, 2)
        c = fam.remainder(0.0)
        quadratic = inversion.OperatorFamily(fam.base, lambda z: z * c, fam.bound, fam.radius)
        levels = inversion.build_ladder(quadratic)
        assert len(levels) == 3 and levels[2].terminal
        s0 = levels[0].projection.matrix
        g0 = np.linalg.inv(fam.base + s0)
        expected = s0 @ g0 @ c @ g0 @ s0
        leading = levels[2].leading
        assert np.linalg.norm(leading - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_depth_cap(self):
        with pytest.raises(DomainError):
            inversion.build_ladder(scalar_family(), max_depth=5)


class TestFinalStep:
    def test_plain_inverse_when_regular(self):
        i3 = np.diag([2.0, -1.0]).astype(complex)
        fam = inversion.OperatorFamily(i3, lambda z: np.eye(2, dtype=complex), 1.0, 0.1)
        res = inversion.final_step_invert(fam, 1e-3)
        assert np.allclose(res.inverse, np.linalg.inv(fam.a(1e-3)))
        assert res.bounded

    def test_scalar_kappa_family_unbounded(self):
        res = inversion.final_step_invert(scalar_family(), 1e-3)
        assert not res.bounded
        assert res.growth_exponent < -0.9
        assert abs(res.inverse[0, 0] - 1e3) <= 1e-4 * 1e3

    def test_coarse_probe_still_fits_the_growth(self):
        # one point per decade over one decade: the probe takes three points
        # and reads the 1/k growth, not a vanishing norm
        res = inversion.final_step_invert(
            scalar_family(), 1e-3, probe_decades=(1e-3, 1e-2), points_per_decade=1)
        assert not res.bounded
        assert abs(res.growth_exponent + 1.0) <= 1e-9

    def test_waveguide_terminal_family_bounded(self, deep_ladder):
        lad = deep_ladder
        assert lad.r2 == 1  # all four levels active
        fam = inversion.OperatorFamily(
            lad.i3c0,
            lambda k: (lad.at(k).i3c - lad.i3c0) / k if k != 0 else 0.0 * lad.i3c0,
            bound=10.0,
            radius=lad.eps,
        )
        res = inversion.final_step_invert(
            fam, 1e-3, probe_decades=(1e-4, 5e-3), points_per_decade=8
        )
        assert res.bounded


class TestFamilyJson:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        doc = inversion.random_family_dict(rng, 5, 1)
        p = tmp_path / "family.json"
        import json

        p.write_text(json.dumps(doc))
        (fam,) = inversion.load_families(p)
        assert fam.dim == 5
        s = linalg.kernel_projector(fam.base)
        assert s.rank == 1

    def test_rational_remainder(self):
        doc = {
            "schema_version": 1,
            "base": [[[0.0, 0.0]]],
            "remainder": {"kind": "rational", "num": [[[[1.0, 0.0]]]], "den": [1.0, 1.0]},
            "bound": 2.0,
            "radius": 0.5,
            "sector": None,
        }
        fam = inversion.family_from_dict(doc)
        # A1(z) = 1/(1+z): A(z) = z/(1+z)
        z = 0.1
        assert abs(fam.a(z)[0, 0] - z / (1 + z)) <= 1e-14

    def test_unknown_kind_rejected(self):
        doc = {
            "schema_version": 1,
            "base": [[[0.0, 0.0]]],
            "remainder": {"kind": "spline"},
            "bound": 1.0,
            "radius": 0.5,
        }
        with pytest.raises(ConfigError):
            inversion.family_from_dict(doc)

    def test_remainder_shape_must_match_base(self):
        doc = {
            "schema_version": 1,
            "base": [[[0.0, 0.0]]],
            "remainder": {"kind": "polynomial",
                          "coeffs": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]},
            "bound": 1.0,
            "radius": 0.5,
        }
        with pytest.raises(ConfigError):
            inversion.family_from_dict(doc)

    def test_remainder_bound_spot_check(self):
        rng = np.random.default_rng(12)
        fam = family_from_random(rng, 7, 2)
        assert fam.spot_check(rng, samples=6) <= fam.bound
