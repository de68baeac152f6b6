"""Threshold/eigenvalue ladders, the expansion formulas, structural report."""

import dataclasses
import time
import tracemalloc

import numpy as np
import pytest

import helpers
from wgscat import birman, expansion, linalg, waveguide
from wgscat.errors import DomainError, StructuralError


def oracle_error(ladder, kappa):
    """Distance of the expansion at ``kappa`` from the dense oracle."""
    return expansion.oracle_error(ladder, kappa, expansion.m_function(ladder, kappa))


def diag_kappas(eps, count=8, lo_frac=1e-2):
    diag = (1.0 - 1.0j) / np.sqrt(2.0)
    return diag * np.geomspace(eps * lo_frac, eps * 0.45, count)


@pytest.fixture(scope="module")
def well_4x24(interval_cs):
    """The 4 x 24 well of the CLI tests, which splits into 4 sector blocks."""
    return waveguide.square_well_model(interval_cs, 1.0, (0.0, 1.0), n_omega=4, n_x=24, n_max=5)


@pytest.fixture(scope="module")
def well_4x24_ladder(well_4x24):
    return expansion.build_threshold_ladder(well_4x24, 4.0, eps=2e-2, tail_tol=0.2)


@pytest.fixture(scope="module")
def cosine_4x24_ladder(interval_cs):
    """The cosine-profile twin of the 4 x 24 well: one coupled block."""
    model = waveguide.square_well_model(
        interval_cs, 1.0, (0.0, 1.0), n_omega=4, n_x=24, n_max=5,
        omega_profile={"kind": "cosine", "amplitude": 0.5, "harmonic": 1})
    return expansion.build_threshold_ladder(model, 4.0, eps=2e-2, tail_tol=0.2)


class TestThresholdLadderStructure:
    def test_zero_potential_degenerates_to_identity(self, interval_cs):
        m = waveguide.square_well_model(interval_cs, 0.0, (0.0, 1.0), 4, 10, 3)
        lad = expansion.build_threshold_ladder(m, 4.0, eps=2e-2, tail_tol=10.0)
        assert lad.u_n.shape[1] == 0  # S0 is the whole space
        mfun = expansion.m_function(lad, 1e-3 - 1e-3j)
        assert np.allclose(mfun, np.eye(m.dim), atol=1e-12)

    def test_first_threshold_rank_one(self, well_small):
        lad = expansion.build_threshold_ladder(well_small, 1.0, eps=2e-2, tail_tol=0.1)
        assert lad.members == (1,)
        sv = np.linalg.svd(helpers.dense(lad.n0), compute_uv=False)
        assert int(np.sum(sv > 1e-8 * sv[0])) == 1
        s0 = linalg.kernel_projector(lad.n0)
        assert s0.rank == well_small.dim - 1

    def test_s0_annihilates_threshold_vectors(self, well_small):
        lad = expansion.build_threshold_ladder(well_small, 4.0, eps=2e-2, tail_tol=0.1)
        s0 = linalg.kernel_projector(lad.n0)
        for v in lad.vtil:
            assert np.linalg.norm(s0.matrix @ v) <= 1e-9 * np.linalg.norm(v)

    def test_leading_kernels_self_adjoint(self, well_small):
        # N1(0) is the group-kernel mode sum at k = 0; M1(0) - u is not
        # self-adjoint, since W(0) has a skew part
        lad = expansion.build_threshold_ladder(well_small, 4.0, eps=2e-2, tail_tol=0.1)
        x = well_small.grid.x_nodes
        n10 = birman.mode_sum_blocks(well_small, 0.0, list(lad.members),
                                     x_kernel=lambda n: expansion._group_kernel(0.0, x))
        for mat in (lad.n0, n10, lad.n20):
            assert linalg.opnorm(mat - linalg.adjoint(mat)) <= 1e-12 * max(1.0, linalg.opnorm(mat))

    def test_regular_part_limit_matches_quadratic_kernel(self, well_small):
        # (M1(k) - M1(0)) / k converges to the quadratic kernel as k -> 0:
        # N1 carries the first-order term, and W(k) - W(0) is O(k^2)
        lad = expansion.build_threshold_ladder(well_small, 4.0, eps=2e-2, tail_tol=0.1)
        errs, ks = [], (1e-2, 1e-3, 1e-4)
        for k in ks:
            n2k = (lad.m1(k) - lad.m10) / k
            errs.append(linalg.opnorm(n2k - lad.n20))
        slope = helpers.fit_slope(ks, errs)
        assert slope >= 0.9

    def test_generic_well_terminates_at_level_one(self, well_small):
        lad = expansion.build_threshold_ladder(well_small, 4.0, eps=2e-2, tail_tol=0.1)
        assert lad.r1 == 0 and lad.terminal_level() == 1

    def test_ladder_level_records_nest(self, deep_ladder):
        mats = helpers.dense_projections(deep_ladder)
        for p in mats:
            assert linalg.opnorm(p @ p - p) <= 1e-10
        for a, b in zip(mats, mats[1:]):
            assert linalg.opnorm(b @ a - b) <= 1e-10
            assert linalg.opnorm(a @ b - b) <= 1e-10

    def test_ranks_nonincreasing(self, deep_ladder):
        lad = deep_ladder
        assert len(lad.members) >= 1
        assert lad.r1 <= lad.dim
        assert lad.r2 <= lad.r1

    def test_group_beyond_modes_rejected(self, well_small):
        with pytest.raises(Exception):
            expansion.build_threshold_ladder(well_small, 81.0, eps=1e-2, tail_tol=0.5)


class TestMFunctionOracle:
    def test_matches_dense_inverse_generic(self, well_small):
        lad = expansion.build_threshold_ladder(well_small, 4.0, eps=2e-2, tail_tol=0.1)
        for k in diag_kappas(lad.eps):
            assert oracle_error(lad, k) <= 1e-6

    def test_matches_dense_inverse_resonant(self, resonant_ladder):
        for k in diag_kappas(resonant_ladder.eps, count=5):
            assert oracle_error(resonant_ladder, k) <= 1e-6

    def test_matches_dense_inverse_full_depth(self, deep_ladder):
        assert deep_ladder.r2 == 1  # all four expansion terms active
        # |kappa| kept where the dense oracle stays within its condition
        # guard (the direct operator blows up like 1/k^2 at this fixture)
        for k in diag_kappas(deep_ladder.eps, count=5, lo_frac=5e-2):
            assert oracle_error(deep_ladder, k) <= 1e-6

    def test_ray_limits_cauchy(self, well_small):
        lad = expansion.build_threshold_ladder(well_small, 4.0, eps=2e-2, tail_tol=0.1)
        for ray in (1.0, -1.0j):
            hs = lad.eps * 0.4 / 2.0 ** np.arange(8)
            mats = [expansion.m_function(lad, ray * h) for h in hs]
            devs = [linalg.opnorm(a - b) for a, b in zip(mats, mats[1:])]
            assert all(a > b for a, b in zip(devs, devs[1:]))
            assert devs[-1] <= 1e-3

    def test_kappa_domain_enforced(self, well_small):
        lad = expansion.build_threshold_ladder(well_small, 4.0, eps=2e-2, tail_tol=0.1)
        with pytest.raises(DomainError):
            expansion.m_function(lad, 0.0)
        with pytest.raises(DomainError):
            expansion.m_function(lad, 0.1)
        with pytest.raises(DomainError):
            # the oracle needs kappa strictly inside the sector
            oracle_error(lad, 1e-3)

    def test_m2_bounded_toward_zero(self, well_small):
        # I1 on the core sectors is differentiable at kappa = 0; off them M's
        # block M1^-1 is a function of z = lam - kappa^2 (no group mode
        # lives there), differentiable in kappa^2
        lad = expansion.build_threshold_ladder(well_small, 4.0, eps=2e-2, tail_tol=0.1)
        ks = np.geomspace(1e-4, 1e-2, 7)
        i10, m10inv = lad.i10[list(lad.core)], linalg.inverse(lad.m10[lad.off_core])
        evs = [lad.at(k) for k in ks]
        assert lad.off_core
        for vals in ([linalg.opnorm((ev.i1 - i10) / k) for ev, k in zip(evs, ks)],
                     [linalg.opnorm((ev.m1inv - m10inv) / k**2) for ev, k in zip(evs, ks)]):
            slope = helpers.fit_slope(ks, vals)
            assert abs(slope) <= 0.1

    def test_lam_within_tolerance_of_the_threshold(self, well_4x24):
        # group_at accepts lam within THRESHOLD_REL_TOL; the ladder is built
        # at the threshold itself, where the group's mu is exactly i kappa
        lad = expansion.build_threshold_ladder(well_4x24, 4.0 * (1 + 5e-10), eps=2e-2,
                                               tail_tol=0.2)
        assert lad.lam == 4.0
        for t in (2e-4, 1e-2):
            assert oracle_error(lad, t * (1.0 - 1.0j) / np.sqrt(2.0)) <= 1e-11

    def test_terminal_inverse_bounded_on_rays(self, deep_ladder):
        ks = np.geomspace(1e-4, 5e-3, 6)
        for ray in (1.0, -1.0j):
            vals = [linalg.opnorm(deep_ladder.at(ray * k).terminal_inverse) for k in ks]
            slope = helpers.fit_slope(ks, vals)
            assert slope >= -0.15


class TestEigenvalueLadder:
    def test_regular_point_plain_inverse(self, well_small):
        lam = 2.2
        lad = expansion.build_eigenvalue_ladder(well_small, lam, eps=1e-2, tail_tol=0.1)
        assert lad.rank == 0
        k = 2e-3 - 3e-3j
        m = expansion.m_function(lad, k)
        assert expansion.oracle_error(lad, k, m) <= 1e-8
        direct = expansion.direct_inverse(well_small, lam, k, lad.n_used)
        assert np.allclose(m, direct, atol=1e-8 * np.linalg.norm(direct))

    def test_embedded_eigenvalue_detected_and_verified(self, well_medium, embedded_lambda):
        lad = expansion.build_eigenvalue_ladder(
            well_medium, embedded_lambda, eps=5e-3, tail_tol=0.03
        )
        assert lad.rank == 1
        for k in diag_kappas(lad.eps, count=5):
            assert oracle_error(lad, k) <= 1e-6

    def test_t1_bounded_toward_zero(self, well_medium, embedded_lambda):
        lad = expansion.build_eigenvalue_ladder(
            well_medium, embedded_lambda, eps=5e-3, tail_tol=0.03
        )
        ks = np.geomspace(1e-4, 2e-3, 6)
        vals = [linalg.opnorm(lad.t1(k)) for k in ks]
        slope = helpers.fit_slope(ks, vals)
        assert abs(slope) <= 0.1

    def test_threshold_excursion_guard(self, well_small):
        with pytest.raises(DomainError):
            expansion.build_eigenvalue_ladder(well_small, 4.0004, eps=1e-2, tail_tol=0.1)

    def test_boundary_operator_riesz_is_orthogonal(
        self, well_medium, embedded_lambda
    ):
        # the assembled boundary operator at an eigenvalue satisfies the
        # contour-equals-kernel projector certificate
        from wgscat import inversion

        lad = expansion.build_eigenvalue_ladder(
            well_medium, embedded_lambda, eps=5e-3, tail_tol=0.03
        )
        rep = inversion.check_riesz_orthogonal(helpers.dense(lad.t0))
        assert rep.hypothesis_ok and rep.diff_norm <= 1e-8

    def test_lu_only_at_block_size(self, master_model, monkeypatch):
        # T0 and J0 + S split into the 4 sector blocks of size n_x: no LU of
        # the dim x dim operator, only of the blocks and of the rank x rank J1
        lam0 = 4.0 + helpers.oned_well_levels(1.0, 1.0)[0]
        (cand,) = birman.eigenvalue_search(
            (lam0 - 4e-3, lam0 + 4e-3), master_model,
            resolution=9, tail_tol=0.04, refine_width=1e-9,
        )
        factored = helpers.record_gesv(monkeypatch)
        lad = expansion.build_eigenvalue_ladder(master_model, cand.lam, eps=2e-2, tail_tol=0.04)
        for k in diag_kappas(lad.eps, count=2):
            expansion.m_function(lad, k)
        n_x = master_model.grid.n_x
        dims = [a.shape[0] for a in factored]
        assert lad.rank == 1 and lad.t0.shape == (4, n_x, n_x)
        assert dims and max(dims) <= n_x < master_model.dim

    def test_small_kappa_matches_refined_block_inverse(self, master_model):
        # criterion 4's two smallest kappas, where the subtraction
        # J1 = (1 - b* g b)/k^2 lost 5e-9 and 2.6e-9 to the block LU's rounding
        lam0 = 4.0 + helpers.oned_well_levels(1.0, 1.0)[0]
        (cand,) = birman.eigenvalue_search(
            (lam0 - 4e-3, lam0 + 4e-3), master_model,
            resolution=9, tail_tol=0.04, refine_width=1e-9,
        )
        lad = expansion.build_eigenvalue_ladder(master_model, cand.lam, eps=2e-2, tail_tol=0.04)
        assert lad.rank == 1
        sec = master_model.sectors
        for k in (3e-4 * np.exp(-1j * np.pi / 8), 3e-4 * np.exp(-3j * np.pi / 8)):
            j0 = lad.t0 + k**2 * lad.t1(k)
            ref = sec.grid_blocks(np.array([linalg.refined_inverse(b) for b in j0]))
            m = expansion.m_function(lad, k)
            assert np.linalg.norm(m - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("name, n_blocks, tol", [
        ("well_small", 5, 1e-12),      # one sector block per transverse node
        ("coupled_model", 1, 1e-14),   # one block: the dense formula itself
    ])
    def test_matches_dense_two_term_reference(self, request, name, n_blocks, tol):
        model = request.getfixturevalue(name)
        lad = expansion.build_eigenvalue_ladder(model, 2.2, eps=1e-2, tail_tol=0.1)
        assert model.sectors.n_blocks == n_blocks
        for k in list(diag_kappas(lad.eps, count=3)) + [3e-3, -3e-3j]:
            ref = helpers.dense_two_term(model, 2.2, k, 0.1)
            m = expansion.m_function(lad, k)
            assert np.linalg.norm(m - ref) <= tol * np.linalg.norm(ref)


class TestResonantFixtures:
    def test_resonant_kernel_in_threshold_channel(self, resonant_model, resonant_ladder):
        lad = resonant_ladder
        assert lad.r1 == 1 and lad.r2 == 0
        # kernel vector lives in the threshold mode sector
        b1 = lad.sectors.to_grid(lad.b1).reshape(resonant_model.grid.n_omega, resonant_model.grid.n_x)
        phi = resonant_model.mode_quadrature_vectors()
        weights = [np.linalg.norm(phi[n] @ b1) for n in range(4)]
        assert weights[1] == pytest.approx(1.0, abs=1e-8)

    def test_deep_fixture_reaches_level_three(self, deep_ladder_model, deep_ladder):
        lad = deep_ladder
        assert lad.r1 == 1 and lad.r2 == 1
        assert lad.terminal_level() == 3
        assert lad.i3c0 is not None and lad.s3c is not None
        # kernel vector lives in a closed-channel sector (mode 3)
        b1 = lad.sectors.to_grid(lad.b1).reshape(
            deep_ladder_model.grid.n_omega, deep_ladder_model.grid.n_x
        )
        phi = deep_ladder_model.mode_quadrature_vectors()
        weights = [np.linalg.norm(phi[n] @ b1) for n in range(4)]
        assert weights[2] == pytest.approx(1.0, abs=1e-8)

    def test_i2_self_adjoint(self, deep_ladder):
        h = linalg.opnorm(deep_ladder.i2c0 - deep_ladder.i2c0.conj().T)
        assert h <= 1e-10 * max(1.0, linalg.opnorm(deep_ladder.i2c0))

    def test_level1_gap_vanishes_at_tuning(self, resonant_model):
        gap = expansion.level1_kernel_gap(resonant_model, 4.0, eps=2e-2, tail_tol=0.1)
        assert gap <= 1e-10


class TestStructuralReport:
    def test_generic_well_passes(self, well_small):
        lad = expansion.build_threshold_ladder(well_small, 4.0, eps=2e-2, tail_tol=0.1)
        rep = expansion.verify_structural_lemmas(lad)
        assert rep.ok, [c.to_dict() for c in rep.checks if c.passed is False]
        names = [c.name for c in rep.checks]
        assert "s0_annihilates_threshold_vectors" in names
        # generic well: only the level-0 commutator is active, with linear rate
        c00 = [f for f in rep.fits if f.name == "commutator_growth_00"][0]
        assert c00.passed and 0.9 <= c00.exponent <= 1.5

    def test_resonant_well_passes_with_level1_fits(self, resonant_ladder):
        rep = expansion.verify_structural_lemmas(resonant_ladder)
        assert rep.ok, rep.to_dict()
        names = {f.name: f for f in rep.fits}
        assert "commutator_growth_10" in names and names["commutator_growth_10"].passed
        assert "commutator_growth_11" in names and names["commutator_growth_11"].passed

    def test_deep_well_passes_with_quadratic_c20(self, deep_ladder):
        rep = expansion.verify_structural_lemmas(deep_ladder)
        assert rep.ok, rep.to_dict()
        fits = {f.name: f for f in rep.fits}
        c20 = fits["commutator_growth_20"]
        assert c20.passed
        # the quadratic rate must be measured on real data here, not vacuous
        assert c20.n_used >= 3 and c20.exponent >= 1.9
        assert rep.ranks["r2"] == 1

    def test_one_g0_per_kappa(self, deep_ladder, monkeypatch):
        # every level inverse at a kappa derives from a single G0
        calls = []
        g0 = expansion.ThresholdLadder.g0

        def counting_g0(self, kappa):
            calls.append(kappa)
            return g0(self, kappa)

        monkeypatch.setattr(expansion.ThresholdLadder, "g0", counting_g0)
        expansion.verify_structural_lemmas(deep_ladder)
        ks = np.concatenate(list(expansion.kappa_sample_paths().values()))
        assert len(calls) == ks.size and set(calls) == set(ks)
        for k in diag_kappas(deep_ladder.eps, count=3):
            calls.clear()
            expansion.m_function(deep_ladder, k)
            assert calls == [k]

    def test_kappa_hi_above_eps_rejected(self, deep_ladder):
        # the samples must stay in the ladder region |kappa| <= eps
        with pytest.raises(DomainError):
            expansion.verify_structural_lemmas(deep_ladder, kappa_hi=2.0 * deep_ladder.eps)

    @pytest.mark.parametrize("lo, hi", [(0.0, 1e-2), (1e-2, 1e-4), (1e-3, 1e-3)])
    def test_kappa_range_not_increasing_from_zero_rejected(self, deep_ladder, lo, hi):
        # kappa_lo = 0 divided by zero inside kappa_sample_paths, and a
        # reversed range ran on reversed samples and reported ok
        with pytest.raises(DomainError, match="0 < kappa_lo < kappa_hi"):
            expansion.verify_structural_lemmas(deep_ladder, kappa_lo=lo, kappa_hi=hi)

    def test_commutator_norms_match_dense_reference(self, deep_ladder):
        # thin-factor commutator norms against dense S_j X - X S_j at every
        # third kappa of each sample path; the growth fits agree on both sets
        lad = deep_ladder
        ks = np.concatenate([path[::3] for path in expansion.kappa_sample_paths().values()])
        thin, dense = {}, {}
        for k in ks:
            ev = lad.at(k)
            got = expansion.commutator_norms(lad, ev)
            ref = helpers.dense_commutator_norms(lad, ev)
            assert len(got) == 6 and got.keys() == ref.keys()
            for key, (value, xnorm) in ref.items():
                assert abs(got[key] - value) <= 1e-12 * max(1.0, xnorm)
                thin.setdefault(key, []).append(got[key])
                dense.setdefault(key, []).append(value)
        floor = 1e-12 * max(1.0, linalg.opnorm(lad.m10))
        for key in ref:
            target = 1.9 if key == (2, 0) else 0.9
            e_thin, n_thin = expansion.fit_exponent(ks, thin[key], floor)
            e_dense, n_dense = expansion.fit_exponent(ks, dense[key], floor)
            assert n_thin == n_dense
            assert (e_thin >= target or n_thin < 3) == (e_dense >= target or n_dense < 3)
            if n_dense >= 3:
                assert abs(e_thin - e_dense) <= 1e-3

    def test_zero_potential_vacuous_pass(self, interval_cs):
        m = waveguide.square_well_model(interval_cs, 0.0, (0.0, 1.0), 4, 10, 3)
        lad = expansion.build_threshold_ladder(m, 4.0, eps=2e-2, tail_tol=10.0)
        rep = expansion.verify_structural_lemmas(lad)
        assert rep.ok

    def test_ladder_report_rank_n0_is_the_rank(self, interval_cs, well_small):
        # zero potential: the threshold group has one member but N0 = 0
        zero = waveguide.square_well_model(interval_cs, 0.0, (0.0, 1.0), 4, 10, 3)
        for model, tail_tol, rank in ((zero, 10.0, 0), (well_small, 0.1, 1)):
            lad = expansion.build_threshold_ladder(model, 4.0, eps=2e-2, tail_tol=tail_tol)
            assert len(lad.members) == 1
            reported = expansion.ladder_report(lad)["ranks"]["rank_n0"]
            assert reported == lad.u_n.shape[1] == rank
            assert reported == expansion.verify_structural_lemmas(lad).ranks["rank_n0"]

    def test_report_serializes(self, resonant_ladder):
        import json

        rep = expansion.verify_structural_lemmas(resonant_ladder)
        json.dumps(rep.to_dict())
        json.dumps(expansion.ladder_report(resonant_ladder))


class TestS0Figures:
    """The report reads its three ``S0`` figures off the range of ``N0``
    (``P_svd``, the rows of the SVD that the cut keeps); the dense
    kernel-basis construction (``helpers.dense_s0_figures``) is the oracle.
    A ladder whose ``P_N`` or threshold vector is turned by 1e-6 into
    ``ker N0`` must read that angle and fail its check."""

    THETA = 1e-6
    NAMES = ("s0_svd_vs_span_construction", "s0_annihilates_threshold_vectors",
             "s0_annihilates_leading_kernel")

    @pytest.fixture(scope="class", params=["well_small", "coupled_model", "resonant", "deep"])
    def ladder(self, request):
        if request.param in ("resonant", "deep"):
            return request.getfixturevalue(f"{request.param}_ladder")
        tail_tol = 0.1 if request.param == "well_small" else 0.03
        model = request.getfixturevalue(request.param)
        return expansion.build_threshold_ladder(model, 4.0, eps=2e-2, tail_tol=tail_tol)

    def figures(self, ladder) -> dict:
        # three kappa samples per ray: the S0 figures do not depend on kappa
        rep = expansion.verify_structural_lemmas(ladder, kappa_lo=1e-3, kappa_hi=2e-3)
        return {c.name: c for c in rep.checks if c.name in self.NAMES}

    @staticmethod
    def kernel_direction(ladder) -> np.ndarray:
        """A unit vector of ``ker N0`` in the sector block of ``u_n``'s first
        column, orthogonal to ``u_n``."""
        sec, u = ladder.sectors, ladder.u_n
        block = np.flatnonzero(np.any(sec.blocked(u[:, :1]) != 0, axis=(1, 2)))[0]
        rng = np.random.default_rng(45)
        w = np.zeros((sec.n_blocks, sec.block_dim), dtype=complex)
        w[block] = rng.normal(size=sec.block_dim) + 1j * rng.normal(size=sec.block_dim)
        w = w.reshape(-1)
        w -= u @ (u.conj().T @ w)
        w /= np.linalg.norm(w)
        assert np.linalg.norm(ladder.n0 @ sec.blocked(w)) <= 1e-14 * linalg.opnorm(ladder.n0)
        return w

    def test_figures_at_rounding(self, ladder):
        got = self.figures(ladder)
        for name in self.NAMES:
            assert got[name].value < 1e-14 and got[name].passed, name

    def test_projector_turned_into_the_kernel(self, ladder):
        u = ladder.u_n.copy()
        u[:, 0] = np.cos(self.THETA) * u[:, 0] + np.sin(self.THETA) * self.kernel_direction(ladder)
        ub = ladder.sectors.blocked(u)
        pn = ub @ linalg.adjoint(ub)
        turned = dataclasses.replace(ladder, pn=pn, s0=np.eye(pn.shape[-1]) - pn)
        line = self.figures(turned)["s0_svd_vs_span_construction"]
        ref = helpers.dense_s0_figures(turned)["s0_svd_vs_span_construction"]
        assert line.value == pytest.approx(ref, rel=1e-9)
        assert line.value == pytest.approx(np.sin(self.THETA), rel=1e-9)
        assert line.passed is False

    def test_threshold_vector_moved_into_the_kernel(self, ladder):
        vtil = ladder.vtil.astype(complex)
        vtil[0] += self.THETA * np.linalg.norm(vtil[0]) * self.kernel_direction(ladder)
        moved = dataclasses.replace(ladder, vtil=vtil)
        line = self.figures(moved)["s0_annihilates_threshold_vectors"]
        ref = helpers.dense_s0_figures(moved)["s0_annihilates_threshold_vectors"]
        assert line.value == pytest.approx(ref, rel=1e-9)
        assert line.value == pytest.approx(self.THETA / np.hypot(1.0, self.THETA), rel=1e-9)
        assert line.passed is False


class TestCertificates:
    def test_positivity_certificate_guards_build(self, well_small, monkeypatch):
        # an unreachable tolerance forces the certificate branch
        monkeypatch.setattr(expansion, "CERTIFICATE_TOL", -1.0)
        with pytest.raises(StructuralError):
            expansion.build_threshold_ladder(well_small, 4.0, eps=2e-2, tail_tol=0.1)

    def test_sabotaged_skew_part_detected(self, well_small):
        lad = expansion.build_threshold_ladder(well_small, 4.0, eps=2e-2, tail_tol=0.1)
        i10 = lad.s0 @ (lad.m10 - 3j * np.eye(lad.sectors.block_dim)) @ lad.s0
        assert linalg.skew_defect(i10) > 1.0


class TestLevelOneOperator:
    @pytest.mark.parametrize("name", ["well_4x24_ladder", "cosine_4x24_ladder", "deep_ladder"])
    def test_i1_matches_extended_precision_quotient(self, request, name):
        # the product S0 M1 G0 S0 carries no eps/|kappa| loss: the float64
        # quotient (S0 - S0 G0 S0)/(2 kappa) read about 1e-12 off at 1e-4
        lad = request.getfixturevalue(name)
        for t in (1e-2, 1e-3, 1e-4):
            for ray in (1.0, -1.0j, (1.0 - 1.0j) / np.sqrt(2.0)):
                got = lad.at(ray * t).i1
                ref = helpers.extended_i1(lad, ray * t).astype(complex)
                assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref), (t, ray)


class TestSectorBlocks:
    """The block path on uniform wells: one LU per transverse sector."""

    @pytest.fixture(params=["generic", "first", "resonant", "deep"])
    def uniform_ladder(self, request, well_small):
        if request.param == "resonant":
            return request.getfixturevalue("resonant_ladder")
        if request.param == "deep":
            return request.getfixturevalue("deep_ladder")
        lam = 4.0 if request.param == "generic" else 1.0
        return expansion.build_threshold_ladder(well_small, lam, eps=2e-2, tail_tol=0.1)

    def test_level_inverses_match_dense_path(self, uniform_ladder):
        lad = uniform_ladder
        sec = lad.sectors
        assert (sec.n_blocks, sec.block_dim) == (lad.model.grid.n_omega, lad.model.grid.n_x)
        ks = list(diag_kappas(lad.eps, count=3, lo_frac=5e-2)) + [3e-3, -3e-3j]
        core, off = list(lad.core), lad.off_core
        for k in ks:
            ev = lad.at(k)
            g0, h1, m1 = (helpers.sector_blocks(sec, a) for a in helpers.dense_level_inverses(lad, k))
            m1inv = linalg.inverse(m1[off])
            for got, ref in ((ev.g0, g0[core]), (ev.h1, h1[core]), (ev.m1inv, m1inv)):
                err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
                assert err <= 1e-12

    def test_m_function_matches_refined_oracle(self, uniform_ladder):
        lad = uniform_ladder
        model = lad.model
        for k in diag_kappas(lad.eps, count=3, lo_frac=5e-2):
            z = lad.lam - k * k
            direct = np.diag(model.u_diag()) + birman.mode_sum_matrix(
                model, z, list(range(1, lad.n_used + 1))
            )
            ref = linalg.refined_inverse(direct)
            m = expansion.m_function(lad, k)
            assert np.linalg.norm(m - ref) / np.linalg.norm(ref) <= 1e-6

    def test_core_is_the_support_of_u_n_and_b1(self, uniform_ladder):
        lad = uniform_ladder
        bases = [lad.sectors.blocked(q) for q in (lad.u_n, lad.b1) if q is not None]
        support = [b for b in range(lad.sectors.n_blocks) if any(q[b].any() for q in bases)]
        assert lad.core == tuple(support)
        assert lad.off_core == [b for b in range(lad.sectors.n_blocks) if b not in support]

    def test_deep_core_holds_the_threshold_and_kernel_sectors(self, deep_ladder):
        # u_n in the mode-2 sector, b1 in the mode-3 sector
        assert deep_ladder.core == (1, 2)

    @pytest.mark.parametrize("name", ["deep_ladder", "well_4x24_ladder"])
    def test_off_core_blocks_are_the_m1_inverse(self, request, name):
        # off the core M's block is M1(kappa)^-1 itself, free of the
        # eps/|kappa| digit loss of 2k G0 + G0 H1 G0; the 1/k and 1/k^2
        # products vanish there
        lad = request.getfixturevalue(name)
        off = lad.off_core
        assert off
        for t in np.geomspace(1e-2, 1e-6, 5):
            for ray in (1.0, -1.0j, (1.0 - 1.0j) / np.sqrt(2.0)):
                block, product = lad.terms(ray * t)
                m1 = lad.m1(ray * t)
                for b in off:
                    ref = linalg.refined_inverse(m1[b])
                    assert np.linalg.norm(block[b] - ref) <= 1e-14 * np.linalg.norm(ref)
                if product is not None:
                    left, _, right = product
                    assert not lad.sectors.blocked(left)[off].any()
                    assert not lad.sectors.blocked(right.T)[off].any()

    def test_lu_only_at_block_size(self, deep_ladder, monkeypatch):
        # at(k) factors the n_omega sector blocks, never the dim x dim operator
        factored = helpers.record_gesv(monkeypatch)
        for k in diag_kappas(deep_ladder.eps, count=3):
            deep_ladder.at(k)
        n_x = deep_ladder.model.grid.n_x
        dims = [a.shape[0] for a in factored]
        assert dims and max(dims) <= n_x < deep_ladder.dim


class TestOneBlockPath:
    """A cosine profile couples the transverse modes: the ladder is one block
    of size dim, and M is the plain sum of the dense expansion terms."""

    @pytest.fixture(scope="class")
    def ladder(self, interval_cs):
        model = waveguide.square_well_model(
            interval_cs, 1.0, (0.0, 1.0), n_omega=40, n_x=8, n_max=44,
            omega_profile={"kind": "cosine", "amplitude": 0.5, "harmonic": 1},
        )
        return expansion.build_threshold_ladder(model, 4.0, eps=2e-2, tail_tol=0.1)

    def test_m_function_is_the_dense_term_sum(self, ladder):
        assert ladder.sectors.n_blocks == 1 and ladder.dim == 320
        assert ladder.core == (0,) and ladder.off_core == []
        for k in diag_kappas(ladder.eps, count=3):
            block, product = ladder.terms(k)
            ref = block[0] if product is None else block[0] + product[0] @ product[1] @ product[2]
            m = expansion.m_function(ladder, k)
            assert expansion.oracle_error(ladder, k, m) <= 1e-6
            assert np.linalg.norm(m - ref) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("k", [1e-3 * (1 - 1j) / np.sqrt(2.0),
                                   5e-3 * np.exp(-0.3j), 1e-4 - 2e-4j])
    def test_evaluation_bits_do_not_depend_on_the_kappa_type(self, ladder, k):
        # the structural report passes numpy scalars, the I3(0) extrapolation
        # Python numbers: both must see the same evaluation, bit for bit
        plain, numpy_scalar = ladder.at(complex(k)), ladder.at(np.complex128(k))
        for name in ("g0", "i1", "h1", "m1inv", "h2", "i3c", "i3inv"):
            a, b = getattr(plain, name), getattr(numpy_scalar, name)
            assert (a is None) == (b is None)
            assert a is None or helpers.same_bits(a, b), name

    def test_m_function_memory_is_a_few_dense_operators(self, ladder):
        # M and the level inverses are a few dim x dim arrays (about 9 of
        # them at peak); embedding the one block must not add an
        # n_omega^4 weight array (20 dim^2 entries here)
        k = complex(diag_kappas(ladder.eps, count=1)[0])
        tracemalloc.start()
        try:
            expansion.m_function(ladder, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * ladder.dim**2 * 16


class TestRectangleThreshold:
    """The paper's degenerate case: on the pi x pi guide the threshold 5 holds
    the modes (1, 2) and (2, 1), so ``N0`` has rank 2.  The 4 x 4 lattice
    splits the grid operators into 16 sector blocks."""

    @pytest.fixture(scope="class")
    def ladder(self):
        model = waveguide.square_well_model(
            waveguide.Rectangle(np.pi, np.pi), 1.0, (0.0, 1.0), n_omega=4, n_x=30, n_max=12
        )
        return expansion.build_threshold_ladder(model, 5.0, eps=2e-2, tail_tol=0.4)

    def test_degenerate_group(self, ladder):
        assert ladder.members == (2, 3) and ladder.u_n.shape[1] == 2
        assert ladder.sectors.n_blocks == 16 and ladder.dim == 480

    def test_m_function_matches_dense_oracle(self, ladder):
        for k in diag_kappas(ladder.eps, count=3):
            assert oracle_error(ladder, k) <= 1e-6

    def test_structural_report_within_budget(self, ladder):
        # the dense report took 8.5 s here (one BLAS thread, 2-vCPU host)
        t0 = time.perf_counter()
        rep = expansion.verify_structural_lemmas(ladder)
        elapsed = time.perf_counter() - t0
        assert rep.ok, rep.to_dict()
        assert rep.ranks["rank_n0"] == 2
        assert elapsed <= 5.0

    def test_dim_6400_build_and_report_form_no_dim_squared_array(self):
        # the same threshold on an 8 x 8 lattice with n_x 100: 64 sector
        # blocks of 100.  One dim x dim complex array is 655 MB; a dense
        # kernel basis of N0 and the S0 built from it peaked at 1434 MB and
        # took 13-15 s (one BLAS thread, 2-vCPU host); read off N0's range
        # the run peaks near 200 MB in about 7 s
        model = waveguide.square_well_model(
            waveguide.Rectangle(np.pi, np.pi), 1.0, (0.0, 1.0), n_omega=8, n_x=100, n_max=40
        )
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            ladder = expansion.build_threshold_ladder(model, 5.0, eps=2e-2, tail_tol=0.4)
            rep = expansion.verify_structural_lemmas(ladder)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ladder.dim == 6400 and ladder.sectors.n_blocks == 64 and ladder.core == (1, 2)
        assert rep.ok, rep.to_dict()
        assert rep.ranks["rank_n0"] == 2
        assert elapsed <= 30.0
        assert peak <= 256e6
