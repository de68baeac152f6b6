"""Free-resolvent kernels, the sandwiched operator, HS diagnostics, scans."""

import dataclasses
import re
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import integrate, special

import helpers
from wgscat import birman, linalg, scattering, waveguide
from wgscat.errors import (
    BranchPointError, DimensionError, DomainError, EigenvalueHitError, SingularMatrixError,
    TruncationError,
)


class TestFreeKernel:
    def test_negative_energy_diagonal(self):
        # z = -1 (kappa = 1): kernel value 1/2 on the diagonal
        assert birman.free_kernel(-1.0, 0.3, 0.3) == pytest.approx(0.5)

    def test_positive_energy_diagonal(self):
        assert birman.free_kernel(1.0 + 0j, 0.3, 0.3) == pytest.approx(0.5j)

    def test_branch_point_rejected(self):
        with pytest.raises(BranchPointError):
            birman.free_kernel(0.0, 0.1, 0.2)

    def test_symmetry_exact(self):
        x = np.linspace(-1.0, 2.0, 9)
        k = birman.free_kernel_matrix(0.7 + 0.3j, x)
        assert np.array_equal(k, k.T)

    def test_quadratic_expansion_rate(self):
        # kernel minus its quadratic model shrinks like kappa^2
        y = np.linspace(0.0, 2.0, 40)
        errs, ks = [], (1e-2, 1e-3)
        for kappa in ks:
            exact = birman.free_kernel(-(kappa**2), y, 0.0)
            model = 1.0 / (2 * kappa) - y / 2.0 + kappa * y**2 / 4.0
            errs.append(np.max(np.abs(exact - model)))
        slope = helpers.fit_slope(ks, errs)
        assert slope >= 2.0 - 0.05

    def test_branch_continuity_from_above(self):
        lam = 2.5
        x = np.linspace(0.0, 2.0, 15)
        base = birman.free_kernel(lam, x, 0.0)
        devs = []
        for eta in 10.0 ** -np.arange(3, 9):
            devs.append(np.max(np.abs(birman.free_kernel(lam + 1j * eta, x, 0.0) - base)))
        assert all(a > b for a, b in zip(devs, devs[1:]))
        assert devs[-1] <= 1e-7

    def test_kernel_stack_is_the_one_mode_kernels(self, well_small):
        # the chunked evaluation of mode sums: every entry bitwise the value
        # of the one-mode kernel free_kernel, on the model's own (panel)
        # nodes; free_kernel_matrix is the one-z stack
        x = well_small.grid.x_nodes
        zs = [2.5 + 0j, -3.0 + 0j, 4.0 - (1e-3 - 1e-3j) ** 2, 0.7 + 0.3j, -20.0 - 1e-9j]
        stack = birman._free_kernel_stack(zs, x)
        ref = np.array([birman.free_kernel(z, x[:, None], x[None, :]) for z in zs])
        assert helpers.same_bits(stack, ref)
        assert helpers.same_bits(birman.free_kernel_matrix(zs[3], x), ref[3])
        with pytest.raises(BranchPointError):
            birman._free_kernel_stack([1.0, 0.0], x)

    def test_difference_kernel_matches_plain_subtraction(self):
        x = np.linspace(0.0, 1.5, 12)
        z1, z0 = 2.0 - 0.3j, 2.0 + 0j
        d = birman.free_kernel_matrix_diff(z1, z0, x)
        ref = birman.free_kernel_matrix(z1, x) - birman.free_kernel_matrix(z0, x)
        assert np.allclose(d, ref, atol=1e-13)


class TestBsOperator:
    """The dense oracle over a given mode count, and the certified mode
    cutoff ``birman._truncation`` that the ladders and the boundary operator
    take (the oracle has none of its own)."""

    def test_zero_potential_gives_signed_identity(self, interval_cs):
        m = waveguide.square_well_model(interval_cs, 0.0, (0.0, 1.0), 4, 10, 3)
        n_used, _ = birman._truncation(m, 2.5 + 0j, 1.0)
        assert np.allclose(birman.bs_operator(m, 2.5 + 0j, n_used), np.eye(m.dim))

    def test_off_axis_skew_part_psd(self, well_small):
        z = 3.0 - (0.05 - 0.03j) ** 2
        n_used, _ = birman._truncation(well_small, z, 0.1)
        a = birman.bs_operator(well_small, z, n_used)
        assert linalg.skew_defect(a) <= 1e-10

    def test_doubling_modes_moves_within_tail_budget(self, well_small):
        z, tol = 2.5 + 0j, 0.08
        n_used, _ = birman._truncation(well_small, z, tol)
        n_more = min(2 * n_used, well_small.n_max)
        assert n_more > n_used
        diff = linalg.opnorm(birman.bs_operator(well_small, z, n_more)
                             - birman.bs_operator(well_small, z, n_used))
        assert diff <= tol

    def test_tail_certificate_true_upper_bound(self, interval_cs):
        # extend the mode sum well beyond the cutoff; the recorded bound must
        # dominate the observed change in operator norm
        m = waveguide.square_well_model(interval_cs, 1.0, (0.0, 1.0), 6, 24, 40)
        n_used, tail = birman._truncation(m, 2.5 + 0j, 0.05)
        extension = birman.mode_sum_matrix(m, 2.5 + 0j, list(range(n_used + 1, 41)))
        assert linalg.opnorm(extension) <= tail

    def test_unattainable_tail_reported(self, well_small):
        with pytest.raises(TruncationError):
            birman._truncation(well_small, 2.5 + 0j, 1e-9)

    def test_refused_bound_prints_above_its_tolerance(self, well_small):
        # a tolerance 1e-12 (relative) below the bound at the cap: both print
        # to 17 digits, so the refused bound reads above the tolerance
        z = 2.5 + 0j
        cap = birman.tail_bound_value(well_small, z, well_small.n_max)
        with pytest.raises(TruncationError) as err:
            birman._choose_n_used(well_small, z, cap * (1.0 - 1e-12))
        tol, bound = map(float, re.search(r"tolerance (\S+) .* \(bound (\S+) at the cap\)",
                                          str(err.value)).groups())
        assert bound > tol

    def test_threshold_collision_rejected(self, well_small):
        with pytest.raises(BranchPointError):
            birman._truncation(well_small, 4.0 + 0j, 0.1)


def table_model():
    """Sign-changing tabulated potential on a 4 x 30 grid."""
    om = np.arange(1, 5)[:, None]
    x = np.arange(30)[None, :]
    values = -1.2 * np.cos(0.7 * om + 0.2 * x) + 0.3 * np.sin(0.5 * x)
    return waveguide.model_from_config({
        "schema_version": 1,
        "cross_section": {"kind": "interval", "length": float(np.pi)},
        "grid": {"n_omega": 4, "n_x": 30}, "n_max": 8,
        "potential": {"kind": "table", "x_box": [-0.5, 1.5], "values": values.tolist()},
    })


STRUCTURED_MODELS = {
    "table": table_model,
    "rectangle": lambda: waveguide.square_well_model(
        waveguide.Rectangle(np.pi, 2.0), 1.0, (0.0, 1.0), 3, 20, 12),
    "panels": lambda: waveguide.square_well_model(
        waveguide.Interval(np.pi), 1.0, (0.0, 1.0), 5, 40, 8, n_panels=4),
}


@pytest.fixture(params=["well_small", "well_medium", "coupled_model", *STRUCTURED_MODELS])
def any_model(request):
    if request.param in STRUCTURED_MODELS:
        return STRUCTURED_MODELS[request.param]()
    return request.getfixturevalue(request.param)


class TestBoundaryOperator:
    """The banded embedding reproduces the dense ``bs_operator`` matrix at
    its own mode cutoff, the one ``birman._truncation`` certifies."""

    TAIL_TOL = 0.3

    @staticmethod
    def energies(model):
        """The middle of the first three open bands and 1e-3 below lambda_2."""
        t = model.thresholds()[:4]
        return [0.5 * (a + b) for a, b in zip(t, t[1:])] + [t[1] - 1e-3]

    def test_equals_dense_operator(self, any_model):
        rng = np.random.default_rng(3)
        b = rng.normal(size=(any_model.dim, 3)) + 1j * rng.normal(size=(any_model.dim, 3))

        def rel(x, ref):
            return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))

        for lam in self.energies(any_model):
            n_used, tail = birman._truncation(any_model, complex(lam), self.TAIL_TOL)
            op = birman.boundary_operator(lam, any_model, self.TAIL_TOL)
            a = birman.bs_operator(any_model, complex(lam), n_used)
            assert (op.n_used, op.tail_bound, op.dim) == (n_used, tail, a.shape[0])
            assert rel(op.solve(b), linalg.solve(a, b)) <= 1e-12
            assert rel(op.matvec(b), a @ b) <= 1e-12
            assert rel(op.solve(b[:, 0]), linalg.solve(a, b[:, 0])) <= 1e-12
            assert op.solve(b[:, 0]).shape == (any_model.dim,)
            dense = helpers.inverse_norm(birman.bs_blocks(any_model, complex(lam), n_used))
            assert abs(op._inverse_norm() / dense - 1.0) <= 1e-12

    def test_norm_bound_and_cond_estimate_follow_the_block_guard(self, any_model):
        # on the dense sector blocks A_b: norm_bound is at least max_b |A_b|_1
        # (to rounding) and the inverse norm is max_b |A_b^-1|_1, so the
        # band's condition figure is at least the guard linalg.inverse puts
        # on the ladders
        for lam in self.energies(any_model):
            op = birman.boundary_operator(lam, any_model, self.TAIL_TOL)
            blocks = birman.bs_blocks(any_model, complex(lam), op.n_used)
            norm = max(np.abs(b).sum(axis=0).max() for b in blocks)
            inv_norm = helpers.inverse_norm(blocks)
            assert op.norm_bound >= norm * (1.0 - 1e-12)
            assert abs(op._inverse_norm() / inv_norm - 1.0) <= 1e-12
            assert helpers.cond_estimate(op) >= norm * inv_norm * (1.0 - 1e-12)

    def test_sector_blocks_are_the_dense_operator(self, any_model):
        # bs_blocks in grid coordinates is the independently assembled oracle
        for lam in self.energies(any_model):
            n_used, _ = birman._truncation(any_model, complex(lam), self.TAIL_TOL)
            blocks = birman.bs_blocks(any_model, complex(lam), n_used)
            a = birman.bs_operator(any_model, complex(lam), n_used)
            dense = any_model.sectors.grid_blocks(blocks)
            assert np.abs(dense - a).max() <= 1e-13 * np.abs(a).max()

    def test_band_width_per_sector(self, well_small, coupled_model):
        # 5 lattice nodes: modes 1-5 take one sector each, mode 6 vanishes on
        # the lattice, and modes 7 and 8 alias into the sectors of 5 and 4
        widths = [(op.n_used, op.slots, op._width) for op in (
            birman.boundary_operator(2.5, well_small, tol) for tol in (0.1, 0.03))]
        assert widths == [(4, 1, 2), (8, 2, 4)]
        one = birman.boundary_operator(2.5, coupled_model, 0.03)
        assert (one.slots, one._width) == (one.n_used, 2 * one.n_used)

    def test_cond_estimate_at_embedded_eigenvalue(self, well_medium, embedded_lambda):
        op = birman.boundary_operator(embedded_lambda, well_medium, 0.03)
        blocks = birman.bs_blocks(well_medium, complex(embedded_lambda), op.n_used)
        dense = linalg.cond_estimate(blocks)
        assert dense > 1e9
        # both inverses carry about cond * eps relative error at this condition
        err = abs(op._inverse_norm() / helpers.inverse_norm(blocks) - 1.0)
        assert err <= dense * np.finfo(float).eps
        # the certified bound sits above the dense figure
        assert dense <= helpers.cond_bound(op) * (1.0 + 1e-4)

    def test_singular_band_branches(self, well_small, monkeypatch):
        # a node with u = v = 0 (which factorize_potential never gives) has
        # the node block D_k = 0: the build refuses it, so no scan reads it
        # as a level
        pot = well_small.potential
        v, u = pot.v.copy(), pot.u.copy()
        v[:, 0] = u[:, 0] = 0.0
        dead = dataclasses.replace(well_small, potential=dataclasses.replace(pot, v=v, u=u))
        with pytest.raises(SingularMatrixError) as refused:
            birman.boundary_operator(2.5, dead, self.TAIL_TOL)
        assert refused.value.cond == float("inf")
        for call in (lambda: scattering.channel_smatrix(2.5, dead, tail_tol=self.TAIL_TOL),
                     lambda: birman.eigenvalue_search((1.5, 3.5), dead, 4, self.TAIL_TOL)):
            with pytest.raises(SingularMatrixError):
                call()
        # an exactly zero pivot of the band LU (info > 0, faked): every
        # figure built on it says the operator is singular
        gbtrf = birman._GBTRF
        monkeypatch.setattr(birman, "_GBTRF", lambda *a, **k: (*gbtrf(*a, **k)[:2], 1))
        op = birman.boundary_operator(2.5, well_small, self.TAIL_TOL)
        assert op.singular
        assert birman._sigma_min(op, birman._start_vectors(well_small.dim)[1]) == 0.0
        assert op._inverse_bound() == op._inverse_norm() == birman.guard([op]) == float("inf")
        with pytest.raises(EigenvalueHitError):
            scattering.channel_smatrix(2.5, well_small, tail_tol=self.TAIL_TOL)

    def test_threshold_collision_rejected(self, well_small):
        with pytest.raises(BranchPointError):
            birman.boundary_operator(4.0, well_small, 0.1)

    def test_x_nodes_must_increase(self, well_small):
        grid = dataclasses.replace(well_small.grid, x_nodes=well_small.grid.x_nodes[::-1].copy())
        model = dataclasses.replace(well_small, grid=grid)
        with pytest.raises(DimensionError):
            birman.boundary_operator(2.5, model, 0.1)

    def test_no_dense_assembly_or_lu(self, well_small, monkeypatch):
        # S-matrices and eigenvalue scans run on the banded embedding only
        counts = {"mode_sum_matrix": 0, "lu_factor": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(birman, "mode_sum_matrix",
                            counted("mode_sum_matrix", birman.mode_sum_matrix))
        factored = helpers.record_gesv(monkeypatch)
        scattering.channel_smatrix(2.5, well_small, tail_tol=0.1)
        scattering.channel_smatrix(5.5, well_small, tail_tol=0.1)
        e0 = helpers.oned_well_levels(1.0, 1.0)[0]
        window = (1.0 + e0 - 0.15, 1.0 + e0 + 0.15)
        assert len(birman.eigenvalue_search(window, well_small, resolution=12, tail_tol=0.1)) == 1
        counts["lu_factor"] = len(factored)
        assert counts == {"mode_sum_matrix": 0, "lu_factor": 0}


class TestBandLayout:
    """The energy-independent layout is built once per model and mode count,
    shared read-only, and changes no bit of the operators built on it."""

    FIELDS = ("lu", "piv", "cn", "rn")

    def test_warm_builds_equal_cold_builds(self, any_model):
        # one model across three energies against a fresh copy per energy
        model = dataclasses.replace(any_model)
        for lam in TestBoundaryOperator.energies(any_model)[1:]:
            warm = birman.boundary_operator(lam, model, TestBoundaryOperator.TAIL_TOL)
            cold = birman.boundary_operator(lam, dataclasses.replace(any_model),
                                            TestBoundaryOperator.TAIL_TOL)
            assert all(helpers.same_bits(getattr(warm, f), getattr(cold, f))
                       for f in self.FIELDS)
        assert model.band_layouts and all(
            lay is birman.band_layout(model, n) for n, lay in model.band_layouts.items())

    def test_layout_arrays_are_read_only(self, any_model):
        op = birman.boundary_operator(TestBoundaryOperator.energies(any_model)[0], any_model,
                                      TestBoundaryOperator.TAIL_TOL)
        lay = birman.band_layout(any_model, op.n_used)
        assert op.layout is lay
        for f in dataclasses.fields(lay):
            value = getattr(lay, f.name)
            if isinstance(value, np.ndarray):
                with pytest.raises(ValueError):
                    value[...] = 0

    def test_sibling_model_gets_its_own_layout(self, any_model):
        # reversed x nodes on a copy still raise once the original has a layout
        lam = TestBoundaryOperator.energies(any_model)[0]
        birman.boundary_operator(lam, any_model, TestBoundaryOperator.TAIL_TOL)
        assert any_model.band_layouts
        grid = dataclasses.replace(any_model.grid, x_nodes=any_model.grid.x_nodes[::-1].copy())
        sibling = dataclasses.replace(any_model, grid=grid)
        assert sibling.band_layouts == {}
        with pytest.raises(DimensionError):
            birman.boundary_operator(lam, sibling, TestBoundaryOperator.TAIL_TOL)

    def test_threads_share_one_layout_per_mode_count(self, well_small):
        # the smatrix command builds operators on one model from several
        # threads; more threads than cores and a short switch interval
        model = dataclasses.replace(well_small)
        t = model.thresholds()
        lams = [a + f * (b - a) for a, b in zip(t, t[1:3]) for f in np.linspace(0.1, 0.9, 8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                ops = list(pool.map(lambda lam: birman.boundary_operator(lam, model, 0.1),
                                    lams, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len({op.n_used for op in ops}) > 1
        for lam, op in zip(lams, ops):
            assert op.layout is model.band_layouts[op.n_used]
            cold = birman.boundary_operator(lam, dataclasses.replace(well_small), 0.1)
            assert all(helpers.same_bits(getattr(op, f), getattr(cold, f)) for f in self.FIELDS)

    @pytest.mark.parametrize("lam", [0.81, 2.5, 3.8106, 8.81])
    def test_block_operator_is_the_whole_bands_rows(self, scan_well, lam):
        # the band over one sector block is that block's rows of the whole
        # band: the same LU (signed zeros aside) and pivots, and bitwise the
        # same solve, read in the block's sector coordinates
        sec, n_x = scan_well.sectors, scan_well.grid.n_x
        whole = birman.boundary_operator(lam, scan_well, 0.03)
        b = np.random.default_rng(7).normal(size=(scan_well.dim, 2)) * (1.0 + 0.5j)
        x = birman._sector_values(sec, whole._band_solve(whole._nodes(b)))
        b_sec = sec.blocked(sec.to_sector(b))
        x_sec = sec.blocked(x)
        s = whole._width
        for block in (0, 2, 4):
            sub = birman.boundary_operator(lam, scan_well, 0.03, block)
            cols = np.arange(block * n_x * s, (block + 1) * n_x * s)
            assert (sub.n_used, sub.tail_bound, sub.dim) == (whole.n_used, whole.tail_bound, n_x)
            assert np.array_equal(sub.lu, whole.lu[:, cols])
            assert np.array_equal(sub.piv, whole.piv[cols] - block * n_x * s)
            assert helpers.same_bits(sub.solve(b_sec[block]), x_sec[block])

    def test_one_block_subset_is_the_whole_band(self, coupled_model):
        lam = TestBoundaryOperator.energies(coupled_model)[0]
        whole = birman.boundary_operator(lam, coupled_model, 0.03)
        sub = birman.boundary_operator(lam, coupled_model, 0.03, 0)
        assert all(helpers.same_bits(getattr(sub, f), getattr(whole, f)) for f in self.FIELDS)

    def test_block_sweeps_equal_the_whole_sweep(self, any_model):
        # each block's nodes swept as a batch add no term but the zeros that
        # the whole-axis sweep carries across block starts: bitwise equal,
        # signed zeros included
        lam = TestBoundaryOperator.energies(any_model)[0]
        op = birman.boundary_operator(lam, any_model, TestBoundaryOperator.TAIL_TOL)
        t = np.random.default_rng(4).normal(size=op.rn.shape + (3,)) * (1.0 - 2.0j)
        for ratio in (op.rn, np.abs(op.rn)):
            assert helpers.same_bits(
                birman._mode_sums(ratio[:, :, None], t, any_model.sectors.n_blocks),
                birman._mode_sums(ratio[:, :, None], t, 1))

    def test_search_builds_one_layout_per_mode_count(self, any_model, monkeypatch):
        model = dataclasses.replace(any_model)
        built, used = [], []
        build, operator = birman._build_layout, birman.boundary_operator

        def counted_build(m, n_used):
            built.append(n_used)
            return build(m, n_used)

        def recorded_operator(*args, **kwargs):
            op = operator(*args, **kwargs)
            used.append(op.n_used)
            return op

        monkeypatch.setattr(birman, "_build_layout", counted_build)
        monkeypatch.setattr(birman, "boundary_operator", recorded_operator)
        t = model.thresholds()
        birman.eigenvalue_search((t[0] + 0.05, t[1] - 0.05), model, resolution=6,
                                 tail_tol=TestBoundaryOperator.TAIL_TOL)
        assert len(used) >= 6
        assert sorted(built) == sorted(set(used))


class TestHsDiagnostic:
    def test_inverse_sqrt_scaling(self):
        vals = [birman.hs_diagnostic(lam, 0.0, 1.0)[0] for lam in (4.0, 16.0, 64.0, 256.0)]
        scaled = [v * np.sqrt(lam) for v, lam in zip(vals, (4.0, 16.0, 64.0, 256.0))]
        assert max(scaled) / min(scaled) <= 2.0

    def test_zero_shift_zero_difference(self):
        _, d = birman.hs_diagnostic(16.0, 0.0, 2.0)
        assert d <= 1e-14

    def test_difference_linear_in_shift(self):
        d1 = birman.hs_diagnostic(16.0, 1e-2j, 2.0)[1]
        d2 = birman.hs_diagnostic(16.0, 1e-3j, 2.0)[1]
        assert 0.5 * 10.0 <= d1 / d2 <= 2.0 * 10.0

    @pytest.mark.parametrize("s", [0.6, 0.75, 1.0, 2.0, 3.5])
    def test_window_tail_closed_form(self, s):
        # the window's relative weight tail I_{1/(1+X^2)}(s - 1/2, 1/2)
        # against quadrature: with t = 1/w, int_X^inf (1+t^2)^-s dt is
        # int_0^(1/X) w^(2s-2) (1+w^2)^-s dw, an algebraic endpoint weight
        def far(x):
            return integrate.quad(lambda w: (1.0 + w * w) ** (-s), 0.0, 1.0 / x, weight="alg",
                                  wvar=(2.0 * s - 2.0, 0.0), epsabs=0.0, epsrel=1e-13)[0]

        half = integrate.quad(lambda t: (1.0 + t * t) ** (-s), 0.0, 1.0,
                              epsabs=0.0, epsrel=1e-13)[0] + far(1.0)
        for x_win in (2.0, 64.0, 1024.0):
            tail = special.betainc(s - 0.5, 0.5, 1.0 / (1.0 + x_win**2))
            assert tail == pytest.approx(far(x_win) / half, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("s", [0.6, 1.5, 1.6])
    def test_window_rule_is_quiet(self, s):
        # the closed-form tail warns nowhere; a quadrature of the weight's
        # tail can report it "probably divergent" (scipy's quad does at
        # s = 1.5 and 1.6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nodes, weights = birman._window_rule(s)
        assert nodes.shape == weights.shape and np.all(weights > 0.0)

    def test_weight_range_validated(self):
        with pytest.raises(DomainError):
            birman.hs_diagnostic(4.0, 0.0, 0.4)
        with pytest.raises(DomainError):
            birman.hs_diagnostic(4.0, -1e-3j, 1.0)


class TestEigenvalueSearch:
    def test_zero_potential_finds_nothing(self, interval_cs):
        m = waveguide.square_well_model(interval_cs, 0.0, (0.0, 1.0), 4, 16, 3)
        cands = birman.eigenvalue_search((1.5, 3.5), m, resolution=12, tail_tol=1.0)
        assert cands == []

    def test_bound_state_matches_separable_oracle(self, well_medium):
        # discrete spectrum below the first threshold: mode-1 bound state of
        # the 1-D well (independent transcendental oracle)
        e0 = helpers.oned_well_levels(1.0, 1.0)[0]
        lam_ref = 1.0 + e0
        cands = birman.eigenvalue_search(
            (lam_ref - 0.1, lam_ref + 0.1), well_medium, resolution=16, tail_tol=0.05
        )
        assert len(cands) == 1
        assert abs(cands[0].lam - lam_ref) <= 1e-4

    def test_count_stable_under_scan_refinement(self, well_small):
        e0 = helpers.oned_well_levels(1.0, 1.0)[0]
        window = (1.0 + e0 - 0.15, 1.0 + e0 + 0.15)
        c1 = birman.eigenvalue_search(window, well_small, resolution=12, tail_tol=0.1)
        c2 = birman.eigenvalue_search(window, well_small, resolution=24, tail_tol=0.1)
        assert len(c1) == len(c2) == 1

    def test_sigma_max_only_at_refined_candidates(self, well_small, monkeypatch):
        # the scan and the golden-section points read sigma_min only; the
        # Lanczos run for sigma_max runs once, at the refined minimum
        calls = []
        sigma_max, golden_min = birman._sigma_max, birman.golden_min
        monkeypatch.setattr(birman, "_sigma_max",
                            lambda *a: calls.append("sigma_max") or sigma_max(*a))
        monkeypatch.setattr(birman, "golden_min",
                            lambda *a: calls.append("golden_min") or golden_min(*a))
        e0 = helpers.oned_well_levels(1.0, 1.0)[0]
        window = (1.0 + e0 - 0.15, 1.0 + e0 + 0.15)
        cands = birman.eigenvalue_search(window, well_small, resolution=12, tail_tol=0.1)
        assert len(cands) == 1
        assert calls == ["golden_min", "sigma_max"]

    def test_golden_min_below_the_float_spacing(self):
        # tol 1e-15 is below the spacing of floats near 8.3 (1.8e-15), so the
        # bracket never gets below tol; the search still returns, within two
        # ulps of the minimum
        result = []
        worker = threading.Thread(target=lambda: result.append(
            birman.golden_min(lambda x: abs(x - 8.3), 8.0, 8.5, 1e-15)), daemon=True)
        worker.start()
        worker.join(timeout=10.0)
        assert len(result) == 1
        assert abs(result[0] - 8.3) <= 2 * np.spacing(8.3)
        # above the spacing nothing changes: the bracket shrinks below tol
        lam = birman.golden_min(lambda x: abs(x - 8.3), 8.0, 8.5, 1e-10)
        assert abs(lam - 8.3) <= 1e-10

    def test_window_touching_threshold_rejected(self, well_small):
        with pytest.raises(DomainError):
            birman.eigenvalue_search((3.5, 4.1), well_small, resolution=8, tail_tol=0.1)

    @pytest.mark.parametrize("window", [(120.0, 122.0), (80.0, 81.0 - 1e-7)])
    def test_window_above_the_model_range_rejected(self, well_small, window, monkeypatch):
        # lambda_9 = 81 is the first threshold past the 8 stored modes; no
        # operator is built for a window at or above it
        monkeypatch.setattr(birman, "boundary_operator", None)
        with pytest.raises(DomainError, match="lambda_9"):
            birman.eigenvalue_search(window, well_small, resolution=8, tail_tol=0.1)
        birman.check_model_range(81.0 - 2e-6, well_small)
        with pytest.raises(DomainError, match="lambda_9"):
            birman.check_model_range(81.0 - 1e-6, well_small)

    @pytest.mark.parametrize("resolution", [2, 0, -5])
    def test_resolution_below_three_rejected(self, well_small, resolution):
        # a scan of fewer than 3 points has no interior point to refine
        with pytest.raises(DomainError, match="at least 3"):
            birman.eigenvalue_search((1.5, 1.9), well_small, resolution=resolution, tail_tol=0.1)


@pytest.fixture(scope="module")
def scan_well(interval_cs):
    """The 5 x 60 depth-1 well of the ``eigen_scan_cli`` benchmark; sector
    ``n`` carries one level at ``n^2 + e0``."""
    return waveguide.square_well_model(interval_cs, 1.0, (0.0, 1.0), n_omega=5, n_x=60, n_max=9)


def level_window(threshold: float) -> tuple[float, float]:
    """The ``eigen_scan_cli`` window around the level ``threshold + e0`` of the
    depth-1 well."""
    lvl = threshold + helpers.oned_well_levels(1.0, 1.0)[0]
    return lvl - 4e-3, lvl + 4e-3


def counting_band_solves(monkeypatch) -> dict:
    """Count the ``zgbtrs`` calls of the boundary operator from here on."""
    calls = {"n": 0}
    gbtrs = birman._GBTRS

    def counted(*args, **kwargs):
        calls["n"] += 1
        return gbtrs(*args, **kwargs)

    monkeypatch.setattr(birman, "_GBTRS", counted)
    return calls


def dense_singular_values(model, lam: float, n_used: int) -> np.ndarray:
    """Singular values of the dense oracle matrix at ``lam + i0``, largest first."""
    return np.linalg.svd(birman.bs_operator(model, complex(lam), n_used), compute_uv=False)


class TestSigmaMin:
    """The Lanczos estimate of the smallest singular value stops once its
    Ritz value has converged, and matches the dense SVD near a level and
    away from one; so does the estimate of the largest on one block."""

    def test_sigma_max_matches_dense_on_one_block(self, coupled_model):
        # the coupled model is one block, so its node slices are the grid
        # values node by node rather than sector values
        assert coupled_model.sectors.n_blocks == 1
        lam = TestBoundaryOperator.energies(coupled_model)[0]
        op = birman.boundary_operator(lam, coupled_model, 0.03)
        sv = dense_singular_values(coupled_model, lam, op.n_used)
        estimate = birman._sigma_max(op, birman._start_vectors(coupled_model.dim)[0])
        assert abs(estimate - sv[0]) <= 1e-10 * sv[0]

    def test_refinement_points_stop_early(self, scan_well, monkeypatch):
        calls = counting_band_solves(monkeypatch)
        per_point = []
        golden_min = birman.golden_min

        def counted_golden_min(f, a, b, tol):
            def counted_f(lam):
                before = calls["n"]
                value = f(lam)
                per_point.append(calls["n"] - before)
                return value
            return golden_min(counted_f, a, b, tol)

        monkeypatch.setattr(birman, "golden_min", counted_golden_min)
        cands = birman.eigenvalue_search(level_window(4.0), scan_well, resolution=9,
                                         tail_tol=0.03)
        assert len(cands) == 1
        assert len(per_point) > 20 and max(per_point) <= 10

    def test_converged_estimate_stops_before_the_cap(self, scan_well, monkeypatch):
        # at 2.5 no level is near, yet the largest Ritz value settles before
        # the cap
        op = birman.boundary_operator(2.5, scan_well, 0.03)
        sv = dense_singular_values(scan_well, 2.5, op.n_used)
        calls = counting_band_solves(monkeypatch)
        estimate = birman._sigma_min(op, birman._start_vectors(scan_well.dim)[1])
        assert abs(estimate - sv[-1]) <= 1e-10 * sv[-1]
        assert calls["n"] < 2 * birman.SIGMA_ITERS

    @pytest.mark.parametrize("lam", [4.1, 4.9, 6.1])
    def test_matches_dense_away_from_a_level(self, scan_well, lam):
        # no level is near and sigma_min / sigma_2 is close to 1 (0.97 at
        # 4.1), the slowest case for the estimate
        op = birman.boundary_operator(lam, scan_well, 0.03)
        sv = dense_singular_values(scan_well, lam, op.n_used)
        estimate = birman._sigma_min(op, birman._start_vectors(scan_well.dim)[1])
        assert abs(estimate - sv[-1]) <= 1e-10 * sv[-1]

    @pytest.mark.parametrize("shift", [-2e-3, -3e-4, 1e-3])
    def test_matches_dense_smallest_singular_value(self, scan_well, shift):
        lvl = sum(level_window(4.0)) / 2.0 + shift
        op = birman.boundary_operator(lvl, scan_well, 0.03)
        sv = dense_singular_values(scan_well, lvl, op.n_used)
        assert sv[-1] / sv[-2] <= 1e-2
        estimate = birman._sigma_min(op, birman._start_vectors(scan_well.dim)[1])
        assert abs(estimate - sv[-1]) <= 1e-10 * sv[-1]

    @pytest.mark.parametrize("n_x, resolution, window, sigma_max_rtol", [
        (60, 24, (3.8, 4.0 - 1e-6), 1e-10),
        (120, 48, (3.8, 4.0 - 1e-6), 1e-10),
        *[(60, 9, level_window(t), tol) for t, tol in ((1.0, 1e-3), (4.0, 1e-10), (9.0, 1e-10))],
        *[(120, 9, level_window(t), tol) for t, tol in ((1.0, 1e-3), (9.0, 1e-10))],
    ], ids=["criterion-9-n_x-60", "criterion-9-n_x-120", "level-1", "level-4", "level-9",
            "level-1-n_x-120", "level-9-n_x-120"])
    def test_search_matches_grid_reference(self, interval_cs, n_x, resolution, window,
                                           sigma_max_rtol):
        # criterion 9's window on both of its models, and the windows around
        # the levels of the eigen_scan_cli benchmark, against the dense SVD
        # at each refined candidate.  There sigma_min is about 1e-10 sigma_max,
        # so it is held at the scale of sigma_max, where the band solves and
        # the SVD are both backward stable.  Below lambda_1 the top of the
        # spectrum clusters and 12 Lanczos steps reach sigma_max to 1e-3 only.
        model = waveguide.square_well_model(interval_cs, 1.0, (0.0, 1.0), n_omega=5, n_x=n_x,
                                            n_max=9)
        cands = birman.eigenvalue_search(window, model, resolution=resolution, tail_tol=0.03)
        assert len(cands) == 1
        x_max, _ = birman._start_vectors(model.dim)
        for cand in cands:
            op = birman.boundary_operator(cand.lam, model, 0.03)
            sv = dense_singular_values(model, cand.lam, op.n_used)
            sigma_max = birman._sigma_max(op, x_max)
            assert abs(cand.sigma_min - sv[-1]) <= 1e-14 * sv[0]
            assert abs(sigma_max - sv[0]) <= sigma_max_rtol * sv[0]
            assert cand.rel_dip == cand.sigma_min / sigma_max


class TestBlockRefinement:
    """Each scan minimum is refined on the band of the sector block the scan
    names there (a coupled model is its own block 0); the candidates are
    those of a refinement on the whole band, bit for bit."""

    @pytest.mark.parametrize("model_args, resolution, window, tail_tol", [
        ((60, False), 24, (3.8, 4.0 - 1e-6), 0.03),
        ((120, False), 48, (3.8, 4.0 - 1e-6), 0.03),
        *[((60, False), 9, level_window(t), 0.03) for t in (1.0, 4.0, 9.0)],
        ((60, True), 20, (0.3, 0.95), 0.03),
        ((120, True), 8, (0.3, 1.0 - 1e-3), 0.1),
    ], ids=["criterion-9-n_x-60", "criterion-9-n_x-120", "level-1", "level-4", "level-9",
            "cosine-ground", "coupled-model"])
    def test_candidates_equal_a_whole_band_refinement(self, interval_cs, model_args, resolution,
                                                      window, tail_tol):
        # (n_x, cosine profile): the 5 x n_x wells of criterion 9 and
        # eigen_scan_cli, and two coupled one-block models, whose block starts
        # from x_min renormalized, which is not x_min bit for bit
        n_x, cosine = model_args
        profile = {"kind": "cosine", "amplitude": 0.5, "harmonic": 1} if cosine else None
        model = waveguide.square_well_model(interval_cs, 1.0, (0.0, 1.0), n_omega=5, n_x=n_x,
                                            n_max=9, omega_profile=profile)
        cands = birman.eigenvalue_search(window, model, resolution=resolution, tail_tol=tail_tol)
        _, x_min = birman._start_vectors(model.dim)

        def whole(lam):
            return birman._sigma_min(birman.boundary_operator(lam, model, tail_tol), x_min)

        lams = np.linspace(*window, resolution)
        sig = [whole(float(lam)) for lam in lams]
        refs = [birman.golden_min(whole, float(lams[i - 1]), float(lams[i + 1]), 1e-10)
                for i in range(1, resolution - 1)
                if sig[i] <= sig[i - 1] and sig[i] <= sig[i + 1]]
        assert len(cands) == len(refs) == 1
        assert cands[0].lam == refs[0]
        op = birman.boundary_operator(cands[0].lam, model, tail_tol)
        assert cands[0].sigma_min == birman._sigma_min(op, x_min)

    def test_golden_points_factor_one_block(self, scan_well, monkeypatch):
        # every golden-section point factors the n_x s unknowns of one block;
        # the scan points and the refined candidate factor the whole band, and
        # nothing else is factored
        unknowns, phase = [], {"name": "scan"}
        gbtrf, golden_min = birman._GBTRF, birman.golden_min

        def counted_gbtrf(ab, *args, **kwargs):
            unknowns.append((phase["name"], ab.shape[1]))
            return gbtrf(ab, *args, **kwargs)

        def marked_golden_min(*args):
            phase["name"] = "golden"
            lam = golden_min(*args)
            phase["name"] = "candidate"
            return lam

        monkeypatch.setattr(birman, "_GBTRF", counted_gbtrf)
        monkeypatch.setattr(birman, "golden_min", marked_golden_min)
        cands = birman.eigenvalue_search(level_window(4.0), scan_well, resolution=9,
                                         tail_tol=0.03)
        assert len(cands) == 1
        s = birman.boundary_operator(cands[0].lam, scan_well, 0.03)._width
        n_x, n_blocks = scan_well.grid.n_x, scan_well.sectors.n_blocks
        sizes = {name: {n for key, n in unknowns if key == name}
                 for name in ("scan", "golden", "candidate")}
        assert sizes == {"scan": {n_blocks * n_x * s}, "golden": {n_x * s},
                         "candidate": {n_blocks * n_x * s}}
        assert sum(key == "scan" for key, _ in unknowns) == 9
        assert sum(key == "golden" for key, _ in unknowns) > 20


def dense_block_sigma_mins(model, lam: float, tail_tol: float) -> np.ndarray:
    """``sigma_min`` of each dense sector block :func:`birman.bs_blocks` at
    ``lam + i0``, with the certified mode count of the scan."""
    n_used, _ = birman._truncation(model, complex(lam), tail_tol)
    return np.array([np.linalg.svd(b, compute_uv=False)[-1]
                     for b in birman.bs_blocks(model, complex(lam), n_used)])


class TestScan:
    """The scan's batched Lanczos runs (one row per sector block, each
    warm-started from its Ritz vector at the previous energy) read the
    smallest singular value of the whole operator at every scan energy, also
    where the minimizing sector block changes between two energies, and
    name the block that holds it."""

    @pytest.mark.parametrize("cosine, window, resolution", [
        (False, (1.05, 3.95), 48), (False, (0.3, 0.95), 20), (True, (1.05, 3.95), 48),
    ], ids=["well-wide", "well-ground", "cosine-wide"])
    def test_every_point_matches_the_dense_blocks(self, interval_cs, cosine, window,
                                                  resolution):
        # the 5 x 60 well of eigen_scan_cli and its coupled cosine twin, over
        # windows where the block attaining the minimum changes
        profile = {"kind": "cosine", "amplitude": 0.5, "harmonic": 1} if cosine else None
        model = waveguide.square_well_model(interval_cs, 1.0, (0.0, 1.0), n_omega=5, n_x=60,
                                            n_max=9, omega_profile=profile)
        lams = np.linspace(*window, resolution)
        sig, named = birman._scan(lams, model, 0.03, birman._start_vectors(model.dim)[1])
        dense = [dense_block_sigma_mins(model, float(lam), 0.03) for lam in lams]
        argmins = [int(np.argmin(d)) for d in dense]
        if not cosine:
            # the minimizing block does change inside the window
            assert len(set(argmins)) > 1
        assert len(sig) == len(named) == resolution
        for value, block, ref, argmin in zip(sig, named, dense, argmins):
            assert abs(value - ref.min()) <= 1e-12 * ref.min()
            # the named block is the dense one, unless the two smallest block
            # minima agree to 1e-10 relative
            low, second = np.sort(ref)[:2] if ref.size > 1 else (ref[0], np.inf)
            if second - low > 1e-10 * low:
                assert block == argmin

    def test_search_reads_the_scan(self, scan_well, monkeypatch):
        # eigenvalue_search takes its scan values from _scan, once per search
        calls = []
        scan = birman._scan
        monkeypatch.setattr(birman, "_scan", lambda *a: calls.append(a[0]) or scan(*a))
        cands = birman.eigenvalue_search(level_window(4.0), scan_well, resolution=9,
                                         tail_tol=0.03)
        assert len(cands) == 1 and len(calls) == 1
        assert np.array_equal(calls[0], np.linspace(*level_window(4.0), 9))

    def test_one_row_run_is_the_single_vector_recurrence(self, scan_well):
        # _sigma_min's one-row run against the plain recurrence written out
        op = birman.boundary_operator(2.5, scan_well, 0.03)
        q = op._nodes(birman._start_vectors(scan_well.dim)[1])
        apply = lambda y: np.conj(op._band_solve(np.conj(op._band_solve(y))))
        t = np.zeros((birman.SIGMA_ITERS + 1, birman.SIGMA_ITERS + 1))
        q_prev, beta, theta = 0.0, 0.0, 0.0
        for j in range(birman.SIGMA_ITERS):
            w = apply(q) - beta * q_prev
            t[j, j] = alpha = np.vdot(q.view(float), w.view(float))
            w -= alpha * q
            prev, theta = theta, np.linalg.eigvalsh(t[: j + 1, : j + 1])[-1]
            beta = np.sqrt(np.vdot(w.view(float), w.view(float)))
            if theta - prev <= birman.SIGMA_RTOL * theta or not 0 < beta < np.inf:
                break
            t[j + 1, j] = beta
            q_prev, q = q, w / beta
        assert birman._sigma_min(op, birman._start_vectors(scan_well.dim)[1]) == float(
            1.0 / np.sqrt(theta))
