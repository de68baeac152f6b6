"""Trace rows, S-matrices, expansion checks and continuity probes."""

import importlib.util
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import helpers
from wgscat import birman, expansion, linalg, scattering, waveguide
from wgscat.errors import ChannelClosedError, DomainError, SingularMatrixError

ROOT = Path(__file__).resolve().parents[1]


def load_module(path: Path):
    """A script or benchmark module by path, registered first so that its
    dataclasses resolve their module."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def scan_well():
    """``SCAN_WELL`` of ``scripts/cli_artifacts.py``, the 5 x 60 well of the
    ``eigen_scan_cli`` benchmark."""
    return waveguide.model_from_config(
        load_module(ROOT / "scripts" / "cli_artifacts.py").SCAN_WELL)


def record_inverse_norms(monkeypatch) -> list:
    """The bands whose exact inverse norm runs from here on, in call order."""
    bands = []
    inverse_norm = birman.BoundaryOperator._inverse_norm
    monkeypatch.setattr(birman.BoundaryOperator, "_inverse_norm",
                        lambda op: bands.append(op) or inverse_norm(op))
    return bands


class TestTraceRows:
    def test_closed_channel_rejected(self, well_small):
        with pytest.raises(ChannelClosedError):
            scattering.trace_row(2.5, 2, +1, well_small)

    @pytest.mark.parametrize("lam, n, sigma", [(2.5, 1, 2), (2.5, 1, 0), (25.5, 0, 1),
                                               (100.0, 9, 1)])
    def test_channel_outside_the_model_rejected(self, well_small, lam, n, sigma):
        # a direction other than -1 or +1, or a mode outside 1..n_max = 8:
        # n = 0 would wrap to the last stored mode
        with pytest.raises(DomainError, match="channel"):
            scattering.trace_row(lam, n, sigma, well_small)

    def test_zero_potential_zero_row(self, interval_cs):
        m = waveguide.square_well_model(interval_cs, 0.0, (0.0, 1.0), 4, 10, 3)
        row = scattering.trace_row(2.5, 1, +1, m)
        assert np.all(row == 0.0)

    def test_flux_scaling_exact(self, well_small):
        # (lam - lambda_n)^(-1/4) prefactor: norm ratio at gaps {1, 16} is 1/2
        r1 = scattering.trace_row(2.0, 1, +1, well_small)
        r16 = scattering.trace_row(17.0, 1, +1, well_small)
        ratio = np.linalg.norm(r16) / np.linalg.norm(r1)
        assert ratio == pytest.approx(16.0 ** -0.25, abs=1e-12)

    def test_optical_identity_exact(self, well_medium):
        # Gram of the stacked rows reproduces the skew part of the sandwiched
        # mode resolvent on the same grid (convention lock)
        lam = 5.5  # two open channels
        for n in (1, 2):
            bn = scattering.b_rows(lam, n, well_medium)
            block = birman.mode_sum_matrix(well_medium, complex(lam), [n])
            im = linalg.imaginary_part(block)
            assert linalg.opnorm(bn.conj().T @ bn - im) <= 1e-12

    def test_channel_count_jumps_at_thresholds(self, well_small):
        assert len(scattering.open_channels(0.5, well_small)) == 0
        assert len(scattering.open_channels(2.5, well_small)) == 2
        assert len(scattering.open_channels(5.5, well_small)) == 4
        assert len(scattering.open_channels(9.5, well_small)) == 6


class TestSMatrix:
    def test_zero_potential_identity(self, interval_cs):
        m = waveguide.square_well_model(interval_cs, 0.0, (0.0, 1.0), 4, 16, 3)
        s = scattering.channel_smatrix(2.5, m, tail_tol=1.0)
        assert np.allclose(s.matrix, np.eye(2), atol=1e-13)

    def test_unitary_between_thresholds(self, well_medium):
        s = scattering.channel_smatrix(2.5, well_medium, tail_tol=0.03)
        assert s.matrix.shape == (2, 2)
        assert s.unitarity_defect <= 1e-3

    def test_time_reversal_symmetry(self, well_medium):
        # real potential: S(n,s,n',s') = S(n',-s',n,-s) exactly on the grid
        s = scattering.channel_smatrix(5.5, well_medium, tail_tol=0.03)
        for (n, sg) in s.channels:
            for (np_, sgp) in s.channels:
                a = s.entry(n, sg, np_, sgp)
                b = s.entry(np_, -sgp, n, -sg)
                assert abs(a - b) <= 1e-12

    def test_no_open_channels_rejected(self, well_small):
        with pytest.raises(DomainError):
            scattering.channel_smatrix(0.5, well_small, tail_tol=0.1)

    def test_closed_sector_level_is_no_hit(self, eigenvalue_hit):
        # the level lies in the mode-2 sector, closed at lam; the one open
        # channel's sector block is regular (its guard about 2), so S is
        # that block's, and the singular whole band is neither factored
        # nor guarded
        doc, lam = eigenvalue_hit
        model = waveguide.model_from_config(doc)
        s = scattering.channel_smatrix(lam, model, tail_tol=0.03)
        assert s.channels == ((1, -1), (1, 1))
        assert linalg.opnorm(s.matrix.conj().T @ s.matrix - np.eye(2)) <= 1e-14
        ref = helpers.dense_open_sector_smatrix(model, lam, 0.03)
        assert np.abs(s.matrix - ref).max() <= 1e-12

    def test_one_block_model_factors_its_whole_band(self, coupled_model, monkeypatch):
        blocks = []
        build = birman.boundary_operator
        monkeypatch.setattr(birman, "boundary_operator", lambda lam, model, tail_tol, block=None:
                            blocks.append(block) or build(lam, model, tail_tol, block))
        for lam in (2.5, 3.5):
            scattering.channel_smatrix(lam, coupled_model, tail_tol=0.03)
        assert blocks == [None, None]

    @pytest.mark.parametrize("lam, sectors", [(2.5, [0]), (5.5, [0, 1])])
    def test_one_band_per_open_sector(self, well_small, lam, sectors, monkeypatch):
        # a decomposing model builds exactly one one-block band per sector
        # that holds an open channel, and no other band
        built = []
        build = birman.boundary_operator
        monkeypatch.setattr(birman, "boundary_operator", lambda lam, model, tail_tol, block=None:
                            built.append((block, build(lam, model, tail_tol, block)))
                            or built[-1][1])
        scattering.channel_smatrix(lam, well_small, tail_tol=0.1)
        assert [block for block, _ in built] == sectors
        assert all(op.dim == well_small.grid.n_x for _, op in built)

    def test_aliased_channel_keeps_the_identity(self, interval_cs):
        # mode 4 vanishes on the 3-point transverse lattice, so its channels
        # have no sector: S holds exactly the identity's rows and columns there
        model = waveguide.square_well_model(interval_cs, 1.0, (0.0, 1.0), n_omega=3, n_x=24,
                                            n_max=5)
        assert model.sectors.mode_sector.tolist() == [0, 1, 2, -1, 2]
        s = scattering.channel_smatrix(17.5, model, tail_tol=0.3)
        eye = np.eye(len(s.channels))
        for sigma in (-1, 1):
            i = s.channels.index((4, sigma))
            assert np.array_equal(s.matrix[i], eye[i]) and np.array_equal(s.matrix[:, i], eye[:, i])
        assert np.abs(s.matrix - helpers.dense_open_sector_smatrix(model, 17.5, 0.3)).max() <= 1e-12

    @pytest.mark.parametrize("lam", [5.5, 9.5, 17.5])
    def test_cross_sector_entries_are_exact_zeros(self, well_small, lam):
        s = scattering.channel_smatrix(lam, well_small, tail_tol=0.1)
        modes = np.array([n for n, _ in s.channels])
        cross = modes[:, None] != modes[None, :]
        assert cross.any() and not s.matrix[cross].any()
        ref = helpers.dense_open_sector_smatrix(well_small, lam, 0.1)
        assert np.abs(s.matrix - ref).max() <= 1e-12

    def test_dimension_ten_thousand_under_a_second(self, interval_cs):
        # the benchmark's sweep model at n_x = 2000: out of reach of a dense LU
        model = waveguide.square_well_model(
            interval_cs, 1.0, (0.0, 1.0), n_omega=5, n_x=2000, n_max=12,
            omega_profile={"kind": "cosine", "amplitude": 0.5, "harmonic": 1},
        )
        assert model.dim == 10_000
        t0 = time.perf_counter()
        s = scattering.channel_smatrix(6.0, model, tail_tol=0.03)
        elapsed = time.perf_counter() - t0
        recip = max(abs(s.entry(n, sg, n2, sg2) - s.entry(n2, -sg2, n, -sg))
                    for (n, sg) in s.channels for (n2, sg2) in s.channels)
        assert elapsed < 1.0
        assert s.unitarity_defect <= 1e-8 and recip <= 1e-8

    def test_one_band_solve_off_the_thresholds(self, interval_cs, monkeypatch):
        # the benchmark's sweep model at least 0.05 from every threshold: the
        # certified bound accepts, so the S solve is the only band solve
        model = waveguide.square_well_model(
            interval_cs, 1.0, (0.0, 1.0), n_omega=5, n_x=200, n_max=12,
            omega_profile={"kind": "cosine", "amplitude": 0.5, "harmonic": 1},
        )
        calls = []
        solve = birman.BoundaryOperator._band_solve
        monkeypatch.setattr(birman.BoundaryOperator, "_band_solve",
                            lambda op, *a: calls.append(1) or solve(op, *a))
        for lam in (1.05, 2.5, 3.95, 4.05, 6.5, 8.95):
            calls.clear()
            s = scattering.channel_smatrix(lam, model, tail_tol=0.03)
            assert len(calls) == 1
            assert s.unitarity_defect <= 1e-8

    @pytest.mark.parametrize("lam", [4.0 - 1e-3, 4.0 + 1e-3])
    def test_estimate_decides_next_to_a_threshold(self, coupled_model, lam, monkeypatch):
        # 1e-3 below lambda_2 the bound accepts and is at least the exact
        # guard; 1e-3 above it the bound exceeds COND_LIMIT and the exact
        # inverse norm of the one band accepts
        op = birman.boundary_operator(lam, coupled_model, 0.03)
        exact = linalg.cond_estimate(birman.bs_blocks(coupled_model, complex(lam), op.n_used))
        assert helpers.cond_bound(op) >= exact * (1.0 - 1e-10)
        norms = record_inverse_norms(monkeypatch)
        s = scattering.channel_smatrix(lam, coupled_model, tail_tol=0.03)
        assert s.unitarity_defect <= 1e-12
        if lam < 4.0:
            assert helpers.cond_bound(op) <= linalg.COND_LIMIT and not norms
        else:
            assert len(norms) == 1 and norms[0].layout is op.layout
            assert helpers.cond_bound(op) > linalg.COND_LIMIT >= helpers.cond_estimate(op)
            assert helpers.cond_estimate(op) >= exact * (1.0 - 1e-12)

    @pytest.mark.parametrize("lam, opening", [(3.999, None), (4.001, 1), (9.001, 2)])
    def test_only_the_opening_band_is_estimated(self, scan_well, lam, opening, monkeypatch):
        # on the 5 x 60 well the bound decides every band 1e-3 below lambda_2;
        # 1e-3 above lambda_2 and lambda_3 only the band of the sector whose
        # channel just opened reads its exact inverse norm, and every other
        # band keeps its bound in the guard
        norms = record_inverse_norms(monkeypatch)
        s = scattering.channel_smatrix(lam, scan_well, tail_tol=0.03)
        assert s.unitarity_defect <= 1e-12
        _, _, blocks, ops = scattering.smatrix_bands(lam, scan_well, 0.03)
        whole = birman.band_layout(scan_well, ops[0].n_used)
        sector = {id(whole.subset(b)): b for b in blocks}
        assert [sector[id(e.layout)] for e in norms] == ([] if opening is None else [opening])
        norm = max(op.norm_bound for op in ops)
        factors = [op._inverse_norm() if b == opening else op._inverse_bound()
                   for b, op in zip(blocks, ops)]
        assert birman.guard(ops) == norm * max(factors)
        assert all(norm * op._inverse_bound() <= linalg.COND_LIMIT
                   for b, op in zip(blocks, ops) if b != opening)

    @pytest.mark.parametrize("name, lam", [("scan", 4.001), ("scan", 9.001), ("coupled", 4.001)])
    def test_guard_holds_where_the_inverse_norm_decides(self, scan_well, coupled_model, name,
                                                         lam):
        # 1e-3 above a threshold, where the bound of the band whose channel
        # just opened fails, the guard is still at least the exact guard of
        # the dense open-sector blocks (a Hager-Higham estimate there read
        # 34.4 against 42.2 on the 5 x 60 well at 4.001)
        model = scan_well if name == "scan" else coupled_model
        _, _, blocks, ops = scattering.smatrix_bands(lam, model, 0.03)
        assert max(helpers.cond_bound(op) for op in ops) > linalg.COND_LIMIT
        exact = linalg.cond_estimate(birman.bs_blocks(model, complex(lam), ops[0].n_used)[blocks])
        assert exact <= birman.guard(ops) <= 1.05 * exact

    @pytest.mark.parametrize("lam", [3.95, 3.999, 4.001, 4.05])
    @pytest.mark.parametrize("name", ["well", "cosine", "table", "sweep"])
    def test_bound_holds_next_to_a_threshold(self, interval_cs, name, lam):
        # the 4 x 24 well of the CLI configs, its cosine and table twins,
        # and the smatrix_sweep model
        if name == "sweep":
            tail_tol = 0.03
            model = waveguide.square_well_model(
                interval_cs, 1.0, (0.0, 1.0), n_omega=5, n_x=200, n_max=12,
                omega_profile={"kind": "cosine", "amplitude": 0.5, "harmonic": 1})
        else:
            runs = load_module(ROOT / "scripts" / "cli_artifacts.py").runs()
            doc, (_, task, _) = next((doc, task) for run, _, doc, task in runs
                                     if run == f"{name}-smatrix")
            model, tail_tol = waveguide.model_from_config(doc), task["tail_tol"]
        op = birman.boundary_operator(lam, model, tail_tol)
        exact = linalg.cond_estimate(birman.bs_blocks(model, complex(lam), op.n_used))
        print(f"{name} lam={lam}: bound / exact {helpers.cond_bound(op) / exact:.3g}")
        assert helpers.cond_bound(op) >= exact * (1.0 - 1e-10)

    def test_bound_holds_at_seeded_sweep_energies(self):
        # the energies TestBirmanKrein draws from the smatrix_sweep workload
        sweep = load_module(ROOT / "perfbench" / "workloads.py").SmatrixSweep()
        model = sweep.setup(None)
        for lam in sweep.inputs(model, np.random.default_rng(0), 20):
            op = birman.boundary_operator(lam, model, sweep.tail_tol)
            exact = linalg.cond_estimate(birman.bs_blocks(model, complex(lam), op.n_used))
            assert helpers.cond_bound(op) >= exact * (1.0 - 1e-10), lam

    def test_smoothness_off_singular_set(self, well_small):
        devs = scattering.smoothness_probe(2.3, well_small, tail_tol=0.1)
        assert all(a > b for a, b in zip(devs, devs[1:]))

    @pytest.mark.parametrize("lam", [4.005, 3.995])
    def test_smoothness_probe_refuses_a_threshold_within_its_steps(self, well_small, lam):
        # lam -+ 1e-2 straddles lambda_2 = 4, where the channel count changes
        with pytest.raises(DomainError, match="threshold"):
            scattering.smoothness_probe(lam, well_small, tail_tol=0.1)

    def test_degenerate_group_matrix_block(self):
        # square cross-section: modes 2 and 3 share the threshold at 5, so
        # their channel entries form 2x2 blocks per direction pair
        cs = waveguide.Rectangle(np.pi, np.pi)
        m = waveguide.square_well_model(cs, 1.0, (0.0, 1.0), 4, 30, 12)
        s = scattering.channel_smatrix(6.5, m, tail_tol=0.4)
        assert len(s.channels) == 6  # modes 1..3 open, two directions each
        block = s.block((2, 3), +1, (2, 3), +1)
        assert block.shape == (2, 2)
        assert s.unitarity_defect <= 1e-10


def barrier_model():
    """A positive box ``V = 2`` on ``[0, 1]`` as a 4 x 30 table: one block,
    ``u = +1`` at every node."""
    return waveguide.model_from_config({
        "schema_version": 1,
        "cross_section": {"kind": "interval", "length": float(np.pi)},
        "grid": {"n_omega": 4, "n_x": 30}, "n_max": 8,
        "potential": {"kind": "table", "x_box": [0.0, 1.0],
                      "values": np.full((4, 30), 2.0).tolist()},
    })


def dense_smatrix(model, lam, tail_tol) -> np.ndarray:
    """``channel_smatrix``'s matrix from a dense solve with ``bs_operator``."""
    chans = scattering.open_channels(lam, model)
    n_used, _ = birman._truncation(model, complex(lam), tail_tol)
    rows = np.array([scattering.trace_row(lam, n, s, model) for n, s in chans])
    x = np.linalg.solve(birman.bs_operator(model, complex(lam), n_used), rows.conj().T)
    return np.eye(len(chans)) - 2j * np.pi * rows @ x


def node_block_sigma_min(model, lam, tail_tol, k) -> float:
    """Smallest singular value of the node block ``D_k = u_k - sum_n c_n
    a^n_k a^n_k^T`` at ``x_k``, formed from the mode samples, ``v`` and the
    quadrature weights."""
    n_used, _ = birman._truncation(model, complex(lam), tail_tol)
    grid = model.grid
    sw = grid.composite_sqrt_weights().reshape(grid.n_omega, grid.n_x)[:, k]
    a = np.array([model.modes[n].samples * model.potential.v[:, k] * sw for n in range(n_used)])
    c = np.array([1j / (2.0 * birman.sqrt_upper(lam - model.eigenvalue(n + 1)))
                  for n in range(n_used)])
    d = np.diag(model.potential.u[:, k]) - (a.T * c) @ a
    return float(np.linalg.svd(d, compute_uv=False)[-1])


class TestBarrier:
    """On a barrier (``V > 0``) the node blocks ``D_k = I - sum_n c_n a a^T``
    of the condensed band can be singular just below a threshold, where a
    closed mode's ``1 / (2 |mu_n|)`` grows; the build then refuses the
    energy.  Everywhere else S is the dense operator's."""

    TAIL_TOL = 0.1

    def test_guard_fires_only_at_node_block_roots(self):
        model = barrier_model()
        lam2 = model.eigenvalue(2)
        sweep = np.concatenate([np.linspace(1.05, 3.95, 12), lam2 - np.geomspace(3e-3, 1e-5, 25),
                                lam2 + np.geomspace(1e-5, 3e-3, 8), np.linspace(4.05, 8.95, 8)])
        roots = []
        for k in (7, 9, 12):
            # the root of sigma_min(D_k), from a coarse grid and golden section
            smin = lambda lam: node_block_sigma_min(model, lam, self.TAIL_TOL, k)
            grid = np.linspace(lam2 - 0.01, lam2 - 1e-7, 200)
            i = int(np.argmin([smin(lam) for lam in grid]))
            roots.append(birman.golden_min(smin, grid[i - 1], grid[i + 1], 1e-16))
            assert smin(roots[-1]) <= 1e-12
        fired, worst = [], 0.0
        for lam in np.concatenate([sweep, roots]):
            try:
                s = scattering.channel_smatrix(float(lam), model, tail_tol=self.TAIL_TOL)
            except SingularMatrixError as exc:
                assert exc.cond > linalg.COND_LIMIT
                fired.append(float(lam))
                continue
            worst = max(worst, np.abs(s.matrix - dense_smatrix(model, lam, self.TAIL_TOL)).max())
        print(f"guard fires at lambda_2 - {[f'{lam2 - lam:.4e}' for lam in fired]}; "
              f"elsewhere |S - S_dense| <= {worst:.2e}")
        assert fired == roots
        assert worst <= 1e-12
        # the dense operator is regular at the refused energies: the refusal
        # is the node block's, not an eigenvalue's
        for lam in roots:
            s = dense_smatrix(model, lam, self.TAIL_TOL)
            assert linalg.opnorm(s.conj().T @ s - np.eye(len(s))) <= 1e-12


def birman_krein_defect(lam, model, tail_tol) -> float:
    """``|det S - conj(D)/D|`` with ``D = det A(lam + i0)`` from the whole
    model's band LU; the pivot parity and the sector transform's sign are
    real, so they cancel in ``conj(D)/D``."""
    s = scattering.channel_smatrix(lam, model, tail_tol)
    diag, _ = helpers.band_det_factors(birman.boundary_operator(lam, model, tail_tol))
    return abs(np.linalg.det(s.matrix) - np.prod(diag.conj() / diag))


class TestBirmanKrein:
    """``det S(lam) = conj(D)/D`` (Birman and Krein) at every S-matrix energy
    of ``scripts/cli_artifacts.py`` and of the ``smatrix_sweep`` benchmark."""

    def test_cli_artifact_energies(self):
        runs = load_module(ROOT / "scripts" / "cli_artifacts.py").runs()
        checked = 0
        for name, command, doc, (_, task, _) in runs:
            if command != "smatrix":
                continue
            model = waveguide.model_from_config(doc)
            thresholds = [model.eigenvalue(n) for n in range(1, model.n_max + 1)]
            for lam in task["energies"]:
                defect = birman_krein_defect(lam, model, task["tail_tol"])
                if min(abs(lam - t) for t in thresholds) < 0.05:
                    # the band's condition is 1e11 or more here: shown, not held
                    print(f"{name} lam={lam}: Birman-Krein defect {defect:.2e}")
                    continue
                assert defect <= 1e-12, (name, lam)
                checked += 1
        assert checked == 22

    def test_seeded_sweep_energies(self):
        sweep = load_module(ROOT / "perfbench" / "workloads.py").SmatrixSweep()
        model = sweep.setup(None)
        for lam in sweep.inputs(model, np.random.default_rng(0), 20):
            assert birman_krein_defect(lam, model, sweep.tail_tol) <= 1e-12, lam

    @pytest.mark.parametrize("name", ["well_small", "coupled_model"])
    def test_pivot_parity_gives_the_dense_determinant(self, request, name):
        # slogdet of the dense sector blocks: modulus and phase of det A,
        # including the sign the pivot parity carries
        model = request.getfixturevalue(name)
        parities = set()
        for lam in (1.6, 2.8, 3.4, 5.5):
            op = birman.boundary_operator(lam, model, 0.1)
            diag, swaps = helpers.band_det_factors(op)
            sign, logabs = np.linalg.slogdet(birman.bs_blocks(model, complex(lam), op.n_used))
            assert abs(np.log(np.abs(diag)).sum() - logabs.sum()) <= 1e-10
            assert abs((-1) ** swaps * np.prod(diag / np.abs(diag)) - np.prod(sign)) <= 1e-12
            parities.add(swaps % 2)
        assert parities == {0, 1}


class TestF0Expansion:
    def test_zero_kappa_is_exact(self, well_medium):
        # near kappa = 0 the quadratic model reproduces the row: every
        # remainder stays under the report's 1e-12 |row0| floor
        rep = scattering.f0_expansion_check(
            4.0, 1, +1, [1e-6, 1e-5, 1e-4], well_medium
        )
        assert rep.open_n_used == 0

    def test_open_channel_quartic_remainder(self, well_medium):
        ks = np.geomspace(1e-3, 1e-1, 7)
        rep = scattering.f0_expansion_check(4.0, 1, +1, ks, well_medium)
        assert rep.open_exponent >= 3.9 or rep.open_n_used < 3

    def test_opening_channel_three_halves_remainder(self, well_medium):
        ks = np.geomspace(1e-3, 1e-1, 7)
        rep = scattering.f0_expansion_check(4.0, 1, -1, ks, well_medium)
        assert rep.opening_exponent >= 1.4 or rep.opening_n_used < 3
        assert rep.ok

    def test_gamma_row_matches_leading_order(self, well_medium):
        # at kappa = -it the opening row approaches t^(-1/2) gamma_0
        t = 1e-3
        row = scattering.trace_row(4.0 + t * t, 2, +1, well_medium)
        g0 = scattering.gamma_row(0, 2, well_medium)
        rel = np.linalg.norm(row - t ** -0.5 * g0) / np.linalg.norm(t ** -0.5 * g0)
        assert rel <= 5e-2  # first correction is O(t) relative


@pytest.fixture(scope="module")
def coupled_reports(coupled_model):
    eps = 0.02
    ladder = expansion.build_threshold_ladder(
        coupled_model, 4.0, eps=eps, tail_tol=0.03
    )
    hs = [eps / 2.0 ** (k + 1) for k in range(8)]
    pairs = [((1, 1), (1, 1)), ((1, 1), (2, 1)), ((2, 1), (2, 1))]
    reps = scattering.continuity_probes(ladder, pairs, hs)
    return {p: r for p, r in zip(pairs, reps)}


class TestThresholdProbes:
    def test_open_open_gap_decreases(self, coupled_reports):
        rep = coupled_reports[((1, 1), (1, 1))]
        assert rep.gap is not None and rep.gap <= 5e-3
        gaps = rep.gaps_per_h
        assert all(a < b for a, b in zip(gaps, gaps[1:]))

    def test_open_opening_entry_vanishes(self, coupled_reports):
        rep = coupled_reports[((1, 1), (2, 1))]
        assert rep.terminal_abs <= 5e-3
        mags = [abs(e) for e in rep.right_entries]
        assert all(a < b for a, b in zip(mags, mags[1:]))

    def test_opening_opening_cauchy(self, coupled_reports):
        rep = coupled_reports[((2, 1), (2, 1))]
        assert rep.right_cauchy[0] <= 5e-3
        assert all(a < b for a, b in zip(rep.right_cauchy, rep.right_cauchy[1:]))

    def test_one_trace_row_per_channel_and_ray(self, resonant_ladder, monkeypatch):
        rows = []
        trace_row = scattering.trace_row
        monkeypatch.setattr(
            scattering, "trace_row", lambda *args: rows.append(args[:3]) or trace_row(*args)
        )
        hs = [4e-3, 2e-3]
        pairs = [((1, 1), (1, 1)), ((1, 1), (2, 1)), ((2, 1), (2, 1))]
        scattering.continuity_probes(resonant_ladder, pairs, hs)
        # per h: channels (1, 1) and (2, 1) on the right ray; only the
        # open/open pair, so channel (1, 1), on the left ray
        assert len(rows) == len(set(rows)) == 3 * len(hs)

    def test_no_h_values_rejected(self, well_small, monkeypatch):
        ladder = expansion.build_threshold_ladder(well_small, 4.0, eps=2e-2, tail_tol=0.1)
        monkeypatch.setattr(expansion, "m_function", None)  # refused before any evaluation
        with pytest.raises(DomainError):
            scattering.continuity_probes(ladder, [((1, 1), (1, 1))], [])

    def test_no_pairs_rejected(self, well_small, monkeypatch):
        ladder = expansion.build_threshold_ladder(well_small, 4.0, eps=2e-2, tail_tol=0.1)
        monkeypatch.setattr(expansion, "m_function", None)  # refused before any evaluation
        with pytest.raises(DomainError, match="pair"):
            scattering.continuity_probes(ladder, [], [1e-3])

    @pytest.mark.parametrize("hs", [[-1e-3], [0.0], [1e-3, -1e-3], [np.nan], [np.inf]])
    def test_h_not_finite_and_positive_rejected(self, well_small, monkeypatch, hs):
        # kappa = -ih with h < 0 leaves the closed fourth quadrant: on the
        # cosine twin of the 4 x 24 well, h = -1e-3 gave S(2+,2+) = 2.000015
        # + 0.002379i, |S| about 2
        ladder = expansion.build_threshold_ladder(well_small, 4.0, eps=2e-2, tail_tol=0.1)
        monkeypatch.setattr(expansion, "m_function", None)  # refused before any evaluation
        with pytest.raises(DomainError, match="h > 0"):
            scattering.continuity_probes(ladder, [((1, 1), (1, 1))], hs)

    def test_report_serializes(self, coupled_reports):
        import json

        for rep in coupled_reports.values():
            json.dumps(rep.to_dict())


class TestEigenvalueProbes:
    def test_regular_point_smooth(self, well_small):
        ladder = expansion.build_eigenvalue_ladder(well_small, 2.2, eps=2e-2, tail_tol=0.1)
        hs = [1e-2 / 2.0**k for k in range(1, 7)]
        (rep,) = scattering.continuity_probes(ladder, [((1, 1), (1, 1))], hs)
        assert rep.gap <= 1e-8

    def test_embedded_eigenvalue_gap_closes(self, well_medium, embedded_lambda):
        ladder = expansion.build_eigenvalue_ladder(
            well_medium, embedded_lambda, eps=5e-3, tail_tol=0.03
        )
        assert ladder.rank == 1
        hs = [2e-3 / 2.0**k for k in range(8)]
        (rep,) = scattering.continuity_probes(ladder, [((1, 1), (1, 1))], hs)
        # monotone decrease above the rounding floor; the tail sits at the floor
        floor = 5e-9
        coarse = [g for g in rep.gaps_per_h if g > floor]
        assert all(a < b for a, b in zip(coarse, coarse[1:]))
        assert rep.gap <= 5e-3 and rep.gaps_per_h[0] <= 1e-6

    def test_row_kernel_contraction_quadratic_or_zero(
        self, well_medium, embedded_lambda
    ):
        ladder = expansion.build_eigenvalue_ladder(
            well_medium, embedded_lambda, eps=5e-3, tail_tol=0.03
        )
        hs = [2e-3 / 2.0**k for k in range(8)]
        expo, used = scattering.row_kernel_fit(
            ladder.model, ladder.lam, ladder.basis, (1, 1), hs)
        # symmetry-protected eigenvector: the contraction vanishes exactly,
        # which satisfies the quadratic bound with room to spare
        assert expo >= 1.9 or used < 3
