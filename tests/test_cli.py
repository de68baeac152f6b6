"""Batch CLI: commands, artifacts, manifest, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import wgscat
from wgscat import birman, cli, expansion, inversion, scattering, waveguide


MODEL_DOC = {
    "schema_version": 1,
    "cross_section": {"kind": "interval", "length": float(np.pi)},
    "grid": {"n_omega": 4, "n_x": 24},
    "n_max": 5,
    "potential": {"kind": "square_well", "depth": 1.0, "x_box": [0.0, 1.0]},
}


def write_config(tmp_path, tasks, name="config.json", model=MODEL_DOC):
    cfg = {"schema_version": 1, "model": model, "tasks": tasks}
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def custom_interval(n_modes: int) -> dict:
    """MODEL_DOC's interval as a ``custom`` cross-section: its own Dirichlet
    lattice, and the first ``n_modes`` sine samples and eigenvalues."""
    interval = waveguide.Interval(MODEL_DOC["cross_section"]["length"])
    nodes, weights = interval.transverse_rule(MODEL_DOC["grid"]["n_omega"])
    modes = interval.modes(n_modes, nodes)
    return {"kind": "custom", "nodes": nodes[:, 0].tolist(), "weights": weights.tolist(),
            "eigenvalues": [m.eigenvalue for m in modes],
            "samples": [m.samples.tolist() for m in modes]}


def custom_with_nan(key: str) -> dict:
    """MODEL_DOC on the ``custom_interval`` of its 4 orthonormal modes, with
    one NaN in the cross-section's ``key`` array."""
    cs = custom_interval(4)
    (cs[key][0] if key == "samples" else cs[key])[1] = float("nan")
    return dict(MODEL_DOC, cross_section=cs, n_max=4)


def run(args):
    return cli.main([str(a) for a in args])


def bundled_openblas():
    """Entry points of the bundled OpenBLAS builds; skips where numpy or scipy
    link another BLAS, which the CLI cannot pin."""
    try:
        return [cli.openblas(*build) for build in cli.OPENBLAS_BUILDS]
    except (ImportError, OSError, AttributeError, ValueError) as exc:
        pytest.skip(f"no bundled OpenBLAS build: {exc!r}")


class TestInvertDemo:
    def test_scalar_family_table(self, tmp_path):
        fam = {
            "schema_version": 1,
            "base": [[[0.0, 0.0]]],
            "remainder": {"kind": "polynomial", "coeffs": [[[[1.0, 0.0]]]]},
            "bound": 1.0,
            "radius": 0.5,
            "sector": None,
        }
        (tmp_path / "family.json").write_text(json.dumps([fam]))
        cfg = write_config(
            tmp_path,
            {"invert_demo": {"families": "family.json",
                             "z_values": [[1e-3, 0.0], [1e-2, -1e-3]]}},
        )
        out = tmp_path / "out"
        rc = run(["invert-demo", "--config", cfg, "--out", out])
        assert rc == 0
        rows = (out / "invert_demo.csv").read_text().strip().splitlines()
        assert rows[0] == "family,re_z,im_z,kernel_dim,rel_error"
        assert len(rows) == 3

    def test_corpus_passes(self, tmp_path):
        rng = np.random.default_rng(5)
        fams = [inversion.random_family_dict(rng, 6, k % 3) for k in range(10)]
        (tmp_path / "corpus.json").write_text(json.dumps(fams))
        cfg = write_config(
            tmp_path,
            {"invert_demo": {"families": "corpus.json", "z_values": [[2e-3, -1e-3]]}},
        )
        rc = run(["invert-demo", "--config", cfg, "--out", tmp_path / "out"])
        assert rc == 0

    @pytest.mark.parametrize("sector, z", [([-0.5, 0.5], [1e-3, -4e-4]),
                                           ([3.0, 3.5], [-1e-3, -1e-4])])
    def test_z_inside_the_sector_accepted(self, tmp_path, sector, z):
        # a sector is a closed range of arg z on any branch: [3.0, 3.5]
        # holds arg z = -3.04 + 2 pi
        fam = dict(TestConfigErrors.SCALAR_FAMILY, sector=sector)
        (tmp_path / "family.json").write_text(json.dumps([fam]))
        cfg = write_config(tmp_path, {"invert_demo": {"families": "family.json",
                                                      "z_values": [z]}})
        assert run(["invert-demo", "--config", cfg, "--out", tmp_path / "out"]) == 0

    def test_missing_family_file_nonzero_exit(self, tmp_path):
        cfg = write_config(
            tmp_path, {"invert_demo": {"families": "nope.json", "z_values": [[1e-3, 0]]}}
        )
        out = tmp_path / "out"
        rc = run(["invert-demo", "--config", cfg, "--out", out])
        assert rc != 0
        # partial outputs are removed on failure; no manifest either
        assert not list(out.glob("*.csv")) and not (out / "manifest.json").exists()

    def test_missing_config_nonzero_exit(self, tmp_path):
        rc = run(["modes", "--config", tmp_path / "nothing.json", "--out", tmp_path / "o"])
        assert rc == 2


class TestModelCommands:
    def test_modes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, {"modes": {}})
        out = tmp_path / "out"
        assert run(["modes", "--config", cfg, "--out", out]) == 0
        rows = (out / "modes.csv").read_text().strip().splitlines()
        assert rows[1].startswith("1,")
        lam1 = float(rows[1].split(",")[1])
        assert lam1 == pytest.approx(1.0)
        groups = json.loads((out / "threshold_groups.json").read_text())
        assert groups[0]["members"] == [1]

    def test_custom_cross_section_is_the_interval(self, tmp_path):
        interval = dict(MODEL_DOC, n_max=3)
        custom = dict(interval, cross_section=custom_interval(4))
        outs = {}
        for name, model in (("interval", interval), ("custom", custom)):
            cfg = write_config(tmp_path, {"modes": {}}, name=f"{name}.json", model=model)
            out = tmp_path / name
            assert run(["modes", "--config", cfg, "--out", out]) == 0
            outs[name] = [(out / f).read_bytes() for f in ("modes.csv", "threshold_groups.json")]
        assert outs["custom"] == outs["interval"]
        m_interval, m_custom = (waveguide.model_from_config(m) for m in (interval, custom))
        compared = 0
        for lam in (1.6, 2.2, 5.5):
            # the custom tail bound caps the quadrature norms over the supplied
            # modes only, so the two cutoffs may differ; compare where they agree
            n_used = {birman._truncation(m, lam, 0.3)[0] for m in (m_interval, m_custom)}
            if len(n_used) > 1:
                continue
            s_interval, s_custom = (scattering.channel_smatrix(lam, m, 0.3).matrix
                                    for m in (m_interval, m_custom))
            assert s_custom.tobytes() == s_interval.tobytes()
            compared += 1
        assert compared

    def test_smatrix_zero_potential_identity_rows(self, tmp_path):
        model = dict(MODEL_DOC)
        model["potential"] = {"kind": "square_well", "depth": 0.0, "x_box": [0.0, 1.0]}
        cfg = write_config(
            tmp_path, {"smatrix": {"energies": [2.5], "tail_tol": 10.0}}, model=model
        )
        out = tmp_path / "out"
        assert run(["smatrix", "--config", cfg, "--out", out]) == 0
        rows = (out / "smatrix.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            cells = row.split(",")
            n, s, np_, sp = cells[1], cells[2], cells[3], cells[4]
            re, im = float(cells[5]), float(cells[6])
            expect = 1.0 if (n, s) == (np_, sp) else 0.0
            assert abs(re - expect) <= 1e-12 and abs(im) <= 1e-12

    def test_smatrix_deterministic_across_runs(self, tmp_path):
        cfg = write_config(
            tmp_path, {"smatrix": {"energies": [2.2, 3.0], "tail_tol": 0.1}}
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["smatrix", "--config", cfg, "--out", out1]) == 0
        assert run(["smatrix", "--config", cfg, "--out", out2]) == 0
        assert (out1 / "smatrix.csv").read_bytes() == (out2 / "smatrix.csv").read_bytes()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["artifacts"] == m2["artifacts"]

    def test_smatrix_at_closed_sector_level_exits_0(self, tmp_path, eigenvalue_hit):
        # the level sits in a sector with no open channel: S comes from the
        # open channel's own sector block, unitary
        doc, lam = eigenvalue_hit
        cfg = write_config(tmp_path, {"smatrix": {"energies": [lam], "tail_tol": 0.03}},
                           model=doc)
        out = tmp_path / "out"
        assert run(["smatrix", "--config", cfg, "--out", out]) == 0
        rows = np.loadtxt(out / "smatrix.csv", delimiter=",", skiprows=1)
        s = (rows[:, 5] + 1j * rows[:, 6]).reshape(2, 2)
        assert np.abs(s.conj().T @ s - np.eye(2)).max() <= 1e-14

    def test_output_independent_of_thread_count(self, tmp_path):
        cfg = write_config(
            tmp_path, {"smatrix": {"energies": [2.2, 2.8, 3.4], "tail_tol": 0.1}}
        )
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert run(["smatrix", "--config", cfg, "--out", out1, "--threads", 1]) == 0
        assert run(["smatrix", "--config", cfg, "--out", out2, "--threads", 2]) == 0
        assert (out1 / "smatrix.csv").read_bytes() == (out2 / "smatrix.csv").read_bytes()

    def test_thread_count_starts_no_thread(self, tmp_path, monkeypatch):
        # --threads is accepted and selects nothing: the energies run in turn
        # on the calling thread
        started, start = [], threading.Thread.start

        def record(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", record)
        cfg = write_config(
            tmp_path, {"smatrix": {"energies": [2.2, 2.8, 3.4], "tail_tol": 0.1}}
        )
        assert run(["smatrix", "--config", cfg, "--out", tmp_path / "out", "--threads", 2]) == 0
        assert started == []

    def test_output_independent_of_blas_threads(self, tmp_path):
        bundled_openblas()
        # a dim-600 model: large enough that BLAS splits its work over threads
        model = dict(MODEL_DOC, grid={"n_omega": 5, "n_x": 120}, n_max=9)
        cfg = write_config(
            tmp_path, {"smatrix": {"energies": [1.6, 2.6, 5.5], "tail_tol": 0.03}},
            model=model,
        )
        src = str(Path(wgscat.__file__).resolve().parent.parent)
        manifests, stderrs = [], []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run(
                [sys.executable, "-m", "wgscat.cli", "smatrix", "--config", str(cfg),
                 "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            manifests.append(json.loads((out / "manifest.json").read_text()))
            stderrs.append(proc.stderr)
        assert manifests[0]["artifacts"] == manifests[1]["artifacts"]
        for manifest in manifests:
            assert [b["build"] for b in manifest["blas"]] == ["numpy", "scipy"]
            for build in manifest["blas"]:
                assert build["pinned"] and build["threads"] == 1 and build["config"]
        # the package does not import its own entry module
        assert not any("RuntimeWarning" in err for err in stderrs)

    def test_blas_thread_counts_restored(self, tmp_path):
        builds = bundled_openblas()
        saved = [get() for _, get, _ in builds]
        try:
            for set_threads, _, _ in builds:
                set_threads(2)
            before = [get() for _, get, _ in builds]
            cfg = write_config(tmp_path, {"modes": {}})
            assert run(["modes", "--config", cfg, "--out", tmp_path / "out"]) == 0
            assert [get() for _, get, _ in builds] == before
        finally:
            for (set_threads, _, _), n in zip(builds, saved):
                set_threads(n)

    def test_manifest_checksums_complete(self, tmp_path):
        cfg = write_config(tmp_path, {"modes": {}})
        out = tmp_path / "out"
        assert run(["modes", "--config", cfg, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        listed = {e["file"]: e["sha256"] for e in manifest["artifacts"]}
        produced = {p.name for p in out.iterdir() if p.name != "manifest.json"}
        assert set(listed) == produced
        for name, digest in listed.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_eigenvalues_count_stability(self, tmp_path):
        model = dict(MODEL_DOC)
        model["grid"] = {"n_omega": 4, "n_x": 30}
        cfg = write_config(
            tmp_path,
            {"eigenvalues": {"window": [0.6, 0.95], "resolutions": [10, 20],
                             "tail_tol": 0.2}},
            model=model,
        )
        out = tmp_path / "out"
        assert run(["eigenvalues", "--config", cfg, "--out", out]) == 0
        doc = json.loads((out / "eigenvalue_counts.json").read_text())
        assert doc["stable"] and doc["counts"][0] == 1

    def test_eigenvalue_rows_independent_of_earlier_resolutions(self, tmp_path):
        # one model serves every resolution of a run; it must carry no state
        # from one scan to the next
        model = dict(MODEL_DOC)
        model["grid"] = {"n_omega": 4, "n_x": 30}
        rows = {}
        for resolutions in ([10, 20], [20]):
            cfg = write_config(
                tmp_path,
                {"eigenvalues": {"window": [0.6, 0.95], "resolutions": resolutions,
                                 "tail_tol": 0.2}},
                model=model,
            )
            out = tmp_path / f"out{len(resolutions)}"
            assert run(["eigenvalues", "--config", cfg, "--out", out]) == 0
            lines = (out / "eigenvalues.csv").read_text().splitlines()[1:]
            rows[len(resolutions)] = [r for r in lines if r.startswith("20,")]
        assert rows[1] and rows[2] == rows[1]

    def test_verify_command(self, tmp_path):
        cfg = write_config(tmp_path, {"verify": {"lam": 4.0, "tail_tol": 0.2}})
        out = tmp_path / "out"
        assert run(["verify", "--config", cfg, "--out", out]) == 0
        doc = json.loads((out / "verify.json").read_text())
        assert doc["ok"] and doc["optical_identity_defect"] <= 1e-12

    def test_verify_defaults_to_the_second_threshold(self, tmp_path):
        cfg = write_config(tmp_path, {"verify": {"tail_tol": 0.2}})
        out = tmp_path / "out"
        assert run(["verify", "--config", cfg, "--out", out]) == 0
        assert json.loads((out / "verify.json").read_text())["structural"]["lam"] == 4.0

    def test_verify_samples_inside_a_small_eps(self, tmp_path, monkeypatch):
        # with eps below the default kappa_hi = 1e-2 every ladder evaluation
        # stays in the ladder region |kappa| <= eps
        kappas = []
        at = expansion.ThresholdLadder.at

        def recording_at(self, kappa):
            kappas.append(kappa)
            return at(self, kappa)

        monkeypatch.setattr(expansion.ThresholdLadder, "at", recording_at)
        cfg = write_config(tmp_path, {"verify": {"lam": 4.0, "eps": 2e-3, "tail_tol": 0.2}})
        assert run(["verify", "--config", cfg, "--out", tmp_path / "out"]) == 0
        assert kappas and max(abs(k) for k in kappas) <= 2e-3

    def test_threshold_scan_artifacts(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"threshold_scan": {"lam": 4.0, "eps": 2e-2, "halvings": 4,
                                "tail_tol": 0.2,
                                "pairs": [[[1, 1], [1, 1]], [[2, 1], [2, 1]]]}},
        )
        out = tmp_path / "out"
        assert run(["threshold-scan", "--config", cfg, "--out", out]) == 0
        doc = json.loads((out / "threshold_scan.json").read_text())
        assert len(doc) == 2 and doc[0]["gap"] is not None

    def test_threshold_scan_at_lam_within_tolerance_of_the_threshold(self, tmp_path):
        # group_at accepts lam within THRESHOLD_REL_TOL: the scan runs at the
        # threshold itself, where the threshold channel is not open below
        outs = []
        for lam in (4.0, 4.000000003):
            cfg = write_config(tmp_path, scan_task(lam=lam, pairs=[[[2, 1], [2, 1]]]),
                               name=f"{lam}.json")
            out = tmp_path / f"out-{lam}"
            assert run(["threshold-scan", "--config", cfg, "--out", out]) == 0
            outs.append([(out / name).read_bytes()
                         for name in ("threshold_scan.json", "threshold_scan.csv")])
        assert outs[0] == outs[1]

    def test_expansion_report(self, tmp_path):
        cfg = write_config(
            tmp_path, {"expansion": {"lam": 4.0, "eps": 2e-2, "tail_tol": 0.2}}
        )
        out = tmp_path / "out"
        assert run(["expansion", "--config", cfg, "--out", out, "--verify"]) == 0
        doc = json.loads((out / "expansion.json").read_text())
        assert doc["structural"]["ok"]
        assert max(doc["oracle_rel_errors"]) <= 1e-6


def scan_task(**values) -> dict:
    """A ``threshold_scan`` task at ``lam = 4`` on the 4 x 24 well, with
    ``values`` replacing its fields."""
    task = {"lam": 4.0, "eps": 2e-2, "halvings": 2, "tail_tol": 0.2,
            "pairs": [[[1, 1], [1, 1]]]}
    return {"threshold_scan": dict(task, **values)}


class TestConfigErrors:
    """Malformed config values exit with 2 and leave no output directory."""

    INVERT = {"invert_demo": {"families": "family.json", "z_values": [[1e-3, 0.0]]}}
    SCALAR_FAMILY = {"schema_version": 1, "base": [[[0.0, 0.0]]],
                     "remainder": {"kind": "polynomial", "coeffs": [[[[1.0, 0.0]]]]},
                     "bound": 1.0, "radius": 0.5}
    TABLE = {"kind": "table", "x_box": [0.0, 1.0], "values": [[-1.0] * 24] * 3}

    @pytest.mark.parametrize("command, tasks, model, family", [
        ("smatrix", {"smatrix": {"energies": ["abc"]}}, MODEL_DOC, None),
        ("smatrix", {"smatrix": {"energies": None}}, MODEL_DOC, None),
        ("modes", {"modes": {}}, dict(MODEL_DOC, grid={"n_omega": 4, "n_x": "forty"}), None),
        ("modes", {"modes": {}}, dict(MODEL_DOC, schema_version=7), None),
        ("invert-demo", INVERT, MODEL_DOC, json.dumps(dict(SCALAR_FAMILY, base="x"))),
        ("invert-demo", INVERT, MODEL_DOC, "{not json"),
        ("invert-demo", INVERT, MODEL_DOC, json.dumps(dict(
            SCALAR_FAMILY, remainder={"kind": "polynomial", "coeffs": ["x"]}))),
        ("modes", {"modes": {}}, dict(MODEL_DOC, potential=TABLE), None),
        ("modes", {"modes": {}}, dict(MODEL_DOC, grid={"n_omega": 1, "n_x": 24}), None),
        ("modes", {"modes": {}}, dict(MODEL_DOC, grid={"n_omega": 4, "n_x": 1}), None),
        ("modes", {"modes": {}},
         dict(MODEL_DOC, grid={"n_omega": 4, "n_x": 24, "n_panels": 5}), None),
        ("modes", {"modes": {}}, dict(MODEL_DOC, n_max=0), None),
        ("modes", {"modes": {}}, dict(MODEL_DOC, n_max=2, cross_section={
            "kind": "custom", "nodes": [0.25, 0.75], "weights": [0.5, 0.5],
            "eigenvalues": [1.0, 2.5], "samples": [[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]}), None),
        ("threshold-scan", {"threshold_scan": {"lam": 4.0, "halvings": 0, "tail_tol": 0.2,
                                               "pairs": [[[1, 1], [1, 1]]]}}, MODEL_DOC, None),
        ("eigenvalues", {"eigenvalues": {"window": [0.6, 0.95], "resolutions": [20, 2],
                                         "tail_tol": 0.2}}, MODEL_DOC, None),
        ("eigenvalues", {"eigenvalues": {"window": [0.6, 0.95], "resolutions": [-5],
                                         "tail_tol": 0.2}}, MODEL_DOC, None),
        ("expansion", {"expansion": {"lam": 4.0, "eps": 2e-2, "tail_tol": 0.2,
                                     "kappa_lo": 0}}, MODEL_DOC, None),
        ("expansion", {"expansion": {"lam": 4.0, "eps": 2e-2, "tail_tol": 0.2,
                                     "kappa_lo": 1e-2, "kappa_hi": 1e-4}}, MODEL_DOC, None),
        ("threshold-scan", {"threshold_scan": {"lam": 4.0, "eps": 0, "halvings": 2,
                                               "tail_tol": 0.2, "pairs": [[[1, 1], [1, 1]]]}},
         MODEL_DOC, None),
        ("expansion", {"expansion": {"lam": 4.0, "eps": 0, "tail_tol": 0.2}}, MODEL_DOC, None),
        ("verify", {"verify": {"lam": 4.0, "eps": -1e-2, "tail_tol": 0.2}}, MODEL_DOC, None),
        ("verify", {"verify": {"lam": 4.0, "eps": 1e-4, "tail_tol": 0.2}}, MODEL_DOC, None),
        ("eigenvalues", {"eigenvalues": {"window": [0.95, 0.6], "resolutions": [10],
                                         "tail_tol": 0.2}}, MODEL_DOC, None),
        ("eigenvalues", {"eigenvalues": {"window": [0.8, 0.8], "resolutions": [10],
                                         "tail_tol": 0.2}}, MODEL_DOC, None),
        ("eigenvalues", {"eigenvalues": {"window": [0.6, 0.95], "resolutions": [],
                                         "tail_tol": 0.2}}, MODEL_DOC, None),
        ("expansion", {"expansion": {"lam": 4.0, "eps": 2e-2, "tail_tol": 0.2,
                                     "kappa_hi": 0.5}}, MODEL_DOC, None),
        ("invert-demo", {"invert_demo": {"families": "family.json", "z_values": [[0, 0]]}},
         MODEL_DOC, json.dumps(SCALAR_FAMILY)),
        ("invert-demo", {"invert_demo": {"families": "family.json",
                                         "z_values": [[1e-3, 0.0], [float("nan"), 0.0]]}},
         MODEL_DOC, json.dumps(SCALAR_FAMILY)),
        ("invert-demo", {"invert_demo": {"families": "family.json", "z_values": [[2, 0]]}},
         MODEL_DOC, json.dumps(SCALAR_FAMILY)),
        ("invert-demo", {"invert_demo": {"families": "family.json",
                                         "z_values": [[1e-3, 0.0], [-0.1, 0.0]]}},
         MODEL_DOC, json.dumps(dict(SCALAR_FAMILY, sector=[-0.5, 0.5]))),
        ("smatrix", {"smatrix": {"energies": [2.2], "tail_tol": 0}}, MODEL_DOC, None),
        ("smatrix", {"smatrix": {"energies": [2.2], "tail_tol": -1}}, MODEL_DOC, None),
        ("smatrix", {"smatrix": {"energies": [2.2], "tail_tol": float("nan")}},
         MODEL_DOC, None),
        ("eigenvalues", {"eigenvalues": {"window": [0.6, 0.95], "resolutions": [10],
                                         "tail_tol": 0}}, MODEL_DOC, None),
        ("eigenvalues", {"eigenvalues": {"window": [0.6, 0.95], "resolutions": [10],
                                         "tail_tol": -1}}, MODEL_DOC, None),
        ("eigenvalues", {"eigenvalues": {"window": [0.6, 0.95], "resolutions": [10],
                                         "tail_tol": float("nan")}}, MODEL_DOC, None),
        ("threshold-scan", {"threshold_scan": {"lam": 4.0, "eps": 2e-2, "halvings": 2,
                                               "tail_tol": 0, "pairs": [[[1, 1], [1, 1]]]}},
         MODEL_DOC, None),
        ("threshold-scan", {"threshold_scan": {"lam": 4.0, "eps": 2e-2, "halvings": 2,
                                               "tail_tol": -1, "pairs": [[[1, 1], [1, 1]]]}},
         MODEL_DOC, None),
        ("threshold-scan", {"threshold_scan": {"lam": 4.0, "eps": 2e-2, "halvings": 2,
                                               "tail_tol": float("nan"),
                                               "pairs": [[[1, 1], [1, 1]]]}}, MODEL_DOC, None),
        ("smatrix", {"smatrix": {"energies": [2.2, float("nan")], "tail_tol": 0.1}},
         MODEL_DOC, None),
        ("eigenvalues", {"eigenvalues": {"window": [0.6, float("inf")], "resolutions": [10],
                                         "tail_tol": 0.2}}, MODEL_DOC, None),
        ("eigenvalues", {"eigenvalues": {"window": [3.9, 4.1], "resolutions": [10],
                                         "tail_tol": 0.2}}, MODEL_DOC, None),
        ("eigenvalues", {"eigenvalues": {"window": [99.0, 101.0], "resolutions": [9],
                                         "tail_tol": 0.03}},
         dict(MODEL_DOC, grid={"n_omega": 5, "n_x": 60}, n_max=9), None),
        ("eigenvalues", {"eigenvalues": {"window": [120.0, 122.0], "resolutions": [9],
                                         "tail_tol": 0.03}},
         dict(MODEL_DOC, grid={"n_omega": 5, "n_x": 60}, n_max=9), None),
        ("smatrix", {"smatrix": {"energies": [2.5, 150.0], "tail_tol": 0.03}},
         dict(MODEL_DOC, grid={"n_omega": 5, "n_x": 60}, n_max=9), None),
        ("smatrix", {"smatrix": {"energies": [0.5, 2.0]}}, MODEL_DOC, None),
        ("smatrix", {"smatrix": {"energies": [2.0, 1.0]}}, MODEL_DOC, None),
        ("threshold-scan", scan_task(pairs=[[[1, 2], [1, 2]]]), MODEL_DOC, None),
        ("threshold-scan", scan_task(lam=25.0, pairs=[[[0, 1], [0, 1]]]), MODEL_DOC, None),
        ("threshold-scan", scan_task(pairs=[[[1, 1], [9, 1]]]), MODEL_DOC, None),
        ("threshold-scan", scan_task(pairs=[[[3, 1], [1, 1]]]), MODEL_DOC, None),
        ("threshold-scan", scan_task(pairs=[[[1.9, 1], [1, 1]]]), MODEL_DOC, None),
        ("threshold-scan", scan_task(halvings=2.5), MODEL_DOC, None),
        ("eigenvalues", {"eigenvalues": {"window": [0.6, 0.95], "resolutions": [10.7],
                                         "tail_tol": 0.2}}, MODEL_DOC, None),
        ("eigenvalues", {"eigenvalues": {"window": [0.6, 0.95], "resolutions": ["10"],
                                         "tail_tol": 0.2}}, MODEL_DOC, None),
        ("modes", {"modes": {}}, dict(MODEL_DOC, grid={"n_omega": 4, "n_x": "24"}), None),
        ("modes", {"modes": {}}, dict(MODEL_DOC, grid={"n_omega": 4, "n_x": 24.9}), None),
        ("modes", {"modes": {}},
         dict(MODEL_DOC, grid={"n_omega": 4, "n_x": 24, "n_panels": 1.5}), None),
        ("modes", {"modes": {}}, dict(MODEL_DOC, n_max=True), None),
        ("modes", {"modes": {}}, dict(MODEL_DOC, potential=dict(
            MODEL_DOC["potential"],
            omega_profile={"kind": "cosine", "amplitude": 0.5, "harmonic": 1.5})), None),
        ("modes", {"modes": {}},
         dict(MODEL_DOC, cross_section={"kind": "interval", "length": float("inf")}), None),
        ("modes", {"modes": {}},
         dict(MODEL_DOC, cross_section={"kind": "rectangle", "l1": float("nan"), "l2": 1.0}),
         None),
        ("modes", {"modes": {}}, custom_with_nan("samples"), None),
        ("modes", {"modes": {}}, custom_with_nan("eigenvalues"), None),
        ("modes", {"modes": {}}, custom_with_nan("weights"), None),
        ("modes", {"modes": {}}, custom_with_nan("nodes"), None),
        ("smatrix", {"smatrix": {"energies": [2.2], "tail_tol": "0.2"}}, MODEL_DOC, None),
        ("modes", {"modes": {}},
         dict(MODEL_DOC, potential=dict(MODEL_DOC["potential"], depth=True)), None),
        ("expansion", {"expansion": {"lam": 4.0, "eps": float("inf"), "tail_tol": 0.2}},
         MODEL_DOC, None),
        ("invert-demo", INVERT, MODEL_DOC, "[]"),
        ("invert-demo", {"invert_demo": {"families": "family.json", "z_values": []}},
         MODEL_DOC, json.dumps(SCALAR_FAMILY)),
    ], ids=["energy-not-a-number", "energies-null", "n_x-not-an-integer",
            "model-schema-version", "family-base-not-a-matrix", "family-not-json",
            "family-coeff-not-a-matrix", "table-shape", "n_omega-1", "n_x-1",
            "n_panels-not-dividing-n_x", "n_max-0", "custom-samples-shape",
            "halvings-zero", "resolutions-two", "resolutions-negative", "kappa_lo-zero",
            "kappa_lo-above-kappa_hi", "eps-zero", "eps-zero-expansion",
            "eps-negative-verify", "eps-at-kappa_lo-verify", "window-reversed", "window-empty",
            "resolutions-empty", "kappa_hi-above-eps", "z-zero", "z-nan",
            "z-outside-radius", "z-outside-sector", "tail_tol-zero-smatrix",
            "tail_tol-negative-smatrix", "tail_tol-nan-smatrix", "tail_tol-zero-eigenvalues",
            "tail_tol-negative-eigenvalues", "tail_tol-nan-eigenvalues",
            "tail_tol-zero-threshold-scan", "tail_tol-negative-threshold-scan",
            "tail_tol-nan-threshold-scan", "energy-nan", "window-infinite",
            "window-touches-threshold", "window-touches-lambda-n_max-plus-1",
            "window-above-lambda-n_max-plus-1", "energy-above-lambda-n_max-plus-1",
            "energy-below-lambda_1", "energy-at-lambda_1",
            "pair-sigma-2", "pair-n-0", "pair-n-above-n_max", "pair-closed", "pair-n-fraction",
            "halvings-fraction", "resolutions-fraction", "resolutions-string", "n_x-string",
            "n_x-fraction", "n_panels-fraction", "n_max-boolean", "harmonic-fraction",
            "interval-length-infinite", "rectangle-l1-nan", "custom-samples-nan",
            "custom-eigenvalues-nan", "custom-weights-nan", "custom-nodes-nan",
            "tail_tol-string", "depth-boolean", "eps-infinite", "family-file-empty",
            "z_values-empty"])
    def test_exit_2_and_no_output(self, tmp_path, command, tasks, model, family):
        if family is not None:
            (tmp_path / "family.json").write_text(family)
        cfg = write_config(tmp_path, tasks, model=model)
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--out", out]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("sub", [(), ("sub",)], ids=["out-is-a-file", "out-under-a-file"])
    def test_out_blocked_by_a_file(self, tmp_path, capsys, sub):
        cfg = write_config(tmp_path, {"modes": {}})
        blocker = tmp_path / "f"
        blocker.write_text("kept")
        before = sorted(tmp_path.iterdir())
        assert run(["modes", "--config", cfg, "--out", blocker.joinpath(*sub)]) == 2
        assert "error [modes]:" in capsys.readouterr().err
        assert blocker.is_file() and blocker.read_text() == "kept"
        assert sorted(tmp_path.iterdir()) == before

    def test_failed_write_removes_the_files_already_written(self, tmp_path):
        # a directory in the way of the second artifact: exit 2, the first
        # artifact removed, what was in --out before left as it was
        cfg = write_config(tmp_path, {"eigenvalues": {"window": [0.6, 0.95],
                                                      "resolutions": [10], "tail_tol": 0.2}})
        out = tmp_path / "out"
        (out / "eigenvalue_counts.json").mkdir(parents=True)
        assert run(["eigenvalues", "--config", cfg, "--out", out]) == 2
        assert not (out / "eigenvalues.csv").exists()
        assert [p.name for p in out.iterdir()] == ["eigenvalue_counts.json"]
        assert (out / "eigenvalue_counts.json").is_dir()
