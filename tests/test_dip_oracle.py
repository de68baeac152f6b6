"""scripts/dip_oracle.py: eigenvalue rows against the dense SVD."""

import importlib.util
import json
from pathlib import Path

from wgscat import cli

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "dip_oracle.py"


def test_one_small_eigenvalues_run(tmp_path, capsys):
    # one cli_artifacts-style run: the config under configs/, the artifacts
    # under the run's own directory
    spec = importlib.util.spec_from_file_location("dip_oracle", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    model = {"schema_version": 1,
             "cross_section": {"kind": "interval", "length": 3.141592653589793},
             "grid": {"n_omega": 4, "n_x": 24}, "n_max": 5,
             "potential": {"kind": "square_well", "depth": 1.0, "x_box": [0.0, 1.0]}}
    task = {"window": [0.6, 0.95], "resolutions": [10], "tail_tol": 0.2}
    (tmp_path / "configs").mkdir()
    cfg = tmp_path / "configs" / "well-eigenvalues.json"
    cfg.write_text(json.dumps({"schema_version": 1, "model": model,
                               "tasks": {"eigenvalues": task}}))
    assert cli.main(["eigenvalues", "--config", str(cfg),
                     "--out", str(tmp_path / "well-eigenvalues")]) == 0
    capsys.readouterr()

    assert module.main([str(tmp_path), str(tmp_path)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["run", "resolution", "lam", "sigma_min_err", "rel_dip_err",
                              "new_sigma_min_err", "new_rel_dip_err", "rel_dip_move"]
    assert len(rows) == 1
    run, resolution, _, *values = rows[0].split()
    errors = [float(v) for v in values]
    assert (run, resolution) == ("well-eigenvalues", "10")
    # the coarse scan's rel_dip lies within 1e-2 of the dense ratio, and a
    # tree compared with itself does not move
    assert max(errors[:4]) <= 1e-2 and errors[:2] == errors[2:4] and errors[4] == 0.0
