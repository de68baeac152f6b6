"""scripts/probe_oracle.py: threshold-scan entries against the refined dense inverse."""

import importlib.util
import json
from pathlib import Path

from test_cli import MODEL_DOC

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "probe_oracle.py"


def test_well_scan_entries_match_the_refined_oracle(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("probe_oracle", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    task = {"lam": 4.0, "eps": 2e-2, "halvings": 2, "tail_tol": 0.2,
            "pairs": [[[1, 1], [1, 1]], [[2, 1], [2, 1]]]}
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({"schema_version": 1, "model": MODEL_DOC,
                               "tasks": {"threshold_scan": task}}))
    assert module.main([str(cfg)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["n", "sigma", "n_prime", "sigma_prime", "ray", "h",
                              "abs_err", "rel_err"]
    # both pairs on the right ray, the open pair (1, 1) also on the left
    cells = [row.split() for row in rows]
    assert [(c[0], c[4], float(c[5])) for c in cells] == [
        ("1", "right", 5e-3), ("2", "right", 5e-3), ("1", "right", 1e-2), ("2", "right", 1e-2),
        ("1", "left", 5e-3), ("1", "left", 1e-2)]
    # the open channel at rounding level; the opening one within the
    # eps/h that the dense matrix resolves
    for c in cells:
        assert float(c[7]) <= (1e-14 if c[0] == "1" else 1e-9)
