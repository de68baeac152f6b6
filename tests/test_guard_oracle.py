"""scripts/guard_oracle.py: the band condition estimate and bound against the exact block guard."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from test_cli import MODEL_DOC
from wgscat import birman, waveguide

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "guard_oracle.py"


def test_well_energies_against_the_exact_block_guard(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("guard_oracle", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    energies = [5.5, 1.6, 2.8]
    cfg = tmp_path / "smatrix.json"
    cfg.write_text(json.dumps({"schema_version": 1, "model": MODEL_DOC, "tasks": {
        "smatrix": {"energies": energies, "tail_tol": 0.1}}}))
    assert module.main([str(cfg)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["lam", "n_used", "band", "bound", "exact", "ratio", "bound_ratio"]
    cells = [row.split() for row in rows]
    assert [float(c[0]) for c in cells] == sorted(energies)
    model = waveguide.model_from_config(MODEL_DOC)
    for lam, n_used, band, bound, exact, ratio, bound_ratio in cells:
        lam, n_used = float(lam), int(n_used)
        op = birman.boundary_operator(lam, model, 0.1)
        assert n_used == op.n_used
        assert float(band) == float(f"{op.cond_estimate():.6e}")
        assert float(bound) == float(f"{op.cond_bound():.6e}")
        # the exact guard from numpy's inverse of each dense sector block
        blocks = birman.bs_blocks(model, complex(lam), n_used)
        guard = (max(np.linalg.norm(b, 1) for b in blocks)
                 * max(np.linalg.norm(np.linalg.inv(b), 1) for b in blocks))
        assert abs(float(exact) / guard - 1.0) <= 1e-6
        assert abs(float(ratio) - float(band) / float(exact)) <= 1e-3
        assert 0.1 <= float(ratio) <= 10.0
        # the bound is an upper bound on the exact guard, to the printed digits
        assert op.cond_bound() >= guard * (1.0 - 1e-12)
        assert float(bound) >= float(exact) * (1.0 - 1e-6)
        assert abs(float(bound_ratio) / (float(bound) / float(exact)) - 1.0) <= 1e-3
