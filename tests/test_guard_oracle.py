"""scripts/guard_oracle.py: the guard channel_smatrix applies, band by band, against the exact guard."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from test_cli import MODEL_DOC
from wgscat import birman, linalg, scattering, waveguide

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_rows(tmp_path, capsys, doc, energies, tail_tol):
    cfg = tmp_path / "smatrix.json"
    cfg.write_text(json.dumps({"schema_version": 1, "model": doc, "tasks": {
        "smatrix": {"energies": energies, "tail_tol": tail_tol}}}))
    assert load("guard_oracle").main([str(cfg)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["lam", "n_used", "sector", "bound", "norm", "guard", "exact",
                              "ratio"]
    return [row.split() for row in rows]


def test_well_energies_against_the_exact_block_guard(tmp_path, capsys):
    energies = [5.5, 1.6, 2.8]
    cells = oracle_rows(tmp_path, capsys, MODEL_DOC, energies, 0.1)
    model = waveguide.model_from_config(MODEL_DOC)
    lams = sorted(energies)
    bands = {lam: scattering.smatrix_bands(lam, model, 0.1) for lam in lams}
    assert [float(c[0]) for c in cells] == [lam for lam in lams for _ in bands[lam][3]]
    for lam, n_used, sector, bound, inv_norm, guard, exact, ratio in cells:
        lam, n_used, sector = float(lam), int(n_used), int(sector)
        _, _, blocks, ops = bands[lam]
        op = ops[blocks.index(sector)]
        norm = max(o.norm_bound for o in ops)
        assert n_used == op.n_used
        assert float(bound) == float(f"{norm * op._inverse_bound():.6e}")
        assert float(inv_norm) == float(f"{norm * op._inverse_norm():.6e}")
        assert float(guard) == float(f"{birman.guard(ops):.6e}")
        # the exact guard from numpy's inverse of each dense open-sector block
        dense = birman.bs_blocks(model, complex(lam), n_used)[blocks]
        exact_guard = (max(np.linalg.norm(b, 1) for b in dense)
                       * max(np.linalg.norm(np.linalg.inv(b), 1) for b in dense))
        assert abs(float(exact) / exact_guard - 1.0) <= 1e-6
        assert abs(float(ratio) - float(guard) / float(exact)) <= 1e-3
        # every bound decides here, so the guard is an upper bound on the
        # exact guard, to the printed digits
        assert float(guard) == max(float(c[3]) for c in cells if float(c[0]) == lam)
        assert birman.guard(ops) >= exact_guard * (1.0 - 1e-12)
        assert float(guard) >= float(exact) * (1.0 - 1e-6)


def test_closed_sector_level_prints_the_applied_guard(tmp_path, capsys):
    # lambda = 3.8106482776 is the closed level of sector 2 on the 5 x 60 well;
    # only sector 0 is open, so the oracle reads that one band and that one
    # dense block, not the whole band with its near-singular sector
    doc, lam = load("cli_artifacts").SCAN_WELL, 3.8106482776
    (cells,) = oracle_rows(tmp_path, capsys, doc, [lam], 0.03)
    model = waveguide.model_from_config(doc)
    _, _, blocks, ops = scattering.smatrix_bands(lam, model, 0.03)
    assert blocks == [0] and cells[2] == "0"
    guard = birman.guard(ops)
    exact = linalg.cond_estimate(birman.bs_blocks(model, complex(lam), ops[0].n_used)[blocks])
    assert float(cells[5]) == float(f"{guard:.6e}") and 1.9 < guard < 2.1
    assert float(cells[6]) == float(f"{exact:.6e}") and 1.7 < exact < 1.8
    s = scattering.channel_smatrix(lam, model, 0.03)
    assert s.unitarity_defect <= 1e-15


def test_ratio_at_least_one_where_the_norm_decides(tmp_path, capsys):
    # 1e-3 above lambda_2 on the 5 x 60 well the bound of sector 1, whose
    # channel just opened, fails COND_LIMIT and its exact inverse norm
    # decides; sector 0 keeps its bound, and the guard is still at least
    # the exact guard
    doc, lam = load("cli_artifacts").SCAN_WELL, 4.001
    cells = oracle_rows(tmp_path, capsys, doc, [lam], 0.03)
    assert [c[2] for c in cells] == ["0", "1"]
    (_, _, _, bound0, _, guard, exact, ratio0), (_, _, _, bound1, norm1, *_, ratio1) = cells
    assert float(bound0) <= linalg.COND_LIMIT < float(bound1)
    assert float(guard) == max(float(bound0), float(norm1))
    assert float(ratio0) == float(ratio1) >= 1.0
    assert float(guard) >= float(exact)
