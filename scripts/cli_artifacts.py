"""Run the CLI re-baseline config set into one directory.

    python scripts/cli_artifacts.py OUT_DIR

Runs the ``wgscat`` this interpreter imports (put a checkout's ``src`` first
on ``PYTHONPATH`` to run that checkout) through ``wgscat.cli.main``, on:

- the 4x24 uniform square well of ``tests/test_cli.py`` (a model that splits
  into sector blocks) and its cosine-profile twin (a coupled, one-block
  model), each through ``smatrix``, ``eigenvalues``, ``threshold-scan``,
  ``expansion --verify`` and ``verify``; the ``smatrix`` energies include
  4 -+ 1e-3, where the S-matrix guard's certified bound still decides;
- the 4x24 uniform well through ``modes``;
- a non-separable 4x24 ``table`` potential (a well deepening along both
  axes, so the mode sum runs its one non-separable path) through
  ``smatrix``, ``threshold-scan`` and ``expansion --verify``;
- the 4x24 well on a ``custom`` cross-section built from the interval's own
  Dirichlet lattice, first 4 sine samples and eigenvalues, with 3 modes
  kept, through ``modes`` and ``smatrix``;
- a depth-1 well on the pi x pi square (4 x 4 transverse lattice, 12 x
  nodes, 12 modes), whose threshold 5 is the two-member group (2, 3),
  through ``modes``, ``smatrix``, ``threshold-scan`` and ``expansion
  --verify`` at that threshold, and ``eigenvalues`` below lambda_1 = 2;
- the 5x60 uniform well of the ``eigen_scan_cli`` benchmark through
  ``eigenvalues``, on a window holding its level near 3.81, on one holding
  its level near 0.81 (at two resolutions) and on one holding its level
  near 8.81, and through ``smatrix`` at 3.999, 4.001, 4.0001 and 9.001,
  where the S-matrix guard takes the exact inverse norm of the band whose
  channel just opened (sector 1 above 4, sector 2 above 9) and the bound
  of every other band (all of them at 3.999);
- ``invert-demo`` on the scalar family ``A(z) = z`` and on the seed-5 corpus
  of ten random 6x6 families, the two family files of ``TestInvertDemo`` in
  ``tests/test_cli.py``.

Each run writes its artifacts to ``OUT_DIR/<model>-<command>/`` and its
config, like the family files, to ``OUT_DIR/configs/``.  A re-baseline is
one run per checkout, then ``python scripts/artifact_diff.py OLD_DIR
NEW_DIR --ignore manifest.json``.  The exit code is 0 when every command
exits 0 and 1 otherwise; each command's exit code is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from wgscat import cli, inversion, waveguide

WELL = {
    "schema_version": 1,
    "cross_section": {"kind": "interval", "length": math.pi},
    "grid": {"n_omega": 4, "n_x": 24},
    "n_max": 5,
    "potential": {"kind": "square_well", "depth": 1.0, "x_box": [0.0, 1.0]},
}
COSINE_WELL = dict(WELL, potential=dict(
    WELL["potential"], omega_profile={"kind": "cosine", "amplitude": 0.5, "harmonic": 1}))
SCAN_WELL = dict(WELL, grid={"n_omega": 5, "n_x": 60}, n_max=9)
SQUARE_WELL = dict(WELL, cross_section={"kind": "rectangle", "l1": math.pi, "l2": math.pi},
                   grid={"n_omega": 4, "n_x": 12}, n_max=12)
TABLE_WELL = dict(WELL, potential={
    "kind": "table", "x_box": [0.0, 1.0],
    "values": [[-1.0 - 0.1 * i - 0.02 * k for k in range(24)] for i in range(4)]})


def custom_well() -> dict:
    """WELL on its interval's own lattice, sines and eigenvalues as a
    ``custom`` cross-section (4 supplied modes, 3 kept)."""
    interval = waveguide.Interval(WELL["cross_section"]["length"])
    nodes, weights = interval.transverse_rule(WELL["grid"]["n_omega"])
    modes = interval.modes(4, nodes)
    return dict(WELL, n_max=3, cross_section={
        "kind": "custom", "nodes": nodes[:, 0].tolist(), "weights": weights.tolist(),
        "eigenvalues": [m.eigenvalue for m in modes],
        "samples": [m.samples.tolist() for m in modes]})


# command -> (config task key, task, extra flags)
WELL_TASKS = {
    "smatrix": ("smatrix", {"energies": [1.6, 2.2, 2.8, 3.4, 3.999, 4.001, 5.5],
                            "tail_tol": 0.1}, []),
    "eigenvalues": ("eigenvalues", {"window": [0.6, 0.95], "resolutions": [10, 20],
                                    "tail_tol": 0.2}, []),
    "threshold-scan": ("threshold_scan", {"lam": 4.0, "eps": 2e-2, "halvings": 4,
                                          "tail_tol": 0.2,
                                          "pairs": [[[1, 1], [1, 1]], [[2, 1], [2, 1]]]}, []),
    "expansion": ("expansion", {"lam": 4.0, "eps": 2e-2, "tail_tol": 0.2}, ["--verify"]),
    "verify": ("verify", {"lam": 4.0, "tail_tol": 0.2}, []),
}
SCAN_TASKS = {
    "scan": ("eigenvalues", {"window": [3.3, 3.95], "resolutions": [9], "tail_tol": 0.03}, []),
    "scan-ground": ("eigenvalues", {"window": [0.807, 0.815], "resolutions": [9, 24],
                                    "tail_tol": 0.03}, []),
    "scan-top": ("eigenvalues", {"window": [8.807, 8.815], "resolutions": [9],
                                 "tail_tol": 0.03}, []),
}
SQUARE_TASKS = {
    "modes": ("modes", {}, []),
    "smatrix": ("smatrix", {"energies": [2.5, 3.5, 5.5, 7.0], "tail_tol": 0.4}, []),
    "threshold-scan": ("threshold_scan", {"lam": 5.0, "eps": 2e-2, "halvings": 4,
                                          "tail_tol": 0.4,
                                          "pairs": [[[1, 1], [1, 1]], [[2, 1], [3, 1]]]}, []),
    "expansion": ("expansion", {"lam": 5.0, "eps": 2e-2, "tail_tol": 0.4}, ["--verify"]),
    "eigenvalues": ("eigenvalues", {"window": [1.2, 1.9], "resolutions": [10],
                                    "tail_tol": 0.4}, []),
}
SCALAR_FAMILY = {"schema_version": 1, "base": [[[0.0, 0.0]]],
                 "remainder": {"kind": "polynomial", "coeffs": [[[[1.0, 0.0]]]]},
                 "bound": 1.0, "radius": 0.5, "sector": None}
INVERT_TASKS = {
    "scalar": ("invert_demo", {"families": "scalar-family.json",
                               "z_values": [[1e-3, 0.0], [1e-2, -1e-3]]}, []),
    "corpus": ("invert_demo", {"families": "corpus.json", "z_values": [[2e-3, -1e-3]]}, []),
}


def family_files() -> dict[str, list]:
    """The ``invert-demo`` family documents, by file name."""
    rng = np.random.default_rng(5)
    return {"scalar-family.json": [SCALAR_FAMILY],
            "corpus.json": [inversion.random_family_dict(rng, 6, k % 3) for k in range(10)]}


def runs() -> list[tuple[str, str, dict, tuple]]:
    """``(name, command, model, (task key, task, flags))`` of every run;
    ``invert-demo`` runs have no model."""
    out = []
    for label, model in (("well", WELL), ("cosine", COSINE_WELL)):
        for command, task in WELL_TASKS.items():
            out.append((f"{label}-{command}", command, model, task))
    out.append(("well-modes", "modes", WELL, ("modes", {}, [])))
    for command in ("smatrix", "threshold-scan", "expansion"):
        key, task, flags = WELL_TASKS[command]
        out.append((f"table-{command}", command, TABLE_WELL,
                    (key, dict(task, tail_tol=0.2), flags)))
    custom = custom_well()
    out.append(("custom-modes", "modes", custom, ("modes", {}, [])))
    out.append(("custom-smatrix", "smatrix", custom,
                ("smatrix", {"energies": [1.6, 2.2, 5.5], "tail_tol": 0.3}, [])))
    for command, task in SQUARE_TASKS.items():
        out.append((f"square-{command}", command, SQUARE_WELL, task))
    for label, task in SCAN_TASKS.items():
        out.append((f"{label}-eigenvalues", "eigenvalues", SCAN_WELL, task))
    out.append(("scan-smatrix", "smatrix", SCAN_WELL,
                ("smatrix", {"energies": [3.999, 4.001, 4.0001, 9.001], "tail_tol": 0.03}, [])))
    for label, task in INVERT_TASKS.items():
        out.append((f"{label}-invert-demo", "invert-demo", None, task))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="directory to write the runs into")
    args = parser.parse_args(argv)
    configs = args.out / "configs"
    configs.mkdir(parents=True, exist_ok=True)
    for file_name, docs in family_files().items():
        (configs / file_name).write_text(json.dumps(docs, indent=1))
    failed = 0
    for name, command, model, (key, task, flags) in runs():
        cfg = configs / f"{name}.json"
        doc = {"schema_version": 1, "tasks": {key: task}}
        if model is not None:
            doc["model"] = model
        cfg.write_text(json.dumps(doc, indent=1))
        rc = cli.main([command, "--config", str(cfg), "--out", str(args.out / name), *flags])
        print(f"{name}: exit {rc}")
        failed += rc != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
