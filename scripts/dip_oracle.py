"""Check the eigenvalue rows of a CLI re-baseline tree against the dense SVD.

    python scripts/dip_oracle.py TREE [NEW_TREE]

``TREE`` is a directory written by ``scripts/cli_artifacts.py``.  For every
``TREE/<run>/eigenvalues.csv`` the run's model and task are read back from
``TREE/configs/<run>.json``.  At each row's energy the mode cutoff is the
one the scan used (``birman._truncation`` with the task's ``tail_tol``), and
the singular values of the dense oracle matrix ``birman.bs_operator`` give
the reference ``sigma_min`` and ``rel_dip = sigma_min / sigma_max``.

One line is printed per row: the run, the row's ``resolution`` and ``lam``,
then the relative errors ``sigma_min_err`` and ``rel_dip_err`` of the row
against that reference.  Given ``NEW_TREE``, the same rows of that tree are
read too, matched by run and position, and each line adds ``new_*`` errors
and ``rel_dip_move``, the relative change of ``rel_dip`` from ``TREE`` to
``NEW_TREE``.  A relative change of ``a`` and ``b`` is ``|a - b| / max(|a|,
|b|)``.  The exit code is 1 when the two trees do not hold the same rows,
and 0 otherwise.

Runs the ``wgscat`` this interpreter imports: put a checkout's ``src`` first
on ``PYTHONPATH`` to use that checkout's oracle.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from wgscat import birman, waveguide

FIELDS = ("sigma_min_err", "rel_dip_err")


def relative(a: float, b: float) -> float:
    """``|a - b| / max(|a|, |b|)``, 0 when both are 0."""
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def read_rows(tree: Path) -> dict[str, list[dict]]:
    """The rows of every ``eigenvalues.csv`` in ``tree``, by run name."""
    out = {}
    for path in sorted(tree.glob("*/eigenvalues.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            out[path.parent.name] = [{k: float(v) for k, v in row.items()}
                                     for row in csv.DictReader(fh)]
    return out


def oracle_errors(tree: Path, run: str, rows: list[dict]) -> list[tuple[float, float]]:
    """``(sigma_min_err, rel_dip_err)`` of each row of ``run`` against the
    singular values of the dense matrix at the row's energy."""
    doc = json.loads((tree / "configs" / f"{run}.json").read_text())
    model = waveguide.model_from_config(doc["model"])
    tail_tol = doc["tasks"]["eigenvalues"].get("tail_tol", 1e-3)
    out = []
    for row in rows:
        z = complex(row["lam"])
        n_used, _ = birman._truncation(model, z, tail_tol)
        sv = np.linalg.svd(birman.bs_operator(model, z, n_used), compute_uv=False)
        out.append((relative(row["sigma_min"], sv[-1]), relative(row["rel_dip"], sv[-1] / sv[0])))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree", type=Path, help="a scripts/cli_artifacts.py output directory")
    ap.add_argument("new_tree", type=Path, nargs="?", help="a second such directory")
    args = ap.parse_args(argv)
    old = read_rows(args.tree)
    header = ["run", "resolution", "lam", *FIELDS]
    new = None
    if args.new_tree is not None:
        new = read_rows(args.new_tree)
        shapes = {run: len(rows) for run, rows in old.items()}
        if shapes != {run: len(rows) for run, rows in new.items()}:
            print("the two trees do not hold the same eigenvalue rows", file=sys.stderr)
            return 1
        header += [f"new_{f}" for f in FIELDS] + ["rel_dip_move"]
    print(" ".join(header))
    for run, rows in old.items():
        errors = oracle_errors(args.tree, run, rows)
        if new is not None:
            new_errors = oracle_errors(args.new_tree, run, new[run])
        for i, (row, err) in enumerate(zip(rows, errors)):
            cells = [run, f"{row['resolution']:.0f}", f"{row['lam']:.17g}",
                     *map("{:.3e}".format, err)]
            if new is not None:
                move = relative(row["rel_dip"], new[run][i]["rel_dip"])
                cells += [*map("{:.3e}".format, new_errors[i]), f"{move:.3e}"]
            print(" ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
