"""Count the band work of the benchmark's ``eigen_scan_cli`` job for one seed.

    python scripts/band_counts.py SEED

Runs the windows that ``perfbench/run.py --workload eigen_scan_cli --seed
SEED`` draws at the benchmark's ``run_seconds`` (``BENCHMARK.json``),
through the workload's own set-up and job (``perfbench/workloads.py``, read
and left unchanged), and prints one JSON object:

- ``windows``: the windows run, and ``failed``: those the workload's check
  rejects;
- ``band_factorizations``: ``zgbtrf`` calls, one per boundary operator;
- ``band_solves``: ``zgbtrs`` calls;
- ``band_unknowns_factored`` and ``band_unknowns_solved``: the unknowns of
  those calls summed over calls, the band's order for a factorization
  (``n_blocks n_x 2q``: the ``2q`` forward and backward sums of a node's
  ``q`` mode slots) and its order times the right-hand sides for a solve;
- ``layout_builds``: band layouts built (``birman._build_layout``);
- ``sigma_min_solves``: the number of ``birman._sigma_min`` calls, keyed by
  the band solves each took.

Runs the ``wgscat`` this interpreter imports: put a checkout's ``src``
first on ``PYTHONPATH`` to count that checkout.  Counting wraps module
attributes of ``wgscat.birman`` and does not change any result.
"""

from __future__ import annotations

import argparse
import collections
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (perfbench/run.py: the window count)
import workloads  # noqa: E402

from wgscat import birman  # noqa: E402


def band_counts(seed: int, n_windows: int | None = None) -> dict:
    """The counts of the job's first ``n_windows`` windows (all by default)."""
    wl = workloads.EigenScanCli()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    n_ops = max(run.MIN_OPS, round(spec["run_seconds"] * wl.ops_per_second))
    counts = collections.Counter()
    per_call = collections.Counter()
    saved = {name: getattr(birman, name)
             for name in ("_GBTRF", "_GBTRS", "_build_layout", "_sigma_min")}

    def counted(key, fn, unknowns=None):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if unknowns is not None:
                counts[unknowns[0]] += unknowns[1](*args)
            return fn(*args, **kwargs)
        return wrapper

    def sigma_min(op, x):
        before = counts["band_solves"]
        value = saved["_sigma_min"](op, x)
        per_call[counts["band_solves"] - before] += 1
        return value

    with tempfile.TemporaryDirectory() as tmp:
        levels = wl.setup(Path(tmp) / "setup")
        windows = wl.inputs(levels, np.random.default_rng(seed), n_ops)[:n_windows]
        try:
            birman._GBTRF = counted("band_factorizations", saved["_GBTRF"],
                                    ("band_unknowns_factored", lambda ab, *_: ab.shape[1]))
            birman._GBTRS = counted("band_solves", saved["_GBTRS"],
                                    ("band_unknowns_solved", lambda lu, kl, ku, b, *_: b.size))
            birman._build_layout = counted("layout_builds", saved["_build_layout"])
            birman._sigma_min = sigma_min
            job = wl.job(levels, windows, Path(tmp) / "job")
            _, failures = wl.check(levels, windows, job)
        finally:
            for name, fn in saved.items():
                setattr(birman, name, fn)
    return {"seed": seed, "windows": len(windows), "failed": len(failures),
            **{key: counts[key] for key in
               ("band_factorizations", "band_solves", "band_unknowns_factored",
                "band_unknowns_solved", "layout_builds")},
            "sigma_min_solves": {str(k): per_call[k] for k in sorted(per_call)}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seed", type=int, help="the benchmark seed (perfbench/run.py --seed)")
    args = ap.parse_args(argv)
    print(json.dumps(band_counts(args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
