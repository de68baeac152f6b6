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
- ``scan_runs``, ``golden_runs`` and ``candidate_runs``: the
  ``birman._lanczos`` runs, keyed by the band solves each took.  A scan run
  is one scan point's batched run over the sector blocks of the whole band;
  a golden run is the one-row ``_sigma_min`` of a golden-section point, on
  the band of the block the scan names; a candidate run is the one-row
  ``_sigma_min`` or ``_sigma_max`` at a refined candidate (``_sigma_max``
  solves nothing);
- ``runs_at_cap``: the runs of each kind that took ``birman.SIGMA_ITERS``
  steps, and ``cap_share``: their share of all runs.

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
    runs = {kind: collections.Counter()
            for kind in ("scan_runs", "golden_runs", "candidate_runs")}
    capped = collections.Counter()
    saved = {name: getattr(birman, name)
             for name in ("_GBTRF", "_GBTRS", "_build_layout", "_lanczos", "golden_min")}
    phase = {"one_row": "candidate_runs"}

    def counted(key, fn, unknowns=None):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if unknowns is not None:
                counts[unknowns[0]] += unknowns[1](*args)
            return fn(*args, **kwargs)
        return wrapper

    def lanczos(apply, x, ritz=False):
        before, steps_before = counts["band_solves"], counts["lanczos_steps"]
        value = saved["_lanczos"](counted("lanczos_steps", apply), x, ritz)
        kind = "scan_runs" if ritz else phase["one_row"]
        runs[kind][counts["band_solves"] - before] += 1
        capped[kind] += counts["lanczos_steps"] - steps_before == birman.SIGMA_ITERS
        return value

    def golden_min(*args):
        phase["one_row"] = "golden_runs"
        try:
            return saved["golden_min"](*args)
        finally:
            phase["one_row"] = "candidate_runs"

    with tempfile.TemporaryDirectory() as tmp:
        levels = wl.setup(Path(tmp) / "setup")
        windows = wl.inputs(levels, np.random.default_rng(seed), n_ops)[:n_windows]
        try:
            birman._GBTRF = counted("band_factorizations", saved["_GBTRF"],
                                    ("band_unknowns_factored", lambda ab, *_: ab.shape[1]))
            birman._GBTRS = counted("band_solves", saved["_GBTRS"],
                                    ("band_unknowns_solved", lambda lu, kl, ku, b, *_: b.size))
            birman._build_layout = counted("layout_builds", saved["_build_layout"])
            birman._lanczos = lanczos
            birman.golden_min = golden_min
            job = wl.job(levels, windows, Path(tmp) / "job")
            _, failures = wl.check(levels, windows, job)
        finally:
            for name, fn in saved.items():
                setattr(birman, name, fn)
    n_runs = sum(sum(hist.values()) for hist in runs.values())
    return {"seed": seed, "windows": len(windows), "failed": len(failures),
            **{key: counts[key] for key in
               ("band_factorizations", "band_solves", "band_unknowns_factored",
                "band_unknowns_solved", "layout_builds")},
            **{kind: {str(k): hist[k] for k in sorted(hist)} for kind, hist in runs.items()},
            "runs_at_cap": {kind: capped[kind] for kind in runs},
            "cap_share": sum(capped.values()) / max(n_runs, 1)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seed", type=int, help="the benchmark seed (perfbench/run.py --seed)")
    args = ap.parse_args(argv)
    print(json.dumps(band_counts(args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
