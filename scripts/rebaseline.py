"""Re-baseline the working tree against a parent revision in one command.

    python scripts/rebaseline.py PARENT_REV OUT_DIR

Exports ``PARENT_REV`` of this repository with ``git archive`` into a
temporary directory (removed on exit; no network), then runs on the parent
and on the working tree, each in its own process with its own ``src`` first
on ``PYTHONPATH``:

- ``scripts/cli_artifacts.py`` and ``scripts/library_digests.py`` of this
  checkout, so both trees run one config set, into ``OUT_DIR/parent`` and
  ``OUT_DIR/change``; the two trees are compared field by field with
  ``artifact_diff.compare`` (``manifest.json`` ignored);
- each tree's own ``tests/test_acceptance.py``, whose ten gate lines are
  compared with the elapsed seconds taken out;
- ``birman.eigenvalue_search`` on the ``eigen_scan_cli`` windows of
  ``perfbench/workloads.py`` (as many per seed as ``perfbench/run.py`` draws
  in the ``run_seconds`` of ``BENCHMARK.json``) for seeds 201-220 and the
  held-out seed 4242, one fresh model per window as the CLI builds it, BLAS
  on one thread; the candidates are compared bit for bit.

``OUT_DIR`` must be new or empty.  Writes ``OUT_DIR/rebaseline.json`` with
every field's change, both trees' gate lines and every changed window, and
prints the largest absolute and relative change of each column that moved
(``artifact_diff``'s form, with the old and new value of a field that holds
one number), the gate lines that differ and the windows whose candidates
differ.  The exit code is 0 when every field reads ``=``, 1 on any
difference, 2 when a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from artifact_diff import compare

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (*range(201, 221), 4242)

# runs in a tree's process: the eigen_scan_cli windows of each seed in
# argv[1] (the first argv[2] of them, all when it is null), each searched as
# the workload's config asks, and the hex digits of every candidate's (lam,
# sigma_min, rel_dip) per resolution
_CANDIDATES = """
import json, sys
import tempfile
from pathlib import Path
import run, workloads
import numpy as np
from wgscat import birman, cli, waveguide
seeds, limit = json.loads(sys.argv[1]), json.loads(sys.argv[2])
wl = workloads.EigenScanCli()
seconds = json.loads(run.ROOT.joinpath("BENCHMARK.json").read_text())["run_seconds"]
n_ops = max(run.MIN_OPS, round(seconds * wl.ops_per_second))
levels = tuple(t + workloads.well_ground_level(1.0, 1.0) for t in wl.thresholds)
with tempfile.TemporaryDirectory() as tmp:
    cfg = json.loads(wl._write_config(Path(tmp) / "op.json", (0.0, 1.0)).read_text())
task = cfg["tasks"]["eigenvalues"]
out = {}
with cli.single_threaded_blas():
    for seed in seeds:
        rows = out[seed] = []
        for window in wl.inputs(levels, np.random.default_rng(seed), n_ops)[:limit]:
            try:
                found = [[[c.lam.hex(), c.sigma_min.hex(), c.rel_dip.hex()]
                          for c in birman.eigenvalue_search(
                              window, waveguide.model_from_config(cfg["model"]),
                              resolution=res, tail_tol=task["tail_tol"])]
                         for res in task["resolutions"]]
            except Exception as exc:
                found = repr(exc)
            rows.append({"window": list(window), "candidates": found})
print(json.dumps(out))
"""


class RunError(RuntimeError):
    """A run in one of the trees failed."""


def export(rev: str, dest: Path) -> Path:
    """The committed tree of ``rev`` in this repository, written to ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    dest.mkdir(parents=True, exist_ok=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run_python(tree: Path, args: list[str], cwd: Path | None = None) -> str:
    """Standard output of ``python args`` on ``tree``'s ``wgscat``, with this
    checkout's ``scripts`` and ``perfbench`` importable; raises
    :class:`RunError` on a nonzero exit."""
    path = [str(tree / "src"), str(ROOT / "scripts"), str(ROOT / "perfbench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True)
    if done.returncode != 0:
        raise RunError(f"{' '.join(args[:2])} on {tree} exited {done.returncode}:\n"
                       f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return done.stdout


def cli_artifacts(tree: Path, out: Path, runs: list[str] | None = None) -> None:
    """``scripts/cli_artifacts.py out`` on ``tree``, or only the runs named in ``runs``."""
    pick = "" if runs is None else (
        f"every = ca.runs; ca.runs = lambda: [r for r in every() if r[0] in {runs!r}]\n")
    run_python(tree, ["-c", f"import sys, cli_artifacts as ca\n{pick}"
                            f"sys.exit(ca.main([{str(out)!r}]))"])


def library_digests(tree: Path, out: Path, cases: list[str] | None = None) -> None:
    """``scripts/library_digests.py out`` on ``tree``, or only the cases named in ``cases``."""
    pick = "" if cases is None else f"ld.CASES = {{k: ld.CASES[k] for k in {cases!r}}}\n"
    run_python(tree, ["-c", f"import sys, library_digests as ld\n{pick}"
                            f"sys.exit(ld.main([{str(out)!r}]))"])


def gate_lines(tree: Path, select: str | None = None) -> list[str]:
    """The acceptance gate lines of ``tree``'s own tests (those matching the
    pytest ``-k`` expression ``select``, all when it is ``None``), with each
    elapsed time in seconds written ``<t>s``."""
    args = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_acceptance.py"]
    text = run_python(tree, args + ([] if select is None else ["-k", select]), cwd=tree)
    lines = [line for line in text.splitlines() if line.startswith("criterion ")]
    return [re.sub(r"(?<![\w.])\d+(\.\d+)?s\b", "<t>s", line) for line in lines]


def scan_candidates(tree: Path, seeds=SEEDS, limit: int | None = None) -> dict[str, list]:
    """Per seed, each ``eigen_scan_cli`` window (the first ``limit`` of them)
    with ``tree``'s candidates in hex digits."""
    return json.loads(run_python(tree, ["-c", _CANDIDATES, json.dumps(list(seeds)),
                                        json.dumps(limit)]))


def changed_windows(old: dict, new: dict) -> list[dict]:
    """The windows whose candidates differ, with both sides."""
    out = []
    for seed in sorted(set(old) | set(new), key=int):
        a, b = old.get(seed, []), new.get(seed, [])
        if len(a) != len(b):
            out.append({"seed": seed, "windows": [len(a), len(b)]})
        out += [{"seed": seed, "window": x["window"], "parent": x["candidates"],
                 "change": y["candidates"]} for x, y in zip(a, b) if x != y]
    return out


def rebaseline(parent: Path, change: Path, out: Path, runs=None, cases=None, select=None,
               seeds=SEEDS, limit=None) -> dict:
    """Every comparison of the module docstring between the trees ``parent``
    and ``change``, restricted to the given runs, cases, gate tests, seeds
    and windows per seed; the report that :func:`main` writes."""
    for label, tree in (("parent", parent), ("change", change)):
        cli_artifacts(tree, out / label / "artifacts", runs)
        library_digests(tree, out / label / "digests", cases)
    fields = {kind: [{"file": f, "field": g, "change": c}
                     for f, g, c in compare(out / "parent" / kind, out / "change" / kind,
                                            {"manifest.json"})]
              for kind in ("artifacts", "digests")}
    gates = {"parent": gate_lines(parent, select), "change": gate_lines(change, select)}
    windows = changed_windows(scan_candidates(parent, seeds, limit),
                              scan_candidates(change, seeds, limit))
    same = (all(f["change"] == "=" for kind in fields.values() for f in kind)
            and gates["parent"] == gates["change"] and not windows)
    return {**fields, "gates": gates, "windows_changed": windows, "identical": same}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev", help="the revision to compare the working tree against")
    parser.add_argument("out", type=Path, help="directory to write both trees' runs into")
    args = parser.parse_args(argv)
    if args.out.exists() and any(args.out.iterdir()):
        parser.error(f"{args.out} is not empty; its old runs would be compared too")
    with tempfile.TemporaryDirectory(prefix="rebaseline-") as tmp:
        try:
            parent = export(args.parent_rev, Path(tmp) / "parent")
            report = rebaseline(parent, ROOT, args.out)
        except (RunError, subprocess.CalledProcessError) as exc:
            print(exc, file=sys.stderr)
            return 2
    report = {"parent_rev": args.parent_rev, **report}
    (args.out / "rebaseline.json").write_text(json.dumps(report, indent=1))
    for kind in ("artifacts", "digests"):
        moved = [f for f in report[kind] if f["change"] != "="]
        print(f"{kind}: {len(report[kind]) - len(moved)} of {len(report[kind])} fields =")
        for f in moved:
            print(f"  {f['file']}:{f['field']}  {f['change']}")
    gates = report["gates"]
    pairs = list(zip(gates["parent"], gates["change"]))
    diff = [p for p in pairs if p[0] != p[1]]
    print(f"gate lines: {len(pairs) - len(diff)} of {len(pairs)} unchanged "
          f"({len(gates['parent'])} parent, {len(gates['change'])} change)")
    for old, new in diff:
        print(f"  - {old}\n  + {new}")
    print(f"eigen_scan_cli windows with changed candidates: {len(report['windows_changed'])}")
    for w in report["windows_changed"]:
        print(f"  {w}")
    return 0 if report["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
