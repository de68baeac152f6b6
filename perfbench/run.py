"""wgscat benchmark: closed-loop workloads, timed end to end or per layer.

Run from the root of a wgscat checkout::

    python3 perfbench/run.py --workload smatrix_sweep --seed 1 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics of one untraced job.  Its
``setup_s`` is the median of several cold starts, each in a fresh process.
``--trace 1`` runs the same job untraced and then traced, and prints the
per-layer metrics of the traced job plus the tracing overhead.  Names and
units of both metric sets come from ``BENCHMARK.json``.  The last line of
standard output is the result object; the line before it records the
environment, the op-latency sample behind the tail figure, the set-up
samples and a calibration probe timed before and after the job.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1        # at most nproc; one thread is the steadier setting on 2 vCPUs
# setup_s is the median of this run's own cold start and of fresh-process
# cold starts made before and after the job, so that they fall at different
# times of the run
COLD_STARTS_BEFORE, COLD_STARTS_AFTER = 2, 2
MIN_OPS = 20            # the tail percentile needs at least 11 ops
HELD_OUT_SEED = 4242    # never used while writing a change; confirms its claim


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cold-setup", metavar="DIR",
                    help="only time one cold set-up in DIR and print the seconds")
    return ap.parse_args(argv)


def _git_commit() -> str:
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def probe_ms() -> float:
    """Time of a fixed calibration loop (BLAS and interpreter work), in ms.

    Run before and after the job; the two readings show how fast the host
    was at either end of the run, apart from any variance in the program.
    """
    import numpy as np

    a = np.linspace(0.0, 1.0, 300 * 300).reshape(300, 300)
    t = time.perf_counter()
    for _ in range(20):
        a @ a
    x = 0
    for i in range(200_000):
        x += i
    return 1e3 * (time.perf_counter() - t)


def cold_setup(name: str, workdir: Path):
    """Imports, model build, fixture tuning and one warm-up op, timed from a
    process that has not yet imported numpy or wgscat."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    import wgscat
    from wgscat import birman, cli, expansion, inversion, linalg, scattering, waveguide  # noqa: F401
    if Path(wgscat.__file__).resolve().parent != SRC / "wgscat":
        raise RuntimeError(f"imported wgscat from {wgscat.__file__}, not {SRC}")
    import workloads

    wl = workloads.WORKLOADS[name]()
    fixture = wl.setup(workdir)
    return time.perf_counter() - t0, wl, fixture


def cold_setup_in_child(name: str, workdir: Path) -> float:
    r = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", "0",
         "--seconds", "0", "--cold-setup", str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if r.returncode != 0:
        raise RuntimeError(f"cold set-up exited with {r.returncode}: {r.stderr[-2000:]}")
    return float(r.stdout.split()[-1])


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def end_to_end(job, setup_times: list[float]) -> tuple[dict, dict]:
    lat = sorted(job.latencies)
    n = len(lat)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": job.wall_s,
        "op_p50_s": statistics.median(lat),
        # the highest percentile with at least ten ops beyond it
        "op_tail_s": lat[n - 11],
        "ops_per_s": n / sum(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    sample = {"op_count": n, "op_tail_percentile": 100.0 * (n - 10) / n,
              "setup_samples_s": setup_times}
    return metrics, sample


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wgscat" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'wgscat'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    if args.cold_setup:
        print(cold_setup(args.workload, Path(args.cold_setup))[0])
        return 0

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        first, wl, fixture = cold_setup(args.workload, workdir / "setup")
        import numpy as np

        import spans

        n_ops = max(MIN_OPS, round(args.seconds * wl.ops_per_second))
        inputs = wl.inputs(fixture, np.random.default_rng(args.seed), n_ops)
        setup_times = [first]
        if not args.trace:
            setup_times += [cold_setup_in_child(args.workload, workdir / f"cold{r}")
                            for r in range(COLD_STARTS_BEFORE)]

        probe = [probe_ms()]
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        job = wl.job(fixture, inputs, workdir / "job")
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        probe.append(probe_ms())
        attempted, failures = wl.check(fixture, inputs, job)
        if args.trace:
            rec = spans.Recorder()
            with spans.installed(rec):
                traced = wl.job(fixture, inputs, workdir / "traced")
            more, more_failures = wl.check(fixture, inputs, traced)
            attempted += more
            failures += more_failures
            values = spans.layer_metrics(rec, wl.struct_kappas)
            values["trace_overhead_s"] = traced.wall_s - job.wall_s
            # page faults and kernel time of the untraced job: the cost of
            # fresh memory for large temporaries
            values["kernel.minor_faults"] = ru1.ru_minflt - ru0.ru_minflt
            values["kernel.sys_s"] = ru1.ru_stime - ru0.ru_stime
            wanted, sample = spec["per_layer"], {"spans": len(rec.spans)}
        else:
            setup_times += [cold_setup_in_child(args.workload, workdir / f"cold{r}")
                            for r in range(COLD_STARTS_BEFORE, COLD_STARTS_BEFORE
                                           + COLD_STARTS_AFTER)]
            values, sample = end_to_end(job, setup_times)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(values) != {m["name"] for m in wanted}:
        print(f"perfbench: computed metrics {sorted(values)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    for line in failures[:10]:
        print(f"perfbench: failed op: {line}", file=sys.stderr)
    info = {"workload": args.workload, "environment": environment(args.seed),
            "failed_frac": len(failures) / attempted, "probe_ms_before_after": probe,
            **sample}
    print(json.dumps(info))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
