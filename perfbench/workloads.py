"""The benchmark workloads: set-up, seeded inputs, the timed job, the oracle check.

Every workload is a single-process closed loop: ops are issued one after
another and each waits for the previous one.  ``job`` is the timed region;
``check`` runs afterwards and compares every op with an oracle.  A raising
op is recorded as its exception and counted as failed by ``check``.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from wgscat import cli, expansion, scattering, waveguide


@dataclass
class Job:
    wall_s: float
    latencies: list[float]      # one per repeated op
    outputs: list               # op result, or the exception it raised
    extra: dict = field(default_factory=dict)


def _run_ops(fn, inputs) -> tuple[list[float], list]:
    lat, out = [], []
    for x in inputs:
        t0 = time.perf_counter()
        try:
            r = fn(x)
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            r = exc
        lat.append(time.perf_counter() - t0)
        out.append(r)
    return lat, out


def _golden_min(f, a: float, b: float, tol: float = 1e-13) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def well_ground_level(depth: float, width: float) -> float:
    """Ground level of the 1-D square well ``-depth`` on ``[0, width]``.

    Independent oracle: the even matching condition
    ``k tan(k w / 2) = sqrt(depth - k^2)`` solved by bracketed root finding.
    Only valid while the first root lies below the tangent's pole.
    """
    kmax = math.sqrt(depth)
    k = brentq(lambda k: k * math.tan(k * width / 2.0) - math.sqrt(depth - k * k),
               1e-9, kmax - 1e-12, xtol=1e-15)
    return k * k - depth


class SmatrixSweep:
    """Channel S-matrices at seeded energies on a sector-coupled model."""

    name = "smatrix_sweep"
    ops_per_second = 8.0        # nominal rate that sizes a run from --seconds
    struct_kappas = 0
    tail_tol = 0.03
    thresholds = (1.0, 4.0, 9.0)
    margin = 0.05

    def setup(self, workdir: Path):
        model = waveguide.square_well_model(
            waveguide.Interval(math.pi), 1.0, (0.0, 1.0), n_omega=5, n_x=200, n_max=12,
            omega_profile={"kind": "cosine", "amplitude": 0.5, "harmonic": 1},
        )
        scattering.channel_smatrix(2.5, model, tail_tol=self.tail_tol)
        return model

    def inputs(self, model, rng, n: int) -> list[float]:
        """Uniform in (lambda_1, lambda_3), at least ``margin`` from every threshold.

        Each band between two thresholds gets a fixed share of the ops, in
        proportion to its length: ops above lambda_2 have more open channels
        and modes, so a seeded share would make the work vary with the seed.
        """
        t, mg = self.thresholds, self.margin
        (a0, a1), (b0, b1) = (t[0] + mg, t[1] - mg), (t[1] + mg, t[2] - mg)
        n_low = round(n * (a1 - a0) / (a1 - a0 + b1 - b0))
        lams = np.concatenate([rng.uniform(a0, a1, n_low), rng.uniform(b0, b1, n - n_low)])
        return [float(x) for x in rng.permutation(lams)]

    def job(self, model, energies, workdir: Path) -> Job:
        t0 = time.perf_counter()
        lat, out = _run_ops(
            lambda lam: scattering.channel_smatrix(lam, model, tail_tol=self.tail_tol), energies
        )
        return Job(time.perf_counter() - t0, lat, out)

    def check(self, model, energies, job: Job) -> tuple[int, list[str]]:
        failures = []
        for lam, s in zip(energies, job.outputs):
            if isinstance(s, Exception):
                failures.append(f"lam={lam}: {s!r}")
                continue
            n_open = sum(1 for t in self.thresholds if t < lam)
            m = s.matrix
            pos = {c: i for i, c in enumerate(s.channels)}
            unit = float(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0]), 2))
            recip = max(
                abs(m[pos[(n, sg)], pos[(n2, sg2)]] - m[pos[(n2, -sg2)], pos[(n, -sg)]])
                for (n, sg) in s.channels for (n2, sg2) in s.channels
            )
            if not (len(s.channels) == 2 * n_open and unit <= 1e-8 and recip <= 1e-8):
                failures.append(f"lam={lam}: channels {len(s.channels)}, "
                                f"unitarity {unit:.2e}, reciprocity {recip:.2e}")
        return len(energies), failures


class ThresholdDeep:
    """Full-depth threshold ladder: build, seeded m_function ops, structural report."""

    name = "threshold_deep"
    ops_per_second = 10.0
    # kappas sampled by verify_structural_lemmas at its default arguments
    struct_kappas = sum(len(v) for v in expansion.kappa_sample_paths().values())
    lam, eps, tail_tol = 4.0, 2e-2, 0.1
    depth_bracket = (7.3, 7.6)

    def _model(self, depth: float):
        return waveguide.square_well_model(
            waveguide.Interval(math.pi), depth, (0.0, 1.0), n_omega=5, n_x=50, n_max=24
        )

    def _gap(self, model) -> float:
        return expansion.level1_kernel_gap(model, self.lam, eps=self.eps, tail_tol=self.tail_tol)

    def setup(self, workdir: Path):
        depth = _golden_min(lambda d: self._gap(self._model(d)), *self.depth_bracket)
        model = self._model(depth)
        gap = self._gap(model)
        if not gap < 1e-10:
            raise RuntimeError(f"depth tuning failed: level-1 kernel gap {gap:.2e}")
        ladder = expansion.build_threshold_ladder(model, self.lam, eps=self.eps,
                                                  tail_tol=self.tail_tol)
        expansion.m_function(ladder, 5e-3 * np.exp(-0.25j * np.pi))
        return model

    def inputs(self, model, rng, n: int) -> list[complex]:
        mag = 10.0 ** rng.uniform(-3.0, -2.0, n)
        ang = rng.uniform(-3.0 * np.pi / 8.0, -np.pi / 8.0, n)
        return [complex(k) for k in mag * np.exp(1j * ang)]

    def job(self, model, kappas, workdir: Path) -> Job:
        # a ladder that cannot be built leaves nothing to time: the run aborts
        t0 = time.perf_counter()
        ladder = expansion.build_threshold_ladder(model, self.lam, eps=self.eps,
                                                  tail_tol=self.tail_tol)
        lat, out = _run_ops(lambda k: expansion.m_function(ladder, k), kappas)
        try:
            report = expansion.verify_structural_lemmas(ladder)
        except Exception as exc:  # counted as a failed op by check()
            report = exc
        return Job(time.perf_counter() - t0, lat, out, {"ladder": ladder, "report": report})

    def check(self, model, kappas, job: Job) -> tuple[int, list[str]]:
        ladder, report = job.extra["ladder"], job.extra["report"]
        failures = []
        if not (ladder.r1 == 1 and ladder.r2 == 1):
            failures.append(f"ladder ranks r1={ladder.r1}, r2={ladder.r2}; expected 1, 1")
        if isinstance(report, Exception) or not report.ok:
            failures.append(f"structural report not ok: {report!r}"[:300])
        for k, m in zip(kappas, job.outputs):
            if isinstance(m, Exception):
                failures.append(f"kappa={k}: {m!r}")
                continue
            d = expansion.direct_inverse(model, self.lam, k, ladder.n_used)
            rel = float(np.linalg.norm(m - d) / np.linalg.norm(d))
            if not rel <= 1e-6:
                failures.append(f"kappa={k}: rel error {rel:.2e} vs dense inverse")
        return len(kappas) + 2, failures


class EigenScanCli:
    """``wgscat eigenvalues`` on seeded windows, through ``cli.main``."""

    name = "eigen_scan_cli"
    ops_per_second = 3.0
    struct_kappas = 0
    half_width = 4e-3
    level_share = 0.3
    thresholds = (1.0, 4.0, 9.0)
    model_doc = {
        "schema_version": 1,
        "cross_section": {"kind": "interval", "length": math.pi},
        "grid": {"n_omega": 5, "n_x": 60},
        "n_max": 9,
        "potential": {"kind": "square_well", "depth": 1.0, "x_box": [0.0, 1.0]},
    }

    def _write_config(self, path: Path, window) -> Path:
        cfg = {"schema_version": 1, "model": self.model_doc,
               "tasks": {"eigenvalues": {"window": list(window), "resolutions": [9],
                                         "tail_tol": 0.03}}}
        path.write_text(json.dumps(cfg))
        return path

    def _op(self, paths) -> int:
        cfg, out = paths
        return cli.main(["eigenvalues", "--config", str(cfg), "--out", str(out),
                         "--threads", "1"])

    def setup(self, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        e0 = well_ground_level(1.0, 1.0)
        # sector n of the uniform well carries one level at n^2 + e0
        levels = tuple(t + e0 for t in self.thresholds)
        cfg = self._write_config(workdir / "warmup.json",
                                 (2.5 - self.half_width, 2.5 + self.half_width))
        rc = self._op((cfg, workdir / "warmup"))
        if rc != 0:
            raise RuntimeError(f"warm-up eigenvalue scan exited with {rc}")
        return levels

    def inputs(self, levels, rng, n: int) -> list[tuple[float, float]]:
        """A fixed share of windows holds 1+e0 or 4+e0; the rest hold no level
        and keep 1e-3 from every threshold."""
        hw = self.half_width
        n_level = round(self.level_share * n)
        windows = []
        for has_level in rng.permutation([True] * n_level + [False] * (n - n_level)):
            if has_level:
                c = levels[int(rng.integers(2))] + rng.uniform(-hw / 2.0, hw / 2.0)
            else:
                while True:
                    c = rng.uniform(0.5, 8.5)
                    if (all(abs(c - t) >= hw + 1e-3 for t in self.thresholds)
                            and all(abs(c - lv) >= hw + 2e-2 for lv in levels)):
                        break
            windows.append((float(c - hw), float(c + hw)))
        return windows

    def job(self, levels, windows, workdir: Path) -> Job:
        workdir.mkdir(parents=True, exist_ok=True)
        paths = [(self._write_config(workdir / f"op{i}.json", w), workdir / f"op{i}")
                 for i, w in enumerate(windows)]
        t0 = time.perf_counter()
        lat, out = _run_ops(self._op, paths)
        return Job(time.perf_counter() - t0, lat, out, {"paths": paths})

    def check(self, levels, windows, job: Job) -> tuple[int, list[str]]:
        failures = []
        for (lo, hi), (_, out), rc in zip(windows, job.extra["paths"], job.outputs):
            err = self._check_one(levels, lo, hi, out, rc)
            if err:
                failures.append(f"window ({lo}, {hi}): {err}")
        return len(windows), failures

    def _check_one(self, levels, lo, hi, out: Path, rc) -> str | None:
        if isinstance(rc, Exception) or rc != 0:
            return f"cli returned {rc!r}"
        manifest = json.loads((out / "manifest.json").read_text())
        files = {a["file"]: a["sha256"] for a in manifest["artifacts"]}
        if set(files) != {"eigenvalues.csv", "eigenvalue_counts.json"}:
            return f"manifest lists {sorted(files)}"
        for name, digest in files.items():
            if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest:
                return f"sha256 mismatch for {name}"
        expect = [lv for lv in levels if lo < lv < hi]
        rows = (out / "eigenvalues.csv").read_text().splitlines()[1:]
        found = [float(r.split(",")[1]) for r in rows]
        counts = json.loads((out / "eigenvalue_counts.json").read_text())["counts"]
        if counts != [len(expect)] or len(found) != len(expect):
            return f"{len(found)} candidates (counts {counts}), oracle {len(expect)}"
        worst = max((abs(f - e) for f, e in zip(sorted(found), expect)), default=0.0)
        if worst > 1e-4:
            return f"candidate {worst:.2e} from its level"
        return None


WORKLOADS = {w.name: w for w in (SmatrixSweep, ThresholdDeep, EigenScanCli)}
