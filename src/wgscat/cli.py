"""Batch front-end: config-driven scans writing CSV/JSON plus a manifest.

Every command reads one JSON config (``--config``), writes its artifacts
under ``--out``, and finishes by writing ``manifest.json`` listing every
artifact with a SHA-256 checksum, timings and the config echo.  Outputs are
deterministic given the config, package version and BLAS build, which runs
on one thread: floats carry 17 significant digits and orders are sorted.

The ``--out`` default can be overridden through the ``WGSCAT_OUT``
environment variable.  ``--threads`` must be an integer and has no effect:
every command runs on one thread.

Exit codes: 0 on success, 1 when a command's own check fails, 2 for a
missing, malformed or unsupported config value or an IO error (every task
value, the model and the ``invert-demo`` family file are validated before
any numerical work), 3 for a numerical error.  A run that fails removes the
files and directories it created.

Config schema::

    {"schema_version": 1,
     "model": { ... see waveguide.model_from_config ... },
     "tasks": {
        "invert_demo": {"families": "path.json", "z_values": [[re,im], ...]},
        "modes": {},
        "smatrix": {"energies": [..], "tail_tol": 1e-4},
        "threshold_scan": {"lam": 4.0, "pairs": [[[n,s],[n',s']], ...],
                            "eps": 1e-2, "halvings": 10, "tail_tol": 1e-3},
        "expansion": {"lam": 4.0, "eps": 1e-2, "tail_tol": 1e-3,
                       "kappa_lo": 1e-4, "kappa_hi": 1e-2},
        "eigenvalues": {"window": [lo, hi], "resolutions": [48, 96],
                         "tail_tol": 1e-3},
        "verify": {"lam": 4.0, "eps": 1e-2, "tail_tol": 1e-3}
     }}

``verify`` samples the structural report at ``|kappa|`` in
``[1e-4, min(1e-2, eps)]``, so its ``eps`` must exceed ``1e-4``; without
``lam`` it runs at the model's second threshold (its first when the model
has only one).  Each
``invert_demo`` value ``z`` must be finite with ``0 < |z| < radius`` and
``arg z`` in the ``sector`` of every family in the file.  A task that
computes nothing is refused: ``invert_demo`` with no ``z`` or no family,
``smatrix`` with no energy, ``threshold_scan`` with no pair and
``eigenvalues`` with no resolution.  Every
``tail_tol`` and ``eps`` must be positive, the ``smatrix`` energies finite,
above ``lambda_1`` (where the first channel opens) and within the model's
range (``birman.check_model_range``), and the
``eigenvalues`` window pass ``birman.check_window``.  Each channel
``[n, sigma]`` of a ``threshold_scan`` pair needs ``sigma`` -1 or +1,
``1 <= n <= n_max``, and ``n`` open below ``lam`` or a member of the
threshold group at ``lam``.  A ``threshold_scan``, ``expansion`` or
``verify`` ``lam`` within ``THRESHOLD_REL_TOL`` (relative) of a threshold,
as ``model.group_at`` accepts it, is read as that threshold.  Integer
values (``halvings``, ``resolutions``, channel entries, and the model's grid
sizes, ``n_max`` and profile ``harmonic``) must be JSON numbers with an
integral value: ``24`` or ``24.0``, not ``"24"``, ``true`` or ``24.5``.
Every other number, array entries included, must be a finite JSON number
(``waveguide.json_float``): ``0.2`` or ``1``, not ``"0.2"``, ``true``,
``NaN`` or ``Infinity``.

``--verify`` applies to ``expansion`` only, which then reports the
dense-oracle error of the expansion at six kappa samples
(``oracle_rel_errors``); ``invert-demo`` always compares against the dense
inverse, with or without the flag.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, birman, expansion, inversion, linalg, scattering, waveguide
from .errors import ConfigError, DomainError, WgscatError
from .waveguide import config_value, json_float, json_int, json_list, json_object

# Bundled OpenBLAS builds: package, library glob beside it, symbol suffix
OPENBLAS_BUILDS = (("numpy", "numpy.libs/libscipy_openblas64_-*.so", "64_"),
                   ("scipy", "scipy.libs/libscipy_openblas-*.so", ""))


def _fmt(x: float) -> str:
    return f"{x:.17g}"


class ArtifactWriter:
    """Tracks written artifacts; removes partial output on failure.

    Creates nothing until :meth:`open` makes the output directory."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        # the directories this run creates, deepest first
        self.created = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
        self.files: list[Path] = []
        self.timings: dict[str, float] = {}
        self.blas: list[dict] = []

    def open(self):
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> Path:
        p = self.out_dir / name
        self.files.append(p)
        return p

    def write_csv(self, name: str, header: list[str], rows: list[list]) -> Path:
        p = self.path(name)
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                cells = [
                    _fmt(c) if isinstance(c, float) else str(c) for c in row
                ]
                fh.write(",".join(cells) + "\n")
        return p

    def write_json(self, name: str, doc) -> Path:
        return _dump_json(self.path(name), doc)

    def cleanup(self):
        for p in self.files:
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass
        for d in self.created:
            try:
                d.rmdir()
            except OSError:
                pass

    def manifest(self, config_echo: dict) -> Path:
        entries = []
        for p in sorted(self.files):
            if not p.exists():
                continue
            digest = hashlib.sha256(p.read_bytes()).hexdigest()
            entries.append({"file": p.name, "sha256": digest, "bytes": p.stat().st_size})
        doc = {
            "version": __version__,
            "config": config_echo,
            "timings_s": {k: round(v, 3) for k, v in sorted(self.timings.items())},
            "blas": self.blas,
            "artifacts": entries,
        }
        return _dump_json(self.out_dir / "manifest.json", doc)


def _dump_json(p: Path, doc) -> Path:
    with open(p, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True, default=_json_default)
        fh.write("\n")
    return p


def _json_default(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def openblas(package: str, pattern: str, suffix: str) -> tuple:
    """``(set_num_threads, get_num_threads, get_config)`` of a bundled build."""
    site = Path(importlib.import_module(package).__file__).parent.parent
    lib = ctypes.CDLL(str(min(site.glob(pattern))))  # ValueError when absent
    set_threads, get_threads, config = (
        getattr(lib, f"scipy_openblas_{name}{suffix}")
        for name in ("set_num_threads", "get_num_threads", "get_config"))
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    config.argtypes, config.restype = [], ctypes.c_char_p
    return set_threads, get_threads, config


@contextlib.contextmanager
def single_threaded_blas():
    """Pin each bundled OpenBLAS build to one thread and restore the previous
    counts on exit; yields a manifest record per build (config string and
    pinned count, or why it could not be pinned).  The counts are process
    wide, so concurrent commands in one process would restore each other's."""
    records, restore = [], []
    try:
        for package, pattern, suffix in OPENBLAS_BUILDS:
            try:
                set_threads, get_threads, config = openblas(package, pattern, suffix)
            except (ImportError, OSError, AttributeError, ValueError) as exc:
                records.append({"build": package, "pinned": False, "reason": repr(exc)})
                continue
            restore.append((set_threads, get_threads()))
            set_threads(1)
            records.append({"build": package, "pinned": True,
                            "config": config().decode(), "threads": get_threads()})
        yield records
    finally:
        for set_threads, previous in restore:
            set_threads(previous)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------
#
# Each command reads and converts every task value and builds its model
# before any numerical work, so a malformed config fails as ConfigError.

def _task(cfg, name: str, *default) -> dict:
    """The task section ``name``; ``default`` when given and the task is absent."""
    return config_value(config_value(cfg, "tasks", json_object), name, json_object, *default)


def _model(cfg) -> waveguide.WaveguideModel:
    return waveguide.model_from_config(config_value(cfg, "model", json_object))


def _eps(task) -> float:
    """The task's ladder radius ``eps``, which must be positive."""
    eps = config_value(task, "eps", json_float, 1e-2)
    if not eps > 0:
        raise ConfigError(f"eps = {eps}; need eps > 0")
    return eps


def _tail_tol(task, default: float) -> float:
    """The task's mode-tail tolerance ``tail_tol``, which must be positive."""
    tail_tol = config_value(task, "tail_tol", json_float, default)
    if not tail_tol > 0:
        raise ConfigError(f"tail_tol = {tail_tol}; need tail_tol > 0")
    return tail_tol


def cmd_invert_demo(cfg, writer: ArtifactWriter, args) -> int:
    """Drive the inversion engine on file-loaded families vs a dense oracle."""
    task = _task(cfg, "invert_demo")
    fam_path = Path(config_value(task, "families", str))
    z_values = config_value(
        task, "z_values", lambda zs: [complex(*json_list(z, length=2)) for z in zs]
    )
    if not fam_path.is_absolute():
        fam_path = Path(args.config).parent / fam_path
    if not z_values:
        raise ConfigError("z_values = []; need at least one z")
    fams = inversion.load_families(fam_path)
    if not fams:
        raise ConfigError(f"family file {fam_path} holds no family; need at least one")
    for z in z_values:
        for i, fam in enumerate(fams):
            if not fam.contains(z):
                raise ConfigError(
                    f"z = {z} outside the domain of family {i}: need 0 < |z| < "
                    f"radius = {fam.radius} and arg z in sector = {fam.sector}")
    rows = []
    worst = 0.0
    for i, fam in enumerate(fams):
        s = linalg.kernel_projector(fam.base)
        for z in z_values:
            x = inversion.jn_invert(fam, s, z)
            direct = linalg.inverse(fam.a(z))
            rel = float(
                np.linalg.norm(x - direct) / max(np.linalg.norm(direct), 1e-300)
            )
            worst = max(worst, rel)
            rows.append([i, z.real, z.imag, s.rank, rel])
    writer.write_csv(
        "invert_demo.csv", ["family", "re_z", "im_z", "kernel_dim", "rel_error"], rows
    )
    return 0 if worst <= 1e-9 else 1


def cmd_modes(cfg, writer: ArtifactWriter, args) -> int:
    model = _model(cfg)
    rows = [[m.index, float(m.eigenvalue)] for m in model.modes]
    writer.write_csv("modes.csv", ["n", "lambda_n"], rows)
    groups = [
        {"value": g.value, "members": list(g.members)} for g in model.groups
    ]
    writer.write_json("threshold_groups.json", groups)
    return 0


def cmd_smatrix(cfg, writer: ArtifactWriter, args) -> int:
    task = _task(cfg, "smatrix")
    tail_tol = _tail_tol(task, 1e-4)
    energies = sorted(config_value(task, "energies", json_list))
    if not energies:
        raise ConfigError("energies = []; need at least one energy")
    model = _model(cfg)
    lam1 = model.eigenvalue(1)
    if not energies[0] > lam1:
        raise ConfigError(f"energies = {energies}; energy {energies[0]} opens no "
                          f"channel: need every energy above lambda_1 = {lam1}")
    try:
        birman.check_model_range(energies[-1], model)
    except DomainError as exc:
        raise ConfigError(f"energies = {energies}; {exc}") from exc
    rows = []
    for lam in energies:
        smat = scattering.channel_smatrix(lam, model, tail_tol)
        for i, (n, s) in enumerate(smat.channels):
            for j, (np_, sp) in enumerate(smat.channels):
                e = smat.matrix[i, j]
                rows.append(
                    [smat.lam, n, s, np_, sp, float(e.real), float(e.imag),
                     float(smat.unitarity_defect)]
                )
    writer.write_csv(
        "smatrix.csv",
        ["lam", "n", "sigma", "n_prime", "sigma_prime", "re", "im", "unitarity_defect"],
        rows,
    )
    return 0


def threshold_scan_inputs(cfg) -> tuple[expansion.ThresholdLadder, list, list[float]]:
    """``(ladder, pairs, h_values)`` of a config's ``threshold_scan`` task:
    every value checked, then the ladder built at the threshold that
    ``model.group_at`` finds within ``THRESHOLD_REL_TOL`` of ``lam``."""
    task = _task(cfg, "threshold_scan")
    lam = config_value(task, "lam")
    eps = _eps(task)
    tail_tol = _tail_tol(task, 1e-3)
    halvings = config_value(task, "halvings", json_int, 10)
    if halvings < 1:
        raise ConfigError(f"halvings = {halvings}; need at least 1")
    channel = lambda c: tuple(json_list(c, json_int, length=2))
    pairs = config_value(task, "pairs", lambda ps: json_list(
        ps, lambda p: tuple(json_list(p, channel, length=2))))
    if not pairs:
        raise ConfigError("pairs = []; need at least one pair")
    model = _model(cfg)
    lam = model.group_at(lam).value
    _check_channels(model, lam, {c for pair in pairs for c in pair})
    hs = [eps / 2.0 ** (k + 1) for k in range(halvings)]
    return expansion.build_threshold_ladder(model, lam, eps=eps, tail_tol=tail_tol), pairs, hs


def cmd_threshold_scan(cfg, writer: ArtifactWriter, args) -> int:
    ladder, pairs, hs = threshold_scan_inputs(cfg)
    reports = [rep.to_dict() for rep in scattering.continuity_probes(ladder, pairs, hs)]
    writer.write_json("threshold_scan.json", reports)
    rows = []
    for rep in reports:
        for h, c in zip(rep["h_values"][1:], rep["right_cauchy"]):
            rows.append(
                [ladder.lam, rep["chan"][0], rep["chan"][1], rep["chan_p"][0],
                 rep["chan_p"][1], float(h), float(c)]
            )
    writer.write_csv(
        "threshold_scan.csv",
        ["lam", "n", "sigma", "n_prime", "sigma_prime", "h", "right_cauchy"],
        rows,
    )
    return 0


def _check_channels(model: waveguide.WaveguideModel, lam: float, channels) -> None:
    """Raise :class:`ConfigError` unless every channel ``(n, sigma)`` has
    ``sigma`` -1 or +1, ``1 <= n <= n_max``, and ``n`` open below the
    threshold ``lam`` or a member of its group."""
    members = model.group_at(lam).members
    for n, sigma in sorted(channels):
        if sigma not in (-1, 1) or not (1 <= n <= model.n_max and (
                model.eigenvalue(n) < lam or n in members)):
            raise ConfigError(f"pair channel ({n}, {sigma}) is not a channel at lam = {lam}: "
                              f"need sigma -1 or +1 and 1 <= n <= n_max = {model.n_max}, "
                              "n open below lam or in its threshold group")


def cmd_expansion(cfg, writer: ArtifactWriter, args) -> int:
    task = _task(cfg, "expansion")
    lam = config_value(task, "lam")
    eps = _eps(task)
    tail_tol = _tail_tol(task, 1e-3)
    kappa_lo = config_value(task, "kappa_lo", json_float, 1e-4)
    kappa_hi = config_value(task, "kappa_hi", json_float, 1e-2)
    if not 0 < kappa_lo < kappa_hi <= eps:
        raise ConfigError(f"kappa_lo = {kappa_lo}, kappa_hi = {kappa_hi}; "
                          f"need 0 < kappa_lo < kappa_hi <= eps = {eps}")
    model = _model(cfg)
    ladder = expansion.build_threshold_ladder(model, lam, eps=eps, tail_tol=tail_tol)
    report = expansion.ladder_report(ladder)
    if args.verify:
        # oracle cross-check on a diagonal kappa sample
        diag = (1.0 - 1.0j) / np.sqrt(2.0)
        report["oracle_rel_errors"] = [
            expansion.oracle_error(ladder, k, expansion.m_function(ladder, k))
            for k in diag * np.geomspace(eps / 100, eps / 2, 6)
        ]
    struct = expansion.verify_structural_lemmas(ladder, kappa_lo=kappa_lo, kappa_hi=kappa_hi)
    report["structural"] = struct.to_dict()
    writer.write_json("expansion.json", report)
    return 0 if struct.ok else 1


def cmd_eigenvalues(cfg, writer: ArtifactWriter, args) -> int:
    task = _task(cfg, "eigenvalues")
    window = tuple(config_value(task, "window", lambda v: json_list(v, length=2)))
    tail_tol = _tail_tol(task, 1e-3)
    resolutions = config_value(task, "resolutions", lambda rs: json_list(rs, json_int), [48])
    if not resolutions or any(res < 3 for res in resolutions):
        raise ConfigError(f"resolutions = {resolutions}; need at least one, "
                          "of at least 3 points each")
    model = _model(cfg)
    try:
        birman.check_window(window, model)
    except DomainError as exc:
        raise ConfigError(f"window = {list(window)}; {exc}") from exc
    rows = []
    counts = []
    for res in resolutions:
        cands = birman.eigenvalue_search(window, model, resolution=res, tail_tol=tail_tol)
        counts.append(len(cands))
        for c in cands:
            rows.append([res, c.lam, c.sigma_min, c.rel_dip])
    writer.write_csv(
        "eigenvalues.csv", ["resolution", "lam", "sigma_min", "rel_dip"], rows
    )
    writer.write_json(
        "eigenvalue_counts.json",
        {"window": list(window), "counts": counts, "stable": len(set(counts)) <= 1},
    )
    return 0


def cmd_verify(cfg, writer: ArtifactWriter, args) -> int:
    """Structural lemma suite plus module invariant spot checks."""
    task = _task(cfg, "verify", {})
    lam = config_value(task, "lam", json_float, None)
    eps = _eps(task)
    if not eps > 1e-4:
        raise ConfigError(f"eps = {eps}; verify samples |kappa| from 1e-4 and needs eps > 1e-4")
    tail_tol = _tail_tol(task, 1e-3)
    model = _model(cfg)
    if lam is None:
        lam = model.thresholds()[min(1, len(model.groups) - 1)]
    report: dict = {"model_dim": model.dim}

    ladder = expansion.build_threshold_ladder(model, lam, eps=eps, tail_tol=tail_tol)
    struct = expansion.verify_structural_lemmas(ladder, kappa_hi=min(1e-2, eps))
    report["structural"] = struct.to_dict()

    # optical identity at a regular energy between the first two thresholds
    lam_reg = 0.5 * (model.eigenvalue(1) + model.eigenvalue(2))
    bn = scattering.b_rows(lam_reg, 1, model)
    im_block = linalg.imaginary_part(birman.bs_operator(model, complex(lam_reg), 1))
    optical = float(linalg.opnorm(bn.conj().T @ bn - im_block))
    report["optical_identity_defect"] = optical

    smat = scattering.channel_smatrix(lam_reg, model, tail_tol=tail_tol)
    report["unitarity_defect"] = float(smat.unitarity_defect)

    ok = struct.ok and optical <= 1e-12
    report["ok"] = ok
    writer.write_json("verify.json", report)
    return 0 if ok else 1


COMMANDS = {
    "invert-demo": cmd_invert_demo,
    "modes": cmd_modes,
    "smatrix": cmd_smatrix,
    "threshold-scan": cmd_threshold_scan,
    "expansion": cmd_expansion,
    "eigenvalues": cmd_eigenvalues,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wgscat",
        description="Waveguide resolvent expansions and channel scattering, batch mode.",
    )
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", required=True, help="JSON run configuration")
    ap.add_argument("--out", default=os.environ.get("WGSCAT_OUT", "out"),
                    help="output directory")
    ap.add_argument("--threads", type=int, default=1,
                    help="accepted for compatibility; has no effect")
    ap.add_argument(
        "--verify", action="store_true",
        help="expansion: check against the dense oracle (slower); "
             "invert-demo always does",
    )
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    writer = ArtifactWriter(Path(args.out))
    t0 = time.time()
    try:
        writer.open()
        with single_threaded_blas() as writer.blas:
            rc = COMMANDS[args.command](cfg, writer, args)
    except ConfigError as exc:
        writer.cleanup()
        print(f"error [{args.command}]: bad config: {exc}", file=sys.stderr)
        return 2
    except WgscatError as exc:
        writer.cleanup()
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 3
    except (KeyError, OSError) as exc:
        writer.cleanup()
        print(f"error [{args.command}]: bad config or io: {exc!r}", file=sys.stderr)
        return 2
    writer.timings[args.command] = time.time() - t0
    writer.manifest(cfg)
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
