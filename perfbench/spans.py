"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the package.  Each traced entry point is
replaced, in every module that binds it, by a wrapper that records
``[name, start, end, parent]`` and keeps the list in memory.  A function
imported by name into another module (``opnorm`` into ``expansion``,
``scattering`` and ``inversion``; ``two_term_invert`` into ``expansion``)
has a second binding there, so patching only the defining module would
leave those calls unattributed.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy.linalg
import scipy.linalg

from wgscat import birman, cli, expansion, inversion, linalg, scattering, waveguide

LU = "lapack.lu_factor"

# (owner, attribute, span name).  A module owner is patched in every module
# that binds the function; a class owner (a method) is patched on the class,
# where instances look it up.
TRACED = [
    (waveguide, "model_from_config", "waveguide.model_from_config"),
    (birman, "mode_sum_matrix", "birman.mode_sum_matrix"),
    (birman, "bs_operator", "birman.bs_operator"),
    (birman, "eigenvalue_search", "birman.eigenvalue_search"),
    (linalg, "solve", "linalg.solve"),
    (linalg, "inverse", "linalg.inverse"),
    (linalg, "opnorm", "linalg.opnorm"),
    (linalg, "kernel_basis", "linalg.kernel_basis"),
    (linalg, "riesz_projection_at_zero", "linalg.riesz_projection_at_zero"),
    (inversion, "two_term_invert", "inversion.two_term_invert"),
    (expansion, "build_threshold_ladder", "expansion.build_threshold_ladder"),
    (expansion, "m_function", "expansion.m_function"),
    (expansion, "verify_structural_lemmas", "expansion.verify_structural_lemmas"),
    (expansion.ThresholdLadder, "g0", "expansion.g0"),
    (scattering, "channel_smatrix", "scattering.channel_smatrix"),
    (scattering, "trace_row", "scattering.trace_row"),
    (cli, "main", "cli.main"),
    # LAPACK boundary: counted whoever calls it.  ``numpy.linalg.norm(a, 2)``
    # reaches ``svd`` through the private module's global, hence that binding.
    (scipy.linalg, "lu_factor", LU),
    (numpy.linalg, "svd", "lapack.svd"),
]


class Recorder:
    """Span list, the call stack that assigns parents, and the LU dimensions."""

    def __init__(self):
        self.spans: list[list] = []
        self.lu_dims: list[int] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, lu_dims = self.spans, self._stack, self.lu_dims
        is_lu = name == LU

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_lu:
                lu_dims.append(int((args[0] if args else kwargs["a"]).shape[0]))
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced


def _binding_modules():
    mods = [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "wgscat" or n.startswith("wgscat."))]
    private = sys.modules.get("numpy.linalg._linalg")
    return mods + [m for m in (numpy.linalg, private, scipy.linalg) if m is not None]


@contextlib.contextmanager
def installed(rec: Recorder):
    """Route every binding of the traced entry points through ``rec``."""
    saved = []
    try:
        modules = _binding_modules()
        for owner, attr, name in TRACED:
            if isinstance(owner, type):
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, rec.wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = rec.wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        saved.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        yield rec
    finally:
        for owner, key, orig in reversed(saved):
            setattr(owner, key, orig)


def _under(spans, idx: int, ancestor: str) -> bool:
    p = spans[idx][3]
    while p >= 0:
        if spans[p][0] == ancestor:
            return True
        p = spans[p][3]
    return False


def layer_metrics(rec: Recorder, n_struct_kappas: int) -> dict[str, float]:
    """Per-layer counts, self times and ratios from one traced job.

    Self time is a span's duration minus the time its direct children cover
    (calls are synchronous, so children never overlap).
    """
    spans = rec.spans
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, (name, t0, t1, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[i]

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    verify = "expansion.verify_structural_lemmas"
    in_verify = {name: 0 for name in (LU, "expansion.g0", "linalg.opnorm")}
    for i, sp in enumerate(spans):
        if sp[0] in in_verify and _under(spans, i, verify):
            in_verify[sp[0]] += 1
    search = "birman.eigenvalue_search"
    assemblies = sum(1 for i, sp in enumerate(spans)
                     if sp[0] == "birman.bs_operator" and _under(spans, i, search))

    out = {}
    for name in ("birman.mode_sum_matrix", "birman.bs_operator", LU,
                 "linalg.solve", "linalg.inverse", "linalg.opnorm", "linalg.kernel_basis",
                 "linalg.riesz_projection_at_zero", "inversion.two_term_invert",
                 "scattering.channel_smatrix", "scattering.trace_row", search,
                 "waveguide.model_from_config"):
        out[f"{name}.calls"] = n(name)
        out[f"{name}.self_s"] = s(name)
    out[f"{LU}.gflop_computed"] = sum(8.0 * d**3 / 3.0 for d in rec.lu_dims) / 1e9
    out[f"{LU}.dim_max"] = max(rec.lu_dims, default=0)
    out["lapack.svd.calls"] = n("lapack.svd")
    for name in ("build_threshold_ladder", "m_function", verify.split(".")[1]):
        out[f"expansion.{name}.self_s"] = s(f"expansion.{name}")
    out["expansion.g0.calls"] = n("expansion.g0")
    out[f"{verify}.lu_calls"] = in_verify[LU]
    out[f"{verify}.g0_calls"] = in_verify["expansion.g0"]
    out[f"{verify}.opnorm_calls"] = in_verify["linalg.opnorm"]
    n_kappa = n_struct_kappas if n(verify) else 0
    out["expansion.g0_per_kappa"] = in_verify["expansion.g0"] / n_kappa if n_kappa else 0.0
    out["expansion.lu_per_kappa"] = in_verify[LU] / n_kappa if n_kappa else 0.0
    out["birman.assemblies_per_search"] = assemblies / n(search) if n(search) else 0.0
    out["cli.main.self_s"] = s("cli.main")
    return out
