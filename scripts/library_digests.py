"""Digest the library's numerical results into one JSON file.

    python scripts/library_digests.py OUT_DIR

Runs the ``wgscat`` this interpreter imports (put a checkout's ``src`` first
on ``PYTHONPATH`` to run that checkout), with BLAS on one thread, and writes
``OUT_DIR/library_digests.json``.  Each array is recorded as the sha256 of
its bytes (in C order), its dtype, its shape, its Frobenius norm and its
largest ``|entry|``; each report as its JSON document; each scalar as
itself.  The cases are:

- ``well``: the 4x24 uniform square well of ``scripts/cli_artifacts.py`` at
  its threshold 4 (``eps`` 2e-2, ``tail_tol`` 0.2), a model that splits
  into sector blocks;
- ``cosine``: its cosine-profile twin, a coupled one-block model;
- ``resonant`` and ``deep``: the 5x50 wells of ``tests/conftest.py``, their
  depths tuned as there, by golden section on ``level1_kernel_gap`` over
  (9.0, 9.3) and (7.3, 7.6) (``eps`` 2e-2, ``tail_tol`` 0.1);

each with the threshold ladder's level data, ``m_function`` at ``KAPPAS``,
the structural report, ``ladder_report``, the ``continuity_probes`` entries
of ``PAIRS`` and ``level1_kernel_gap``;

- ``coupled``: ``m_function`` at two kappa on acceptance criterion 8's
  5x120 cosine-profile ladder;
- ``eigen``: ``m_function`` at two kappa on criterion 4's 4x200 eigenvalue
  ladder, at the embedded eigenvalue near ``4 + e0``;
- ``families``: ``jn_invert``, ``build_ladder`` and
  ``riesz_projection_at_zero`` on seeded ``random_family_dict`` families;
- ``guard``: the S-matrix guard, ``birman.guard`` of
  ``scattering.smatrix_bands``, and each band's ``norm_bound``, at the
  ``scan-smatrix`` energies of ``scripts/cli_artifacts.py`` (3.999, 4.001,
  4.0001 and 9.001 on its 5x60 ``SCAN_WELL``, ``tail_tol`` 0.03) and at 4
  -+ 1e-3, 9.001 and 16.001 on the coupled 5x120 model (``tail_tol`` 0.03,
  0.1 above 9), where the bound of the band whose channel just opened
  fails and its exact inverse norm decides.

A re-baseline is one run per checkout, then ``python
scripts/artifact_diff.py OLD_DIR NEW_DIR``: every field ``=`` means every
result is bitwise unchanged; a changed digest shows beside the change of
its norms.  The exit code is 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from wgscat import birman, cli, expansion, inversion, linalg, scattering, waveguide

KAPPAS = (4e-3, -4e-3j, 3e-3 * np.exp(-1j * np.pi / 8), 1e-3 * np.exp(-3j * np.pi / 8))
PAIRS = [((1, 1), (1, 1)), ((1, 1), (2, 1)), ((2, 1), (2, 1))]
LADDER_FIELDS = ("lam", "members", "n_used", "tail_bound", "vtil", "u_n", "pn", "s0", "n0",
                 "n20", "u", "m10", "m10_norm", "g00", "i10", "b1", "s1", "core", "i2c0",
                 "kc2", "i3c0")


def digest(a) -> dict:
    """sha256 of the bytes, dtype, shape, Frobenius norm and largest |entry|."""
    a = np.asarray(a)
    return {"sha256": hashlib.sha256(a.tobytes()).hexdigest(), "dtype": str(a.dtype),
            "shape": list(a.shape), "fro": float(np.linalg.norm(a)),
            "max_abs": float(np.abs(a).max(initial=0.0))}


def record(value):
    """``value`` as JSON: arrays as their :func:`digest`."""
    if isinstance(value, np.ndarray):
        return digest(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def tuned_well(bracket: tuple[float, float]) -> waveguide.WaveguideModel:
    """The 5x50 well whose depth in ``bracket`` gives the level-1 operator
    at threshold 4 a kernel, as ``tests/conftest.py`` tunes it."""
    cs = waveguide.Interval(np.pi)

    def model(depth):
        return waveguide.square_well_model(cs, depth, (0.0, 1.0), n_omega=5, n_x=50, n_max=24)

    def gap(depth):
        return expansion.level1_kernel_gap(model(depth), 4.0, eps=2e-2, tail_tol=0.1)

    return model(birman.golden_min(gap, *bracket, tol=1e-13))


def threshold_case(model, tail_tol: float, h_count: int = 4) -> dict:
    eps = 2e-2
    lad = expansion.build_threshold_ladder(model, 4.0, eps=eps, tail_tol=tail_tol)
    out = {f"ladder.{name}": record(getattr(lad, name)) for name in LADDER_FIELDS}
    out["ladder.s3c"] = record(None if lad.s3c is None else lad.s3c.matrix)
    for i, k in enumerate(KAPPAS):
        out[f"m_function[{i}]"] = digest(expansion.m_function(lad, k))
    out["structural"] = expansion.verify_structural_lemmas(lad).to_dict()
    out["ladder_report"] = expansion.ladder_report(lad)
    hs = [eps / 2.0 ** (j + 1) for j in range(h_count)]
    out["probes"] = [p.to_dict() for p in scattering.continuity_probes(lad, PAIRS, hs)]
    out["level1_kernel_gap"] = expansion.level1_kernel_gap(model, 4.0, eps=eps,
                                                           tail_tol=tail_tol)
    return out


def model_doc(**changes) -> dict:
    doc = {"schema_version": 1,
           "cross_section": {"kind": "interval", "length": float(np.pi)},
           "grid": {"n_omega": 4, "n_x": 24}, "n_max": 5,
           "potential": {"kind": "square_well", "depth": 1.0, "x_box": [0.0, 1.0]}}
    return dict(doc, **changes)


COSINE = {"kind": "cosine", "amplitude": 0.5, "harmonic": 1}


def well_case() -> dict:
    return threshold_case(waveguide.model_from_config(model_doc()), 0.2)


def cosine_case() -> dict:
    doc = model_doc()
    doc["potential"] = dict(doc["potential"], omega_profile=COSINE)
    return threshold_case(waveguide.model_from_config(doc), 0.2)


def resonant_case() -> dict:
    return threshold_case(tuned_well((9.0, 9.3)), 0.1)


def deep_case() -> dict:
    return threshold_case(tuned_well((7.3, 7.6)), 0.1)


def coupled_model() -> waveguide.WaveguideModel:
    return waveguide.square_well_model(waveguide.Interval(np.pi), 1.0, (0.0, 1.0), n_omega=5,
                                       n_x=120, n_max=9, omega_profile=COSINE)


def coupled_case() -> dict:
    model = coupled_model()
    lad = expansion.build_threshold_ladder(model, 4.0, eps=2e-2, tail_tol=0.03)
    return {f"m_function[{i}]": digest(expansion.m_function(lad, k))
            for i, k in enumerate(KAPPAS[2:])}


def eigen_case() -> dict:
    model = waveguide.square_well_model(waveguide.Interval(np.pi), 1.0, (0.0, 1.0), n_omega=4,
                                        n_x=200, n_max=8)
    # the even ground level of the unit 1-D well of depth 1
    k0 = brentq(lambda k: k * np.tan(k / 2.0) - np.sqrt(1.0 - k * k), 1e-9, 1.0 - 1e-12,
                xtol=1e-14)
    lam_ref = 4.0 + k0 * k0 - 1.0
    cands = birman.eigenvalue_search((lam_ref - 4e-3, lam_ref + 4e-3), model, resolution=9,
                                     tail_tol=0.04, refine_width=1e-9)
    elad = expansion.build_eigenvalue_ladder(model, cands[0].lam, eps=2e-2, tail_tol=0.04)
    out = {"lam": elad.lam, "rank": elad.rank}
    for i, k in enumerate(KAPPAS[2:]):
        out[f"m_function[{i}]"] = digest(expansion.m_function(elad, k))
    return out


def families_case() -> dict:
    rng = np.random.default_rng(7)
    out = {}
    for j in range(6):
        fam = inversion.family_from_dict(inversion.random_family_dict(rng, 6, j % 3))
        s = linalg.kernel_projector(fam.base)
        out[f"family[{j}]"] = {
            "jn_invert": digest(inversion.jn_invert(fam, s, 2e-3 - 1e-3j)),
            "riesz_projection_at_zero": digest(linalg.riesz_projection_at_zero(fam.base).matrix),
            "build_ladder": [
                {"projection": digest(lv.projection.matrix), "leading": digest(lv.leading),
                 "terminal": lv.terminal}
                for lv in inversion.build_ladder(fam)
            ],
        }
    return out


def guard_case() -> dict:
    scan = waveguide.model_from_config(model_doc(grid={"n_omega": 5, "n_x": 60}, n_max=9))
    coupled = coupled_model()
    points = [("scan", scan, lam, 0.03) for lam in (3.999, 4.001, 4.0001, 9.001)]
    points += [("coupled", coupled, lam, 0.03 if lam < 9.0 else 0.1)
               for lam in (3.999, 4.001, 9.001, 16.001)]
    out = []
    for label, model, lam, tail_tol in points:
        ops = scattering.smatrix_bands(lam, model, tail_tol)[3]
        out.append({"name": f"{label}@{lam}", "guard": birman.guard(ops),
                    "norm_bound": [op.norm_bound for op in ops]})
    return {"points": out}


CASES = {"well": well_case, "cosine": cosine_case, "resonant": resonant_case,
         "deep": deep_case, "coupled": coupled_case, "eigen": eigen_case,
         "families": families_case, "guard": guard_case}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="directory to write library_digests.json into")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    doc = {}
    # BLAS on one thread, as in every CLI command, so the bits do not
    # depend on the thread count of the environment
    with cli.single_threaded_blas():
        for name, case in CASES.items():
            doc[name] = case()
            print(f"{name}: done")
    (args.out / "library_digests.json").write_text(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
