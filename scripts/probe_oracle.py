"""Check the entries of a threshold scan against the refined dense inverse.

    python scripts/probe_oracle.py CONFIG

``CONFIG`` is a ``wgscat`` config with a ``threshold_scan`` task.  The scan's
ladder, pairs and ``h`` values are read as ``wgscat threshold-scan`` reads
them, and ``scattering.continuity_probes`` computes every entry of
``S(lam - kappa^2)`` from the expansion, on the right ray ``kappa = -i h``
and, for pairs open below ``lam``, on the left ray ``kappa = h``.  Each entry
is rebuilt from the same trace rows and the Newton-refined inverse
``linalg.refined_inverse`` of the dense oracle matrix ``birman.bs_operator``
at ``z = lam - kappa^2`` over the ladder's ``n_used`` modes.

One line is printed per pair, ray and ``h``: the pair's channels ``n sigma
n_prime sigma_prime``, the ray, ``h``, then ``abs_err``, the distance of the
entry from its rebuilt value, and ``rel_err``, that distance over
``max(|entry|, |rebuilt|)``.  The exit code is 0.

Runs the ``wgscat`` this interpreter imports: put a checkout's ``src`` first
on ``PYTHONPATH`` to check that checkout's expansion.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from wgscat import birman, cli, linalg, scattering


def rebuilt_entries(ladder, kappa: complex, pairs) -> list[complex]:
    """The entries of ``pairs`` at ``kappa`` from the refined dense inverse."""
    z = ladder.lam - complex(kappa) ** 2
    m = linalg.refined_inverse(birman.bs_operator(ladder.model, z, ladder.n_used))
    return scattering._channel_entries(m, z.real, pairs, ladder.model)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config", type=Path, help="a config with a threshold_scan task")
    args = ap.parse_args(argv)
    ladder, pairs, hs = cli.threshold_scan_inputs(json.loads(args.config.read_text()))
    reports = scattering.continuity_probes(ladder, pairs, hs)
    print("n sigma n_prime sigma_prime ray h abs_err rel_err")
    for ray, kappa, entries in (("right", lambda h: -1j * h, "right_entries"),
                                ("left", complex, "left_entries")):
        # the left ray is probed only for pairs open below lam
        probed = [(pair, rep) for pair, rep in zip(pairs, reports) if getattr(rep, entries)]
        if not probed:
            continue
        for i, h in enumerate(reports[0].h_values):
            refs = rebuilt_entries(ladder, kappa(h), [pair for pair, _ in probed])
            for ((c, cp), rep), ref in zip(probed, refs):
                got = getattr(rep, entries)[i]
                err = abs(got - ref)
                scale = max(abs(got), abs(ref))
                print(f"{c[0]} {c[1]} {cp[0]} {cp[1]} {ray} {h:.17g} {err:.3e} "
                      f"{err / scale if scale else 0.0:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
