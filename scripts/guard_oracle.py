"""Compare the guard ``channel_smatrix`` applies, band by band, with the exact guard.

    python scripts/guard_oracle.py CONFIG

``CONFIG`` is a ``wgscat`` config with an ``smatrix`` task.  Its energies and
``tail_tol`` are read as ``wgscat smatrix`` reads them.  At each energy
``lam`` the bands are those ``channel_smatrix`` builds
(``scattering.smatrix_bands``: one per sector that holds an open channel, a
coupled model's whole band), all on ``n_used`` modes.  ``guard`` is the
figure ``channel_smatrix`` holds against ``linalg.COND_LIMIT``,
``birman.guard`` of those bands.  Per band, ``bound`` and ``norm`` are
the largest norm bound of the bands times that band's certified inverse
bound and times its exact inverse norm, read off the band's LU: the guard
is the largest per-band figure, each band's ``bound`` where it is within
``COND_LIMIT`` and its ``norm`` elsewhere.  ``exact`` is the block guard
``max_b |A_b|_1 * max_b |A_b^-1|_1`` that ``linalg.inverse`` applies to a
block stack, from ``linalg.cond_estimate`` of the same open-sector blocks
of ``u + v R0(lam) v`` over the modes ``1..n_used`` (``birman.bs_blocks``).
Each band's figure is at least its blocks' exact inverse norm times the
largest norm bound, so ``guard`` is an upper bound on ``exact`` and
``ratio >= 1`` on every line, to rounding.

One line is printed per energy and band: ``lam n_used sector bound norm
guard exact ratio``, with ``ratio = guard / exact``.  The exit code is 0.

Runs the ``wgscat`` this interpreter imports: put a checkout's ``src`` first
on ``PYTHONPATH`` to check that checkout's boundary operator.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from wgscat import birman, cli, linalg, scattering
from wgscat.waveguide import config_value, json_list


def exact_guard(model, lam: float, n_used: int, blocks: list[int]) -> float:
    """The exact block guard of the dense sector blocks ``blocks`` at ``lam``."""
    return linalg.cond_estimate(birman.bs_blocks(model, complex(lam), n_used)[blocks])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config", type=Path, help="a config with an smatrix task")
    args = ap.parse_args(argv)
    cfg = json.loads(args.config.read_text())
    task = cli._task(cfg, "smatrix")
    tail_tol = cli._tail_tol(task, 1e-4)
    model = cli._model(cfg)
    print("lam n_used sector bound norm guard exact ratio")
    for lam in sorted(config_value(task, "energies", json_list)):
        _, _, blocks, ops = scattering.smatrix_bands(lam, model, tail_tol)
        guard = birman.guard(ops)
        exact = exact_guard(model, lam, ops[0].n_used, blocks)
        norm = max(op.norm_bound for op in ops)
        for b, op in zip(blocks, ops):
            print(f"{lam:.17g} {op.n_used} {b} {norm * op._inverse_bound():.6e} "
                  f"{norm * op._inverse_norm():.6e} {guard:.6e} {exact:.6e} "
                  f"{guard / exact:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
