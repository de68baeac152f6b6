"""Compare the band condition bound and estimate of each S-matrix with the exact guard.

    python scripts/guard_oracle.py CONFIG

``CONFIG`` is a ``wgscat`` config with an ``smatrix`` task.  Its energies and
``tail_tol`` are read as ``wgscat smatrix`` reads them.  At each energy
``lam`` the boundary operator ``channel_smatrix`` builds
(``birman.boundary_operator``) gives ``n_used`` and its two guard figures:
``band``, its ``cond_estimate()``, and ``bound``, its ``cond_bound()``.
``channel_smatrix`` holds ``bound`` against ``linalg.COND_LIMIT`` and falls
back to ``band`` only where ``bound`` exceeds it.  ``exact`` is the block
guard ``max_b |A_b|_1 * max_b |A_b^-1|_1`` that ``linalg.inverse`` applies
to a block stack, from ``linalg.cond_estimate`` of the dense sector blocks
``u + v R0(lam) v`` over the modes ``1..n_used`` (``birman.bs_blocks``).
``bound`` is an upper bound on ``exact`` (to rounding): an upper bound on
``max_b |A_b|_1`` times one on ``max_b |A_b^-1|_1`` read off the node
blocks and the LU of the condensed band.
``band`` pairs the same norm bound with a Hager-Higham lower estimate of
``max_b |A_b^-1|_1``, so it is no bound: a ``ratio`` below 1 is the
estimate under-reading.

One line is printed per energy: ``lam n_used band bound exact ratio
bound_ratio``, with ``ratio = band / exact`` and ``bound_ratio = bound /
exact``.  The exit code is 0.

Runs the ``wgscat`` this interpreter imports: put a checkout's ``src`` first
on ``PYTHONPATH`` to check that checkout's boundary operator.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from wgscat import birman, cli, linalg
from wgscat.waveguide import config_value, json_list


def exact_guard(model, lam: float, n_used: int) -> float:
    """The exact block guard of the dense sector blocks at ``lam``."""
    return linalg.cond_estimate(birman.bs_blocks(model, complex(lam), n_used))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config", type=Path, help="a config with an smatrix task")
    args = ap.parse_args(argv)
    cfg = json.loads(args.config.read_text())
    task = cli._task(cfg, "smatrix")
    tail_tol = cli._tail_tol(task, 1e-4)
    model = cli._model(cfg)
    print("lam n_used band bound exact ratio bound_ratio")
    for lam in sorted(config_value(task, "energies", json_list)):
        op = birman.boundary_operator(lam, model, tail_tol)
        band, bound = op.cond_estimate(), op.cond_bound()
        exact = exact_guard(model, lam, op.n_used)
        print(f"{lam:.17g} {op.n_used} {band:.6e} {bound:.6e} {exact:.6e} "
              f"{band / exact:.4f} {bound / exact:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
