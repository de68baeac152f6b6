"""scripts/band_counts.py: band work counts of the eigen_scan_cli job."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "band_counts.py"


def band_counts(seed: int, n_windows: int) -> dict:
    spec = importlib.util.spec_from_file_location("band_counts", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.band_counts(seed, n_windows)


def test_counts_on_two_windows():
    counts = band_counts(201, n_windows=2)
    scan, one_row = ({int(k): v for k, v in counts[kind].items()}
                     for kind in ("scan_runs", "one_row_runs"))
    assert (counts["windows"], counts["failed"]) == (2, 0)
    # one factorization per scan point or sigma_min run (a sigma_max run
    # reuses its candidate's operator and solves nothing), every band solve
    # inside a Lanczos run, and one layout per window: each window keeps one
    # mode count
    assert sum(scan.values()) == 2 * 9
    assert counts["band_factorizations"] == sum(scan.values()) + sum(
        v for k, v in one_row.items() if k > 0)
    assert counts["band_solves"] == sum(k * v for hist in (scan, one_row)
                                        for k, v in hist.items())
    assert counts["layout_builds"] == 2


def test_refinement_factors_one_block():
    counts = band_counts(201, n_windows=3)
    assert (counts["windows"], counts["failed"]) == (3, 0)
    # the one-block bands of the refinement are rows of the window's one
    # layout, not layouts of their own
    assert counts["layout_builds"] == 3
    # the third window holds a level: its 9 scan points and its refined
    # candidate factor the whole band (5 sector blocks of 60 nodes, 4
    # unknowns per node: the sums of q = 2 slots), as do the 18 scan points
    # of the first two;
    # every other factorization, at a golden-section point or picking the
    # block to refine on, is one block's
    whole, full = 5 * 60 * 4, 3 * 9 + 1
    assert counts["band_factorizations"] > full
    assert counts["band_unknowns_factored"] == (
        whole * full + whole // 5 * (counts["band_factorizations"] - full))
    assert counts["band_unknowns_solved"] < whole * counts["band_solves"]
