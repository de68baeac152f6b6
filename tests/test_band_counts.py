"""scripts/band_counts.py: band work counts of the eigen_scan_cli job."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "band_counts.py"


def band_counts(seed: int, n_windows: int) -> dict:
    spec = importlib.util.spec_from_file_location("band_counts", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.band_counts(seed, n_windows)


def runs(counts: dict) -> tuple[dict, ...]:
    """The scan, golden and candidate run histograms, keyed by band solves."""
    return tuple({int(k): v for k, v in counts[kind].items()}
                 for kind in ("scan_runs", "golden_runs", "candidate_runs"))


def test_counts_on_two_windows():
    counts = band_counts(201, n_windows=2)
    scan, golden, candidate = runs(counts)
    assert (counts["windows"], counts["failed"]) == (2, 0)
    # one factorization per scan point or sigma_min run (a sigma_max run
    # reuses its candidate's operator and solves nothing), every band solve
    # inside a Lanczos run, and one layout per window: each window keeps one
    # mode count
    assert sum(scan.values()) == 2 * 9
    assert counts["band_factorizations"] == sum(scan.values()) + sum(
        v for hist in (golden, candidate) for k, v in hist.items() if k > 0)
    assert counts["band_solves"] == sum(k * v for hist in (scan, golden, candidate)
                                        for k, v in hist.items())
    assert counts["layout_builds"] == 2


def test_refinement_factors_one_block():
    counts = band_counts(201, n_windows=3)
    scan, golden, candidate = runs(counts)
    assert (counts["windows"], counts["failed"]) == (3, 0)
    # the one-block bands of the refinement are rows of the window's one
    # layout, not layouts of their own
    assert counts["layout_builds"] == 3
    # the third window holds a level: its 9 scan points and its refined
    # candidate factor the whole band (5 sector blocks of 60 nodes, 4
    # unknowns per node: the sums of q = 2 slots), as do the 18 scan points
    # of the first two; every other factorization is one block's, and each
    # is a golden-section point
    whole, full = 5 * 60 * 4, 3 * 9 + 1
    assert sum(scan.values()) == 3 * 9 and candidate == {0: 1, max(candidate): 1}
    assert counts["band_factorizations"] == full + sum(golden.values())
    assert sum(golden.values()) > 20
    assert counts["band_unknowns_factored"] == whole * full + whole // 5 * sum(golden.values())
    assert counts["band_unknowns_solved"] < whole * counts["band_solves"]
