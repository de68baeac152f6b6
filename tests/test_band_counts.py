"""scripts/band_counts.py: band work counts of the eigen_scan_cli job."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "band_counts.py"


def test_counts_on_two_windows():
    spec = importlib.util.spec_from_file_location("band_counts", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    counts = module.band_counts(201, n_windows=2)
    hist = {int(k): v for k, v in counts["sigma_min_solves"].items()}
    assert (counts["windows"], counts["failed"]) == (2, 0)
    # one factorization per sigma_min call, every band solve inside one, and
    # one layout per window: each window keeps one mode count
    assert counts["band_factorizations"] == sum(hist.values()) > 0
    assert counts["band_solves"] == sum(k * v for k, v in hist.items())
    assert counts["layout_builds"] == 2
