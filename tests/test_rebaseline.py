"""scripts/rebaseline.py: the re-baseline rule as one command."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))  # its sibling artifact_diff
    spec = importlib.util.spec_from_file_location("rebaseline", SCRIPTS / "rebaseline.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_head_against_the_working_tree_reads_equal(tmp_path, monkeypatch):
    # a subset of every comparison, on results that a change to the band code
    # leaves alone: one CLI run, one library case, one gate line and the first
    # two eigen_scan_cli windows of one seed
    module = load(monkeypatch)
    try:
        parent = module.export("HEAD", tmp_path / "parent")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("needs a git checkout with a HEAD commit")
    report = module.rebaseline(parent, module.ROOT, tmp_path / "out", runs=["well-modes"],
                               cases=["families"], select="criterion_02", seeds=[201], limit=2)
    for kind in ("artifacts", "digests"):
        assert report[kind] and all(f["change"] == "=" for f in report[kind])
    assert len(report["gates"]["parent"]) == 1
    assert report["gates"]["parent"] == report["gates"]["change"]
    assert report["windows_changed"] == [] and report["identical"]


def test_changed_windows_lists_each_difference(monkeypatch):
    module = load(monkeypatch)
    same, moved = {"window": [1, 2], "candidates": [[]]}, {"window": [3, 4], "candidates": [[]]}
    old = {"201": [same, moved], "202": [same]}
    new = {"201": [same, dict(moved, candidates=[["x"]])], "202": []}
    assert module.changed_windows(old, old) == []
    assert module.changed_windows(old, new) == [
        {"seed": "201", "window": [3, 4], "parent": [[]], "change": [["x"]]},
        {"seed": "202", "windows": [1, 0]}]
