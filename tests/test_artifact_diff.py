"""scripts/artifact_diff.py: field-by-field comparison of output trees."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "artifact_diff.py"


@pytest.fixture(scope="module")
def artifact_diff():
    spec = importlib.util.spec_from_file_location("artifact_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def trees(tmp_path, name, old, new):
    """Two output directories holding one file ``name`` each."""
    dirs = []
    for label, text in (("old", old), ("new", new)):
        d = tmp_path / label
        d.mkdir()
        (d / name).write_text(text)
        dirs.append(d)
    return dirs


def test_identical_non_json_json_files(tmp_path, artifact_diff, capsys):
    old, new = trees(tmp_path, "family.json", "{not json", "{not json")
    assert artifact_diff.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out.split() == ["family.json:<bytes>", "="]


def test_changed_non_json_json_files(tmp_path, artifact_diff, capsys):
    old, new = trees(tmp_path, "family.json", "{not json", "{not json!")
    assert artifact_diff.main([str(old), str(new)]) == 1
    assert "family.json:<bytes>" in capsys.readouterr().out


def test_changed_csv_number(tmp_path, artifact_diff, capsys):
    old, new = trees(tmp_path, "modes.csv", "n,lambda_n\n1,1\n2,4\n", "n,lambda_n\n1,1\n2,4.5\n")
    assert artifact_diff.main([str(old), str(new)]) == 1
    lines = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
    assert lines["modes.csv:n"] == "="
    assert lines["modes.csv:lambda_n"] == "abs 0.5 rel 0.111"
