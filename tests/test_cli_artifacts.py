"""scripts/cli_artifacts.py: the CLI re-baseline config set."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "cli_artifacts.py"


def test_every_run_writes_its_manifest(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("cli_artifacts", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main([str(tmp_path)]) == 0
    names = [name for name, *_ in module.runs()]
    assert len(names) == 27
    assert capsys.readouterr().out.splitlines() == [f"{name}: exit 0" for name in names]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names + ["configs"])
    for name in names:
        run_dir = tmp_path / name
        manifest = json.loads((run_dir / "manifest.json").read_text())
        listed = [a["file"] for a in manifest["artifacts"]]
        written = sorted(p.name for p in run_dir.iterdir() if p.name != "manifest.json")
        assert listed and listed == written
