"""The entry points the benchmark's span recorder traces stay in the package.

``perfbench/spans.py`` names its traced functions by module or class and
attribute; a name missing from the package makes every traced benchmark run
fail.  The recorder is imported by path and used as the benchmark uses it.
"""

import importlib.util
import sys
from pathlib import Path

import numpy.linalg
import pytest
import scipy.linalg

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(spans) -> dict:
    """A copy of the namespace of every ``wgscat`` module, traced class and
    LAPACK module the recorder patches, keyed by the owner itself."""
    owners = [mod for name, mod in sys.modules.items()
              if mod is not None and (name == "wgscat" or name.startswith("wgscat."))]
    owners += [owner for owner, _, _ in spans.TRACED if isinstance(owner, type)]
    owners += [numpy.linalg, scipy.linalg]
    return {owner: dict(vars(owner)) for owner in owners}


def test_every_traced_name_resolves(spans):
    for owner, attr, name in spans.TRACED:
        if isinstance(owner, type):
            assert callable(owner.__dict__.get(attr)), name  # a method, on the class itself
        else:
            assert callable(getattr(owner, attr, None)), name


def test_installed_patches_and_restores_every_binding(spans):
    before = bindings(spans)
    with spans.installed(spans.Recorder()):
        for owner, attr, name in spans.TRACED:
            assert vars(owner)[attr] is not before[owner][attr], name
    after = bindings(spans)
    assert before.keys() == after.keys()
    for owner, values in before.items():
        assert values.keys() == after[owner].keys(), owner
        changed = [key for key, value in values.items() if after[owner][key] is not value]
        assert not changed, (owner, changed)

