"""scripts/library_digests.py: digests of the library's numerical results."""

import importlib.util
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "library_digests.py"


def load():
    spec = importlib.util.spec_from_file_location("library_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repeat_runs_agree_and_one_ulp_changes_the_digest():
    module = load()
    first, second = module.families_case(), module.families_case()
    assert first == second and len(first) == 6
    a = np.random.default_rng(1).normal(size=(3, 4)) + 0j
    b = a.copy()
    b[1, 2] = np.nextafter(b[1, 2].real, np.inf) + 1j * b[1, 2].imag
    da, db = module.digest(a), module.digest(b)
    assert da["sha256"] != db["sha256"]
    assert (da["dtype"], da["shape"]) == (db["dtype"], db["shape"]) == ("complex128", [3, 4])
    assert module.digest(a) == da
