"""Session fixtures: waveguide models and tuned critical couplings."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from wgscat import birman, cli, expansion, waveguide

import helpers

# property tests replay the same examples on every run, with no time limit
# per example and no example database
settings.register_profile(
    "tier1", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("tier1")

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session", autouse=True)
def single_threaded_blas():
    """BLAS on one thread, as in every CLI command: the printed gate lines do
    not depend on the BLAS thread count of the environment."""
    with cli.single_threaded_blas():
        yield


@pytest.fixture(scope="session")
def interval_cs():
    return waveguide.Interval(np.pi)


@pytest.fixture(scope="session")
def well_small(interval_cs):
    """Depth-1 unit-box well on a coarse grid (fast structural tests)."""
    return waveguide.square_well_model(
        interval_cs, 1.0, (0.0, 1.0), n_omega=5, n_x=40, n_max=8
    )


@pytest.fixture(scope="session")
def well_medium(interval_cs):
    """Depth-1 unit-box well at probe resolution."""
    return waveguide.square_well_model(
        interval_cs, 1.0, (0.0, 1.0), n_omega=5, n_x=120, n_max=9
    )


@pytest.fixture(scope="session")
def coupled_model(interval_cs):
    """Parity-broken well (modes 1 and 2 coupled); used by the threshold
    continuity probes so the near-threshold entries are not symmetry-zero."""
    return waveguide.square_well_model(
        interval_cs, 1.0, (0.0, 1.0), n_omega=5, n_x=120, n_max=9,
        omega_profile={"kind": "cosine", "amplitude": 0.5, "harmonic": 1},
    )


@pytest.fixture(scope="session")
def master_model(interval_cs):
    """Criterion 4's model: n_x pinned at 200 by the criterion; 4 transverse
    nodes keep the retained modes alias-free and the runtime well inside its
    budget.  It splits into 4 sector blocks of size 200."""
    return waveguide.square_well_model(
        interval_cs, 1.0, (0.0, 1.0), n_omega=4, n_x=200, n_max=8
    )


@pytest.fixture(scope="session")
def resonant_model(interval_cs):
    """Well tuned to a threshold resonance in the threshold channel itself
    (level-1 kernel in the mode-2 sector; ladder terminates at level 2)."""
    depth = helpers.tune_resonant_depth((9.0, 9.3))
    model = waveguide.square_well_model(
        interval_cs, depth, (0.0, 1.0), n_omega=5, n_x=50, n_max=24
    )
    assert expansion.level1_kernel_gap(model, 4.0, eps=2e-2, tail_tol=0.1) < 1e-10
    return model


@pytest.fixture(scope="session")
def deep_ladder_model(interval_cs):
    """Well tuned to a closed-channel state pinned at the threshold
    (level-1 kernel in the mode-3 sector; the level-2 compression cancels
    exactly, so the ladder runs through all four levels)."""
    depth = helpers.tune_resonant_depth((7.3, 7.6))
    model = waveguide.square_well_model(
        interval_cs, depth, (0.0, 1.0), n_omega=5, n_x=50, n_max=24
    )
    assert expansion.level1_kernel_gap(model, 4.0, eps=2e-2, tail_tol=0.1) < 1e-10
    return model


@pytest.fixture(scope="session")
def resonant_ladder(resonant_model):
    return expansion.build_threshold_ladder(
        resonant_model, 4.0, eps=2e-2, tail_tol=0.1
    )


@pytest.fixture(scope="session")
def deep_ladder(deep_ladder_model):
    return expansion.build_threshold_ladder(
        deep_ladder_model, 4.0, eps=2e-2, tail_tol=0.1
    )


@pytest.fixture(scope="session")
def embedded_lambda(well_medium):
    """Embedded eigenvalue of the depth-1 well inside (lambda_1, lambda_2):
    the mode-2 bound state, located by the singular-value dip."""
    e_levels = helpers.oned_well_levels(1.0, 1.0)
    lam0 = 4.0 + e_levels[0]
    cands = birman.eigenvalue_search(
        (lam0 - 4e-3, lam0 + 4e-3), well_medium, resolution=9,
        tail_tol=0.03, refine_width=1e-9,
    )
    assert len(cands) == 1
    return cands[0].lam


@pytest.fixture(scope="session")
def eigenvalue_hit():
    """``(model_doc, lam)``: the depth-1 well on a 5 x 60 grid and its
    embedded eigenvalue near ``4 + e0``, refined by golden section to 1e-15.
    The boundary operator is singular there to working precision (dense
    condition estimate about 6e15)."""
    doc = {
        "schema_version": 1,
        "cross_section": {"kind": "interval", "length": float(np.pi)},
        "grid": {"n_omega": 5, "n_x": 60},
        "n_max": 9,
        "potential": {"kind": "square_well", "depth": 1.0, "x_box": [0.0, 1.0]},
    }
    lam0 = 4.0 + helpers.oned_well_levels(1.0, 1.0)[0]
    cands = birman.eigenvalue_search(
        (lam0 - 4e-3, lam0 + 4e-3), waveguide.model_from_config(doc), resolution=9,
        tail_tol=0.03, refine_width=1e-15,
    )
    assert len(cands) == 1
    return doc, float(cands[0].lam)
