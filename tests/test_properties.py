"""Generated-input properties: the config error contract and the inversion
engine against the dense oracle."""

import copy

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from wgscat import inversion, linalg, waveguide
from wgscat.errors import WgscatError

MODEL_DOCS = [
    {"schema_version": 1,
     "cross_section": {"kind": "interval", "length": 3.0},
     "grid": {"n_omega": 3, "n_x": 4, "n_panels": 2},
     "n_max": 3,
     "potential": {"kind": "square_well", "depth": 1.0, "x_box": [0.0, 1.0],
                   "omega_profile": {"kind": "cosine", "amplitude": 0.5, "harmonic": 1}}},
    {"schema_version": 1,
     "cross_section": {"kind": "rectangle", "l1": 3.0, "l2": 2.0},
     "grid": {"n_omega": 2, "n_x": 2},
     "n_max": 4,
     "potential": {"kind": "table", "x_box": [-1.0, 1.0],
                   "values": [[-1.0, 0.5], [0.0, 2.0], [1.0, 1.0], [-0.5, -2.0]]}},
    {"schema_version": 1,
     "cross_section": {"kind": "custom", "nodes": [0.25, 0.75], "weights": [0.5, 0.5],
                       "eigenvalues": [1.0, 2.5], "samples": [[1.0, 1.0], [1.0, -1.0]]},
     "grid": {"n_omega": 2, "n_x": 3},
     "n_max": 2,
     "potential": {"kind": "square_well", "depth": 2.0, "x_box": [0.0, 1.0]}},
]

FAMILY_DOCS = [
    {"schema_version": 1,
     "base": [[[0.0, 0.0]]],
     "remainder": {"kind": "polynomial", "coeffs": [[[[1.0, 0.0]]], [[[0.0, 1.0]]]]},
     "bound": 2.0, "radius": 0.5, "sector": [-1.0, 1.0]},
    {"schema_version": 1,
     "base": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.5]]],
     "remainder": {"kind": "rational", "num": [[[[1.0, 0.0], [0.0, 0.0]],
                                               [[0.0, 0.0], [1.0, 0.0]]]],
                   "den": [1.0, 1.0]},
     "bound": 2.0, "radius": 0.5, "sector": None},
]

DELETE = object()

# small JSON: a document that happens to stay valid still builds a tiny model
json_scalars = (
    st.none() | st.booleans() | st.integers(-2, 8)
    | st.floats(-2.0, 8.0) | st.text(max_size=3)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["kind", "x", "values"]) | st.text(max_size=3),
                      inner, max_size=4),
    max_leaves=8,
)


def _paths(node, prefix=()):
    """Every position inside a JSON document, as key/index tuples."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated(draw, docs):
    """One of ``docs`` with one field replaced by generated JSON or deleted."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    path = draw(st.sampled_from(list(_paths(doc))))
    value = draw(json_values | st.just(DELETE))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _builds_or_raises_wgscat(build, doc):
    try:
        build(doc)
    except WgscatError:
        pass


@given(mutated(MODEL_DOCS))
def test_model_config_errors_are_wgscat_errors(doc):
    _builds_or_raises_wgscat(waveguide.model_from_config, doc)


@given(mutated(FAMILY_DOCS))
def test_family_errors_are_wgscat_errors(doc):
    _builds_or_raises_wgscat(inversion.family_from_dict, doc)


@st.composite
def families(draw):
    dim = draw(st.integers(3, 12))
    kernel_dim = draw(st.integers(0, min(3, dim - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return inversion.family_from_dict(inversion.random_family_dict(rng, dim, kernel_dim))


@given(families(), st.floats(-6.0, -2.0), st.floats(-np.pi, np.pi))
def test_jn_invert_matches_refined_inverse(fam, log_abs_z, angle):
    # criterion 1's bound on generated families instead of a fixed corpus
    z = 10.0**log_abs_z * np.exp(1j * angle)
    x = inversion.jn_invert(fam, linalg.kernel_projector(fam.base), z)
    direct = linalg.refined_inverse(fam.a(z))
    assert np.linalg.norm(x - direct) <= 1e-9 * np.linalg.norm(direct)
