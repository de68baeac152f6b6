"""Generated-input properties: the config error contract, the inversion
engine against the dense oracle, the exact Hermitian split, the projection
invariants, thin-factor commutator norms, threshold grouping, transverse
sector detection, the certified mode cutoff, the first-order limit of
the threshold ladder's ``M1`` and the brackets of the eigenvalue scan."""

import copy
import dataclasses
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import helpers
from wgscat import birman, expansion, inversion, linalg, scattering, waveguide
from wgscat.errors import EigenvalueHitError, SingularMatrixError, WgscatError

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


FAMILY_RADIUS = 0.05


@st.composite
def families(draw):
    dim = draw(st.integers(3, 12))
    kernel_dim = draw(st.integers(0, min(3, dim - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return inversion.family_from_dict(
        inversion.random_family_dict(rng, dim, kernel_dim, FAMILY_RADIUS))


@given(families(), st.floats(-9.0, float(np.log10(0.9 * FAMILY_RADIUS))),
       st.floats(-np.pi, np.pi))
def test_jn_invert_matches_refined_inverse(fam, log_abs_z, angle):
    # criterion 1's bound on generated families instead of a fixed corpus,
    # from |z| = 1e-9 up to 0.9 times the radius
    z = 10.0**log_abs_z * np.exp(1j * angle)
    x = inversion.jn_invert(fam, linalg.kernel_projector(fam.base), z)
    direct = linalg.refined_inverse(fam.a(z))
    assert np.linalg.norm(x - direct) <= 1e-9 * np.linalg.norm(direct)


@st.composite
def complex_operators(draw):
    """A finite complex matrix, or a stack of 1 to 3 square blocks, of side
    1 to 12 and entries up to 1e10 in modulus."""
    n = draw(st.integers(1, 12))
    shape = draw(st.sampled_from([(n, n), (1, n, n), (2, n, n), (3, n, n)]))
    entries = st.complex_numbers(max_magnitude=1e10, allow_nan=False, allow_infinity=False)
    return draw(hnp.arrays(complex, shape, elements=entries))


@given(complex_operators())
def test_hermitian_split_is_self_adjoint_to_the_bit(a):
    # what skew_defect rests on: imaginary_part output equals its adjoint
    # exactly, so eigvalsh of it needs no symmetrization or check
    for part in (linalg.real_part(a), linalg.imaginary_part(a)):
        assert np.array_equal(part, linalg.adjoint(part))


@st.composite
def kernel_bases(draw):
    """``X + i Z* Z`` with an engineered kernel, and the kernel dimension."""
    dim = draw(st.integers(3, 12))
    kernel_dim = draw(st.integers(0, min(3, dim - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    doc = inversion.random_family_dict(rng, dim, kernel_dim)
    return inversion.family_from_dict(doc).base, kernel_dim


@given(kernel_bases())
def test_projection_invariants(case):
    # Jensen-Nenciu hypotheses (i), (ii) hold for these bases, and the skew
    # part is >= 0, so the contour projector is the kernel projector
    a0, kernel_dim = case
    so = linalg.kernel_projector(a0)
    sr = linalg.riesz_projection_at_zero(a0)
    for p in (so, sr):
        m = p.matrix
        assert linalg.opnorm(m @ m - m) <= 1e-8 * max(1.0, linalg.opnorm(m) ** 2)
        assert p.rank == kernel_dim
        assert abs(np.trace(m) - p.rank) <= 1e-8
        q = p.basis
        assert q.shape == (p.dim, p.rank) and p.basis is q
        assert np.linalg.norm(q.conj().T @ q - np.eye(p.rank)) <= 1e-12
        assert np.linalg.norm(m @ q - q) <= 1e-8
    # the same range: each basis lies in the other projection's range
    assert np.linalg.norm(so.matrix @ sr.basis - sr.basis) <= 1e-8
    assert np.linalg.norm(sr.matrix @ so.basis - so.basis) <= 1e-8


@st.composite
def projector_commutators(draw):
    """Orthonormal ``Q`` (dim 2-16, 0-3 columns) and a dense complex ``X``,
    of any rank from 0 up and any scale."""
    dim = draw(st.integers(2, 16))
    r = draw(st.integers(0, min(3, dim)))
    x_rank = draw(st.integers(0, dim))
    scale = 10.0 ** draw(st.integers(-3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gaussian(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    q = np.linalg.qr(gaussian(dim, r))[0] if r else np.zeros((dim, 0), dtype=complex)
    return q, scale * (gaussian(dim, x_rank) @ gaussian(x_rank, dim))


@given(projector_commutators())
def test_thin_commutator_norm_matches_dense(case):
    q, x = case
    p = q @ q.conj().T
    bound = 1e-12 * max(1.0, linalg.opnorm(x))
    xq, xhq = x @ q, x.conj().T @ q
    left, right = np.hstack([q, -xq]), np.hstack([xhq, q])
    assert abs(linalg.thin_product_norm(left, right)
               - linalg.opnorm(left @ right.conj().T)) <= bound
    assert abs(expansion.commutator_norm(q, xq, xhq)
               - linalg.opnorm(p @ x - x @ p)) <= bound


@st.composite
def sorted_spectra(draw):
    """Sorted eigenvalue lists with exact, near and far repeats."""
    values = draw(st.lists(st.floats(-10.0, 1e6), min_size=1, max_size=10))
    out = []
    for v in values:
        for _ in range(draw(st.integers(1, 3))):
            out.append(v + draw(st.sampled_from([0.0, 1e-12, 1e-9 * abs(v), 1e-6, 0.5])))
    return sorted(out)


@given(sorted_spectra())
def test_threshold_groups_invariants(eigenvalues):
    modes = [waveguide.TransverseMode(i + 1, e, np.zeros(1)) for i, e in enumerate(eigenvalues)]
    groups = waveguide.threshold_groups(modes)

    def tol(e):
        return waveguide.THRESHOLD_REL_TOL * max(1.0, abs(e))

    assert [i for g in groups for i in g.members] == [m.index for m in modes]
    for g in groups:
        for i in g.members:
            assert abs(eigenvalues[i - 1] - g.value) <= tol(eigenvalues[i - 1])
    for g, g_next in zip(groups, groups[1:]):
        assert abs(g_next.value - g.value) > tol(g_next.value)


@st.composite
def sector_wells(draw, profile=None, n_x=(2, 7)):
    """Square wells on an interval or a rectangle whose mode list runs past the
    transverse lattice (``n_max > n_omega``, so aliased and zero modes occur),
    with a spectral point off the thresholds and a mode subset to sum.  A
    cosine ``profile`` (harmonic 1) couples the retained modes 1 and 2 along
    its axis."""
    if draw(st.booleans()):
        cs = waveguide.Interval(draw(st.sampled_from([1.0, np.pi, 4.5])))
        n_omega = draw(st.integers(2, 6))
        n_lattice = n_omega
    elif profile is None:
        cs = waveguide.Rectangle(draw(st.sampled_from([1.0, np.pi])),
                                 draw(st.sampled_from([np.pi, 2.5])))
        n_omega = draw(st.integers(2, 3))
        n_lattice = n_omega**2
    else:
        # the profile varies along the first side; the longer one keeps modes
        # of transverse index 1 and 2 along it among the lowest
        cs = waveguide.Rectangle(np.pi, draw(st.sampled_from([1.0, 2.5])))
        n_omega = draw(st.integers(2, 3))
        n_lattice = n_omega**2
    n_max = draw(st.integers(n_lattice + 1, 3 * n_lattice + 2))
    model = waveguide.square_well_model(
        cs, draw(st.floats(0.1, 5.0)), (0.0, draw(st.floats(0.5, 2.0))), n_omega,
        draw(st.integers(*n_x)), n_max, omega_profile=profile,
    )
    modes = draw(st.lists(st.integers(1, n_max), min_size=1, max_size=n_max, unique=True))
    z = draw(st.floats(-3.0, 60.0)) + 1j * draw(st.floats(0.05, 2.0))
    return model, sorted(modes), z


def sector_coordinates(sectors, m):
    """A dense grid matrix in sector coordinates."""
    return sectors.to_sector(sectors.to_sector(m).T).T


@given(sector_wells())
def test_uniform_wells_split_into_sector_blocks(case):
    model, modes, z = case
    sec = model.sectors
    assert (sec.n_blocks, sec.block_dim) == (model.grid.n_omega, model.grid.n_x)
    assert np.abs(sec.basis.T @ sec.basis - np.eye(model.grid.n_omega)).max() <= 1e-14
    dense = sector_coordinates(sec, birman.mode_sum_matrix(model, z, modes))
    blocks = birman.mode_sum_blocks(model, z, modes)
    assert np.abs(helpers.dense(blocks) - dense).max() <= 1e-13 * max(1.0, np.abs(dense).max())


@given(sector_wells(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_sector_transform_round_trip(case, cols, seed):
    # to_sector and to_grid are the basis transform tensored with the
    # identity in x, exact inverses of each other; real input stays real
    model, _, _ = case
    sec = model.sectors
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(model.dim, cols)) + 1j * rng.normal(size=(model.dim, cols))
    tol = 1e-15 * np.abs(y).max()
    for v in (y, y[:, 0], y[:, 0].real.copy()):
        in_sector = sec.to_sector(v)
        assert in_sector.shape == v.shape and in_sector.dtype == v.dtype
        assert np.abs(sec.to_grid(in_sector) - v).max() <= tol
    basis = np.kron(sec.basis, np.eye(model.grid.n_x))
    assert np.abs(sec.to_grid(y) - basis @ y).max() <= tol
    assert np.abs(sec.to_sector(y) - basis.T @ y).max() <= tol


@given(sector_wells(), st.integers(0, 2**32 - 1), st.booleans())
def test_grid_blocks_is_the_weighted_block_sum(case, seed, column_major):
    # entry (i k, j l) is sum_s basis[i, s] basis[j, s] B_s[k, l], for blocks
    # in either memory order (linalg.inverse returns column-major blocks)
    model, _, _ = case
    sec = model.sectors
    rng = np.random.default_rng(seed)
    shape = (sec.n_blocks, sec.block_dim, sec.block_dim)
    blocks = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if column_major:
        blocks = np.ascontiguousarray(blocks.swapaxes(1, 2)).swapaxes(1, 2)
    ref = np.einsum("is,js,skl->ikjl", sec.basis, sec.basis, blocks).reshape(model.dim, -1)
    got = sec.grid_blocks(blocks)
    assert got.shape == ref.shape and got.flags.c_contiguous
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(blocks).max()


def assert_one_block(model, modes, z):
    sec = model.sectors
    assert sec.n_blocks == 1 and sec.basis is None
    blocks = birman.mode_sum_blocks(model, z, modes)
    assert np.array_equal(blocks[0], birman.mode_sum_matrix(model, z, modes))


@given(sector_wells(profile={"kind": "cosine", "amplitude": 0.5, "harmonic": 1}))
def test_cosine_profile_is_one_block(case):
    assert_one_block(*case)


@given(sector_wells(), st.integers(0, 8))
def test_sign_varying_along_omega_is_one_block(case, cut):
    # the same mode vectors, but u flips sign across the cross-section
    model, modes, z = case
    pot = model.potential
    n_omega = model.grid.n_omega
    g = np.where(np.arange(n_omega) < 1 + cut % (n_omega - 1), 1.0, -1.0)
    values = g[:, None] * pot.values
    signed = waveguide.WaveguideModel(
        model.cross_section, model.grid, model.modes,
        waveguide.factorize_potential(values, pot.omega_factor, pot.x_factor),
    )
    assert_one_block(signed, modes, z)


COSINE = {"kind": "cosine", "amplitude": 0.5, "harmonic": 1}


@st.composite
def band_cases(draw, above=None):
    """A :func:`sector_wells` model, decomposing (uniform profile) or coupled
    (cosine profile), at a real energy inside one of its first open bands or
    below the first threshold, with a tail tolerance that retains a drawn
    number of modes: up to ``n_max``, past the transverse lattice, so sectors
    with no mode, one mode and aliased second modes all occur.  Given
    ``above = (lo, hi)``, the energy is ``lo`` to ``hi`` above the second,
    third or fourth threshold instead, on 40 to 80 x nodes: there the bound
    of the band whose channel just opened can fail while the others hold."""
    profile = draw(st.sampled_from([None, COSINE]))
    model, _, _ = draw(sector_wells(profile=profile, n_x=(2, 7) if above is None else (40, 80)))
    t = model.thresholds()
    if above is not None:
        lam = t[draw(st.integers(1, min(3, len(t) - 2)))] + draw(st.floats(*above))
    elif (band := draw(st.integers(-1, min(2, len(t) - 2)))) < 0:
        lam = t[0] - draw(st.floats(0.1, 2.0))
    else:
        lam = t[band] + draw(st.floats(0.1, 0.9)) * (t[band + 1] - t[band])
    n_open = sum(model.eigenvalue(n) <= lam for n in range(1, model.n_max + 1))
    n_keep = draw(st.integers(max(n_open, 1), model.n_max))
    return model, lam, birman.tail_bound_value(model, complex(lam), n_keep)


@given(band_cases())
def test_truncation_keeps_the_fewest_modes_that_meet_the_tolerance(case):
    # every open mode is kept, the bound recorded is the tail bound of the
    # count kept and meets the tolerance, and one mode fewer would not
    model, lam, tail_tol = case
    z = complex(lam)
    n_used, tail = birman._truncation(model, z, tail_tol)
    n_open = sum(model.eigenvalue(n) <= lam for n in range(1, model.n_max + 1))
    assert max(n_open, 1) <= n_used <= model.n_max
    assert tail == birman.tail_bound_value(model, z, n_used) <= tail_tol
    assert n_used == max(n_open, 1) or birman.tail_bound_value(model, z, n_used - 1) > tail_tol


def mode_classes(model, n_used):
    """Retained modes (0-based) grouped by parallel weighted transverse
    vectors in order of first appearance, modes that vanish on the lattice
    left out: the modes of each sector."""
    pot = model.potential
    phi = [m.samples * pot.omega_factor * np.sqrt(model.grid.omega_weights)
           for m in model.modes[:n_used]]
    top = max(np.linalg.norm(f) for f in phi)
    reps: list[np.ndarray] = []
    classes: list[list[int]] = []
    for n, f in enumerate(phi):
        if np.linalg.norm(f) <= 1e-9 * top:
            continue
        e = f / np.linalg.norm(f)
        home = [c for c, r in enumerate(reps) if abs(r @ e) > 1.0 - 1e-9]
        if home:
            classes[home[0]].append(n)
        else:
            reps.append(e)
            classes.append([n])
    return classes


@given(band_cases())
def test_boundary_operator_matches_dense_oracle(case):
    # the tolerances of TestBoundaryOperator.test_equals_dense_operator, on
    # the sector band of decomposing models and the one block of coupled ones
    model, lam, tail_tol = case
    op = birman.boundary_operator(lam, model, tail_tol)
    a = birman.bs_operator(model, complex(lam), op.n_used)
    rng = np.random.default_rng(3)
    b = rng.normal(size=(model.dim, 3)) + 1j * rng.normal(size=(model.dim, 3))

    def rel(x, ref):
        return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))

    assert rel(op.solve(b), linalg.solve(a, b)) <= 1e-12
    assert rel(op.matvec(b), a @ b) <= 1e-12
    assert rel(op.solve(b[:, 0]), linalg.solve(a, b[:, 0])) <= 1e-12
    dense = helpers.inverse_norm(birman.bs_blocks(model, complex(lam), op.n_used))
    assert abs(op._inverse_norm() / dense - 1.0) <= 1e-12
    # a build on the model's kept layout against one on a fresh copy
    warm = birman.boundary_operator(lam, model, tail_tol)
    cold = birman.boundary_operator(lam, dataclasses.replace(model),
                                    tail_tol)
    assert all(helpers.same_bits(getattr(warm, f), getattr(cold, f))
               for f in ("lu", "piv", "cn", "rn"))


@given(band_cases())
def test_cond_bound_holds_over_the_exact_block_guard(case):
    # exact block guard <= norm bound * exact inverse norm <= bound (to
    # rounding): the order the guard of channel_smatrix rests on; the exact
    # guard is the one of scripts/guard_oracle.py, from the dense sector
    # blocks
    model, lam, tail_tol = case
    op = birman.boundary_operator(lam, model, tail_tol)
    blocks = birman.bs_blocks(model, complex(lam), op.n_used)
    bound = helpers.cond_bound(op)
    assert linalg.cond_estimate(blocks) <= helpers.cond_estimate(op) * (1.0 + 1e-10)
    assert helpers.cond_estimate(op) <= bound * (1.0 + 1e-10)
    # a node with u = v = 0 has the node block D_k = 0: the build refuses it
    pot = model.potential
    v, u = pot.v.copy(), pot.u.copy()
    v[:, 0] = u[:, 0] = 0.0
    dead = dataclasses.replace(model, potential=dataclasses.replace(pot, v=v, u=u))
    with pytest.raises(SingularMatrixError):
        birman.boundary_operator(lam, dead, tail_tol)


@given(band_cases())
def test_smatrix_is_the_direct_sum_of_one_sector_smatrices(case):
    # above lambda_1: S within 1e-12 of the dense open-sector oracle with
    # exact zeros across sectors, and the guard of its bands at least the
    # exact guard of the dense open-sector blocks, whether each band's bound
    # decides or the exact inverse norm of a band whose bound fails
    model, lam, tail_tol = case
    assume(lam > model.eigenvalue(1))
    guards = []
    guard = birman.guard
    with mock.patch.object(birman, "guard", lambda ops: guards.append((ops, guard(ops)))
                           or guards[-1][1]):
        try:
            s = scattering.channel_smatrix(lam, model, tail_tol)
        except EigenvalueHitError:
            s = None
    home, blocks = helpers.open_sectors(model, lam)
    n_used, _ = birman._truncation(model, complex(lam), tail_tol)
    exact = linalg.cond_estimate(birman.bs_blocks(model, complex(lam), n_used)[blocks])
    assert len(guards) == 1
    (ops, applied), = guards
    bound = max(op.norm_bound for op in ops) * max(op._inverse_bound() for op in ops)
    assert bound >= exact * (1.0 - 1e-10)
    assert applied >= exact * (1.0 - 1e-10)
    assert applied == bound or bound > linalg.COND_LIMIT
    if s is not None:
        assert not s.matrix[home[:, None] != home[None, :]].any()
        ref = helpers.dense_open_sector_smatrix(model, lam, tail_tol)
        assert np.abs(s.matrix - ref).max() <= 1e-12


@given(band_cases(above=(1e-4, 1e-2)))
def test_guard_certifies_every_band_whose_bound_holds(case):
    # just above a threshold, where the bound of the band whose channel just
    # opened can fail and its exact inverse norm decide: the guard is at
    # least |A_b|_1 |A_b^-1|_1 of the dense block of every band b, and at
    # least the exact block guard of all of them
    model, lam, tail_tol = case
    _, _, blocks, ops = scattering.smatrix_bands(lam, model, tail_tol)
    guard = birman.guard(ops)
    dense = birman.bs_blocks(model, complex(lam), ops[0].n_used)[blocks]
    for block in dense:
        exact = np.linalg.norm(block, 1) * np.linalg.norm(np.linalg.inv(block), 1)
        assert guard >= exact * (1.0 - 1e-10)
    assert guard >= linalg.cond_estimate(dense) * (1.0 - 1e-10)


@given(band_cases())
def test_band_width_follows_the_sector_slots(case):
    model, lam, tail_tol = case
    op = birman.boundary_operator(lam, model, tail_tol)
    n_omega, n_x = model.grid.n_omega, model.grid.n_x
    if model.sectors.basis is None:
        assert (op.slots, op._width) == (op.n_used, 2 * op.n_used)
    else:
        classes = mode_classes(model, op.n_used)
        slots = max((len(c) for c in classes), default=0)
        assert (op.slots, op._width) == (slots, 2 * slots)
        # sector c holds class c: the basis keeps the classes as its leading
        # columns, in order, and the sectors past them hold no retained mode
        table = birman._mode_slots(model.sectors, op.n_used)
        members = [[int(n) for n in row if n >= 0] for row in table]
        assert members == classes + [[]] * (n_omega - len(classes))
    s = op._width
    assert op.lu.shape == (3 * s + 1, model.sectors.n_blocks * n_x * s)


@given(sector_wells(), st.data())
def test_m1_difference_quotient_tends_to_the_quadratic_kernel(case, data):
    # (M1(k) - M1(0))/k - N2(0) = O(k) on both rays: N1 carries the
    # first-order term and W(k) - W(0) is O(k^2); from the one assembly
    # of M1, with no ladder build
    model, _, _ = case
    group = data.draw(st.sampled_from(model.groups))
    members = group.members
    others = [n for n in range(1, model.n_max + 1) if n not in members]
    u = model.sectors.diagonal(model.potential.u)
    x = model.grid.x_nodes
    quadratic = (x[:, None] - x[None, :]) ** 2 / 4.0 + 0j
    n20 = birman.mode_sum_blocks(model, 0.0, list(members), x_kernel=lambda n: quadratic)
    m10 = expansion._m1(model, group.value, members, others, u, 0.0)
    # the quotient's rounding, about eps |M1(0)| / k, at k = 1e-4
    floor = 1e-10 * max(1.0, linalg.opnorm(m10))
    for ray in (1.0, -1j):
        errs = []
        for t in (1e-3, 1e-4):
            k = ray * t
            m1 = expansion._m1(model, group.value, members, others, u, k)
            errs.append(linalg.opnorm((m1 - m10) / k - n20))
        assert errs[1] <= errs[0] / 5.0 or errs[1] <= floor, (ray, errs, floor)


@functools.cache
def small_well(cosine: bool) -> waveguide.WaveguideModel:
    """The ``well_small`` fixture (5 x 40 depth-1 well, 8 modes), or its
    coupled cosine-profile twin."""
    return waveguide.square_well_model(waveguide.Interval(np.pi), 1.0, (0.0, 1.0), n_omega=5,
                                       n_x=40, n_max=8, omega_profile=COSINE if cosine else None)


@st.composite
def scan_windows(draw):
    """``(model, window, resolution)``: :func:`small_well` or its twin, a
    window inside one band between its thresholds 1, 4, 9, 16, 25 (or
    below the first) at least 0.01 from each, and 3 to 16 scan points."""
    model = small_well(draw(st.booleans()))
    edges = [0.2, 1.0, 4.0, 9.0, 16.0, 25.0]
    band = draw(st.integers(0, len(edges) - 2))
    a, c = edges[band] + 0.01, edges[band + 1] - 0.01
    lo, hi = sorted(a + (c - a) * f for f in draw(st.tuples(st.floats(0.0, 1.0),
                                                            st.floats(0.0, 1.0))))
    if hi - lo < 0.05 * (c - a):
        lo, hi = a, c
    return model, (lo, hi), draw(st.integers(3, 16))


@given(scan_windows())
def test_scan_refines_the_dense_local_minima(case):
    # the brackets the search refines are exactly the interior local minima
    # of min_b sigma_min of the dense sector blocks at the scan energies
    model, window, resolution = case
    tail_tol = 0.1
    lams = np.linspace(*window, resolution)
    dense = []
    for lam in lams:
        n_used, _ = birman._truncation(model, complex(lam), tail_tol)
        dense.append(min(np.linalg.svd(b, compute_uv=False)[-1]
                         for b in birman.bs_blocks(model, complex(lam), n_used)))
    minima = [(float(lams[i - 1]), float(lams[i + 1])) for i in range(1, resolution - 1)
              if dense[i] <= dense[i - 1] and dense[i] <= dense[i + 1]]
    brackets = []
    golden_min = birman.golden_min

    def recorded(f, a, b, tol):
        brackets.append((a, b))
        return golden_min(f, a, b, tol)

    with mock.patch.object(birman, "golden_min", recorded):
        birman.eigenvalue_search(window, model, resolution, tail_tol, refine_width=1e-4)
    assert brackets == minima
