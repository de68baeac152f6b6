"""Waveguide model: modes, thresholds, potential factors, quadrature grid."""

import math

import numpy as np
import pytest

from wgscat import linalg, waveguide
from wgscat.errors import DimensionError, ModelError


class TestTransverseModes:
    def test_interval_eigenvalues(self):
        cs = waveguide.Interval(np.pi)
        grid = waveguide.build_grid(cs, (0.0, 1.0), 8, 8)
        modes = cs.modes(3, grid.omega_nodes)
        assert [m.eigenvalue for m in modes] == pytest.approx([1.0, 4.0, 9.0])

    def test_square_cross_section_degenerate_pair(self):
        cs = waveguide.Rectangle(np.pi, np.pi)
        grid = waveguide.build_grid(cs, (0.0, 1.0), 6, 8)
        modes = cs.modes(4, grid.omega_nodes)
        assert [m.eigenvalue for m in modes] == pytest.approx([2.0, 5.0, 5.0, 8.0])

    def test_rectangle_tie_order_lexicographic(self):
        cs = waveguide.Rectangle(np.pi, np.pi)
        pairs = cs._pairs(4)
        assert [(p, q) for (_, p, q) in pairs] == [(1, 1), (1, 2), (2, 1), (2, 2)]

    @pytest.mark.parametrize("aspect", [1.0, 3.0, 10.0])
    def test_rectangle_spectrum_matches_brute_force(self, aspect):
        cs = waveguide.Rectangle(aspect, 1.0)
        brute = sorted(
            ((p * math.pi / aspect) ** 2 + (q * math.pi) ** 2, p, q)
            for p in range(1, 80)
            for q in range(1, 80)
        )[:40]
        assert [cs.eigenvalue(n) for n in range(1, 41)] == [lam for lam, _, _ in brute]
        assert list(cs._pairs(40)) == brute

    def test_custom_passthrough(self):
        nodes = np.array([0.25, 0.75])
        weights = np.array([0.5, 0.5])
        samples = np.array([[1.0, 1.0], [1.0, -1.0]])
        cs = waveguide.Custom(nodes, weights, (1.0, 2.5), samples)
        modes = cs.modes(2, None)
        assert modes[1].eigenvalue == 2.5

    def test_custom_shuffled_rejected(self):
        nodes = np.array([0.25, 0.75])
        weights = np.array([0.5, 0.5])
        samples = np.array([[1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(ModelError):
            waveguide.Custom(nodes, weights, (2.5, 1.0), samples)

    def test_custom_non_orthonormal_rejected(self):
        nodes = np.array([0.25, 0.75])
        weights = np.array([0.5, 0.5])
        samples = np.array([[1.0, 1.0], [1.0, 0.9]])
        with pytest.raises(ModelError):
            waveguide.Custom(nodes, weights, (1.0, 2.0), samples)

    def test_custom_nodes_must_match_weights(self):
        weights = np.array([0.5, 0.5])
        samples = np.array([[1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(ModelError):
            waveguide.Custom(np.array([]), weights, (1.0, 2.5), samples)

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0], ids=["inf", "nan", "zero"])
    def test_non_finite_or_non_positive_sides_rejected(self, value):
        with pytest.raises(ModelError):
            waveguide.Interval(value)
        with pytest.raises(ModelError):
            waveguide.Rectangle(value, 1.0)
        with pytest.raises(ModelError):
            waveguide.Rectangle(1.0, value)

    @pytest.mark.parametrize("field", ["nodes", "weights", "eigenvalues", "samples"])
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_custom_non_finite_data_rejected(self, field, value):
        data = {"nodes": np.array([0.25, 0.75]), "weights": np.array([0.5, 0.5]),
                "eigenvalues": np.array([1.0, 2.5]),
                "samples": np.array([[1.0, 1.0], [1.0, -1.0]])}
        data[field].flat[-1] = value
        with pytest.raises(ModelError):
            waveguide.Custom(**data)

    def test_orthonormality_invariant(self, interval_cs):
        # the transverse rule orthonormalizes every retained mode pair
        for n_max in (3, 5, 8):
            m = waveguide.square_well_model(
                interval_cs, 1.0, (0.0, 1.0), n_omega=2 * n_max, n_x=8, n_max=n_max
            )
            assert m.orthonormality_defect(n_max) <= 1e-8


class TestThresholdGroups:
    def test_interval_singletons(self, well_small):
        assert all(len(g.members) == 1 for g in well_small.groups)

    def test_square_group_of_two(self):
        cs = waveguide.Rectangle(np.pi, np.pi)
        m = waveguide.square_well_model(cs, 1.0, (0.0, 1.0), n_omega=4, n_x=8, n_max=4)
        g5 = [g for g in m.groups if abs(g.value - 5.0) < 1e-9]
        assert len(g5) == 1 and len(g5[0].members) == 2

    def test_near_degenerate_tolerance_straddle(self):
        # THRESHOLD_REL_TOL (1e-9) lies between the two splittings
        nodes = np.array([0.25, 0.75])
        weights = np.array([0.5, 0.5])
        samples = np.array([[1.0, 1.0], [1.0, -1.0]])

        def groups(split):
            cs = waveguide.Custom(nodes, weights, (1.0, 1.0 + split), samples)
            return waveguide.threshold_groups(cs.modes(2, None))

        assert len(groups(1e-6)) == 2 and len(groups(1e-10)) == 1

    def test_groups_partition_modes(self, well_small):
        seen = [n for g in well_small.groups for n in g.members]
        assert sorted(seen) == list(range(1, well_small.n_max + 1))


class TestPotential:
    def test_zero_potential(self):
        pot = waveguide.factorize_potential(np.zeros((3, 4)))
        assert np.all(pot.v == 0.0) and np.all(pot.u == 1.0)

    def test_negative_box_sign(self):
        vals = np.zeros((2, 4))
        vals[:, 1:3] = -1.0
        pot = waveguide.factorize_potential(vals)
        assert np.all(pot.u[:, 1:3] == -1.0)
        assert np.all(pot.u[:, 0] == 1.0)

    def test_mixed_sign_reconstruction(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=(4, 7))
        pot = waveguide.factorize_potential(vals)
        assert np.allclose(pot.v * pot.u * pot.v, vals, atol=0.0)

    def test_unbounded_rejected(self):
        vals = np.array([[1.0, np.inf]])
        with pytest.raises(ModelError):
            waveguide.factorize_potential(vals)


class TestGrid:
    def test_two_point_gauss(self):
        nodes, weights = waveguide.gauss_legendre_panels(0.0, 1.0, 2, 1)
        ref = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
        assert np.allclose(nodes, ref)
        assert np.allclose(weights, [0.5, 0.5])

    def test_cubic_exactness(self):
        nodes, weights = waveguide.gauss_legendre_panels(0.0, 1.0, 2, 1)
        assert np.sum(weights * nodes**3) == pytest.approx(0.25, abs=1e-15)

    def test_weights_positive(self, well_small):
        g = well_small.grid
        assert np.all(g.omega_weights > 0) and np.all(g.x_weights > 0)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["omega_nodes", "omega_weights", "x_nodes", "x_weights"])
    def test_non_finite_grid_rejected(self, well_small, field, value):
        g = well_small.grid
        parts = {name: getattr(g, name).copy() for name in
                 ("omega_nodes", "omega_weights", "x_nodes", "x_weights")}
        parts[field].flat[0] = value
        with pytest.raises(ModelError):
            waveguide.Grid(**parts)

    @pytest.mark.parametrize("support", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0),
                                         (0.0, math.nan), (1.0, 1.0)])
    def test_build_grid_needs_a_finite_box(self, interval_cs, support):
        with pytest.raises(ModelError):
            waveguide.build_grid(interval_cs, support, 4, 8)

    def test_panel_split_validation(self):
        with pytest.raises(DimensionError):
            waveguide.gauss_legendre_panels(0.0, 1.0, 5, 2)

    def test_symmetric_weighting_self_adjoint(self, well_small):
        # a real symmetric kernel must produce a Hermitian stored matrix
        from wgscat import birman, expansion

        mat = birman.mode_sum_matrix(
            well_small, 0.0, [1],
            x_kernel=lambda n: expansion._group_kernel(0.0, well_small.grid.x_nodes),
        )
        assert linalg.opnorm(mat - mat.conj().T) <= 1e-14 * max(1.0, linalg.opnorm(mat))

    def test_refining_x_grid_keeps_spectrum(self, interval_cs):
        m1 = waveguide.square_well_model(interval_cs, 1.0, (0.0, 1.0), 5, 30, 6)
        m2 = waveguide.square_well_model(interval_cs, 1.0, (0.0, 1.0), 5, 60, 6)
        assert [a.eigenvalue for a in m1.modes] == [b.eigenvalue for b in m2.modes]
        assert [g.members for g in m1.groups] == [g.members for g in m2.groups]


class TestModelConfig:
    def test_square_well_round_trip(self):
        doc = {
            "schema_version": 1,
            "cross_section": {"kind": "interval", "length": np.pi},
            "grid": {"n_omega": 4, "n_x": 12},
            "n_max": 4,
            "potential": {"kind": "square_well", "depth": 1.0, "x_box": [0.0, 1.0]},
        }
        m = waveguide.model_from_config(doc)
        assert m.dim == 48
        assert m.potential.separable

    def test_table_potential(self):
        doc = {
            "schema_version": 1,
            "cross_section": {"kind": "interval", "length": np.pi},
            "grid": {"n_omega": 3, "n_x": 8},
            "n_max": 3,
            "potential": {
                "kind": "table",
                "x_box": [0.0, 1.0],
                "values": (-np.ones((3, 8))).tolist(),
            },
        }
        m = waveguide.model_from_config(doc)
        assert not m.potential.separable
        assert np.all(m.potential.u == -1.0)

    def test_bad_schema_rejected(self):
        with pytest.raises(ModelError):
            waveguide.model_from_config({"schema_version": 99})

    def test_cosine_profile_bounds(self, interval_cs):
        with pytest.raises(ModelError):
            waveguide.square_well_model(
                interval_cs, 1.0, (0.0, 1.0), 4, 8, 3,
                omega_profile={"kind": "cosine", "amplitude": 1.5},
            )
