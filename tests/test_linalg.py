"""Dense linear-algebra substrate: projectors, solves, Hermitian splits."""

import numpy as np
import pytest

from wgscat import birman, linalg, waveguide
from wgscat.errors import (
    AccuracyError,
    ContourError,
    DimensionError,
    SingularMatrixError,
)


class TestKernelProjector:
    def test_zero_matrix_full_kernel(self):
        p = linalg.kernel_projector(np.zeros((2, 2), dtype=complex))
        assert np.allclose(p.matrix, np.eye(2))

    def test_coordinate_kernel(self):
        p = linalg.kernel_projector(np.diag([1.0, 0.0]).astype(complex))
        assert np.allclose(p.matrix, np.diag([0.0, 1.0]))

    def test_engineered_two_dim_kernel(self):
        # rank-4 6x6 built as B @ C; kernel dim 2 by construction
        rng = np.random.default_rng(7)
        b = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        c = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        a = b @ c
        p = linalg.kernel_projector(a)
        assert p.rank == 2
        assert linalg.opnorm(a @ p.matrix) <= 1e-10 * linalg.opnorm(a)

    def test_always_orthogonal(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            a = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
            a[:, 0] = a[:, 1]  # force rank deficiency
            p = linalg.kernel_projector(a.T)  # kernel along the duplicated row
            assert p.adjoint_defect() <= 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            linalg.kernel_projector(np.ones((2, 3), dtype=complex))


class TestRieszProjection:
    def test_isolated_zero_eigenvalue(self):
        p = linalg.riesz_projection(np.diag([0.0, 5.0]).astype(complex), radius=1.0)
        assert np.allclose(p.matrix, np.diag([1.0, 0.0]), atol=1e-12)
        assert p.adjoint_defect() <= 1e-8

    def test_self_adjoint_matches_kernel_projector(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        a = q @ np.diag([0.0, 0.0, 1.3, -2.0, 0.7]) @ q.T
        pr = linalg.riesz_projection(a.astype(complex), radius=0.35)
        po = linalg.kernel_projector(a.astype(complex))
        assert linalg.opnorm(pr.matrix - po.matrix) <= 1e-8

    def test_shifted_nilpotent_empty_contour(self):
        # eigenvalues both at 3 (eigendecomposition oracle): nothing inside |z|=1
        a = np.array([[0.0, 1.0], [0.0, 0.0]]) + np.diag([3.0, 3.0])
        p = linalg.riesz_projection(a.astype(complex), radius=1.0)
        assert linalg.opnorm(p.matrix) <= 1e-10

    def test_commutes_with_operator(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=(6, 6)) + 0.1j * rng.normal(size=(6, 6))
        a = v @ np.diag([0.0, 0.0, 1.0, 1.5, -1.2, 2.0]) @ np.linalg.inv(v)
        p = linalg.riesz_projection(a, radius=0.5)
        comm = p.matrix @ a - a @ p.matrix
        assert linalg.opnorm(comm) <= 1e-8 * linalg.opnorm(a)

    def test_contour_through_spectrum_rejected(self):
        a = np.diag([1.0, 5.0]).astype(complex)
        with pytest.raises(ContourError):
            linalg.riesz_projection(a, radius=1.0)

    def test_auto_radius_no_zero_group(self):
        p = linalg.riesz_projection_at_zero(np.diag([2.0, -3.0]).astype(complex))
        assert p.rank == 0


class TestSolve:
    def test_identity(self):
        b = np.arange(6, dtype=complex).reshape(3, 2)
        assert np.allclose(linalg.solve(np.eye(3, dtype=complex), b), b)

    def test_diagonal(self):
        x = linalg.solve(np.diag([2.0, 4.0]).astype(complex), np.eye(2, dtype=complex))
        assert np.allclose(x, np.diag([0.5, 0.25]))

    def test_random_residual(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)) + 4 * np.eye(8)
        b = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
        x = linalg.solve(a, b)
        rel = np.linalg.norm(a @ x - b) / (np.linalg.norm(a) * np.linalg.norm(x))
        assert rel <= 1e-12

    def test_singular_rejected_with_cond(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]], dtype=complex)
        with pytest.raises(SingularMatrixError) as err:
            linalg.solve(a, np.eye(2, dtype=complex))
        assert err.value.cond > 1e12


class TestOnenormEstimate:
    def test_lower_bound_near_exact(self):
        rng = np.random.default_rng(29)
        for n in (1, 2, 7, 30):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            exact = np.linalg.norm(a, 1)
            est = linalg.onenorm_estimate(lambda x: a @ x, lambda x: a.conj().T @ x, n)
            assert exact / 3.0 <= est <= exact * (1.0 + 1e-12)

    def test_finds_a_dominant_column(self):
        a = np.eye(12, dtype=complex)
        a[:, 7] += 50.0
        est = linalg.onenorm_estimate(lambda x: a @ x, lambda x: a.conj().T @ x, 12)
        assert est == pytest.approx(np.linalg.norm(a, 1), rel=1e-12)


class TestHermitianSplit:
    def test_pure_imaginary_identity(self):
        a = 1j * np.eye(3, dtype=complex)
        assert np.allclose(linalg.imaginary_part(a), np.eye(3))
        assert np.allclose(linalg.real_part(a), 0.0)

    def test_self_adjoint_has_no_skew_part(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(5, 5))
        x = x + x.T
        assert linalg.opnorm(linalg.imaginary_part(x.astype(complex))) <= 1e-14

    def test_split_recovers_parts(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        x = (x + x.conj().T) / 2
        y = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        y = (y + y.conj().T) / 2
        a = x + 1j * y
        assert linalg.opnorm(linalg.real_part(a) - x) <= 1e-14
        assert linalg.opnorm(linalg.imaginary_part(a) - y) <= 1e-14


class TestPsdDefect:
    def test_identity(self):
        assert linalg.psd_defect(np.eye(3, dtype=complex)) == 0.0

    def test_indefinite_diagonal(self):
        assert linalg.psd_defect(np.diag([1.0, -0.5]).astype(complex)) == pytest.approx(0.5)

    def test_sandwiched_resolvent_skew_part(self, well_small):
        # off-axis resolvent sandwich has positive semidefinite skew part
        z = 2.5 - (0.02 - 0.02j) ** 2
        n_used, _ = birman._truncation(well_small, z, 0.1)
        y = linalg.imaginary_part(birman.bs_operator(well_small, z, n_used))
        assert linalg.psd_defect(y) <= 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(DimensionError):
            linalg.psd_defect(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


class TestProjectionType:
    def test_idempotence_enforced(self):
        with pytest.raises(AccuracyError):
            linalg.Projection(np.array([[0.5]], dtype=complex))

    def test_rank_counts_trace(self):
        p = linalg.identity_projection(4)
        assert p.rank == 4
