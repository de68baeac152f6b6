"""Dense linear-algebra substrate: projectors, solves, Hermitian splits."""

import numpy as np
import pytest
import scipy.linalg

import helpers
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


def exact_cond(a):
    return np.linalg.norm(a, 1) * np.linalg.norm(np.linalg.inv(a), 1)


def block_guard(blocks):
    return (max(np.linalg.norm(b, 1) for b in blocks)
            * max(np.linalg.norm(np.linalg.inv(b), 1) for b in blocks))


class TestConditionGuard:
    """The guard of every dense inverse is the exact 1-norm condition, not a
    lower estimate of it."""

    def test_graded_matrix_where_an_estimate_under_reads(self):
        # LAPACK's gecon estimate reads 1.82e4 here against the exact 3.02e4
        rng = np.random.default_rng(3991)
        a = ((rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
             @ np.diag(10.0 ** rng.uniform(-4, 0, 6)) @ rng.normal(size=(6, 6)))
        assert abs(linalg.cond_estimate(a) / exact_cond(a) - 1.0) <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_on_seeded_matrices(self, seed):
        rng = np.random.default_rng(seed)
        n = 2 + seed
        a = ((rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
             @ np.diag(10.0 ** rng.uniform(-6, 0, n)))
        assert abs(linalg.cond_estimate(a) / exact_cond(a) - 1.0) <= 1e-12
        assert linalg.inverse_with_cond(a)[1] == linalg.cond_estimate(a)

    def test_stack_gives_the_block_guard(self):
        rng = np.random.default_rng(11)
        blocks = ((rng.normal(size=(3, 5, 5)) + 1j * rng.normal(size=(3, 5, 5)))
                  * np.array([1.0, 1e-3, 1e2])[:, None, None])
        assert abs(linalg.cond_estimate(blocks) / block_guard(blocks) - 1.0) <= 1e-12
        inv, cond = linalg.inverse_with_cond(blocks)
        assert cond == linalg.cond_estimate(blocks)
        assert helpers.same_bits(linalg.inverse(blocks), inv)
        for b in range(3):
            assert helpers.same_bits(inv[b], linalg.inverse(blocks[b]))

    def test_refused_stack_carries_its_block_guard(self):
        # each block is well conditioned; the stack's guard is not
        rng = np.random.default_rng(5)
        blocks = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
        blocks[1] *= 1e-14
        assert all(exact_cond(b) < 1e4 for b in blocks)
        with pytest.raises(SingularMatrixError) as err:
            linalg.inverse(blocks)
        assert abs(err.value.cond / block_guard(blocks) - 1.0) <= 1e-12
        assert err.value.cond == linalg.cond_estimate(blocks)

    @pytest.mark.parametrize("shape", [(7, 7), (3, 6, 6)], ids=["matrix", "stack"])
    def test_bits_and_layout_of_the_lu_reference(self, shape):
        # each block's inverse is, bit for bit, LU factors solved against the
        # identity, and column-major as LAPACK returns it
        rng = np.random.default_rng(23)
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        inv = linalg.inverse(a)
        assert inv.shape == a.shape
        eye = np.eye(shape[-1])
        for block, got in zip(a.reshape((-1,) + shape[-2:]), inv.reshape((-1,) + shape[-2:])):
            ref = scipy.linalg.lu_solve(scipy.linalg.lu_factor(block), eye)
            assert helpers.same_bits(got, ref)
            assert got.flags.f_contiguous
        assert inv.ndim == 3 or inv.flags.f_contiguous

    def test_exactly_singular_and_empty(self):
        with pytest.raises(SingularMatrixError, match="exactly singular") as err:
            linalg.inverse(np.zeros((3, 3), dtype=complex))
        assert err.value.cond == float("inf")
        blocks = np.stack([np.eye(3), np.diag([1.0, 0.0, 2.0])]).astype(complex)
        with pytest.raises(SingularMatrixError, match="exactly singular") as err:
            linalg.inverse(blocks)
        assert err.value.cond == float("inf")
        assert linalg.cond_estimate(np.ones((2, 2))) == float("inf")
        inv, cond = linalg.inverse_with_cond(np.zeros((0, 0)))
        assert inv.shape == (0, 0) and cond == 1.0
        inv, cond = linalg.inverse_with_cond(np.zeros((0, 3, 3)))
        assert inv.shape == (0, 3, 3) and cond == 1.0


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
    # skew_defect(a) is the positivity defect of the skew part of a
    def test_identity(self):
        assert linalg.skew_defect(1j * np.eye(3, dtype=complex)) == 0.0

    def test_indefinite_diagonal(self):
        assert linalg.skew_defect(1j * np.diag([1.0, -0.5])) == pytest.approx(0.5)

    def test_sandwiched_resolvent_skew_part(self, well_small):
        # off-axis resolvent sandwich has positive semidefinite skew part
        z = 2.5 - (0.02 - 0.02j) ** 2
        n_used, _ = birman._truncation(well_small, z, 0.1)
        assert linalg.skew_defect(birman.bs_operator(well_small, z, n_used)) <= 1e-12


class TestProjectionType:
    def test_idempotence_enforced(self):
        with pytest.raises(AccuracyError):
            linalg.Projection(np.array([[0.5]], dtype=complex))

    def test_rank_counts_trace(self):
        p = linalg.identity_projection(4)
        assert p.rank == 4
