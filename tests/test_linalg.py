import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwskill.linalg import BlockTridiagCholesky, block_tridiag_dense, block_tridiag_matvec


def random_spd_system(rng, n, d):
    """Random symmetric positive definite blocks: each diagonal block's
    smallest eigenvalue exceeds 1 plus the spectral norms of its two
    neighbouring off-diagonal blocks, so A is well conditioned."""
    off = rng.normal(size=(n - 1, d, d))
    norms = np.linalg.norm(off, ord=2, axis=(1, 2)) if n > 1 else np.zeros(0)
    reach = 1.0 + np.concatenate([[0.0], norms]) + np.concatenate([norms, [0.0]])
    s = rng.normal(size=(n, d, d))
    diag = s @ s.transpose(0, 2, 1) + reach[:, None, None] * np.eye(d)
    return diag, off


class TestSolve:
    @pytest.mark.parametrize("n", [1, 2, 61, 201])
    @pytest.mark.parametrize("d", [1, 2, 4, 6])
    def test_matches_dense_solve(self, n, d):
        rng = np.random.default_rng(100 * n + d)
        diag, off = random_spd_system(rng, n, d)
        dense = block_tridiag_dense(diag, off)
        chol = BlockTridiagCholesky(diag, off)
        b = rng.normal(size=(n * d, 3))
        expected = np.linalg.solve(dense, b)
        scale = np.abs(expected).max()
        vec = chol.solve(b[:, 0])
        mat = chol.solve(b)
        assert vec.shape == (n * d,) and mat.shape == (n * d, 3)
        np.testing.assert_allclose(vec, expected[:, 0], rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(mat, expected, rtol=0, atol=1e-12 * scale)

    def test_solve_leaves_rhs_untouched(self):
        diag, off = random_spd_system(np.random.default_rng(0), 5, 2)
        b = np.arange(10.0)
        BlockTridiagCholesky(diag, off).solve(b)
        np.testing.assert_array_equal(b, np.arange(10.0))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 40), d=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
    def test_residual_is_roundoff(self, n, d, seed):
        rng = np.random.default_rng(seed)
        diag, off = random_spd_system(rng, n, d)
        b = rng.normal(size=n * d)
        x = BlockTridiagCholesky(diag, off).solve(b)
        residual = block_tridiag_matvec(diag, off, x) - b
        cond = np.linalg.cond(block_tridiag_dense(diag, off))
        assert np.abs(residual).max() <= 1e-13 * cond * max(1.0, np.abs(b).max())


class TestFailures:
    @pytest.mark.parametrize("block", [0, 3, 6])
    def test_indefinite_block(self, block):
        diag, off = random_spd_system(np.random.default_rng(block), 7, 3)
        diag[block, 1, 1] = -1.0
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            BlockTridiagCholesky(diag, off)

    @pytest.mark.parametrize("where", ["diag", "off"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_matrix(self, where, value):
        diag, off = random_spd_system(np.random.default_rng(2), 5, 2)
        (diag if where == "diag" else off)[2, 1, 0] = value
        with pytest.raises(np.linalg.LinAlgError, match="NaN or infinite"):
            BlockTridiagCholesky(diag, off)

    def test_non_finite_rhs(self):
        diag, off = random_spd_system(np.random.default_rng(3), 4, 2)
        b = np.ones(8)
        b[5] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="right-hand side"):
            BlockTridiagCholesky(diag, off).solve(b)
