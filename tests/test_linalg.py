import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, cho_solve_banded, cholesky_banded

from iwskill.linalg import BlockTridiagCholesky


def block_tridiag_dense(diag, off):
    """Oracle: the full symmetric matrix of the blocks, off[i] at block
    (i+1, i) and its transpose at (i, i+1)."""
    d = diag.shape[1]
    dense = block_diag(*diag)
    for i, block in enumerate(off):
        dense[(i + 1) * d:(i + 2) * d, i * d:(i + 1) * d] = block
        dense[i * d:(i + 1) * d, (i + 1) * d:(i + 2) * d] = block.T
    return dense


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
        dense = block_tridiag_dense(diag, off)
        residual = dense @ x - b
        cond = np.linalg.cond(dense)
        assert np.abs(residual).max() <= 1e-13 * cond * max(1.0, np.abs(b).max())


def lower_band(dense, d):
    """The (2d, N) lower band of a dense matrix, A[i, j] at band[i - j, j],
    read off its diagonals: the layout scipy's banded routines take."""
    band = np.zeros((2 * d, len(dense)))
    for k in range(min(2 * d, len(dense))):
        band[k, :len(dense) - k] = np.diagonal(dense, -k)
    return band


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestScipyOracle:
    """LAPACK's dpbtrf and dpbtrs are called directly; scipy's wrappers of
    the same two routines, fed a band read off the dense matrix, must give
    the same bits."""

    @pytest.mark.parametrize("d", range(1, 7))
    def test_factor_and_solves_bit_equal(self, d):
        rng = np.random.default_rng(d)
        diag, off = random_spd_system(rng, 200, d)
        dense = block_tridiag_dense(diag, off)
        for n in range(1, 201):  # the leading n blocks: a principal submatrix, so SPD
            chol = BlockTridiagCholesky(diag[:n], off[:n - 1])
            factor = cholesky_banded(lower_band(dense[:n * d, :n * d], d), lower=True)
            assert same_bits(chol.band, factor), n
            for b in (rng.normal(size=n * d), rng.normal(size=(n * d, 3))):
                assert same_bits(chol.solve(b), cho_solve_banded((factor, True), b)), (n, b.shape)


class TestFailures:
    @pytest.mark.parametrize("block", [0, 3, 6])
    def test_indefinite_block(self, block):
        diag, off = random_spd_system(np.random.default_rng(block), 7, 3)
        diag[block, 1, 1] = -1.0
        with pytest.raises(np.linalg.LinAlgError) as info:
            BlockTridiagCholesky(diag, off)
        minor = 3 * block + 2  # the negative pivot's row, counted from 1
        assert str(info.value) == (f"block-tridiagonal matrix (7 blocks of size 3) not positive "
                                   f"definite: {minor}-th leading minor not positive definite")

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
