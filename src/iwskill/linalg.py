"""Symmetric block-tridiagonal matrices: Cholesky factorization and solves.

A symmetric block-tridiagonal matrix over n blocks of size d is stored as
    diag: (n, d, d)   diagonal blocks
    off:  (n-1, d, d) sub-diagonal blocks, off[i] = block (i+1, i)
The upper triangle is implied by symmetry. As a banded matrix its lower
bandwidth is 2d - 1, so LAPACK's banded Cholesky factors and solves it in
O(n d^3) without materializing the full matrix.
"""

from functools import lru_cache

import numpy as np
from scipy.linalg import block_diag, cho_solve_banded, cholesky_banded


@lru_cache(maxsize=16)
def _band_index(n: int, d: int) -> tuple:
    """(rows, cols, band_rows, band_cols) placing diag[:, rows, cols], the
    diagonal blocks' lower triangles, in the (2d, n*d) lower band that holds
    A[i, j] at band[i - j, j]; then the same four for off[:, rows, cols].
    Shared by every caller with this (n, d), so read-only."""
    r, c = np.tril_indices(d)
    ro, co = np.indices((d, d)).reshape(2, -1)
    starts = np.arange(n)[:, None] * d
    index = (r, c, r - c, starts + c, ro, co, d + ro - co, starts[:-1] + co)
    for a in index:
        a.flags.writeable = False
    return index


class BlockTridiagCholesky:
    """Banded lower Cholesky factor L with A = L L^T.

    Raises np.linalg.LinAlgError, naming the failure, if A is not positive
    definite or holds a NaN or an infinity.
    """

    def __init__(self, diag: np.ndarray, off: np.ndarray | None):
        n, d, _ = diag.shape
        r, c, band_r, band_c, ro, co, off_r, off_c = _band_index(n, d)
        band = np.zeros((2 * d, n * d), order="F")
        band[band_r, band_c] = diag[:, r, c]
        if n > 1:
            band[off_r, off_c] = off[:, ro, co]
        what = f"block-tridiagonal matrix ({n} blocks of size {d})"
        if not np.isfinite(band).all():
            raise np.linalg.LinAlgError(f"{what} has a NaN or infinite entry")
        try:
            self.band = cholesky_banded(band, overwrite_ab=True, lower=True,
                                        check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(f"{what} not positive definite: {exc}") from exc

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b for b of shape (n*d,) or (n*d, m)."""
        if not np.isfinite(b).all():
            raise np.linalg.LinAlgError("right-hand side has a NaN or infinite entry")
        return cho_solve_banded((self.band, True), b, check_finite=False)


def block_tridiag_dense(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Materialize the full symmetric matrix (debugging / small n only)."""
    d = diag.shape[1]
    A = block_diag(*diag)
    for i in range(len(off)):
        A[(i + 1) * d:(i + 2) * d, i * d:(i + 1) * d] = off[i]
        A[i * d:(i + 1) * d, (i + 1) * d:(i + 2) * d] = off[i].T
    return A


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix, or of each matrix of a stack
    (..., d, d), tolerant of zero or slightly negative eigenvalues from
    roundoff (clipped at zero)."""
    w, v = np.linalg.eigh(mat / 2.0 + np.swapaxes(mat, -1, -2) / 2.0)  # halves: no overflow
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2)
