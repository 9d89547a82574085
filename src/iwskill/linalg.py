"""Symmetric block-tridiagonal matrices: Cholesky factorization and solves.

A symmetric block-tridiagonal matrix over n blocks of size d is stored as
    diag: (n, d, d)   diagonal blocks
    off:  (n-1, d, d) sub-diagonal blocks, off[i] = block (i+1, i)
The upper triangle is implied by symmetry. As a banded matrix its lower
bandwidth is 2d - 1, so LAPACK's banded Cholesky (dpbtrf, then dpbtrs for
the solves) factors and solves it in O(n d^3) without materializing the
full matrix.
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import get_lapack_funcs

# Called directly: scipy's cholesky_banded and cho_solve_banded wrappers add
# their checks and batching around the same two routines.
_PBTRF, _PBTRS = get_lapack_funcs(("pbtrf", "pbtrs"), (np.empty(0),))


class BlockTridiagCholesky:
    """Banded lower Cholesky factor L with A = L L^T.

    Raises np.linalg.LinAlgError, naming the failure, if A is not positive
    definite or holds a NaN or an infinity.
    """

    def __init__(self, diag: np.ndarray, off: np.ndarray):
        n, d, _ = diag.shape
        # Block column i of A on and below the diagonal: diag[i], off[i] (none for
        # the last) and d zero rows. Band column i*d + c, which holds A[r, i*d + c]
        # at row r - i*d - c, reads cols[i, c:c + 2d, c], a walk down its diagonal.
        cols = np.zeros((n, 3 * d, d))
        cols[:, :d] = diag
        cols[:-1, d:2 * d] = off
        s0, s1, s2 = cols.strides
        walk = as_strided(cols, (n, d, 2 * d), (s0, s1 + s2, s1))
        band = np.ascontiguousarray(walk).reshape(n * d, 2 * d).T  # (2d, n*d), Fortran order
        what = f"block-tridiagonal matrix ({n} blocks of size {d})"
        if not np.isfinite(band).all():
            raise np.linalg.LinAlgError(f"{what} has a NaN or infinite entry")
        self.band, info = _PBTRF(band, lower=1, overwrite_ab=1)
        if info > 0:
            raise np.linalg.LinAlgError(f"{what} not positive definite: "
                                        f"{info}-th leading minor not positive definite")

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b for b of shape (n*d,) or (n*d, m)."""
        if not np.isfinite(b).all():
            raise np.linalg.LinAlgError("right-hand side has a NaN or infinite entry")
        return _PBTRS(self.band, b, lower=1)[0]


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix, or of each matrix of a stack
    (..., d, d), tolerant of zero or slightly negative eigenvalues from
    roundoff (clipped at zero)."""
    w, v = np.linalg.eigh(mat / 2.0 + np.swapaxes(mat, -1, -2) / 2.0)  # halves: no overflow
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2)
