"""Gaussian trajectory priors induced by the learned stochastic dynamics.

Rolling the per-interval linear-Gaussian dynamics forward from the model's
start-state Gaussian gives marginal moments; the joint distribution over the whole
stacked trajectory is kept in information form, whose precision is exactly
block tridiagonal thanks to the Markov structure.
"""

import numpy as np

from .batch import SkillModel, start_moments
from .demos import DemoSet
from .linalg import psd_sqrt
from .utils import csv_text

_JITTER = 1e-10


def initial_state_distribution(demos: DemoSet) -> tuple:
    """(mean, cov) of the demos' start states, as learning stores them."""
    return start_moments(np.stack([traj.states[0] for traj in demos.demos]))


class GaussianTrajectoryPrior:
    """Joint Gaussian over the stacked trajectory, started from the model's
    start moments or from `init`, a (mean, cov) pair.

    Stores the marginal moments of every node, `means` (N+1, D) and `covs`
    (N+1, D, D), their per-component standard deviations `stds` (N+1, D),
    and the block-tridiagonal precision (diagonal blocks `prec_diag`,
    sub-diagonal blocks `prec_off`). Raises FloatingPointError naming the
    first node whose moments overflow.
    """

    def __init__(self, model: SkillModel, init: tuple | None = None):
        self.model, self.dt, self.dim, self.n_steps = model, model.dt, model.dim, model.n_steps
        mean, cov = (np.asarray(a, dtype=float) for a in init or (model.init_mean, model.init_cov))
        if mean.shape != (self.dim,) or cov.shape != (self.dim, self.dim):
            raise ValueError(f"start state of shapes {mean.shape} and {cov.shape} does not fit "
                             f"the model dimension {self.dim}")
        # P_0 and each Q_i: the start and interval covariances of the chain and of `info`
        noise = np.concatenate([cov[None], model.Q])
        self.means, self.covs = np.concatenate([mean[None], model.bias]), noise.copy()
        phi = np.ascontiguousarray(model.transition)
        with np.errstate(over="ignore", invalid="ignore"):  # the check below names the node
            _scan_chain(phi, self.means[:, None], self.covs)
            self.covs[1:] = (self.covs[1:] + self.covs[1:].transpose(0, 2, 1)) / 2.0
        finite = np.isfinite(self.means).all(axis=1) & np.isfinite(self.covs).all(axis=(1, 2))
        if not finite.all():
            raise FloatingPointError(f"prior moments overflow at node {np.argmin(finite)} of "
                                     f"{self.n_steps}: the learned dynamics diverge")
        self.stds = np.sqrt(np.clip(np.diagonal(self.covs, axis1=1, axis2=2), 0.0, None))
        # Information form of the Markov chain: `info` stacks P_0^-1 and each Q_i^-1.
        # Interval i adds Phi_i^T Q_i^-1 Phi_i to block (i, i), Q_i^-1 to block (i+1, i+1)
        # and -Q_i^-1 Phi_i to block (i+1, i); the start adds P_0^-1 to block 0.
        self.info = np.linalg.inv(noise + _JITTER * np.eye(self.dim))
        q_inv, self.prec_diag = self.info[1:], self.info.copy()
        self.prec_diag[:-1] += phi.transpose(0, 2, 1) @ q_inv @ phi
        self.prec_off = -q_inv @ phi

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)

    @property
    def stacked_mean(self) -> np.ndarray:
        return self.means.reshape(-1)

    def _residuals(self, x: np.ndarray) -> np.ndarray:
        """The start offset x_0 - mu_0 and each interval's dynamics residual
        x_{i+1} - Phi_i x_i - u_i, stacked (N+1, D): `info` weighs each one."""
        s = np.asarray(x, dtype=float).reshape(-1, self.dim)
        return np.concatenate([s[:1] - self.means[:1], s[1:] - self.model.bias
                               - np.einsum("nij,nj->ni", self.model.transition, s[:-1])])

    def quad_form(self, x: np.ndarray) -> tuple:
        """(x - mu)^T K^{-1} (x - mu), summed as e^T info e over the residuals
        (which avoids the cancellation between the large entries of K^{-1}),
        and K^{-1} (x - mu), half its gradient, from the same residuals: node i
        gets info_i e_i - Phi_i^T info_{i+1} e_{i+1}."""
        e = self._residuals(x)
        w = np.einsum("nij,nj->ni", self.info, e)
        w[:-1] -= np.einsum("nji,nj->ni", self.model.transition, w[1:])
        return float(np.einsum("ni,nij,nj->", e, self.info, e)), w.reshape(-1)

    def dense_precision(self) -> np.ndarray:
        """The full symmetric precision matrix, for small problems and checks."""
        n, d = self.prec_diag.shape[:2]
        dense, i = np.zeros((n, d, n, d)), np.arange(n)
        dense[i, :, i] = self.prec_diag
        dense[i[1:], :, i[:-1]] = self.prec_off
        dense[i[:-1], :, i[1:]] = self.prec_off.transpose(0, 2, 1)
        return dense.reshape(n * d, n * d)


def _scan_chain(phi: np.ndarray, x: np.ndarray, cov: np.ndarray | None = None) -> None:
    """The chain x_{i+1} = Phi_i x_i + x[i+1] from x_0 = x[0] over x (N+1, m, D),
    m points a node, and given cov (N+1, D, D), P_{i+1} = Phi_i P_i Phi_i^T +
    cov[i+1] from P_0 = cov[0], written in place by a Hillis-Steele inclusive
    scan of the affine maps (A, b, C): row 0 maps to (x[0], cov[0]), row i+1 is
    (Phi_i, x[i+1], cov[i+1]), and (A1, b1, C1) then (A2, b2, C2) is (A2 A1,
    A2 b1 + b2, A2 C1 A2^T + C2). After offset k, row j holds rows j-2k+1..j
    composed: ceil(log2(N+1)) batched steps. Points are rows, so each A is kept
    transposed, and dropped once its row's maps reach row 0."""
    a_t, k = phi.transpose(0, 2, 1).copy(), 1  # a_t[j - 1] is row j's A^T
    while k < len(x):
        if cov is not None:  # (C A^T)^T A^T, which is A C A^T for a symmetric C
            cov[k:] += (cov[:-k] @ a_t[k - 1:]).transpose(0, 2, 1) @ a_t[k - 1:]
        x[k:] += x[:-k] @ a_t[k - 1:]
        a_t[2 * k - 1:] = a_t[k - 1:-k] @ a_t[2 * k - 1:]
        k *= 2


def sample_trajectories(prior: GaussianTrajectoryPrior, n: int, seed: int) -> np.ndarray:
    """Draw n trajectories (n, N+1, D) of the stochastic dynamics: one scan of
    the chain whose offsets carry each draw's noise. Deterministic for a fixed
    seed; the draws are those of a node-by-node simulation, start first."""
    if n < 1:
        raise ValueError("need n >= 1 samples")
    model = prior.model
    draws = np.random.default_rng(seed).standard_normal((model.n_steps + 1, n, prior.dim))
    x = draws @ psd_sqrt(np.concatenate([prior.covs[:1], model.Q])).transpose(0, 2, 1)
    x += np.concatenate([prior.means[:1], model.bias])[:, None]
    _scan_chain(model.transition, x)
    return x.transpose(1, 0, 2)


def prior_band_csv(prior: GaussianTrajectoryPrior) -> str:
    """CSV rows `t, mean_1..mean_D, std_1..std_D` for mean +/- one-sigma plots."""
    d = prior.dim
    header = ["t"] + [f"mean_{j + 1}" for j in range(d)] + [f"std_{j + 1}" for j in range(d)]
    return csv_text(header, np.column_stack([prior.times, prior.means, prior.stds]))
