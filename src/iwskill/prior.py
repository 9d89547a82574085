"""Gaussian trajectory priors induced by the learned stochastic dynamics.

Rolling the per-interval linear-Gaussian dynamics forward from an initial
state Gaussian gives marginal moments; the joint distribution over the whole
stacked trajectory is kept in information form, whose precision is exactly
block tridiagonal thanks to the Markov structure.
"""

from dataclasses import dataclass

import numpy as np

from .batch import SkillModel
from .demos import DemoSet, StateTrajectory
from .linalg import block_tridiag_dense, psd_sqrt
from .utils import csv_text

_JITTER = 1e-10


@dataclass(frozen=True)
class GaussianState:
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        d = mean.shape[0]
        if cov.shape != (d, d) or not np.allclose(cov, cov.T, atol=1e-9):
            raise ValueError("covariance must be a symmetric D x D matrix")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def initial_state_distribution(demos: DemoSet) -> GaussianState:
    """Gaussian over the demonstrations' start states (population moments,
    regularized by 1e-8 I so single-demo sets stay usable)."""
    starts = np.stack([traj.states[0] for traj in demos.demos])
    mean = starts.mean(axis=0)
    centered = starts - mean
    cov = centered.T @ centered / starts.shape[0] + 1e-8 * np.eye(demos.dim)
    return GaussianState(mean=mean, cov=cov)


def _moment_arrays(model: SkillModel, init: GaussianState) -> tuple:
    """Marginal means (N+1, D) and covariances (N+1, D, D) of every node:
    mu' = Phi mu + u, P' = Phi P Phi^T + Q, propagated interval by interval.
    Raises FloatingPointError naming the first node whose moments overflow."""
    if init.mean.shape[0] != model.dim:
        raise ValueError(f"initial state dimension {init.mean.shape[0]} != model dim {model.dim}")
    means = np.empty((model.n_steps + 1, model.dim))
    covs = np.empty((model.n_steps + 1, model.dim, model.dim))
    means[0], covs[0] = init.mean, init.cov
    phi_tilde, phi, q = model.Phi_tilde, model.transition, model.Q
    for i in range(model.n_steps):
        means[i + 1] = phi_tilde[i] @ np.concatenate(([1.0], means[i]))
        cov = phi[i] @ covs[i] @ phi[i].T + q[i]
        covs[i + 1] = (cov + cov.T) / 2.0
    finite = np.isfinite(means).all(axis=1) & np.isfinite(covs).all(axis=(1, 2))
    if not finite.all():
        raise FloatingPointError(f"prior moments overflow at node {np.argmin(finite)} of "
                                 f"{model.n_steps}: the learned dynamics diverge")
    return means, covs


class GaussianTrajectoryPrior:
    """Joint Gaussian over the stacked trajectory.

    Stores marginal moments, their per-component standard deviations `stds`
    (N+1, D), and the block-tridiagonal precision (diagonal blocks
    `prec_diag`, sub-diagonal blocks `prec_off`); the dense joint covariance
    is only materialized on request for small problems.
    """

    def __init__(self, model: SkillModel, init: GaussianState):
        self.model = model
        self.init = init
        self.dt = model.dt
        self.dim = model.dim
        self.n_steps = model.n_steps
        self.means, self.covs = _moment_arrays(model, init)
        self.stds = np.sqrt(np.clip(np.diagonal(self.covs, axis1=1, axis2=2), 0.0, None))
        # Information form of the Markov chain: `info` stacks P_0^-1 and each Q_i^-1.
        # Interval i adds Phi_i^T Q_i^-1 Phi_i to block (i, i), Q_i^-1 to block (i+1, i+1)
        # and -Q_i^-1 Phi_i to block (i+1, i); the start adds P_0^-1 to block 0.
        phi = np.ascontiguousarray(model.transition)
        covs = np.concatenate([init.cov[None], model.Q])
        self.info = np.linalg.inv(covs + _JITTER * np.eye(self.dim))
        q_inv = self.info[1:]
        self.prec_diag = self.info.copy()
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

    def quad_form(self, x: np.ndarray) -> float:
        """(x - mu)^T K^{-1} (x - mu) summed as e^T info e over the residuals,
        which avoids the cancellation between the large entries of K^{-1}."""
        e = self._residuals(x)
        return float(np.einsum("ni,nij,nj->", e, self.info, e))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """K^{-1} (x - mu), the gradient of quad_form(x) / 2, from the same
        residuals: node i gets info_i e_i - Phi_i^T info_{i+1} e_{i+1}."""
        w = np.einsum("nij,nj->ni", self.info, self._residuals(x))
        w[:-1] -= np.einsum("nji,nj->ni", self.model.transition, w[1:])
        return w.reshape(-1)

    def dense_precision(self) -> np.ndarray:
        return block_tridiag_dense(self.prec_diag, self.prec_off)

    def dense_covariance(self) -> np.ndarray:
        """Full (N+1)D joint covariance from the Markov cross-covariance
        recursion. Debug path, refused for large N."""
        if self.n_steps > 50:
            raise ValueError("dense covariance is a debug path, limited to N <= 50")
        n = self.n_steps
        blocks = [[None] * (n + 1) for _ in range(n + 1)]
        for j in range(n + 1):
            blocks[j][j] = self.covs[j]
            for i in range(j + 1, n + 1):
                blocks[i][j] = self.model.transition[i - 1] @ blocks[i - 1][j]
                blocks[j][i] = blocks[i][j].T
        return np.block(blocks)


def sample_trajectories(prior: GaussianTrajectoryPrior, n: int, seed: int) -> list:
    """Draw n trajectories by forward-simulating the stochastic dynamics.
    Deterministic for a fixed seed."""
    if n < 1:
        raise ValueError("need n >= 1 samples")
    rng = np.random.default_rng(seed)
    d = prior.dim
    sqrt0 = psd_sqrt(prior.init.cov)
    state = prior.init.mean + rng.standard_normal((n, d)) @ sqrt0.T
    nodes = [state]
    model = prior.model
    sqrt_q = psd_sqrt(model.Q)
    for i in range(model.n_steps):
        noise = rng.standard_normal((n, d)) @ sqrt_q[i].T
        state = state @ model.transition[i].T + model.bias[i] + noise
        nodes.append(state)
    stacked = np.stack(nodes, axis=1)  # (n, N+1, D)
    return [StateTrajectory(dt=prior.dt, states=stacked[s]) for s in range(n)]


def prior_band_csv(prior: GaussianTrajectoryPrior) -> str:
    """CSV rows `t, mean_1..mean_D, std_1..std_D` for mean +/- one-sigma plots."""
    d = prior.dim
    header = ["t"] + [f"mean_{j + 1}" for j in range(d)] + [f"std_{j + 1}" for j in range(d)]
    return csv_text(header, np.column_stack([prior.times, prior.means, prior.stds]))
