"""Batch estimation of time-varying linear stochastic skill dynamics.

For every interval i the model x_{i+1} = Phi x_i + u + w, w ~ N(0, Q) is
fit across demonstrations by importance-weighted ridge regression on the
augmented inputs [1; x_i], giving one (Phi_tilde, Q) pair per interval.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .demos import DemoSet
from .utils import read_json, write_json


class SingularSystemError(RuntimeError):
    """Unregularized normal equations are rank deficient."""


class DegenerateWeightsWarning(UserWarning):
    """Effective sample size too small for a noise estimate; Q floored."""


@dataclass(frozen=True)
class StepData:
    """One interval's regression problem: augmented inputs (D+1, K), targets
    (D, K), and the diagonal of the importance weight matrix (K,)."""

    inputs: np.ndarray
    targets: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        x, y, w = (np.asarray(a, dtype=float) for a in (self.inputs, self.targets, self.weights))
        if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
            raise ValueError("inputs and targets must share the demonstration count K")
        if x.shape[0] != y.shape[0] + 1:
            raise ValueError("inputs must be targets augmented by a leading 1-row")
        if w.shape != (x.shape[1],) or np.any(w <= 0):
            raise ValueError("need one strictly positive weight per demonstration")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets", y)
        object.__setattr__(self, "weights", w)

    @property
    def k(self) -> int:
        return self.inputs.shape[1]

    @property
    def dim(self) -> int:
        return self.targets.shape[0]


@dataclass(frozen=True)
class SkillStepModel:
    """One interval of the learned dynamics: Phi_tilde = [u | Phi] and the
    process noise covariance Q (symmetric PSD)."""

    Phi_tilde: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.Phi_tilde, dtype=float)
        q = np.asarray(self.Q, dtype=float)
        d = phi.shape[0]
        if phi.shape != (d, d + 1):
            raise ValueError("Phi_tilde must be D x (D+1)")
        if q.shape != (d, d) or not np.allclose(q, q.T, atol=1e-9):
            raise ValueError("Q must be D x D symmetric")
        object.__setattr__(self, "Phi_tilde", phi)
        object.__setattr__(self, "Q", q)

    @property
    def bias(self) -> np.ndarray:
        return self.Phi_tilde[:, 0]

    @property
    def transition(self) -> np.ndarray:
        return self.Phi_tilde[:, 1:]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.Phi_tilde @ np.concatenate([[1.0], x])


@dataclass(frozen=True)
class SkillModel:
    """N per-interval step models on a shared grid."""

    steps: list
    dt: float
    dim: int = field(default=0)

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a SkillModel needs at least one step")
        d = self.steps[0].Phi_tilde.shape[0]
        for i, step in enumerate(self.steps):
            if step.Phi_tilde.shape[0] != d:
                raise ValueError(f"step {i} dimension mismatch")
        if self.dim == 0:
            object.__setattr__(self, "dim", d)
        elif self.dim != d:
            raise ValueError("declared dim disagrees with step matrices")

    @property
    def n_steps(self) -> int:
        return len(self.steps)


def assemble_step_data(demos: DemoSet, weights: list, i: int) -> StepData:
    """Collect interval i across demos: column k is demo k's transition,
    weighted by its input-node weight w(x_i^k)."""
    if not 0 <= i < demos.n_steps:
        raise ValueError(f"step index {i} out of range for N={demos.n_steps}")
    x_in = np.stack([traj.states[i] for traj in demos.demos], axis=1)
    x_out = np.stack([traj.states[i + 1] for traj in demos.demos], axis=1)
    ones = np.ones((1, demos.k))
    w = np.array([weights[k][i] for k in range(demos.k)], dtype=float)
    return StepData(inputs=np.vstack([ones, x_in]), targets=x_out, weights=w)


def default_ridge(data: StepData) -> float:
    """Scale-aware near-zero ridge: 1e-10 * tr(X W X^T) / (D+1)."""
    gram_trace = float(np.sum(data.weights * np.sum(data.inputs ** 2, axis=0)))
    return 1e-10 * gram_trace / data.inputs.shape[0]


def effective_sample_size(weights: np.ndarray) -> float:
    """Normalizer z = (tr(W)^2 - tr(W^T W)) / tr(W) for the noise estimate.

    Equals K - 1 for K unit weights and collapses to 0 when one weight
    dominates or only a single demonstration is present.
    """
    w = np.asarray(weights, dtype=float)
    s1 = float(np.sum(w))
    s2 = float(np.sum(w * w))
    return (s1 * s1 - s2) / s1


def batch_estimate_step(data: StepData, lam: float | None = None,
                        q_min: float = 1e-6) -> SkillStepModel:
    """Weighted ridge regression for one interval.

    Phi_tilde minimizes the weighted squared prediction error plus
    lam * ||Phi_tilde||_F^2 (the penalty covers the bias column too). The
    noise covariance is the weighted residual outer product normalized by
    z = (tr(W)^2 - tr(W^T W)) / tr(W); when z is not meaningfully positive
    (a single demo, or one dominant weight) Q falls back to q_min * I and a
    DegenerateWeightsWarning is issued.
    """
    if lam is None:
        lam = default_ridge(data)
    if lam < 0:
        raise ValueError("ridge coefficient must be >= 0")
    x, y, w = data.inputs, data.targets, data.weights
    gram = (x * w) @ x.T + lam * np.eye(x.shape[0])
    cross = (y * w) @ x.T
    try:
        factor = cho_factor(gram)
        pivots = np.diag(factor[0])
        if lam == 0 and pivots.min() <= 1e-13 * pivots.max():
            raise np.linalg.LinAlgError("rank-deficient pivot")
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"normal equations singular (lam={lam}); K={data.k} demonstrations "
            f"cannot determine a {data.dim}x{data.dim + 1} map") from exc
    phi = cho_solve(factor, cross.T).T

    residuals = y - phi @ x
    z = effective_sample_size(w)
    if z <= 1e-12:
        warnings.warn(
            f"effective sample size degenerate (z={z:.3e}); flooring Q at {q_min}*I",
            DegenerateWeightsWarning, stacklevel=2)
        q = q_min * np.eye(data.dim)
    else:
        q = (residuals * w) @ residuals.T / z
        q = (q + q.T) / 2.0
    return SkillStepModel(Phi_tilde=phi, Q=q)


def learn_batch_weighted(demos: DemoSet, weights: list, lam: float | None = None,
                         q_min: float = 1e-6) -> SkillModel:
    """Per-interval batch estimation given precomputed per-demo node weights."""
    steps = []
    for i in range(demos.n_steps):
        data = assemble_step_data(demos, weights, i)
        try:
            steps.append(batch_estimate_step(data, lam, q_min=q_min))
        except SingularSystemError as exc:
            raise SingularSystemError(f"interval {i}: {exc}") from exc
    return SkillModel(steps=steps, dt=demos.dt, dim=demos.dim)


def model_to_dict(model: SkillModel) -> dict:
    return {
        "dt": model.dt,
        "D": model.dim,
        "steps": [{"Phi_tilde": s.Phi_tilde.tolist(), "Q": s.Q.tolist()} for s in model.steps],
    }


def model_from_dict(data: dict) -> SkillModel:
    steps = [SkillStepModel(Phi_tilde=np.asarray(s["Phi_tilde"], dtype=float),
                            Q=np.asarray(s["Q"], dtype=float)) for s in data["steps"]]
    return SkillModel(steps=steps, dt=float(data["dt"]), dim=int(data["D"]))


def save_model(path: str, model: SkillModel) -> None:
    write_json(path, model_to_dict(model))


def load_model(path: str) -> SkillModel:
    return model_from_dict(read_json(path))
