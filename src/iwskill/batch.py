"""Batch estimation of time-varying linear stochastic skill dynamics.

For every interval i the model x_{i+1} = Phi x_i + u + w, w ~ N(0, Q) is
fit across demonstrations by importance-weighted ridge regression on the
augmented inputs [1; x_i], giving one (Phi_tilde, Q) pair per interval. The
N pairs are kept as two stacked arrays and fit in one pass.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .demos import DemoSet
from .utils import read_json, stack_field, write_json

# Q of an interval whose effective sample size is degenerate.
Q_MIN = 1e-6


class SingularSystemError(RuntimeError):
    """An interval's linear system is not finite or not positive definite."""


class DegenerateWeightsWarning(UserWarning):
    """Effective sample size too small for a noise estimate; Q floored."""


@dataclass(frozen=True)
class SkillModel:
    """N intervals of learned dynamics on a shared grid of step dt:
    Phi_tilde (N, D, D+1), each [u | Phi], and the symmetric process noise
    covariances Q (N, D, D)."""

    Phi_tilde: np.ndarray
    Q: np.ndarray
    dt: float

    def __post_init__(self):
        phi = np.ascontiguousarray(self.Phi_tilde, dtype=float)
        q = np.ascontiguousarray(self.Q, dtype=float)
        n, d = phi.shape[:2] if phi.ndim == 3 else (0, 0)
        if n == 0 or phi.shape != (n, d, d + 1) or q.shape != (n, d, d):
            raise ValueError(f"need Phi_tilde (N, D, D+1) and Q (N, D, D) with N >= 1, "
                             f"got {phi.shape} and {q.shape}")
        if not np.allclose(q, q.transpose(0, 2, 1), atol=1e-9):
            raise ValueError("Q must be symmetric")
        object.__setattr__(self, "Phi_tilde", phi)
        object.__setattr__(self, "Q", q)

    @property
    def n_steps(self) -> int:
        return self.Phi_tilde.shape[0]

    @property
    def dim(self) -> int:
        return self.Phi_tilde.shape[1]

    @property
    def bias(self) -> np.ndarray:
        return self.Phi_tilde[:, :, 0]

    @property
    def transition(self) -> np.ndarray:
        return self.Phi_tilde[:, :, 1:]


def solve_intervals(a: np.ndarray, b: np.ndarray, what: str,
                    rank_tol: float = 0.0) -> np.ndarray:
    """x[i] with x[i] a[i] = b[i] for SPD a (N, n, n) and b (N, m, n), by one
    Cholesky factor per interval. Raises SingularSystemError naming the first
    interval whose system is not finite, or the interval and `what` when a[i]
    is not positive definite or its smallest Cholesky pivot is at most
    rank_tol times its largest."""
    finite = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(b).all(axis=(1, 2))
    if not finite.all():
        raise SingularSystemError(f"interval {np.argmin(finite)}: system not finite (overflow)")
    x = np.empty(b.shape)
    for i in range(a.shape[0]):
        try:
            factor = cho_factor(a[i])
            pivots = np.diag(factor[0])
            if pivots.min() <= rank_tol * pivots.max():
                raise np.linalg.LinAlgError("rank-deficient pivot")
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"interval {i}: {what}") from exc
        x[i] = cho_solve(factor, b[i].T).T
    return x


def effective_sample_size(weights: np.ndarray) -> np.ndarray:
    """Normalizer z = (tr(W)^2 - tr(W^T W)) / tr(W) for the noise estimate,
    over the last axis of `weights`.

    Equals K - 1 for K unit weights and collapses to 0 when one weight
    dominates or only a single demonstration is present.
    """
    w = np.asarray(weights, dtype=float)
    s1 = np.sum(w, axis=-1)
    s2 = np.sum(w * w, axis=-1)
    return (s1 * s1 - s2) / s1


def fit_intervals(inputs: np.ndarray, targets: np.ndarray, weights: np.ndarray,
                  lam: float | None = None) -> tuple:
    """Weighted ridge regression of every interval: (Phi_tilde, Q) stacks
    from inputs (N, D+1, K) augmented by a leading 1-row, targets (N, D, K)
    and strictly positive weights (N, K).

    Phi_tilde[i] minimizes interval i's weighted squared prediction error
    plus lam * ||Phi_tilde[i]||_F^2 (the penalty covers the bias column too);
    lam=None is the scale-aware near-zero ridge 1e-10 * tr(X W X^T) / (D+1)
    of each interval. The noise covariance is the weighted residual outer
    product normalized by z = (tr(W)^2 - tr(W^T W)) / tr(W); where z is not
    meaningfully positive (a single demo, or one dominant weight) Q falls
    back to Q_MIN * I and a DegenerateWeightsWarning is issued.
    """
    x, y, w = (np.ascontiguousarray(a, dtype=float) for a in (inputs, targets, weights))
    n, d, k = y.shape if y.ndim == 3 else (0, 0, 0)
    if y.ndim != 3 or x.shape != (n, d + 1, k) or w.shape != (n, k) or np.any(w <= 0):
        raise ValueError(f"need inputs (N, D+1, K), targets (N, D, K) and strictly positive "
                         f"weights (N, K); got {x.shape}, {y.shape} and {w.shape}")
    if lam is not None and lam < 0:
        raise ValueError("ridge coefficient must be >= 0")
    xt = x.transpose(0, 2, 1)
    with np.errstate(over="ignore", invalid="ignore"):  # solve_intervals names an overflow
        ridge = (np.full(n, float(lam)) if lam is not None
                 else 1e-10 * np.sum(w * np.sum(x ** 2, axis=1), axis=1) / (d + 1))
        gram = (x * w[:, None, :]) @ xt + ridge[:, None, None] * np.eye(d + 1)
        cross = (y * w[:, None, :]) @ xt
    phi = solve_intervals(gram, cross,
                          f"normal equations singular (lam={lam}); K={k} demonstrations "
                          f"cannot determine a {d}x{d + 1} map",
                          rank_tol=1e-13 if lam == 0 else 0.0)

    residuals = y - phi @ x
    z = effective_sample_size(w)
    degenerate = z <= 1e-12
    q = (residuals * w[:, None, :]) @ residuals.transpose(0, 2, 1) \
        / np.where(degenerate, 1.0, z)[:, None, None]
    q = (q + q.transpose(0, 2, 1)) / 2.0
    if degenerate.any():
        first = int(np.argmax(degenerate))
        warnings.warn(
            f"effective sample size degenerate at {degenerate.sum()} of {n} intervals "
            f"(first: interval {first}, z={z[first]:.3e}); flooring Q at {Q_MIN}*I",
            DegenerateWeightsWarning, stacklevel=2)
        q[degenerate] = Q_MIN * np.eye(d)
    return phi, q


def learn_batch_weighted(demos: DemoSet, weights: list, lam: float | None = None) -> SkillModel:
    """Batch estimation given per-demo node weights, one (N+1,) array per
    demo; interval i weighs each demo's transition by its input-node
    weight w(x_i)."""
    states = np.stack([traj.states for traj in demos.demos])  # (K, N+1, D)
    node_weights = np.asarray(weights, dtype=float)
    if node_weights.shape != states.shape[:2]:
        raise ValueError(f"need one weight per node of each demo, {states.shape[:2]}; "
                         f"got {node_weights.shape}")
    inputs = np.ones((demos.n_steps, demos.dim + 1, demos.k))
    inputs[:, 1:] = states[:, :-1].transpose(1, 2, 0)
    phi, q = fit_intervals(inputs, states[:, 1:].transpose(1, 2, 0),
                           node_weights[:, :-1].T, lam)
    return SkillModel(Phi_tilde=phi, Q=q, dt=demos.dt)


def model_to_dict(model: SkillModel) -> dict:
    return {
        "dt": model.dt,
        "D": model.dim,
        "steps": [{"Phi_tilde": p, "Q": q}
                  for p, q in zip(model.Phi_tilde.tolist(), model.Q.tolist())],
    }


def model_from_dict(data: dict) -> SkillModel:
    """The model of a `model_to_dict` dict; raises ValueError naming the first
    step whose matrices do not match the header's dimension D, a D that is not
    a positive int, a dt that is not positive and finite, or a non-finite
    Phi_tilde or Q."""
    d = data["D"]
    if type(d) is not int or d < 1:
        raise ValueError(f"D must be a positive int, got {d!r}")
    dt = float(data["dt"])
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be a positive finite number, got {dt}")
    steps = data["steps"]
    phi = stack_field(steps, "Phi_tilde", (d, d + 1))
    q = stack_field(steps, "Q", (d, d))
    for key, value in (("Phi_tilde", phi), ("Q", q)):
        if not np.isfinite(value).all():
            raise ValueError(f"step {np.argmin(np.isfinite(value).all(axis=(1, 2)))}: "
                             f"{key} must be finite")
    return SkillModel(Phi_tilde=phi, Q=q, dt=dt)


def save_model(path: str, model: SkillModel) -> None:
    write_json(path, model_to_dict(model))


def load_model(path: str) -> SkillModel:
    return model_from_dict(read_json(path))
