"""Incremental Bayesian learning of the skill dynamics, one demo at a time.

Each interval carries a matrix-normal / inverse-Wishart belief over
(Phi_tilde, Q): mean M with column statistics R, and inverse-Wishart scale V
with nu degrees of freedom. Assimilating a demonstration applies weighted
conjugate updates; the MAP dynamics are read off the posterior mode at any
point, without keeping past demonstrations around.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .batch import SkillModel, SkillStepModel
from .demos import StateTrajectory
from .utils import read_json, write_json


@dataclass
class MNIWState:
    """Sufficient statistics for one interval's dynamics belief."""

    M: np.ndarray   # D x (D+1) mean map
    R: np.ndarray   # (D+1) x (D+1) SPD column statistics
    V: np.ndarray   # D x D SPD inverse-Wishart scale
    nu: float       # degrees of freedom

    def update(self, w: float, x_in: np.ndarray, x_out: np.ndarray) -> None:
        """One weighted conjugate update for the transition x_in -> x_out.

        In order: R gains the weighted input outer product; M blends the new
        weighted cross term with the previous evidence through a solve
        against the new R (kept as a Cholesky solve, never an inverse, since
        early R are nearly singular by construction); V absorbs the weighted
        residual around the new M plus a drift term for the mean change.
        """
        x_tilde = np.concatenate([[1.0], x_in])
        r_prev = self.R
        m_prev = self.M
        r_new = r_prev + w * np.outer(x_tilde, x_tilde)
        factor = cho_factor(r_new)
        m_new = cho_solve(factor, (w * np.outer(x_out, x_tilde) + m_prev @ r_prev).T).T
        resid = x_out - m_new @ x_tilde
        drift = m_new - m_prev
        self.V = self.V + w * np.outer(resid, resid) + drift @ r_prev @ drift.T
        self.R = r_new
        self.M = m_new
        self.nu = self.nu + 1.0


class IncrementalLearner:
    """Per-interval MNIW beliefs plus the shared grid metadata. A fresh
    learner holds a zero-mean ridge-style map prior (R = I/alpha) and an
    uninformative noise prior (V = I/beta, nu = 1/beta)."""

    def __init__(self, n_steps: int, dim: int, alpha: float, beta: float,
                 dt: float | None = None):
        if not (alpha > 0 and beta > 0):
            raise ValueError("alpha and beta must be positive")
        if n_steps < 1 or dim < 1:
            raise ValueError("need n_steps >= 1 and dim >= 1")
        self.n_steps = n_steps
        self.dim = dim
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.dt = dt
        self.demos_seen = 0
        self.steps = [
            MNIWState(M=np.zeros((dim, dim + 1)),
                      R=np.eye(dim + 1) / alpha,
                      V=np.eye(dim) / beta,
                      nu=1.0 / beta)
            for _ in range(n_steps)
        ]


def assimilate_demo(learner: IncrementalLearner, demo: StateTrajectory,
                    weights: np.ndarray) -> IncrementalLearner:
    """Fold one demonstration into the belief, interval by interval, using
    the input-node weight w(x_i). Mutates and returns the learner."""
    if demo.n_steps != learner.n_steps or demo.dim != learner.dim:
        raise ValueError(f"demo grid ({demo.n_steps}, {demo.dim}) does not match "
                         f"learner grid ({learner.n_steps}, {learner.dim})")
    if learner.dt is None:
        learner.dt = demo.dt
    elif not np.isclose(demo.dt, learner.dt, rtol=1e-9, atol=1e-12):
        raise ValueError(f"demo dt {demo.dt} does not match learner dt {learner.dt}")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (demo.n_steps + 1,):
        raise ValueError("need one weight per trajectory node")
    if np.any(weights <= 0):
        raise ValueError("weights must be strictly positive")
    for i, step in enumerate(learner.steps):
        step.update(weights[i], demo.states[i], demo.states[i + 1])
    learner.demos_seen += 1
    return learner


def extract_map(learner: IncrementalLearner) -> SkillModel:
    """Posterior-mode dynamics: Phi_tilde = M, Q = V / (nu + D + 1)."""
    if learner.demos_seen == 0:
        warnings.warn("extracting MAP dynamics before any demonstration; "
                      "Q is at its prior scale", UserWarning, stacklevel=2)
    d = learner.dim
    steps = []
    for state in learner.steps:
        q = state.V / (state.nu + d + 1)
        steps.append(SkillStepModel(Phi_tilde=state.M.copy(), Q=(q + q.T) / 2.0))
    return SkillModel(steps=steps, dt=learner.dt if learner.dt is not None else 1.0, dim=d)


def save_checkpoint(path: str, learner: IncrementalLearner) -> None:
    write_json(path, {
        "alpha": learner.alpha,
        "beta": learner.beta,
        "demos_seen": learner.demos_seen,
        "dt": learner.dt,
        "n_steps": learner.n_steps,
        "dim": learner.dim,
        "steps": [{"M": s.M.tolist(), "R": s.R.tolist(), "V": s.V.tolist(), "nu": s.nu}
                  for s in learner.steps],
    })


def load_checkpoint(path: str) -> IncrementalLearner:
    data = read_json(path)
    learner = IncrementalLearner(int(data["n_steps"]), int(data["dim"]),
                                 float(data["alpha"]), float(data["beta"]),
                                 dt=None if data["dt"] is None else float(data["dt"]))
    learner.demos_seen = int(data["demos_seen"])
    if len(data["steps"]) != learner.n_steps:
        raise ValueError("checkpoint step count disagrees with its grid")
    learner.steps = [
        MNIWState(M=np.asarray(s["M"], dtype=float),
                  R=np.asarray(s["R"], dtype=float),
                  V=np.asarray(s["V"], dtype=float),
                  nu=float(s["nu"]))
        for s in data["steps"]
    ]
    return learner
