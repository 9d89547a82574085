"""MAP trajectory reproduction: condition the learned prior on scene factors.

The posterior combines the trajectory prior with event factors: state
anchors (new start/goal/via constraints) and an obstacle factor over a set
of nodes, evaluated with one batched query of a signed distance field.
Each factor linearizes into whitened residual rows that each touch a single
node, so the negative log posterior is half the prior's Mahalanobis term plus
half the rows' sum of squares, and the damped Gauss-Newton systems of
Levenberg-Marquardt keep the prior's block-tridiagonal sparsity; they are
solved by LAPACK banded Cholesky.
"""

from dataclasses import dataclass, field

import numpy as np

from .demos import StateTrajectory
from .environment import NO_OBSTACLE_DISTANCE, SdfGridError, SignedDistanceField
from .linalg import BlockTridiagCholesky
from .prior import GaussianTrajectoryPrior
from .utils import csv_text


class SingularNormalEquationsError(RuntimeError):
    """Damping escalation failed to make the normal equations factorizable."""


LM_DAMPING_MAX = 1e12  # damping past this ends LM (a failed factorization raises)


@dataclass(frozen=True)
class StateAnchor:
    """Soft equality factor pinning node `index` to `target` with standard
    deviation `sigma` (a positive scalar) in every state component: its rows
    are the offset x_index - target whitened by 1 / sigma."""

    index: int
    target: np.ndarray
    sigma: float

    def __post_init__(self):
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"anchor sigma must be a positive number, got {self.sigma!r}")
        object.__setattr__(self, "target", np.asarray(self.target, dtype=float))
        object.__setattr__(self, "indices", np.array([self.index]))

    def linearize(self, states: np.ndarray) -> tuple:
        """Whitened rows (x_index - target) / sigma, their node `index` and
        their Jacobian I / sigma."""
        d = self.target.shape[0]
        return ((states[self.index] - self.target) / self.sigma, np.full(d, self.index),
                np.eye(d) / self.sigma)


@dataclass(frozen=True)
class ObstacleFactor:
    """Hinge collision factor on each node in `indices` (distinct node
    indices): active within `eps_repro` of an obstacle surface, scaled by
    `sigma_repro`. All its nodes are evaluated with one batched SDF query."""

    indices: np.ndarray
    sdf: SignedDistanceField
    eps_repro: float
    sigma_repro: float

    def __post_init__(self):
        indices = np.array(self.indices, dtype=int).reshape(-1)
        if np.unique(indices).size != indices.size:
            raise ValueError("obstacle factor node indices must be distinct")
        object.__setattr__(self, "indices", indices)
        if self.eps_repro < 0:
            raise ValueError("eps_repro must be >= 0")
        if not self.sigma_repro > 0:
            raise ValueError("sigma_repro must be positive")

    def linearize(self, states: np.ndarray) -> tuple:
        """Whitened rows max(eps_repro - d, 0) / sigma_repro, d the field
        distance of each node's position; the nodes; and the rows' Jacobians,
        -grad d / sigma_repro on the positions inside the band, else zero."""
        d = _clearances(self.sdf, self.indices, states)
        inside = d <= self.eps_repro
        jac = np.zeros((self.indices.size, states.shape[1]))
        jac[inside, :self.sdf.dim] = -self.sdf.gradient(states[self.indices[inside], :self.sdf.dim])
        return (np.maximum(self.eps_repro - d, 0.0) / self.sigma_repro, self.indices,
                jac / self.sigma_repro)


@dataclass(frozen=True)
class OptimizerOptions:
    max_iters: int = 200
    abs_tol: float = 1e-8
    rel_tol: float = 1e-8
    lm_damping_init: float = 1e-4
    tol_clear: float = 0.01


@dataclass(frozen=True)
class ReproductionProblem:
    prior: GaussianTrajectoryPrior
    factors: list
    options: OptimizerOptions = field(default_factory=OptimizerOptions)

    def __post_init__(self):
        n = self.prior.n_steps
        bad = [i for f in self.factors for i in f.indices if not 0 <= i <= n]
        if bad:
            raise ValueError(f"factor index {bad[0]} outside 0..{n}")


@dataclass
class Solution:
    trajectory: StateTrajectory
    objective: float
    iterations: int
    # why LM stopped: "gradient", "step", "damping" or "max_iters"
    stop: str
    feasible: bool
    min_clearance: float
    # objective after the start point and after each accepted step; nonincreasing
    objective_history: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.stop != "max_iters"


def _clearances(sdf: SignedDistanceField, nodes: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Field distance of the position of each listed node (one batched
    query); a node off the grid raises SdfGridError naming it."""
    try:
        return sdf.query(states[nodes, : sdf.dim])
    except SdfGridError as exc:
        raise SdfGridError(f"node {int(nodes[exc.row])} left the SDF grid: {exc}",
                           row=exc.row) from exc


def negative_log_posterior(x: np.ndarray, problem: ReproductionProblem) -> float:
    """0.5 * (prior Mahalanobis term + every factor's sum of squared rows)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    rows = [f.linearize(x.reshape(-1, problem.prior.dim))[0] for f in problem.factors]
    return 0.5 * (problem.prior.quad_form(x) + sum(float(r @ r) for r in rows))


def _gradient_and_gn_blocks(x: np.ndarray, problem: ReproductionProblem):
    """Gradient of the objective and the Gauss-Newton Hessian blocks.

    The prior contributes its gradient and precision; each residual row r
    with Jacobian row j on node i adds j r to the gradient and j j^T to block
    (i, i), so the system stays block tridiagonal. An overflow (an infinite
    or NaN entry in either) raises SingularNormalEquationsError, unwarned.
    """
    prior = problem.prior
    with np.errstate(over="ignore", invalid="ignore"):
        grad = prior.gradient(x).reshape(-1, prior.dim)
        h_diag = prior.prec_diag.copy()
        for f in problem.factors:
            r, nodes, jac = f.linearize(x.reshape(-1, prior.dim))
            np.add.at(grad, nodes, r[:, None] * jac)
            np.add.at(h_diag, nodes, jac[:, :, None] * jac[:, None, :])
    if not (np.isfinite(grad).all() and np.isfinite(h_diag).all()):
        raise SingularNormalEquationsError("normal equations not factorizable at damping 0: "
                                           "NaN or infinite gradient or Gauss-Newton blocks")
    return grad.reshape(-1), h_diag


def _solution(problem, x, objective, iterations, stop, history) -> Solution:
    states = x.reshape(-1, problem.prior.dim)
    min_clear, feasible = NO_OBSTACLE_DISTANCE, True
    for f in problem.factors:
        if isinstance(f, ObstacleFactor):
            dist = _clearances(f.sdf, f.indices, states)
            min_clear = min(min_clear, float(dist.min()))
            feasible &= bool(np.all(dist >= f.eps_repro - problem.options.tol_clear))
    return Solution(trajectory=StateTrajectory(dt=problem.prior.dt, states=states),
                    objective=objective, iterations=iterations, stop=stop,
                    feasible=feasible, min_clearance=min_clear, objective_history=history)


def optimize_map(problem: ReproductionProblem) -> Solution:
    """Levenberg-Marquardt from the prior mean, with the damping update and
    stops of Madsen, Nielsen & Tingleff (2004), section 3.2.

    A step that lowers the objective is kept and scales the damping mu by
    max(1/3, 1 - (2 rho - 1)^3), rho being the actual decrease over the
    predicted 0.5 step^T (mu step - g); mu grows by 2, 4, 8, ... on
    consecutive rejected steps, and by 10 on a damped system that is not
    positive definite, which past LM_DAMPING_MAX raises
    SingularNormalEquationsError; so does a gradient or an undamped system
    that is not finite, at once. `stop`: "gradient" (norm below abs_tol),
    "step" (no longer than rel_tol * (||x|| + rel_tol); kept if it lowers
    the objective), "damping" (mu past LM_DAMPING_MAX after a rejection)
    or "max_iters" (the best iterate, not converged).
    """
    opts = problem.options
    x = problem.prior.stacked_mean.copy()
    grad, h_diag = _gradient_and_gn_blocks(x, problem)
    obj = negative_log_posterior(x, problem)
    history, stop, iterations = [obj], "max_iters", 0
    damping, growth = opts.lm_damping_init, 2.0
    while iterations < opts.max_iters:
        if grad is None:
            grad, h_diag = _gradient_and_gn_blocks(x, problem)
        if np.linalg.norm(grad) < opts.abs_tol:
            stop = "gradient"
            break
        while True:
            try:
                step = BlockTridiagCholesky(h_diag + damping * np.eye(problem.prior.dim),
                                            problem.prior.prec_off).solve(-grad)
                break
            except np.linalg.LinAlgError as exc:
                damping *= 10.0
                if damping > LM_DAMPING_MAX:
                    raise SingularNormalEquationsError(
                        f"normal equations not factorizable at damping {damping:.1e}: "
                        f"{exc}") from exc
        small = np.linalg.norm(step) <= opts.rel_tol * (np.linalg.norm(x) + opts.rel_tol)
        obj_new = negative_log_posterior(x + step, problem)
        iterations += 1
        if obj_new < obj:
            rho = (obj - obj_new) / (0.5 * float(step @ (damping * step - grad)))
            damping *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            x, obj, grad, growth = x + step, obj_new, None, 2.0
            history.append(obj)
        else:
            damping, growth = damping * growth, growth * 2.0
        if small or damping > LM_DAMPING_MAX:
            stop = "step" if small else "damping"
            break
    return _solution(problem, x, obj, iterations, stop, history)


def solution_csv(solution: Solution) -> str:
    """CSV rows `t, x_1..x_D` of the reproduced trajectory."""
    traj = solution.trajectory
    return csv_text(["t"] + [f"x_{j + 1}" for j in range(traj.dim)],
                    np.column_stack([traj.times, traj.states]))


def solution_summary(solution: Solution) -> dict:
    return {
        "objective": solution.objective,
        "iterations": solution.iterations,
        "converged": solution.converged,
        "stop": solution.stop,
        "feasible": solution.feasible,
        # null when nothing was checked for clearance (no obstacles)
        "min_clearance": (None if solution.min_clearance >= NO_OBSTACLE_DISTANCE
                          else solution.min_clearance),
    }
