"""MAP trajectory reproduction: condition the learned prior on scene factors.

The posterior combines the trajectory prior with event factors: state
anchors (new start/goal/via constraints) and one obstacle factor over every
node, evaluated with one batched call that gives the exact distance of
each node's position to its nearest obstacle and the distance's closed-form
gradient (environment.nearest_obstacle), wherever in space the node lies.
Each factor linearizes into whitened residual rows that each touch a single
node, so the negative log posterior is half the prior's Mahalanobis term plus
half the rows' sum of squares, and the damped Gauss-Newton systems of
Levenberg-Marquardt keep the prior's block-tridiagonal sparsity; they are
solved by LAPACK banded Cholesky.
"""

from dataclasses import dataclass, field

import numpy as np

from .demos import StateTrajectory
from .environment import Environment, nearest_obstacle
from .linalg import BlockTridiagCholesky
from .prior import GaussianTrajectoryPrior
from .utils import csv_text


class SingularNormalEquationsError(RuntimeError):
    """Damping escalation failed to make the normal equations factorizable."""


LM_MAX_ITERS = 200  # default LM iteration budget
LM_DAMPING_INIT = 1e-4  # first damping
LM_DAMPING_MAX = 1e12  # damping past this ends LM (a failed factorization raises)
LM_GRADIENT_TOL = 1e-8  # gradient norm that ends LM
LM_STEP_TOL = 1e-8  # relative step length that ends LM
CLEARANCE_SLACK = 0.01  # distance (m) below eps_repro that still counts as feasible


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


@dataclass(frozen=True)
class ObstacleFactor:
    """Hinge collision factor on every node: active within `eps_repro` of an
    obstacle surface, scaled by `sigma_repro`. All nodes are evaluated with
    one batched call of `nearest_obstacle` on the scene `env`."""

    env: Environment
    eps_repro: float
    sigma_repro: float

    def __post_init__(self):
        if self.eps_repro < 0:
            raise ValueError("eps_repro must be >= 0")
        if not self.sigma_repro > 0:
            raise ValueError("sigma_repro must be positive")

    def linearize(self, states: np.ndarray) -> tuple:
        """One whitened row per node (N+1,), max(eps_repro - d, 0) /
        sigma_repro, d the exact distance of the node's position; and each
        row's Jacobian (N+1, D), -grad d / sigma_repro on the positions inside
        the band, else zero."""
        d, grad = nearest_obstacle(self.env, states[:, :self.env.dimension])
        inside = d <= self.eps_repro
        jac = np.zeros_like(states)
        jac[inside, :self.env.dimension] = -grad[inside]
        return np.maximum(self.eps_repro - d, 0.0) / self.sigma_repro, jac / self.sigma_repro


@dataclass(frozen=True)
class ReproductionProblem:
    """The prior conditioned on state anchors and, given a scene, one obstacle
    factor. The one check of these inputs against the prior: an anchor's
    state dimension and node, and the scene's dimension D/2."""

    prior: GaussianTrajectoryPrior
    anchors: list = field(default_factory=list)
    obstacle: ObstacleFactor | None = None
    max_iters: int = LM_MAX_ITERS

    def __post_init__(self):
        d, n = self.prior.dim, self.prior.n_steps
        for i, a in enumerate(self.anchors):
            if a.target.shape != (d,):
                raise ValueError(f"anchors[{i}].state must have dimension {d}")
            if not 0 <= a.index <= n:
                raise ValueError(f"anchors[{i}].index must be a node 0..{n}, got {a.index}")
        if self.obstacle is not None and 2 * self.obstacle.env.dimension != d:
            raise ValueError(f"environment has dimension {self.obstacle.env.dimension}, not "
                             f"the model's position dimension D/2 = {d / 2:g}")


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


def negative_log_posterior(x: np.ndarray, problem: ReproductionProblem) -> tuple:
    """The objective 0.5 * (prior Mahalanobis term + every factor's sum of
    squared rows), its gradient and Gauss-Newton Hessian blocks. The prior
    adds its gradient and precision; a row r with Jacobian row j on node i
    adds j r to the gradient and j j^T to block (i, i), in place, obstacle
    rows first, so the system stays block tridiagonal. Overflow is unwarned:
    it leaves an infinite or NaN value (see _finite)."""
    prior = problem.prior
    states = np.asarray(x, dtype=float).reshape(-1, prior.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        quad, grad = prior.quad_form(states)
        grad, h_diag = grad.reshape(-1, prior.dim), prior.prec_diag.copy()
        squares = 0
        if problem.obstacle is not None:
            r, jac = problem.obstacle.linearize(states)
            squares += float(r @ r)
            grad += r[:, None] * jac
            h_diag += jac[:, :, None] * jac[:, None, :]
        for a in problem.anchors:
            r, w = (states[a.index] - a.target) / a.sigma, 1.0 / a.sigma  # Jacobian I * w
            squares += float(r @ r)
            grad[a.index] += r * w
            h_diag[a.index] += np.eye(prior.dim) * (w * w)
        return 0.5 * (quad + squares), grad.reshape(-1), h_diag


def _finite(evaluation: tuple) -> tuple:
    """An evaluation LM keeps, or SingularNormalEquationsError if its
    gradient or Gauss-Newton blocks are not finite."""
    if not all(np.isfinite(a).all() for a in evaluation[1:]):
        raise SingularNormalEquationsError("normal equations not factorizable at damping 0: "
                                           "NaN or infinite gradient or Gauss-Newton blocks")
    return evaluation


def _solution(problem, x, objective, iterations, stop, history) -> Solution:
    states = x.reshape(-1, problem.prior.dim)
    min_clear, feasible, obstacle = np.inf, True, problem.obstacle
    if obstacle is not None:
        dist = nearest_obstacle(obstacle.env, states[:, :obstacle.env.dimension])[0]
        min_clear = float(dist.min())
        feasible = bool(np.all(dist >= obstacle.eps_repro - CLEARANCE_SLACK))
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
    SingularNormalEquationsError; so do a gradient or Gauss-Newton blocks
    that are not finite at the start or at a kept step, at once (a trial
    point with a non-finite objective is rejected). Each point is evaluated
    once. mu starts at LM_DAMPING_INIT. `stop`: "gradient" (norm below
    LM_GRADIENT_TOL), "step" (no longer than LM_STEP_TOL * (||x|| +
    LM_STEP_TOL); kept if it lowers the objective), "damping" (mu past
    LM_DAMPING_MAX after a rejection) or "max_iters" (`problem.max_iters`
    steps tried; the best iterate, not converged).
    """
    x = problem.prior.stacked_mean.copy()
    obj, grad, h_diag = _finite(negative_log_posterior(x, problem))
    history, stop, iterations = [obj], "max_iters", 0
    damping, growth = LM_DAMPING_INIT, 2.0
    while iterations < problem.max_iters:
        if np.linalg.norm(grad) < LM_GRADIENT_TOL:
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
        small = np.linalg.norm(step) <= LM_STEP_TOL * (np.linalg.norm(x) + LM_STEP_TOL)
        trial = negative_log_posterior(x + step, problem)
        iterations += 1
        if trial[0] < obj:
            rho = (obj - trial[0]) / (0.5 * float(step @ (damping * step - grad)))
            damping *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            x, (obj, grad, h_diag), growth = x + step, _finite(trial), 2.0
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
        # null when no obstacle is in reach (none in the scene, or every distance overflows)
        "min_clearance": (solution.min_clearance if np.isfinite(solution.min_clearance)
                          else None),
    }
