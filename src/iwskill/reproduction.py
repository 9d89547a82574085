"""MAP trajectory reproduction: condition the learned prior on scene factors.

The posterior combines the trajectory prior with event factors: state
anchors (new start/goal/via constraints) and an obstacle factor over a set
of nodes, evaluated with one batched query of a signed distance field. The
negative log posterior is minimized with Levenberg-Marquardt; because every
factor term touches a single node, the damped Gauss-Newton systems keep the
prior's block-tridiagonal sparsity and are solved by LAPACK banded Cholesky.
"""

from dataclasses import dataclass, field

import numpy as np

from .demos import StateTrajectory
from .environment import NO_OBSTACLE_DISTANCE, SdfGridError, SignedDistanceField
from .linalg import BlockTridiagCholesky, block_tridiag_matvec
from .prior import GaussianTrajectoryPrior
from .utils import csv_text


class SingularNormalEquationsError(RuntimeError):
    """Damping escalation failed to make the normal equations factorizable."""


@dataclass(frozen=True)
class StateAnchor:
    """Soft equality factor pinning node `index` to `target` with covariance
    `sigma` (full D x D, or built from a scalar / diagonal)."""

    index: int
    target: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        target = np.asarray(self.target, dtype=float)
        d = target.shape[0]
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim == 0:
            sigma = float(sigma) ** 2 * np.eye(d)
        elif sigma.ndim == 1:
            sigma = np.diag(sigma.astype(float) ** 2)
        if sigma.shape != (d, d):
            raise ValueError("anchor sigma must be scalar, per-dimension, or D x D")
        if np.any(np.linalg.eigvalsh((sigma + sigma.T) / 2.0) <= 0):
            raise ValueError("anchor covariance must be positive definite")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "sigma", sigma)


@dataclass(frozen=True)
class ObstacleFactor:
    """Hinge collision factor on each node in `indices` (distinct node
    indices): active within `eps_repro` of an obstacle surface, scaled by
    `sigma_repro`. All its nodes are evaluated with one batched SDF query."""

    indices: np.ndarray
    sdf: SignedDistanceField
    eps_repro: float = 0.1
    sigma_repro: float = 0.05

    def __post_init__(self):
        indices = np.array(self.indices, dtype=int).reshape(-1)
        if np.unique(indices).size != indices.size:
            raise ValueError("obstacle factor node indices must be distinct")
        object.__setattr__(self, "indices", indices)
        if self.eps_repro < 0:
            raise ValueError("eps_repro must be >= 0")
        if not self.sigma_repro > 0:
            raise ValueError("sigma_repro must be positive")


@dataclass(frozen=True)
class OptimizerOptions:
    max_iters: int = 100
    abs_tol: float = 1e-8
    rel_tol: float = 1e-8
    lm_damping_init: float = 1e-4
    lm_damping_max: float = 1e12
    tol_clear: float = 0.01


@dataclass(frozen=True)
class ReproductionProblem:
    prior: GaussianTrajectoryPrior
    factors: list
    options: OptimizerOptions = field(default_factory=OptimizerOptions)

    def __post_init__(self):
        n = self.prior.n_steps
        for f in self.factors:
            for index in np.atleast_1d(f.indices if isinstance(f, ObstacleFactor) else f.index):
                if not 0 <= index <= n:
                    raise ValueError(f"factor index {index} outside 0..{n}")


@dataclass
class Solution:
    trajectory: StateTrajectory
    objective: float
    iterations: int
    converged: bool
    feasible: bool
    min_clearance: float
    # objective after the start point and after each accepted step; nonincreasing
    objective_history: list = field(default_factory=list)


def _clearances(sdf: SignedDistanceField, nodes: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Field distance of the position of each listed node (one batched
    query); a node off the grid raises SdfGridError naming it."""
    try:
        return sdf.query(states[nodes, : sdf.dim])
    except SdfGridError as exc:
        raise SdfGridError(f"node {int(nodes[exc.row])} left the SDF grid: {exc}",
                           row=exc.row) from exc


def _obstacle_terms(sdf: SignedDistanceField, eps_repro: float, nodes: np.ndarray,
                    states: np.ndarray, jacobian: bool):
    """Hinge costs (n,) of the listed nodes and, if asked, their Jacobians
    (n, D): -grad d on the position components while inside the band
    (d <= eps_repro), zero outside and on all velocity components."""
    d = _clearances(sdf, nodes, states)
    cost = np.maximum(eps_repro - d, 0.0)
    if not jacobian:
        return cost, None
    jac = np.zeros((nodes.size, states.shape[1]))
    jac[:, : sdf.dim] = np.where((d > eps_repro)[:, None], 0.0,
                                 -sdf.gradient(states[nodes, : sdf.dim]))
    return cost, jac


def obstacle_cost(state: np.ndarray, sdf: SignedDistanceField,
                  eps_repro: float) -> tuple[float, np.ndarray]:
    """Hinge collision cost hinge(d(p), eps_repro) of one state, on its
    position components p, and its gradient."""
    cost, jac = _obstacle_terms(sdf, eps_repro, np.zeros(1, dtype=int),
                                np.asarray(state, dtype=float)[None, :], jacobian=True)
    return float(cost[0]), jac[0]


def negative_log_posterior(x: np.ndarray, problem: ReproductionProblem) -> float:
    """0.5 * prior Mahalanobis term plus 0.5 * every factor's weighted
    squared residual, added factor by factor and node by node."""
    x = np.asarray(x, dtype=float).reshape(-1)
    total = 0.5 * problem.prior.quad_form(x)
    states = x.reshape(-1, problem.prior.dim)
    for f in problem.factors:
        if isinstance(f, StateAnchor):
            r = states[f.index] - f.target
            total += 0.5 * float(r @ np.linalg.solve(f.sigma, r))
        else:
            c, _ = _obstacle_terms(f.sdf, f.eps_repro, f.indices, states, jacobian=False)
            for term in (0.5 * c * c / f.sigma_repro ** 2).tolist():
                total += term
    return float(total)


def _gradient_and_gn_blocks(x: np.ndarray, problem: ReproductionProblem):
    """Gradient of the objective and the Gauss-Newton Hessian blocks.

    The prior contributes its precision; each factor adds J^T S^{-1} J to its
    nodes' diagonal blocks and J^T S^{-1} r to the gradient, so the system
    stays block tridiagonal.
    """
    prior = problem.prior
    d = prior.dim
    states = x.reshape(-1, d)
    grad = block_tridiag_matvec(prior.prec_diag, prior.prec_off, x - prior.stacked_mean)
    grad = grad.reshape(-1, d)
    h_diag = prior.prec_diag.copy()
    for f in problem.factors:
        if isinstance(f, StateAnchor):
            info = np.linalg.inv(f.sigma)
            grad[f.index] += info @ (states[f.index] - f.target)
            h_diag[f.index] += info
        else:
            c, jac = _obstacle_terms(f.sdf, f.eps_repro, f.indices, states, jacobian=True)
            inv_s2 = 1.0 / f.sigma_repro ** 2
            grad[f.indices] += (inv_s2 * c)[:, None] * jac
            h_diag[f.indices] += inv_s2 * (jac[:, :, None] * jac[:, None, :])
    return grad.reshape(-1), h_diag


def _solution(problem, x, objective, iterations, converged, history) -> Solution:
    prior = problem.prior
    d = prior.dim
    states = x.reshape(prior.n_steps + 1, d)
    min_clear = NO_OBSTACLE_DISTANCE
    feasible = True
    for f in problem.factors:
        if isinstance(f, ObstacleFactor):
            dist = _clearances(f.sdf, f.indices, states)
            min_clear = min(min_clear, float(dist.min()))
            if np.any(dist < f.eps_repro - problem.options.tol_clear):
                feasible = False
    return Solution(trajectory=StateTrajectory(dt=prior.dt, states=states),
                    objective=objective, iterations=iterations,
                    converged=converged, feasible=feasible, min_clearance=min_clear,
                    objective_history=history)


def optimize_map(problem: ReproductionProblem) -> Solution:
    """Levenberg-Marquardt from the prior mean.

    Damped Gauss-Newton steps are solved through the banded Cholesky of the
    block-tridiagonal system. Damping shrinks by 10x on accepted steps and
    grows by 10x on rejections and on a system that is not positive definite
    or not finite (LinAlgError); growing it past lm_damping_max raises
    SingularNormalEquationsError. Convergence: gradient norm below abs_tol,
    or an accepted step whose relative objective decrease falls below
    rel_tol. Hitting max_iters returns the best iterate with converged=False.
    """
    opts = problem.options
    x = problem.prior.stacked_mean.copy()
    obj = negative_log_posterior(x, problem)
    history = [obj]
    damping = opts.lm_damping_init
    eye = np.eye(problem.prior.dim)

    iterations = 0
    converged = False
    for _ in range(opts.max_iters):
        grad, h_diag = _gradient_and_gn_blocks(x, problem)
        if np.linalg.norm(grad) < opts.abs_tol:
            converged = True
            break
        while True:
            damped = h_diag + damping * eye[None, :, :]
            try:
                chol = BlockTridiagCholesky(damped, problem.prior.prec_off)
                step = chol.solve(-grad)
                break
            except np.linalg.LinAlgError as exc:
                damping *= 10.0
                if damping > opts.lm_damping_max:
                    raise SingularNormalEquationsError(
                        f"normal equations not factorizable at damping {damping:.1e}: "
                        f"{exc}") from exc
        x_new = x + step
        obj_new = negative_log_posterior(x_new, problem)
        iterations += 1
        if obj_new < obj:
            rel_drop = (obj - obj_new) / max(abs(obj), 1e-300)
            x, obj = x_new, obj_new
            history.append(obj)
            assert history[-1] <= history[-2], "accepted step increased the objective"
            damping = max(damping / 10.0, 1e-12)
            if rel_drop < opts.rel_tol:
                converged = True
                break
        else:
            damping *= 10.0
            if damping > opts.lm_damping_max:
                # step size has collapsed; no further descent possible
                converged = True
                break
    return _solution(problem, x, obj, iterations, converged, history)


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
        "feasible": solution.feasible,
        # null when nothing was checked for clearance (no obstacles)
        "min_clearance": (None if solution.min_clearance >= NO_OBSTACLE_DISTANCE
                          else solution.min_clearance),
    }
