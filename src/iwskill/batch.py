"""Batch estimation of time-varying linear stochastic skill dynamics.

For every interval i the model x_{i+1} = Phi x_i + u + w, w ~ N(0, Q) is
fit across demonstrations by importance-weighted ridge regression on the
augmented inputs [1; x_i], giving one (Phi_tilde, Q) pair per interval. The
N pairs are kept as two stacked arrays and fit in one pass.
"""

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .demos import DemoSet
from .utils import atomic_write_text, checked_array, checked_number, read_json

# Q of an interval whose effective sample size is degenerate.
Q_MIN = 1e-6


class SingularSystemError(RuntimeError):
    """An interval's linear system is not finite or not positive definite."""


class DegenerateWeightsWarning(UserWarning):
    """Effective sample size too small for a noise estimate; Q floored."""


def start_moments(starts: np.ndarray) -> tuple:
    """Gaussian (mean (D,), cov (D, D)) over start-state rows (k, D), k >= 1:
    population moments, regularized by 1e-8 I so one start stays usable.
    Raises FloatingPointError when the moments overflow."""
    starts = np.asarray(starts, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # named below
        mean = starts.mean(axis=0)
        centered = starts - mean
        cov = centered.T @ centered / starts.shape[0] + 1e-8 * np.eye(starts.shape[1])
    if not np.isfinite(cov).all():
        raise FloatingPointError("start-state moments overflow")
    return mean, cov


@dataclass(frozen=True)
class SkillModel:
    """N intervals of learned dynamics on a shared grid of step dt:
    Phi_tilde (N, D, D+1), each [u | Phi], and the symmetric process noise
    covariances Q (N, D, D), all finite (a FloatingPointError names the first
    interval that is not); plus the Gaussian the dynamics start from,
    init_mean (D,) and init_cov (D, D), a finite, symmetric, positive
    semi-definite matrix."""

    Phi_tilde: np.ndarray
    Q: np.ndarray
    dt: float
    init_mean: np.ndarray
    init_cov: np.ndarray

    def __post_init__(self):
        phi = np.ascontiguousarray(self.Phi_tilde, dtype=float)
        q = np.ascontiguousarray(self.Q, dtype=float)
        n, d = phi.shape[:2] if phi.ndim == 3 else (0, 0)
        if n == 0 or phi.shape != (n, d, d + 1) or q.shape != (n, d, d):
            raise ValueError(f"need Phi_tilde (N, D, D+1) and Q (N, D, D) with N >= 1, "
                             f"got {phi.shape} and {q.shape}")
        finite = np.isfinite(phi).all(axis=(1, 2)) & np.isfinite(q).all(axis=(1, 2))
        if not finite.all():
            i = int(np.argmin(finite))
            key = "Q" if np.isfinite(phi[i]).all() else "Phi_tilde"
            raise FloatingPointError(f"interval {i}: {key} not finite (overflow)")
        if not np.allclose(q, q.transpose(0, 2, 1), atol=1e-9):
            raise ValueError("Q must be symmetric")
        if not 0 < self.dt * n < np.inf:  # the time of the last node
            raise ValueError(f"dt must be positive with a finite horizon N dt, got {self.dt!r}")
        mean = checked_array(self.init_mean, "init_mean", (d,))
        try:
            cov = checked_array(self.init_cov, "init_cov", (d, d))
            if not (np.allclose(cov, cov.T, atol=1e-9)
                    and np.linalg.eigvalsh(cov).min() >= -1e-12 * np.abs(cov).max()):
                raise ValueError
        except ValueError:  # one line: an array's repr would take several
            raise ValueError(f"init_cov must be a positive semi-definite matrix of shape "
                             f"({d}, {d})") from None
        for key, value in zip(("Phi_tilde", "Q", "init_mean", "init_cov"), (phi, q, mean, cov)):
            object.__setattr__(self, key, value)

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


def _solve_stack(a: np.ndarray, b: np.ndarray, rank_tol: float) -> np.ndarray:
    """x with x[i] a[i] = b[i], C-contiguous; a LinAlgError when some a[i] is
    not positive definite, has a Cholesky pivot at most rank_tol times its
    largest, or is exactly singular to LU."""
    pivots = np.diagonal(np.linalg.cholesky(a), axis1=1, axis2=2)
    if np.any(pivots.min(axis=1) <= rank_tol * pivots.max(axis=1)):
        raise np.linalg.LinAlgError("rank-deficient pivot")
    return np.ascontiguousarray(np.linalg.solve(a, b.transpose(0, 2, 1)).transpose(0, 2, 1))


def solve_intervals(a: np.ndarray, b: np.ndarray, what: str,
                    rank_tol: float = 0.0) -> np.ndarray:
    """x[i] with x[i] a[i] = b[i] for SPD a (N, n, n) and b (N, m, n), all
    intervals in one stacked Cholesky test and one stacked LU solve. Raises
    SingularSystemError naming the first interval whose system is not
    finite, or the interval and `what` when a[i] is not positive definite,
    its smallest Cholesky pivot is at most rank_tol times its largest, or it
    is exactly singular."""
    finite = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(b).all(axis=(1, 2))
    if not finite.all():
        raise SingularSystemError(f"interval {np.argmin(finite)}: system not finite (overflow)")
    try:
        return _solve_stack(a, b, rank_tol)
    except np.linalg.LinAlgError:
        for i in range(a.shape[0]):  # the same calls, one interval at a time, to name it
            try:
                _solve_stack(a[i:i + 1], b[i:i + 1], rank_tol)
            except np.linalg.LinAlgError as exc:
                raise SingularSystemError(f"interval {i}: {what}") from exc
        raise


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

    z = effective_sample_size(w)
    degenerate = z <= 1e-12
    with np.errstate(over="ignore", invalid="ignore"):  # SkillModel names an overflow
        residuals = y - phi @ x
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
    weight w(x_i). The model starts from the moments of the demos' start
    states."""
    states = np.stack([traj.states for traj in demos.demos])  # (K, N+1, D)
    node_weights = np.asarray(weights, dtype=float)
    if node_weights.shape != states.shape[:2]:
        raise ValueError(f"need one weight per node of each demo, {states.shape[:2]}; "
                         f"got {node_weights.shape}")
    inputs = np.ones((demos.n_steps, demos.dim + 1, demos.k))
    inputs[:, 1:] = states[:, :-1].transpose(1, 2, 0)
    phi, q = fit_intervals(inputs, states[:, 1:].transpose(1, 2, 0),
                           node_weights[:, :-1].T, lam)
    return SkillModel(phi, q, demos.dt, *start_moments(states[:, 0]))


def _stack_steps(steps: list, key: str, shape: tuple) -> np.ndarray:
    """`step[key]` of every step (N >= 1 dicts read from JSON) as one float
    array (N, *shape); a ValueError names the first step whose entry is not a
    finite number array of that shape."""
    try:
        return checked_array([step[key] for step in steps], key, (None,) + shape)
    except ValueError:
        for i, step in enumerate(steps):
            checked_array(step[key], f"step {i}: {key}", shape)
        raise


def model_from_dict(data: dict) -> SkillModel:
    """The model of the dict `save_model` writes; raises ValueError naming the first
    step whose matrices are not finite number arrays of the header's
    dimension D, a D that is not a positive int, a dt that is not a positive
    finite number, or start moments that are missing or that SkillModel
    refuses."""
    missing = [key for key in ("init_mean", "init_cov") if key not in data]
    if missing:
        raise ValueError(f"missing key {missing[0]!r}: the model was written without its "
                         f"start moments; re-run learn or assimilate")
    if type(data["D"]) is not int:  # written as an int; a whole float is not taken for one
        raise ValueError(f"D must be an int, got {data['D']!r}")
    d = checked_number(data["D"], "D", int, positive=True)
    dt = checked_number(data["dt"], "dt", positive=True)
    phi = _stack_steps(data["steps"], "Phi_tilde", (d, d + 1))
    q = _stack_steps(data["steps"], "Q", (d, d))
    return SkillModel(phi, q, dt, data["init_mean"], data["init_cov"])


def _matrix_template(rows: int, cols: int) -> str:
    return "[" + ", ".join(["[" + ", ".join(["%s"] * cols) + "]"] * rows) + "]"


def save_model(path: str, model: SkillModel) -> None:
    """Write `model` as the one-line JSON `json.dumps` gives its dict of dt, D,
    init_mean, init_cov and steps, each step {"Phi_tilde": [...], "Q": [...]}
    as nested lists. The steps are one `%` over a template of the model's
    shape; each entry is its float's repr, as in `json.dumps`. A Q entry below
    the diagonal whose bits equal its mirror's takes the mirror's text, so
    each such pair is formatted once."""
    n, d = model.n_steps, model.dim
    step = '{"Phi_tilde": ' + _matrix_template(d, d + 1) + ', "Q": ' + _matrix_template(d, d) + "}"
    values = np.concatenate([model.Phi_tilde.reshape(n, -1), model.Q.reshape(n, -1)], axis=1)
    i, j = np.tril_indices(d, -1)
    lower, upper = d * (d + 1) + i * d + j, d * (d + 1) + j * d + i
    bits = values.view(np.int64)  # 0.0 and -0.0 differ here, so each keeps its text
    shared = bits[:, lower] == bits[:, upper]
    slot = np.arange(values.size).reshape(values.shape)
    cells = values.ravel().tolist()
    for a, b in zip(slot[:, upper][shared].tolist(), slot[:, lower][shared].tolist()):
        cells[a] = cells[b] = repr(cells[a])
    header = json.dumps({"dt": model.dt, "D": d, "init_mean": model.init_mean.tolist(),
                         "init_cov": model.init_cov.tolist()})
    steps = ", ".join([step] * n) % tuple(cells)
    atomic_write_text(path, header[:-1] + ', "steps": [' + steps + "]}\n")


def load_model(path: str) -> SkillModel:
    return model_from_dict(read_json(path))
