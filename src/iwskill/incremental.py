"""Incremental Bayesian learning of the skill dynamics, one demo at a time.

Each interval carries a matrix-normal / inverse-Wishart belief over
(Phi_tilde, Q): mean M with column statistics R, and inverse-Wishart scale V
with nu degrees of freedom. The learner keeps them as stacks over the N
intervals. Assimilating a demonstration applies weighted conjugate updates
to every interval at once; the MAP dynamics are read off the posterior mode
at any point, without keeping past demonstrations around.
"""

import zipfile

import numpy as np

from .batch import SkillModel, solve_intervals, start_moments
from .demos import StateTrajectory
from .utils import atomic_write_npz


class IncrementalLearner:
    """MNIW statistics stacked over the N intervals, M (N, D, D+1),
    R (N, D+1, D+1), V (N, D, D) and nu (N,), the start state of every
    assimilated demo, starts (k, D), plus the grid metadata. A fresh
    learner holds a zero-mean ridge-style map prior (R = I/alpha) and an
    uninformative noise prior (V = I/beta, nu = 1/beta)."""

    def __init__(self, n_steps: int, dim: int, alpha: float, beta: float,
                 dt: float | None = None):
        if not (alpha > 0 and beta > 0):
            raise ValueError("alpha and beta must be positive")
        if n_steps < 1 or dim < 1:
            raise ValueError("need n_steps >= 1 and dim >= 1")
        self.n_steps, self.dim, self.alpha, self.beta = n_steps, dim, float(alpha), float(beta)
        self.dt = dt
        self.starts = np.empty((0, dim))
        self.M = np.zeros((n_steps, dim, dim + 1))
        self.R = np.tile(np.eye(dim + 1) / alpha, (n_steps, 1, 1))
        self.V = np.tile(np.eye(dim) / beta, (n_steps, 1, 1))
        self.nu = np.full(n_steps, 1.0 / beta)


def assimilate_demo(learner: IncrementalLearner, demo: StateTrajectory,
                    weights: np.ndarray) -> IncrementalLearner:
    """Fold one demonstration into every interval's belief; interval i sees
    the transition x_i -> x_{i+1} with the input-node weight w(x_i). Mutates
    and returns the learner.

    Per interval, in order: R gains the weighted input outer product; M
    blends the new weighted cross term with the previous evidence through a
    solve against the new R (a Cholesky solve, never an inverse, since early
    R are nearly singular by construction); V absorbs the weighted residual
    around the new M plus a drift term for the mean change; nu gains one.
    """
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
    w = weights[:-1, None, None]
    x_tilde = np.ones((learner.n_steps, learner.dim + 1))
    x_tilde[:, 1:] = demo.states[:-1]
    x_out = demo.states[1:]
    r_prev, m_prev = learner.R, learner.M
    with np.errstate(over="ignore", invalid="ignore"):  # solve_intervals names an overflow
        r_new = r_prev + w * (x_tilde[:, :, None] * x_tilde[:, None, :])
        cross = w * (x_out[:, :, None] * x_tilde[:, None, :]) + m_prev @ r_prev
    m_new = solve_intervals(r_new, cross, "MNIW column statistics R not positive definite")
    resid = x_out - (m_new @ x_tilde[:, :, None])[:, :, 0]
    drift = m_new - m_prev
    learner.V = (learner.V + w * (resid[:, :, None] * resid[:, None, :])
                 + drift @ r_prev @ drift.transpose(0, 2, 1))
    learner.R = r_new
    learner.M = m_new
    learner.nu = learner.nu + 1.0
    learner.starts = np.concatenate([learner.starts, demo.states[:1]])
    return learner


def extract_map(learner: IncrementalLearner) -> SkillModel:
    """Posterior-mode dynamics, Phi_tilde = M and Q = V / (nu + D + 1),
    started from the moments of the assimilated demos' start states; a
    ValueError before any demonstration."""
    if len(learner.starts) == 0:
        raise ValueError("no demonstration assimilated yet: the model has no start state")
    q = learner.V / (learner.nu + learner.dim + 1)[:, None, None]
    return SkillModel(learner.M.copy(), (q + q.transpose(0, 2, 1)) / 2.0, learner.dt,
                      *start_moments(learner.starts))


# The checkpoint format: one npz archive of these arrays, no pickles.
CHECKPOINT_VERSION = 2
CHECKPOINT_KEYS = ("version", "alpha", "beta", "dt", "M", "R", "V", "nu", "starts")
_ZIP_MAGIC = b"PK\x03\x04"


def save_checkpoint(path: str, learner: IncrementalLearner) -> None:
    """The learner's statistics and settings as a versioned npz archive,
    written atomically to exactly `path`."""
    atomic_write_npz(path, dict(zip(CHECKPOINT_KEYS, (
        np.array(CHECKPOINT_VERSION), np.array(learner.alpha), np.array(learner.beta),
        np.array(float(learner.dt)), learner.M, learner.R, learner.V, learner.nu,
        learner.starts))))


def _field(data: dict, key: str, shape: tuple) -> np.ndarray:
    """`data[key]` as floats; a ValueError unless it is a real number array of `shape`."""
    value = data[key]
    if value.shape != shape or value.dtype.kind not in "iuf":
        raise ValueError(f"{key} must be a number array of shape {shape}, "
                         f"got {value.dtype} {value.shape}")
    return value.astype(float)


def load_checkpoint(path: str) -> IncrementalLearner:
    """The learner saved at `path`; a ValueError naming the field when the
    file is not a readable npz archive or a checkpoint of this version, lacks
    a field, or holds a shape or value the learner cannot have."""
    with open(path, "rb") as fh:
        if fh.read(len(_ZIP_MAGIC)) != _ZIP_MAGIC:
            raise ValueError("not an npz checkpoint (a JSON checkpoint of an earlier "
                             "version cannot be read; assimilate into a new checkpoint)")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as npz:
                data = {k: npz[k] for k in CHECKPOINT_KEYS if k in npz.files}
        except zipfile.BadZipFile as exc:  # a truncated or damaged archive
            raise ValueError(f"damaged npz archive ({exc})") from exc
    if "version" in data and _field(data, "version", ()) != CHECKPOINT_VERSION:
        raise ValueError(f"version must be {CHECKPOINT_VERSION}, got "
                         f"{float(data['version']):g} (assimilate into a new checkpoint)")
    missing = [k for k in CHECKPOINT_KEYS if k not in data]
    if missing:
        raise ValueError(f"missing key {missing[0]!r}")
    alpha, beta, dt = (float(_field(data, k, ())) for k in ("alpha", "beta", "dt"))
    for key, value in (("alpha", alpha), ("beta", beta), ("dt", dt)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{key} must be a positive finite number, got {value}")
    m = data["M"]
    if m.ndim != 3 or 0 in m.shape or m.shape[2] != m.shape[1] + 1:
        raise ValueError(f"M must be a number array of shape (N, D, D+1) with N, D >= 1, "
                         f"got {m.shape}")
    n, d = m.shape[:2]
    learner = IncrementalLearner(n, d, alpha, beta, dt=dt)
    for key, shape in (("M", m.shape), ("R", (n, d + 1, d + 1)), ("V", (n, d, d)), ("nu", (n,)),
                       ("starts", (np.shape(data["starts"])[:1] or (0,)) + (d,))):
        value = _field(data, key, shape)
        if not np.isfinite(value).all():
            raise ValueError(f"{key} must be finite")
        setattr(learner, key, value)
    if not np.all(learner.nu > 0):
        raise ValueError("nu must be positive")
    return learner
