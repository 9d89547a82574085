"""Demonstration ingestion: raw recordings -> aligned, uniformly sampled
state trajectories (positions stacked with spline-estimated velocities)."""

import csv
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .utils import write_json


@dataclass(frozen=True)
class RawDemo:
    """A recorded demonstration: strictly increasing timestamps (s) and
    P-dimensional positions (m), P >= 1. Needs >= 4 samples for cubic splines."""

    timestamps: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.timestamps, dtype=float)
        p = np.asarray(self.positions, dtype=float)
        if p.ndim != 2 or p.shape[1] < 1:
            raise ValueError("positions must be a (samples, P) array with P >= 1")
        if t.ndim != 1 or t.shape[0] != p.shape[0]:
            raise ValueError("timestamps and positions must have matching sample counts")
        if t.shape[0] < 4:
            raise ValueError(f"too few samples: need >= 4 for a cubic spline, got {t.shape[0]}")
        if np.any(np.diff(t) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "positions", p)

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def __len__(self) -> int:
        return self.timestamps.shape[0]


@dataclass(frozen=True)
class StateTrajectory:
    """N+1 states on a uniform dt grid.

    Demonstration trajectories stack positions with velocities (D = 2P); the
    position/velocity views assume that split. Reproduction solutions reuse
    the container for whatever state dimension the model carries.
    """

    dt: float
    states: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.states, dtype=float)
        if s.ndim != 2 or s.shape[0] < 2:
            raise ValueError("states must be a (N+1, D) array with N >= 1")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        object.__setattr__(self, "states", s)

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def positions(self) -> np.ndarray:
        return self.states[:, : self.dim // 2]

    @property
    def velocities(self) -> np.ndarray:
        return self.states[:, self.dim // 2:]

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.states.shape[0])


@dataclass(frozen=True)
class DemoSet:
    """K state trajectories sharing one (N, dt) grid."""

    demos: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.demos) < 1:
            raise ValueError("a DemoSet needs at least one demonstration")
        n = self.demos[0].n_steps
        d = self.demos[0].dim
        dt = self.demos[0].dt
        for k, traj in enumerate(self.demos):
            if traj.n_steps != n or traj.dim != d:
                raise ValueError(f"demo {k} grid mismatch: ({traj.n_steps}, {traj.dim}) vs ({n}, {d})")
            if not np.isclose(traj.dt, dt, rtol=1e-9, atol=1e-12):
                raise ValueError(f"demo {k} dt mismatch: {traj.dt} vs {dt}")

    @property
    def k(self) -> int:
        return len(self.demos)

    @property
    def n_steps(self) -> int:
        return self.demos[0].n_steps

    @property
    def dim(self) -> int:
        return self.demos[0].dim

    @property
    def dt(self) -> float:
        return self.demos[0].dt


def fit_cubic_spline(demo: RawDemo) -> CubicSpline:
    """Natural cubic spline through the demo samples, one curve per dimension.

    The returned spline evaluates positions, and its `.derivative()` gives
    instantaneous velocities, anywhere inside [t_first, t_last].
    """
    return CubicSpline(demo.timestamps, demo.positions, bc_type="natural", axis=0)


def estimate_states(demo: RawDemo, n_steps: int) -> StateTrajectory:
    """Sample the demo spline at n_steps+1 uniform times and stack positions
    with spline derivatives into full states."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    spline = fit_cubic_spline(demo)
    t = np.linspace(demo.timestamps[0], demo.timestamps[-1], n_steps + 1)
    pos = spline(t)
    vel = spline.derivative()(t)
    dt = (demo.timestamps[-1] - demo.timestamps[0]) / n_steps
    return StateTrajectory(dt=dt, states=np.hstack([pos, vel]))


def dtw_cost_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Accumulated DTW cost over Euclidean point distances with steps
    {(1,0),(0,1),(1,1)}. Entry [i, j] is the optimal cost of aligning
    a[:i+1] with b[:j+1]."""
    dist = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    n, m = dist.shape
    acc = np.full((n + 1, m + 1), np.inf)
    acc[0, 0] = 0.0
    for i in range(n):
        for j in range(m):
            acc[i + 1, j + 1] = dist[i, j] + min(acc[i, j], acc[i, j + 1], acc[i + 1, j])
    return acc[1:, 1:]


def dtw_path(a: np.ndarray, b: np.ndarray) -> tuple[float, list]:
    """Optimal warping path [(i, j), ...] and its total cost.

    Ties in the traceback prefer the diagonal step, so the path (and hence
    the alignment) is deterministic.
    """
    acc = dtw_cost_matrix(a, b)
    i, j = acc.shape[0] - 1, acc.shape[1] - 1
    path = [(i, j)]
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            candidates = (acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1])
            move = int(np.argmin(candidates))
            if move == 0:
                i, j = i - 1, j - 1
            elif move == 1:
                i -= 1
            else:
                j -= 1
        path.append((i, j))
    path.reverse()
    return float(acc[-1, -1]), path


def dtw_align(demos: list, reference_index: int | None = None) -> list:
    """Warp every demo onto the reference demo's time axis.

    Each reference sample receives the average of the demo samples matched
    to it by the optimal warping path, so all outputs share the reference's
    timestamps and length. The reference defaults to the longest demo.
    """
    if len(demos) == 0:
        raise ValueError("empty demonstration set")
    dims = {d.dim for d in demos}
    if len(dims) != 1:
        raise ValueError(f"demonstrations disagree on position dimension: {sorted(dims)}")
    if reference_index is None:
        reference_index = int(np.argmax([len(d) for d in demos]))
    if not 0 <= reference_index < len(demos):
        raise ValueError(f"reference index {reference_index} out of range")
    ref = demos[reference_index]

    aligned = []
    for k, demo in enumerate(demos):
        if k == reference_index:
            aligned.append(demo)
            continue
        _, path = dtw_path(ref.positions, demo.positions)
        sums = np.zeros_like(ref.positions)
        counts = np.zeros(len(ref))
        for i, j in path:
            sums[i] += demo.positions[j]
            counts[i] += 1
        aligned.append(RawDemo(timestamps=ref.timestamps.copy(), positions=sums / counts[:, None]))
    return aligned


def load_raw_demo(path: str) -> RawDemo:
    """Read a raw demo from JSON ({"timestamps": [...], "positions": [[...]]})
    or CSV (column 0 = time, columns 1..P = position; header row optional)."""
    if path.endswith(".json"):
        with open(path) as fh:
            data = json.load(fh)
        return RawDemo(timestamps=np.asarray(data["timestamps"], dtype=float),
                       positions=np.asarray(data["positions"], dtype=float))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    try:
        float(rows[0][0])
    except ValueError:
        rows = rows[1:]
    arr = np.asarray([[float(v) for v in row] for row in rows if row])
    return RawDemo(timestamps=arr[:, 0], positions=arr[:, 1:])


def save_raw_demo(path: str, demo: RawDemo) -> None:
    write_json(path, {"timestamps": demo.timestamps.tolist(),
                      "positions": demo.positions.tolist()})

