"""Demonstration ingestion: raw recordings -> aligned, uniformly sampled
state trajectories (positions stacked with spline-estimated velocities)."""

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .utils import read_json, write_json


@dataclass(frozen=True)
class RawDemo:
    """A recorded demonstration: strictly increasing, finite timestamps (s)
    and finite P-dimensional positions (m), P >= 1. Needs >= 4 samples for
    cubic splines."""

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
        bad = ~(np.isfinite(t) & np.isfinite(p).all(axis=1))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"row {i} is not finite: time {t[i]}, position {p[i].tolist()}")
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


# Demo pairs one DTW wavefront advances together: its int8 step stack, 8·(n+1)·(m+1)
# bytes, stays below the n·m·(16 + 8P) bytes of a dense single-pair DTW's floats.
DTW_CHUNK = 8


@np.errstate(over="ignore")  # an overflowing distance is inf; learning reports it
def _dtw_chunk(a: np.ndarray, bs: list) -> list:
    """Optimal forward (i, j) index paths, each (2, length), from `a` (n, P)
    to each of `bs`, steps {(1,0),(0,1),(1,1)} over Euclidean distances, by one
    anti-diagonal wavefront over all pairs. Accumulated cell (r, c) needs only
    diagonals r+c-1 and r+c-2 (two rolling arrays indexed by r), so padding
    shorter demos never reaches a pair's own cells. Each cell keeps its step
    as int8, the first minimum of (diagonal, up, left): ties prefer the diagonal."""
    n, ms, kc = len(a), [len(b) for b in bs], len(bs)
    m = max(ms)
    rev = np.stack([np.pad(b[::-1], ((m - len(b), 0), (0, 0))) for b in bs])  # right-aligned
    steps = np.zeros((kc, (n + 1) * (m + 1)), dtype=np.int8)
    prev2, prev1 = np.full((2, kc, n + 1), np.inf)
    prev2[:, 0] = 0.0
    for s in range(2, n + m + 1):
        lo, hi = max(1, s - m), min(n, s - 1)
        diag, up, left = prev2[:, lo - 1:hi], prev1[:, lo - 1:hi], prev1[:, lo:hi + 1]
        dist = np.linalg.norm(a[lo - 1:hi] - rev[:, m - s + lo:m - s + hi + 1], axis=-1)
        best = np.minimum(diag, up)
        steps[:, lo * m + s:hi * m + s + 1:m] = np.where(left < best, 2, up < diag)
        prev2[:, 0] = np.inf                      # only diagonal 0 holds acc[0, 0] = 0
        prev2[:, lo:hi + 1] = dist + np.minimum(best, left)
        prev1, prev2 = prev2, prev1
    paths = []
    for k, mk in enumerate(ms):
        moves, i, j = memoryview(steps[k]), n - 1, mk - 1
        path = [(i, j)]
        while i > 0 or j > 0:
            move = 2 if i == 0 else 1 if j == 0 else moves[(i + 1) * (m + 1) + j + 1]
            i, j = i - (move != 2), j - (move != 1)
            path.append((i, j))
        paths.append(np.array(path[::-1]).T)
    return paths


def dtw_align(demos: list, reference_index: int | None = None) -> list:
    """Warp every demo onto the reference demo's time axis (default: the
    longest demo). Each reference sample receives the average, summed in path
    order, of the demo samples its optimal warping path matches to it."""
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
    others = demos[:reference_index] + demos[reference_index + 1:]
    n, aligned = len(ref), []
    for c in range(0, len(others), DTW_CHUNK):
        chunk = others[c:c + DTW_CHUNK]
        paths = _dtw_chunk(ref.positions, [d.positions for d in chunk])
        rows = np.concatenate([k * n + i for k, (i, _) in enumerate(paths)])
        sums = np.zeros((len(chunk) * n, ref.dim))
        np.add.at(sums, rows, np.concatenate([d.positions[j] for d, (_, j) in zip(chunk, paths)]))
        means = sums / np.bincount(rows, minlength=len(sums))[:, None]
        aligned += [RawDemo(timestamps=ref.timestamps.copy(), positions=p)
                    for p in means.reshape(len(chunk), n, ref.dim)]
    aligned.insert(reference_index, ref)
    return aligned


def load_raw_demo(path: str) -> RawDemo:
    """Read a raw demo from JSON ({"timestamps": [...], "positions": [[...]]})
    or CSV (column 0 = time, columns 1..P = position; header row optional)."""
    if path.endswith(".json"):
        data = read_json(path)
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

