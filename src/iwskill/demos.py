"""Demonstration ingestion: raw recordings -> aligned, uniformly sampled
state trajectories (positions stacked with spline-estimated velocities)."""

import csv
from dataclasses import dataclass, field

import numpy as np

from .utils import checked_array, read_json, write_json


@dataclass(frozen=True)
class RawDemo:
    """A recorded demonstration: strictly increasing, finite timestamps (s)
    and finite P-dimensional positions (m), P >= 1. Needs >= 4 samples for
    cubic splines."""

    timestamps: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        p = checked_array(self.positions, "positions", (None, None))
        t = checked_array(self.timestamps, "timestamps", p.shape[:1])
        if t.shape[0] < 4:
            raise ValueError(f"too few samples: need >= 4 for a cubic spline, got {t.shape[0]}")
        if np.any(t[1:] <= t[:-1]):  # no subtraction: it overflows past the float range
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
    `positions` view assumes that split. Reproduction solutions reuse
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
        same_dt = np.isclose([traj.dt for traj in self.demos], dt, rtol=1e-9, atol=1e-12)
        for k, traj in enumerate(self.demos):
            if traj.n_steps != n or traj.dim != d:
                raise ValueError(f"demo {k} grid mismatch: ({traj.n_steps}, {traj.dim}) vs ({n}, {d})")
            if not same_dt[k]:
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


def _spline_slopes(dx: list, b: np.ndarray) -> np.ndarray:
    """The knot slopes (n, m) of the natural spline with steps dx (n-1
    Python floats, each > 0) for the right-hand side b (n, m): LAPACK
    dgtsv's solve of the tridiagonal system, operation for operation.

    Partial pivoting interchanges rows i and i+1 when the sub-diagonal entry
    beats the pivot, which fills in the second super-diagonal; elsewhere that
    entry is 0.0, and the back solve still subtracts 0.0 times the unknown it
    multiplies, which can turn a -0.0 into 0.0. Pivots and factors depend on
    the steps alone, so they are computed once, on Python floats. The
    sub-diagonal holds the steps, so no division is by zero and only the last
    pivot can vanish: LAPACK's singular matrix."""
    n = len(dx) + 1
    dl, du = dx[1:] + dx[-1:], dx[:1] + dx[:-1]  # natural ends: zero curvature
    d = [2 * dx[0]] + [2 * (a + c) for a, c in zip(dx, dx[1:])] + [2 * dx[-1]]
    fill, steps = [0.0] * (n - 2), []
    for i in range(n - 1):
        swap = not abs(d[i]) >= dl[i]  # a NaN pivot interchanges too
        if swap:
            f = d[i] / dl[i]
            d[i], d[i + 1], du[i] = dl[i], du[i] - f * d[i + 1], d[i + 1]
            if i < n - 2:
                fill[i] = du[i + 1]
                du[i + 1] = -f * fill[i]
        else:
            f = dl[i] / d[i]
            d[i + 1] -= f * du[i]
        steps.append((f, swap))
    if d[-1] == 0:
        raise np.linalg.LinAlgError("singular matrix")
    back = list(zip(du[-2::-1], fill[::-1], d[-3::-1]))  # rows n-3, ..., 0

    def sweep(rhs):
        """The solution for `rhs`, one column of n Python floats."""
        carry, rows = rhs[0], []  # carry: row i of the eliminated system, not yet final
        for (f, swap), nxt in zip(steps, rhs[1:]):
            if swap:
                rows.append(nxt)
                carry = carry - f * nxt
            else:
                rows.append(carry)
                carry = nxt - f * carry
        x1 = carry / d[-1]
        x0 = (rows[-1] - du[-1] * x1) / d[-2]
        x = [x1, x0]
        for (u, l, p), r in zip(back, rows[-2::-1]):
            x0, x1 = (r - u * x0 - l * x1) / p, x0
            x.append(x0)
        return x[::-1]

    return np.array([sweep(col) for col in b.T.tolist()]).T


def estimate_states(demo: RawDemo, n_steps: int) -> StateTrajectory:
    """Sample the demo's natural cubic spline at n_steps+1 uniform times and
    stack positions with spline derivatives into full states; a ValueError
    when the knot slopes or the states overflow, and a LinAlgError (a
    ValueError) when the spline's tridiagonal system is singular.

    The arithmetic is scipy's `CubicSpline(bc_type="natural")` and its
    `.derivative()`, operation for operation, so the states are bit-equal to
    scipy's: the knot slopes s from LAPACK's tridiagonal solve (dgtsv),
    computed in numpy and Python floats, the same Hermite coefficients, and
    PPoly's power sums, added left to right from 0.0 (which turns a -0.0
    into 0.0). Each column is fit on its own, so demos sharing timestamps can
    be fit as one wide demo."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    t, y = demo.timestamps, demo.positions
    with np.errstate(over="ignore", invalid="ignore"):  # the check below fails instead
        dx = np.diff(t)
        dxr = dx[:, None]
        slope = np.diff(y, axis=0) / dxr
        b = np.empty_like(y)
        b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        # scipy's end rows for a zero second derivative with its zero terms: the last
        # row's turns a -0.0 into 0.0, and either is NaN when dx² overflows
        b[0] = -0.5 * 0.0 * dx[0] ** 2 + 3 * (y[1] - y[0])
        b[-1] = 0.5 * 0.0 * dx[-1] ** 2 + 3 * (y[-1] - y[-2])
        s = _spline_slopes(dx.tolist(), b)
        tau = (s[:-1] + s[1:] - 2 * slope) / dxr
        c0, c1, c2, c3 = tau / dxr, (slope - s[:-1]) / dxr - tau, s[:-1], y[:-1]
        tq = np.linspace(t[0], t[-1], n_steps + 1)
        i = np.clip(np.searchsorted(t, tq, "right") - 1, 0, len(t) - 2)
        h = (tq - t[i])[:, None]
        c0, c1, c2, c3 = c0[i], c1[i], c2[i], c3[i]
        states = np.hstack([0.0 + c3 + c2 * h + c1 * (h * h) + c0 * (h * h * h),
                            0.0 + c2 + (2.0 * c1) * h + (3.0 * c0) * (h * h)])
    if not (np.isfinite(s).all() and np.isfinite(states).all()):
        raise ValueError("the spline states are not finite (overflow)")
    return StateTrajectory(dt=(t[-1] - t[0]) / n_steps, states=states)


# Demo pairs one DTW wavefront advances together: its int8 step stack, 8·n·m bytes,
# stays below the n·m·(16 + 8P) bytes of a dense single-pair DTW's floats.
DTW_CHUNK = 8


@np.errstate(over="ignore")  # an overflowing distance is inf; learning reports it
def _dtw_chunk(a: np.ndarray, bs: list) -> list:
    """Optimal forward (i, j) index paths, each (2, length), from `a` (n, P)
    to each of `bs`, steps {(1,0),(0,1),(1,1)} over Euclidean distances, by one
    anti-diagonal wavefront over all kc pairs. Node-major data (`a` tiled to
    (P, n, kc), the reversed, right-aligned demos as (P, m, kc)) makes each
    operand of a diagonal step one contiguous (L cells, kc) block. Cell (r, c)
    needs only diagonals r+c-1 and r+c-2 (two rolling (n+1, kc) arrays indexed
    by r), so padding shorter demos never reaches a pair's own cells. Squared
    differences add in coordinate order, bit-equal to `np.linalg.norm` for
    P <= 7; from P = 8 numpy's norm sums pairwise and may differ in the last
    bit. Each cell keeps its step as int8, the first minimum of (diagonal 0,
    up 1, left 2): ties prefer the diagonal. The (n·m, kc) step stack holds
    each diagonal's cells as consecutive rows: cell (r, c) is row start[r+c] + r."""
    n, ms, kc, dim = len(a), [len(b) for b in bs], len(bs), a.shape[1]
    m = max(ms)
    ref = np.repeat(a.T[:, :, None], kc, axis=2)
    rev = np.zeros((dim, m, kc))
    for k, b in enumerate(bs):
        rev[:, m - len(b):, k] = b[::-1].T
    steps, start, row = np.empty((n * m, kc), dtype=np.int8), [0] * (n + m + 1), 0
    up_steps = steps.view(bool)
    prev2, prev1 = np.full((2, n + 1, kc), np.inf)
    prev2[0] = 0.0
    dist_buf, sq = np.empty((2, n, kc))
    for s in range(2, n + m + 1):
        lo, hi = max(1, s - m), min(n, s - 1)
        size, start[s] = hi - lo + 1, row - lo
        dist, x = dist_buf[:size], sq[:size]
        np.subtract(ref[0, lo - 1:hi], rev[0, m - s + lo:m - s + hi + 1], out=dist)
        dist *= dist                               # 0.0 + x*x is x*x: the sum's order holds
        for p in range(1, dim):
            np.subtract(ref[p, lo - 1:hi], rev[p, m - s + lo:m - s + hi + 1], out=x)
            x *= x
            dist += x
        np.sqrt(dist, out=dist)
        diag, up, left = prev2[lo - 1:hi], prev1[lo - 1:hi], prev1[lo:hi + 1]
        best = np.minimum(diag, up)
        step = steps[row:row + size]
        np.less(up, diag, out=up_steps[row:row + size])
        np.copyto(step, 2, where=left < best)
        np.minimum(best, left, out=best)
        prev2[0] = np.inf                         # only diagonal 0 holds acc[0, 0] = 0
        np.add(dist, best, out=prev2[lo:hi + 1])
        prev1, prev2, row = prev2, prev1, row + size
    moves, paths = memoryview(steps.reshape(-1)), []
    for k, mk in enumerate(ms):
        i, j = n - 1, mk - 1
        path = [(i, j)]
        while i > 0 or j > 0:
            move = 2 if i == 0 else 1 if j == 0 else moves[(start[i + j + 2] + i + 1) * kc + k]
            i, j = i - (move != 2), j - (move != 1)
            path.append((i, j))
        paths.append(np.array(path[::-1]).T)
    return paths


def dtw_align(demos: list) -> list:
    """Warp every demo onto the reference demo's time axis: the longest demo,
    the first of them on ties. Each reference sample receives the average,
    summed in path order, of the demo samples its optimal warping path
    matches to it."""
    if len(demos) == 0:
        raise ValueError("empty demonstration set")
    dims = {d.dim for d in demos}
    if len(dims) != 1:
        raise ValueError(f"demonstrations disagree on position dimension: {sorted(dims)}")
    r = int(np.argmax([len(d) for d in demos]))
    ref, others = demos[r], demos[:r] + demos[r + 1:]
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
    aligned.insert(r, ref)
    return aligned


def load_raw_demo(path: str) -> RawDemo:
    """Read a raw demo from JSON ({"timestamps": [...], "positions": [[...]]})
    or CSV (column 0 = time, columns 1..P = position; header row optional)."""
    if path.endswith(".json"):
        data = read_json(path)
        return RawDemo(timestamps=data["timestamps"], positions=data["positions"])
    with open(path, newline="", encoding="utf-8-sig") as fh:  # a leading BOM is not a header
        rows = [row for row in csv.reader(fh) if row]
    if rows:
        try:
            float(rows[0][0])
        except ValueError:
            rows = rows[1:]
    if not rows:
        raise ValueError("no samples")
    arr = np.asarray([[float(v) for v in row] for row in rows])
    return RawDemo(timestamps=arr[:, 0], positions=arr[:, 1:])


def save_raw_demo(path: str, demo: RawDemo) -> None:
    write_json(path, {"timestamps": demo.timestamps.tolist(),
                      "positions": demo.positions.tolist()})

