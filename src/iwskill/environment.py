"""Obstacle scenes, signed-distance queries, and per-state importance weights.

Weights discount demonstration states near obstacles: a hinge cost is active
inside the influence zone (distance <= epsilon) and is squashed through a
Gaussian so the weight decays from 1 toward 0 as the state approaches an
obstacle.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .utils import checked_array, checked_number, read_json

# Signed distance reported when a scene has no obstacles (>= 1e6 by contract).
NO_OBSTACLE_DISTANCE = 1.0e9

# Largest SDF grid build_sdf will allocate (16 MB of float64 values).
MAX_SDF_CELLS = 2_000_000


class SdfGridError(ValueError):
    """A query outside a SignedDistanceField's grid, or a grid too large to
    build. `row` is the first offending row of a batched query."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


def _norms(d: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of d (n, dim). The stacked vector-vector
    matmul takes the same dot product np.linalg.norm takes on one vector, so
    each value is bit-identical to a per-row norm; norm(axis=-1) and einsum
    differ from it by 1 ulp on some rows. A norm past the float range is inf."""
    with np.errstate(over="ignore"):
        return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])


def _point_rows(p, dim: int) -> np.ndarray:
    """Points as a float array of rows (n, dim), or a ValueError."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[1] != dim:
        raise ValueError(f"query points of shape {p.shape}: need (n, {dim}) rows "
                         f"for the scene dimension {dim}")
    return p


@dataclass(frozen=True)
class Sphere:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", checked_array(self.center, "sphere center", (None,)))
        object.__setattr__(self, "radius", checked_number(self.radius, "sphere radius",
                                                          positive=True))

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def signed_distance(self, points) -> np.ndarray:
        """Signed distance of each point row (n, dim)."""
        return _norms(_point_rows(points, self.dim) - self.center) - self.radius

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.center - self.radius, self.center + self.radius


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = checked_array(self.lo, "box min", (None,))
        hi = checked_array(self.hi, "box max", (None,))
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise ValueError("box min must be strictly below max in every dimension")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def signed_distance(self, points) -> np.ndarray:
        """Signed distance of each point row (n, dim): the exact closed form,
        positive outside, negative inside."""
        rows = _point_rows(points, self.dim)
        q = np.abs(rows - (self.lo + self.hi) / 2.0) - (self.hi - self.lo) / 2.0
        return _norms(np.maximum(q, 0.0)) + np.minimum(q.max(axis=1), 0.0)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.lo.copy(), self.hi.copy()


@dataclass(frozen=True)
class Environment:
    """A static obstacle scene in 2 or 3 dimensions."""

    dimension: int
    obstacles: list = field(default_factory=list)

    def __post_init__(self):
        object.__setattr__(self, "dimension", checked_number(self.dimension, "dimension", int))
        if self.dimension not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.dimension!r}")
        for i, obs in enumerate(self.obstacles):
            if obs.dim != self.dimension:
                raise ValueError(f"obstacles[{i}] has dimension {obs.dim}, the scene "
                                 f"{self.dimension}")
            with np.errstate(over="ignore"):
                lo, hi = obs.bounds()
                if not np.isfinite(hi - lo).all():
                    raise ValueError(f"obstacles[{i}] is wider than the float range")


def signed_distance(env: Environment, points) -> np.ndarray:
    """Exact signed distance from each point row (n, dim) to the nearest
    obstacle surface (negative inside). Obstacle-free scenes return a large
    sentinel."""
    rows = _point_rows(points, env.dimension)
    if not env.obstacles:
        return np.full(rows.shape[0], NO_OBSTACLE_DISTANCE)
    out = env.obstacles[0].signed_distance(rows)
    for obs in env.obstacles[1:]:
        np.minimum(out, obs.signed_distance(rows), out=out)
    return out


class SignedDistanceField:
    """Dense grid of signed distances with multilinear interpolation.

    Off-node queries interpolate the surrounding cell; gradients differentiate
    the interpolant itself (axis differences of the bracketing grid values),
    so they are the exact spatial derivative of `query` inside each cell.
    """

    def __init__(self, origin: np.ndarray, resolution: float, values: np.ndarray):
        self.origin = np.asarray(origin, dtype=float)
        self.resolution = float(resolution)
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != self.origin.shape[0]:
            raise ValueError("grid rank must match origin dimension")
        self.dim = self.values.ndim
        self.upper = self.origin + self.resolution * (np.array(self.values.shape) - 1)
        # corner offsets of one cell, shape (2**dim, dim)
        self._corners = np.stack(np.meshgrid(*([np.array([0, 1])] * self.dim), indexing="ij"),
                                 axis=-1).reshape(-1, self.dim)

    def _interpolate(self, p, gradient: bool) -> np.ndarray:
        """Multilinear value (n,) or its gradient (n, dim) at point rows
        (n, dim); SdfGridError names the first row off the grid. Corners are
        visited in a fixed order and each corner's weight is a left-to-right
        product, so a batched query is bit-identical to querying its rows one
        at a time."""
        rows = _point_rows(p, self.dim)
        eps = 1e-9 * self.resolution
        outside = np.any((rows < self.origin - eps) | (rows > self.upper + eps), axis=1)
        if outside.any():
            row = int(np.argmax(outside))
            raise SdfGridError(f"query {rows[row].tolist()} outside SDF bounds "
                               f"[{self.origin.tolist()}, {self.upper.tolist()}]", row=row)
        rel = (rows - self.origin) / self.resolution
        cell = np.clip(np.floor(rel).astype(int), 0, np.array(self.values.shape) - 2)
        frac = np.clip(rel - cell, 0.0, 1.0)
        out = np.zeros(frac.shape if gradient else frac.shape[0])
        for corner in self._corners:
            v = self.values[tuple((cell + corner).T)]
            w = np.where(corner == 1, frac, 1.0 - frac)
            if gradient:
                sign = np.where(corner == 1, 1.0, -1.0)
                for k in range(self.dim):
                    out[:, k] += v * sign[k] * np.prod(np.delete(w, k, axis=1), axis=1)
            else:
                out += np.prod(w, axis=1) * v
        return out / self.resolution if gradient else out

    def query(self, p) -> np.ndarray:
        """Interpolated distance (n,) of point rows (n, dim). Raises
        SdfGridError off the grid."""
        return self._interpolate(p, gradient=False)

    def gradient(self, p) -> np.ndarray:
        """Gradient (n, dim) of `query` at point rows (n, dim)."""
        return self._interpolate(p, gradient=True)


def build_sdf(env: Environment, lo, hi, resolution: float) -> SignedDistanceField:
    """Sample `signed_distance` on a uniform grid covering [lo, hi], in one
    batched call. Grids over MAX_SDF_CELLS are refused (SdfGridError) before
    anything is allocated."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if not resolution > 0:
        raise ValueError("resolution must be positive")
    if lo.shape != (env.dimension,) or hi.shape != (env.dimension,) or np.any(lo >= hi):
        raise ValueError("degenerate bounds: need lo < hi matching the environment dimension")
    with np.errstate(over="ignore"):  # an infinite count is refused below
        counts = (np.ceil((hi - lo) / resolution) + 1).tolist()
    if math.prod(counts) > MAX_SDF_CELLS:
        raise SdfGridError(f"SDF grid {'x'.join(f'{c:.6g}' for c in counts)} at resolution "
                           f"{resolution} exceeds {MAX_SDF_CELLS} cells")
    shape = tuple(int(c) for c in counts)
    axes = [lo[k] + resolution * np.arange(shape[k]) for k in range(env.dimension)]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, env.dimension)
    values = signed_distance(env, points).reshape(shape)
    return SignedDistanceField(origin=lo, resolution=resolution, values=values)


@dataclass(frozen=True)
class WeightParams:
    """Danger-area radius epsilon (m) and weight decay scale sigma_obs (m)."""

    epsilon: float = 0.3
    sigma_obs: float = 0.01

    def __post_init__(self):
        if not self.epsilon >= 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon!r}")
        if not (self.sigma_obs > 0 and 0 < self.sigma_obs * self.sigma_obs < math.inf):
            raise ValueError(f"sigma_obs must be a positive number whose square is positive "
                             f"and finite, got {self.sigma_obs!r}")


def hinge_cost(d, params: WeightParams):
    """-d + epsilon inside the influence zone (d <= epsilon), 0 outside;
    elementwise on an array of distances."""
    return np.maximum(params.epsilon - d, 0.0)


def weight_trajectory(states: np.ndarray, env: Environment | None,
                      params: WeightParams) -> np.ndarray:
    """Importance weights exp(-c(x)^2 / (2 sigma_obs^2)) in (0, 1] of node
    rows (n, D), D = dim or 2 dim, against the exact distances of their
    position components to the obstacles of scene `env`; all ones for `env`
    None."""
    if env is None:
        return np.ones(states.shape[0])
    dim = env.dimension
    if states.ndim != 2 or states.shape[1] not in (dim, 2 * dim):
        raise ValueError(f"state of length {states.shape[1:]} incompatible with {dim}-D scene")
    c = hinge_cost(signed_distance(env, states[:, :dim]), params)
    with np.errstate(over="ignore"):  # a cost past the float range weighs 0
        return np.exp(-c * c / (2.0 * params.sigma_obs ** 2))


def load_environment(path: str) -> Environment:
    return environment_from_dict(read_json(path))


def environment_from_dict(data: dict) -> Environment:
    """The scene of a JSON dict; a ValueError names `obstacles[i]` when an
    obstacle is not one of its type."""
    if not isinstance(data, dict):
        raise ValueError(f"the scene must be an object, got {data!r}")
    obstacles = []
    for i, spec in enumerate(data.get("obstacles", [])):
        if not isinstance(spec, dict):
            raise ValueError(f"obstacles[{i}] must be an object, got {spec!r}")
        kind = spec.get("type")
        try:
            if kind == "sphere":
                obstacles.append(Sphere(center=spec.get("center"), radius=spec.get("radius")))
            elif kind == "box":
                obstacles.append(Box(lo=spec.get("min"), hi=spec.get("max")))
            else:
                raise ValueError(f"unknown obstacle type: {kind!r}")
        except ValueError as exc:
            raise ValueError(f"obstacles[{i}]: {exc}") from None
    return Environment(dimension=data.get("dimension"), obstacles=obstacles)


def environment_to_dict(env: Environment) -> dict:
    obstacles = []
    for obs in env.obstacles:
        if isinstance(obs, Sphere):
            obstacles.append({"type": "sphere", "center": obs.center.tolist(), "radius": obs.radius})
        else:
            obstacles.append({"type": "box", "min": obs.lo.tolist(), "max": obs.hi.tolist()})
    return {"dimension": env.dimension, "obstacles": obstacles}


def scene_bounds(env: Environment, margin: float) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned bounds enclosing all obstacles (at least one) plus a margin."""
    los, his = zip(*[obs.bounds() for obs in env.obstacles])
    return np.min(los, axis=0) - margin, np.max(his, axis=0) + margin
