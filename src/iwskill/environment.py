"""Obstacle scenes, exact signed distances, and per-state importance weights.

Scenes are analytic spheres and boxes, so every distance is exact. Learning
weights demonstration states, and reproduction's obstacle factor penalizes
trajectory nodes, by the distance `nearest_obstacle` gives, with the nearest
obstacle's closed-form gradient. Weights discount demonstration states near
obstacles: a hinge cost is active inside the influence zone (distance <=
epsilon) and is squashed through a Gaussian so the weight decays from 1
toward 0 as the state approaches an obstacle.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .utils import checked_array, checked_number, read_json


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

    def distance(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Signed distance (n,) of each point row (n, dim), and its gradient
        (n, dim): the unit vector from the centre; a zero row exactly at the
        centre, where the distance has no gradient."""
        offset = rows - self.center
        norm = _norms(offset)
        grad = np.divide(offset, norm[:, None], out=np.zeros_like(offset), where=norm[:, None] > 0)
        return norm - self.radius, grad

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

    def distance(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Signed distance (n,) of each point row (n, dim), the exact closed
        form, positive outside and negative inside; and its gradient (n, dim).
        Outside, the row's excess over the half-widths, clipped at zero,
        normalized and signed per axis by the side of the centre; inside or on
        the surface, the signed unit axis of the largest excess (the first
        such axis on a tie, + on the centre plane)."""
        rel = rows - (self.lo + self.hi) / 2.0
        q = np.abs(rel) - (self.hi - self.lo) / 2.0
        outside = np.maximum(q, 0.0)
        norm = _norms(outside)
        axis = np.zeros_like(q)
        axis[np.arange(q.shape[0]), np.argmax(q, axis=1)] = 1.0
        grad = np.divide(outside, norm[:, None], out=axis, where=norm[:, None] > 0)
        return norm + np.minimum(q.max(axis=1), 0.0), np.where(rel < 0.0, -1.0, 1.0) * grad

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


def nearest_obstacle(env: Environment, points) -> tuple[np.ndarray, np.ndarray]:
    """Signed distance (n,) from each point row (n, dim) to its nearest
    obstacle, and that obstacle's gradient (n, dim) at the row. The one place
    that chooses an obstacle: a row equidistant from several takes the first
    of them in scene order, and the first NaN distance sticks. A row with no
    obstacle nearer than +inf (every row, without obstacles) reads +inf and 0."""
    rows = _point_rows(points, env.dimension)
    dist, grad = np.full(rows.shape[0], np.inf), np.zeros_like(rows)
    for d, g in (obs.distance(rows) for obs in env.obstacles):
        closer = ~(d >= dist) & ~np.isnan(dist)  # strictly nearer, or a first NaN
        dist, grad = np.where(closer, d, dist), np.where(closer[:, None], g, grad)
    return dist, grad


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


def weight_trajectory(positions: np.ndarray, env: Environment | None,
                      params: WeightParams) -> np.ndarray:
    """Importance weights exp(-c(x)^2 / (2 sigma_obs^2)) in (0, 1] of position
    rows (n, dim), against their exact distances to the obstacles of scene
    `env`; all ones for `env` None."""
    if env is None:
        return np.ones(len(positions))
    c = hinge_cost(nearest_obstacle(env, positions)[0], params)
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
