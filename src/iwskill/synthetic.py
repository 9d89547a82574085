"""Synthetic desk-scale scenes for experiments and acceptance checks.

Two 2-D setups mirror the robot skills qualitatively:

* reaching: several starts, one shared goal. Demos whose straight path is
  blocked by a disc detour over it; the rest fly straight.
* placing: one shared start, several table targets. The first demos arc
  over a box that later disappears, after which clean demos go straight.

All demos are smooth splines over straight-line intents plus a compactly
supported detour bump, with a little band-limited noise so the regression
problems are not exactly degenerate.
"""

from dataclasses import dataclass

import numpy as np

from .demos import RawDemo
from .environment import Box, Environment, Sphere, WeightParams


def _dome(x: np.ndarray, center: float, peak: float, width: float,
          power: float = 0.8) -> np.ndarray:
    """Height profile peaking over an obstacle, zero outside
    [center - width, center + width]. Taking max(path, dome) routes a path
    over the obstacle and leaves it untouched outside the footprint; the
    sub-quadratic power fattens the shoulders so the profile stays outside a
    circular obstacle all the way down its sides."""
    t = np.clip(np.abs(x - center) / width, 0.0, 1.0)
    return peak * np.cos(0.5 * np.pi * t) ** power


def _band_noise(rng, s: np.ndarray, amplitude: float) -> np.ndarray:
    """Low-order random Fourier wiggle, pinned to zero at both endpoints."""
    out = np.zeros_like(s)
    for k in range(1, 4):
        out += rng.normal(scale=amplitude / k) * np.sin(np.pi * k * s)
    return out


def _pace(s: np.ndarray, c: float) -> np.ndarray:
    """Monotone progress profile with per-demo pacing: gamma(0)=0, gamma(1)=1,
    speed modulated by 1 + c cos(pi s). Distinct pacings keep the per-step
    regression problems well excited along the motion direction."""
    return s + c * np.sin(np.pi * s) / np.pi


def _demo(rng, s: np.ndarray, start: np.ndarray, goal: np.ndarray, c: float, noise: float,
          bump: tuple | None = None) -> RawDemo:
    """The line from start to goal at pacing c, its height first raised over
    the dome `bump` (center, peak, width) if given, plus band noise drawn
    axis by axis."""
    pos = start[None, :] + _pace(s, c)[:, None] * (goal - start)[None, :]
    if bump is not None:
        pos[:, 1] = np.maximum(pos[:, 1], _dome(pos[:, 0], *bump))
    noise_rows = np.stack([_band_noise(rng, s, noise) for _ in range(pos.shape[1])], axis=1)
    return RawDemo(timestamps=s.copy(), positions=pos + noise_rows)


@dataclass(frozen=True)
class ReachingScene:
    raw_demos: list
    env: Environment
    goal: np.ndarray
    starts: np.ndarray
    n_influenced: int
    weight_params: WeightParams


def make_reaching_scene(n_raw: int = 60, noise: float = 0.0, seed: int = 0) -> ReachingScene:
    """Eight demos toward the goal (3, 1.5): the four middle starts head
    straight into a disc and detour over it, the outer four (two below, two
    above) stay clear of the influence zone (epsilon = 0.3 around the disc).

    The outer starts bracket the mean start on purpose: the rollout of the
    weighted prior then interpolates, rather than extrapolates, the clean
    demonstrations inside the obstacle window. Pacings are fixed and crossed
    against the start ordering so starts and pacings never collapse into a
    collinear family.
    """
    rng = np.random.default_rng(seed)
    goal = np.array([3.0, 1.5])
    disc = Sphere(center=np.array([1.5, 0.93]), radius=0.2)
    env = Environment(dimension=2, obstacles=[disc])
    influenced_starts = [np.array([0.0, y]) for y in (0.06, 0.26, 0.46, 0.66)]
    clean_starts = [np.array([0.0, y]) for y in (-1.6, -1.3, 1.5, 1.7)]

    s = np.linspace(0.0, 1.0, n_raw)
    # detour apex above the disc; the dome footprint stays inside the region
    # where the weights have already decayed to ~0, so the visible detour
    # never contaminates full-weight samples
    bump = (disc.center[0], disc.center[1] + disc.radius + 0.15, 0.44)
    # small spread: enough signal to pin the motion-direction response of the
    # per-step fits, small enough that family curvature stays negligible
    pacings = [0.0075, -0.0175, 0.0175, -0.0075, 0.0125, -0.02, 0.02, -0.0125]
    demos = ([_demo(rng, s, start, goal, c, noise, bump)
              for start, c in zip(influenced_starts, pacings[:4])]
             + [_demo(rng, s, start, goal, c, noise)
                for start, c in zip(clean_starts, pacings[4:])])
    return ReachingScene(raw_demos=demos, env=env, goal=goal,
                         starts=np.stack(influenced_starts + clean_starts),
                         n_influenced=len(influenced_starts),
                         weight_params=WeightParams(epsilon=0.3, sigma_obs=0.01))


@dataclass(frozen=True)
class PlacingScene:
    influenced_raw: list
    clean_raw: list
    cluttered_env: Environment
    clean_env: Environment
    start: np.ndarray
    targets: np.ndarray
    weight_params: WeightParams


def make_placing_scene(n_raw: int = 60, noise: float = 0.0, seed: int = 1) -> PlacingScene:
    """Placing from a fixed start onto three table spots. With the box
    present every demo arcs over it; with the box gone the demos go straight."""
    rng = np.random.default_rng(seed)
    start = np.array([0.0, 0.60])
    targets = np.stack([np.array([x, 0.05]) for x in (0.95, 1.05, 1.15)])
    box = Box(lo=np.array([0.40, 0.0]), hi=np.array([0.60, 0.35]))
    cluttered = Environment(dimension=2, obstacles=[box])
    clean = Environment(dimension=2, obstacles=[])

    s = np.linspace(0.0, 1.0, n_raw)
    pacings = [0.015, -0.0175, 0.00375, -0.0125, 0.0175, -0.005]
    bump = ((box.lo[0] + box.hi[0]) / 2.0, box.hi[1] + 0.12, 0.30)  # arc apex above the box top
    influenced = [_demo(rng, s, start, goal, c, noise, bump)
                  for goal, c in zip(targets, pacings[:3])]
    clean_demos = [_demo(rng, s, start, goal, c, noise) for goal, c in zip(targets, pacings[3:])]
    return PlacingScene(influenced_raw=influenced, clean_raw=clean_demos,
                        cluttered_env=cluttered, clean_env=clean,
                        start=start, targets=targets,
                        weight_params=WeightParams(epsilon=0.3, sigma_obs=0.01))


def max_deviation_from_segment(positions: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Largest distance of the position rows from the segment [a, b]."""
    ab = b - a
    t = [np.clip(np.dot(p - a, ab) / np.dot(ab, ab), 0.0, 1.0) for p in positions]
    return max(float(np.linalg.norm(p - (a + ti * ab))) for p, ti in zip(positions, t))


def path_length(positions: np.ndarray) -> float:
    return float(np.sum(np.linalg.norm(np.diff(positions, axis=0), axis=1)))
