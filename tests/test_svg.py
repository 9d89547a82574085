"""`SvgScene.render` maps each shape's points to pixels as arrays; its text
must equal that of a reference mapping one point at a time."""

import io

import numpy as np
import pytest

from iwskill.batch import SkillModel
from iwskill.cli import _band_scene, _plane
from iwskill.environment import Box, Environment, Sphere
from iwskill.prior import GaussianTrajectoryPrior
from iwskill.svg import SvgScene


def reference_render(scene: SvgScene) -> str:
    """The scene's SVG text, each point mapped through a scalar `xy`."""
    pts = np.vstack(scene._points)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    margin = 0.05 * float(span.max())
    lo, hi = lo - margin, hi + margin
    span = hi - lo
    scale = 640 / span[0]
    height_px = span[1] * scale

    def xy(p):
        return (p[0] - lo[0]) * scale, (hi[1] - p[1]) * scale

    def coords(p):
        return " ".join("%.2f,%.2f" % xy(q) for q in p)

    out = io.StringIO()
    out.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="640" '
              f'height="{height_px:.0f}" viewBox="0 0 640 {height_px:.0f}">\n')
    out.write('<rect width="100%" height="100%" fill="white"/>\n')
    for kind, *data in scene._shapes:
        if kind == "polyline":
            p, color, width, opacity, dashed = data
            dash = ' stroke-dasharray="6,4"' if dashed else ""
            out.write(f'<polyline points="{coords(p)}" fill="none" stroke="{color}" '
                      f'stroke-width="{width}" opacity="{opacity}"{dash}/>\n')
        elif kind == "polygon":
            out.write(f'<polygon points="{coords(data[0])}" fill="#aec7e8" opacity="0.5" '
                      f'stroke="none"/>\n')
        elif kind == "circle":
            (cx, cy), r = xy(data[0]), data[1] * scale
            out.write(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r:.2f}" fill="#d62728" '
                      f'opacity="0.9"/>\n')
        else:
            (x, y), (w, h) = xy([data[0][0], data[1][1]]), (data[1] - data[0]) * scale
            out.write(f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
                      f'fill="#d62728" opacity="0.9"/>\n')
    out.write("</svg>\n")
    return out.getvalue()


def obstacle_scene(seed: int, dim: int) -> SvgScene:
    """A disc and a box, a band, and a dashed and a solid polyline, on
    random coordinates that straddle zero."""
    rng = np.random.default_rng(seed)
    corner = rng.normal(size=dim)
    env = Environment(dimension=dim, obstacles=[
        Sphere(center=rng.normal(size=dim), radius=0.3),
        Box(lo=corner, hi=corner + rng.uniform(0.1, 1.0, size=dim))])
    path = np.cumsum(rng.normal(scale=0.2, size=(60, 2)), axis=0)
    scene = SvgScene()
    scene.environment(env)
    scene.band(path, np.abs(rng.normal(scale=0.1, size=60)))
    scene.polyline(path, dashed=True)
    scene.polyline(path[::-1] + rng.normal(scale=0.05, size=(60, 2)), color="#2ca02c",
                   width=2.5, opacity=0.5)
    return scene


def scalar_scene(seed: int) -> SvgScene:
    """The time-vs-value plane `rollout` and `reproduce` draw for a model of
    one-dimensional states."""
    rng = np.random.default_rng(seed)
    n = 30
    model = SkillModel(Phi_tilde=np.column_stack([rng.normal(scale=0.1, size=n),
                                                  np.full(n, 0.95)])[:, None, :],
                       Q=np.full((n, 1, 1), 0.01), dt=0.1, init_mean=[0.5], init_cov=[[0.01]])
    prior = GaussianTrajectoryPrior(model)
    scene = _band_scene(prior, None)
    scene.polyline(_plane(prior, prior.means), dashed=True)
    scene.polyline(_plane(prior, prior.means + rng.normal(scale=0.1, size=(n + 1, 1))))
    return scene


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("dim", [2, 3])
def test_obstacles_band_and_paths_equal_the_pointwise_reference(seed, dim):
    scene = obstacle_scene(seed, dim)
    svg = scene.render()
    assert svg == reference_render(scene)
    assert [svg.count(f"<{tag} ") for tag in ("circle", "rect", "polygon", "polyline")] == \
        [1, 2, 1, 2]  # the background is a rect too


@pytest.mark.parametrize("seed", range(4))
def test_scalar_time_value_plane_equals_the_pointwise_reference(seed):
    scene = scalar_scene(seed)
    assert scene.render() == reference_render(scene)


def test_a_scene_without_points_is_refused():
    scene = SvgScene()
    with pytest.raises(ValueError, match="nothing to render"):
        scene.render()
    scene.polyline(np.empty((0, 2)))
    with pytest.raises(ValueError, match="nothing to render"):
        scene.render()
