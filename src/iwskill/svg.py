"""Minimal SVG scene rendering: obstacle layouts, prior bands, and paths.

Everything is drawn in world coordinates through a single y-flip transform,
so callers pass meters. Output is deterministic text for a given scene.
"""

import io

import numpy as np

from .environment import Environment, Sphere


class SvgScene:
    """Collects shapes in world coordinates, renders one standalone 640 px
    wide SVG."""

    def __init__(self):
        self._shapes: list = []
        self._points: list = []

    def _add(self, shape: tuple, extent) -> None:
        self._shapes.append(shape)
        self._points.append(np.asarray(extent, dtype=float)[:, :2])

    def polyline(self, pts, color: str = "#1f77b4", width: float = 2.0,
                 opacity: float = 1.0, dashed: bool = False) -> None:
        pts = np.array(pts, dtype=float)
        self._add(("polyline", pts, color, width, opacity, dashed), pts)

    def environment(self, env: Environment) -> None:
        """Each obstacle's 2-D footprint: spheres as circles, boxes as rects."""
        for obs in env.obstacles:
            self._add(("circle", obs.center[:2], obs.radius) if isinstance(obs, Sphere)
                      else ("rect", obs.lo[:2], obs.hi[:2]), obs.bounds())

    def band(self, means: np.ndarray, half_widths: np.ndarray) -> None:
        """Shaded corridor around a 2-D path: each node offset by its
        half-width along the local path normal."""
        means = np.asarray(means, dtype=float)
        tangents = np.gradient(means, axis=0)
        with np.errstate(over="ignore"):  # an infinite norm leaves a zero-width band
            norms = np.linalg.norm(tangents, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        normal = np.stack([-tangents[:, 1], tangents[:, 0]], axis=1) / norms
        offset = half_widths[:, None] * normal
        pts = np.vstack([means + offset, (means - offset)[::-1]])
        self._add(("polygon", pts), pts)

    def render(self) -> str:
        pts = np.concatenate([np.empty((0, 2)), *self._points])
        if not len(pts):
            raise ValueError("nothing to render")
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        span = np.maximum(hi - lo, 1e-9)
        margin = 0.05 * float(span.max())
        lo, hi = lo - margin, hi + margin
        span = hi - lo
        scale = 640 / span[0]
        height_px = span[1] * scale

        def px(p):  # world points (k, 2) to pixels x0, y0, x1, y1, ...; world +y is up
            return np.column_stack([(p[:, 0] - lo[0]) * scale,
                                    (hi[1] - p[:, 1]) * scale]).ravel().tolist()

        def coords(p):
            return " ".join(["%.2f,%.2f"] * len(p)) % tuple(px(p))

        out = io.StringIO()
        out.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="640" '
                  f'height="{height_px:.0f}" viewBox="0 0 640 {height_px:.0f}">\n')
        out.write('<rect width="100%" height="100%" fill="white"/>\n')
        for kind, *data in self._shapes:
            if kind == "polyline":
                p, color, width, opacity, dashed = data
                dash = ' stroke-dasharray="6,4"' if dashed else ""
                out.write(f'<polyline points="{coords(p)}" fill="none" stroke="{color}" '
                          f'stroke-width="{width}" opacity="{opacity}"{dash}/>\n')
            elif kind == "polygon":
                out.write(f'<polygon points="{coords(data[0])}" fill="#aec7e8" opacity="0.5" '
                          f'stroke="none"/>\n')
            elif kind == "circle":
                center, radius = data
                (cx, cy), r = px(center[None]), radius * scale
                out.write(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r:.2f}" fill="#d62728" '
                          f'opacity="0.9"/>\n')
            else:
                low, high = data  # the top-left corner is (low x, high y)
                (x, y), (w, h) = px(np.array([[low[0], high[1]]])), (high - low) * scale
                out.write(f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
                          f'fill="#d62728" opacity="0.9"/>\n')
        out.write("</svg>\n")
        return out.getvalue()
