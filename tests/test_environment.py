from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iwskill.environment import (Box, Environment, Sphere, WeightParams, environment_from_dict,
                                 environment_to_dict, hinge_cost, nearest_obstacle,
                                 weight_trajectory)


def surface_sample_distance(env, p, n=20000):
    """Oracle: signed distance via dense sampling of every obstacle surface,
    signed by an analytic inside test."""
    best = np.inf
    inside = False
    for obs in env.obstacles:
        if isinstance(obs, Sphere):
            theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
            pts = obs.center + obs.radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
            if np.linalg.norm(p - obs.center) < obs.radius:
                inside = True
        else:
            lo, hi = obs.lo, obs.hi
            per_edge = n // 4
            s = np.linspace(0.0, 1.0, per_edge)
            pts = np.concatenate([
                np.stack([lo[0] + s * (hi[0] - lo[0]), np.full(per_edge, lo[1])], axis=1),
                np.stack([lo[0] + s * (hi[0] - lo[0]), np.full(per_edge, hi[1])], axis=1),
                np.stack([np.full(per_edge, lo[0]), lo[1] + s * (hi[1] - lo[1])], axis=1),
                np.stack([np.full(per_edge, hi[0]), lo[1] + s * (hi[1] - lo[1])], axis=1),
            ])
            if np.all(p > lo) and np.all(p < hi):
                inside = True
        best = min(best, float(np.min(np.linalg.norm(pts - p, axis=1))))
    return -best if inside else best


@pytest.fixture
def two_obstacle_env():
    return Environment(dimension=2, obstacles=[
        Sphere(center=np.array([0.0, 0.0]), radius=1.0),
        Box(lo=np.array([2.0, -0.5]), hi=np.array([3.0, 1.5])),
    ])


class TestSignedDistance:
    def test_sphere_center_depth(self):
        env = Environment(dimension=2, obstacles=[Sphere(center=np.array([0.3, -0.2]), radius=0.75)])
        assert nearest_obstacle(env, np.array([[0.3, -0.2]]))[0] == pytest.approx([-0.75])

    def test_unit_sphere_outside(self):
        env = Environment(dimension=2, obstacles=[Sphere(center=np.zeros(2), radius=1.0)])
        assert nearest_obstacle(env, np.array([[2.0, 0.0]]))[0] == pytest.approx([1.0])

    def test_no_obstacles_sentinel(self):
        env = Environment(dimension=2, obstacles=[])
        assert nearest_obstacle(env, np.zeros((1, 2)))[0][0] == np.inf

    def test_dimension_mismatch(self):
        env = Environment(dimension=2, obstacles=[])
        with pytest.raises(ValueError, match="dimension"):
            nearest_obstacle(env, np.zeros((1, 3)))
        with pytest.raises(ValueError, match=r"need \(n, 2\) rows"):
            nearest_obstacle(env, np.zeros(2))  # one point is one row, not a vector

    def test_min_over_obstacles_vs_surface_sampling(self, two_obstacle_env):
        rng = np.random.default_rng(7)
        for _ in range(40):
            p = rng.uniform([-2.0, -2.0], [4.0, 3.0])
            expected = surface_sample_distance(two_obstacle_env, p)
            [d] = nearest_obstacle(two_obstacle_env, p[None])[0]
            assert d == pytest.approx(expected, abs=1e-3)

    def test_box_interior_and_faces(self):
        env = Environment(dimension=2, obstacles=[Box(lo=np.array([0.0, 0.0]), hi=np.array([2.0, 1.0]))])
        # interior, above the top face, and the corner region (Euclidean
        # distance to the corner)
        assert nearest_obstacle(env, np.array([[1.0, 0.5], [1.0, 2.0], [3.0, 2.0]]))[0] == \
            pytest.approx([-0.5, 1.0, np.sqrt(2.0)])

    def test_invariants_of_primitives(self):
        with pytest.raises(ValueError):
            Sphere(center=np.zeros(2), radius=0.0)
        with pytest.raises(ValueError):
            Box(lo=np.array([0.0, 1.0]), hi=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            Environment(dimension=2, obstacles=[Sphere(center=np.zeros(3), radius=1.0)])


def central_differences(f, p, h=1e-7):
    """Central finite differences (dim,) of the scalar function f of one
    point row at p."""
    fd = np.zeros(p.shape[0])
    for k in range(p.shape[0]):
        e = np.zeros(p.shape[0])
        e[k] = h
        [fd[k]] = (f((p + e)[None]) - f((p - e)[None])) / (2 * h)
    return fd


class TestSdf:
    def test_gradient_matches_finite_differences_of_query(self, two_obstacle_env):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = rng.uniform([-1.8, -1.8], [3.8, 2.8])
            [g] = nearest_obstacle(two_obstacle_env, p[None])[1]
            fd = central_differences(lambda q: nearest_obstacle(two_obstacle_env, q)[0], p)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_out_of_bounds_query(self, two_obstacle_env):
        # far outside the scene's bounds the nearest surface is the sphere's
        values, grads = nearest_obstacle(two_obstacle_env, np.array([[-10.0, 0.0], [0.0, -1e6]]))
        np.testing.assert_array_equal(values, [9.0, 1e6 - 1.0])
        np.testing.assert_array_equal(grads, [[-1.0, 0.0], [0.0, -1.0]])


def per_point_distance(env, p):
    """Oracle: the closed-form distance of one point, one obstacle at a time,
    with a per-point np.linalg.norm."""
    best = None
    for obs in env.obstacles:
        if isinstance(obs, Sphere):
            d = float(np.linalg.norm(p - obs.center) - obs.radius)
        else:
            q = np.abs(p - (obs.lo + obs.hi) / 2.0) - (obs.hi - obs.lo) / 2.0
            d = float(np.linalg.norm(np.maximum(q, 0.0)) + min(float(np.max(q)), 0.0))
        best = d if best is None else min(best, d)
    return best


def per_point_gradient(env, p):
    """Oracle: the gradient of one point's distance, axis by axis, taken from
    the first obstacle whose distance is the smallest."""
    best, grad = None, None
    for obs in env.obstacles:
        d = per_point_distance(Environment(dimension=env.dimension, obstacles=[obs]), p)
        if best is not None and not d < best:
            continue
        best, grad = d, np.zeros(env.dimension)
        if isinstance(obs, Sphere):
            if np.linalg.norm(p - obs.center) > 0:
                grad = (p - obs.center) / np.linalg.norm(p - obs.center)
            continue
        rel = p - (obs.lo + obs.hi) / 2.0
        q = np.abs(rel) - (obs.hi - obs.lo) / 2.0
        if max(q) > 0:
            grad = np.maximum(q, 0.0) / np.linalg.norm(np.maximum(q, 0.0))
        else:
            grad[int(np.argmax(q))] = 1.0
        grad = np.where(rel < 0, -grad, grad)
    return grad


@st.composite
def obstacles(draw, dim):
    """A random sphere or box inside [-1, 1]^dim."""
    coord = st.floats(-1.0, 1.0, allow_nan=False)
    size = st.floats(0.05, 0.8, allow_nan=False)
    lo = np.array([draw(coord) for _ in range(dim)])
    if draw(st.booleans()):
        return Sphere(center=lo, radius=draw(size))
    return Box(lo=lo, hi=lo + np.array([draw(size) for _ in range(dim)]))


@st.composite
def scenes(draw):
    """1-4 random spheres and boxes in 2-D or 3-D inside [-1, 1]^dim."""
    dim = draw(st.sampled_from([2, 3]))
    return Environment(dimension=dim, obstacles=[draw(obstacles(dim))
                                                 for _ in range(draw(st.integers(1, 4)))])


def mirrored(obs):
    """The obstacle mirrored across the plane x_0 = 0. Negation is exact, so
    a row on that plane is exactly as far from the mirror image as from
    `obs`, and the two gradients differ in the sign of axis 0."""
    flip = np.ones(obs.dim)
    flip[0] = -1.0
    if isinstance(obs, Sphere):
        return Sphere(center=flip * obs.center, radius=obs.radius)
    lo, hi = flip * obs.lo, flip * obs.hi
    return Box(lo=np.minimum(lo, hi), hi=np.maximum(lo, hi))


def special_rows(obs):
    """A sphere's centre; a box's centre, a point on its top face of the last
    axis, one outside on its centre planes of the other axes, and its lo
    corner."""
    if isinstance(obs, Sphere):
        return obs.center[None]
    centre = (obs.lo + obs.hi) / 2.0
    face, plane = centre.copy(), centre.copy()
    face[-1] = obs.hi[-1]
    plane[-1] += 3.0
    return np.stack([centre, face, plane, obs.lo])


def argmin_gather(env, rows):
    """Reference: every obstacle's distance and gradient stacked, and each
    row's first minimum gathered (argmin takes a NaN as the minimum); +inf
    with zero gradients for an obstacle-free scene."""
    if not env.obstacles:
        return np.full(len(rows), np.inf), np.zeros_like(rows)
    dist, grads = map(np.array, zip(*(obs.distance(rows) for obs in env.obstacles)))
    nearest, every = np.argmin(dist, axis=0), np.arange(len(rows))
    return dist[nearest, every], grads[nearest, every]


@st.composite
def tied_scenes(draw):
    """0-3 spheres and boxes in 2-D or 3-D inside [-1, 1]^dim; each one after
    the first may repeat or mirror an earlier one, which ties rows between
    the two exactly (every row, or the rows on the plane x_0 = 0)."""
    dim = draw(st.sampled_from([2, 3]))
    scene = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["new", "twin", "mirror"] if scene else ["new"]))
        if kind == "new":
            scene.append(draw(obstacles(dim)))
        else:
            earlier = draw(st.sampled_from(scene))
            scene.append(earlier if kind == "twin" else mirrored(earlier))
    return Environment(dimension=dim, obstacles=scene)


class TestOnePassChoice:
    @settings(max_examples=300, deadline=None)
    @given(env=tied_scenes(), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_argmin_gather(self, env, seed):
        dim = env.dimension
        rows = np.random.default_rng(seed).uniform(-1.2, 2.0, (30, dim))
        rows[:5, 0] = 0.0  # on the mirror plane
        special = np.zeros((6, dim))
        special[0, 0], special[1, 0], special[2, :] = np.nan, np.inf, -np.inf
        special[3, -1], special[4, :], special[5, 0] = np.nan, 1e308, -1e12
        rows = np.concatenate([rows, special] + [special_rows(obs) for obs in env.obstacles])
        with np.errstate(over="ignore", invalid="ignore"):  # rows at or past the float range
            dist, grad = nearest_obstacle(env, rows)
            want_dist, want_grad = argmin_gather(env, rows)
        assert dist.tobytes() == want_dist.tobytes()
        finite = np.isfinite(dist)
        assert grad[finite].tobytes() == want_grad[finite].tobytes()
        np.testing.assert_array_equal(grad[dist == np.inf], 0.0)
        if env.obstacles:  # NaN, +inf, -inf, NaN, overflowing and far rows
            assert np.isnan(dist[30:36]).tolist() == [True, False, False, True, False, False]
            assert dist[31] == dist[32] == dist[34] == np.inf and np.isfinite(dist[35])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n_obstacles=st.integers(0, 3), n=st.integers(1, 12))
    def test_picks_as_argmin_on_any_distances(self, data, n_obstacles, n):
        # Spheres and boxes give a row NaN from every obstacle or from none;
        # obstacles that report any distances meet ties, NaN and +-inf in
        # every order. Obstacle k's gradient is k, so it names the pick.
        values = st.lists(st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 0.5, 1.0]),
                          min_size=n, max_size=n)
        stubs = [SimpleNamespace(distance=lambda rows, d=np.array(data.draw(values)), k=k:
                                 (d, np.full(rows.shape, float(k))))
                 for k in range(n_obstacles)]
        env, rows = SimpleNamespace(dimension=2, obstacles=stubs), np.zeros((n, 2))
        (dist, grad), (want_dist, want_grad) = nearest_obstacle(env, rows), argmin_gather(env, rows)
        assert dist.tobytes() == want_dist.tobytes()
        picked = dist != np.inf  # NaN rows too: the first NaN sticks
        np.testing.assert_array_equal(grad[picked], want_grad[picked])
        np.testing.assert_array_equal(grad[~picked], 0.0)


class TestBatchedField:
    @settings(max_examples=30, deadline=None)
    @given(env=scenes(), seed=st.integers(0, 2 ** 32 - 1))
    def test_grid_values_are_exact_distances(self, env, seed):
        res = 0.1 if env.dimension == 2 else 0.2
        axes = [-1.2 + res * np.arange(33 if env.dimension == 2 else 17)] * env.dimension
        nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, env.dimension)
        expected = np.array([per_point_distance(env, p) for p in nodes])
        np.testing.assert_array_equal(nearest_obstacle(env, nodes)[0], expected)
        # batched weights equal one-row weights
        params = WeightParams(epsilon=0.3, sigma_obs=0.1)
        positions = np.random.default_rng(seed).uniform(-1.2, 2.0, (20, env.dimension))
        w = weight_trajectory(positions, env, params)
        np.testing.assert_array_equal(w, [weight_trajectory(x[None], env, params)[0]
                                          for x in positions])

    @settings(max_examples=40, deadline=None)
    @given(env=scenes(), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
    def test_batched_query_and_gradient_match_per_point(self, env, data, seed):
        # a mirror image of one obstacle, anywhere in the scene order, ties
        # every row on the plane x_0 = 0 between the two
        obstacles = list(env.obstacles)
        obstacles.insert(data.draw(st.integers(0, len(obstacles))),
                         mirrored(data.draw(st.sampled_from(obstacles))))
        env = Environment(dimension=env.dimension, obstacles=obstacles)
        pts = np.random.default_rng(seed).uniform(-1.2, 2.0, (40, env.dimension))
        pts[0] = 1e3  # far outside the scene
        pts[1:5, 0] = 0.0  # on the mirror plane
        pts = np.concatenate([pts] + [special_rows(obs) for obs in obstacles])
        values, grads = nearest_obstacle(env, pts)
        assert values.shape == (len(pts),) and grads.shape == pts.shape
        # bit for bit, signed zeros included
        assert values.tobytes() == np.array([per_point_distance(env, p) for p in pts]).tobytes()
        assert grads.tobytes() == np.array([per_point_gradient(env, p) for p in pts]).tobytes()
        for p, v, g in zip(pts, values, grads):
            [one], [grad_one] = nearest_obstacle(env, p[None])
            assert v == one
            np.testing.assert_array_equal(g, grad_one)

    def test_obstacle_free_scene(self):
        values, grads = nearest_obstacle(Environment(dimension=3), np.ones((2, 3)))
        np.testing.assert_array_equal(values, np.inf)
        np.testing.assert_array_equal(grads, np.zeros((2, 3)))


# A point this far from every kink of the distance (a surface, an obstacle's
# medial planes, a tie between obstacles) is far past the finite-difference
# step; the distance's curvature, up to 1 / KINK_MARGIN, bounds the
# differences' error by about 1e-7 / KINK_MARGIN where a box's excess
# changes sign.
KINK_MARGIN = 1e-2
coords = st.floats(-2.0, 2.0, allow_nan=False)


def points(dim):
    return st.lists(coords, min_size=dim, max_size=dim).map(np.array)


def fd_of(obstacle):
    """Central differences of one obstacle's signed distance at a point."""
    return lambda p: central_differences(lambda rows: obstacle.distance(rows)[0], p)


class TestGradient:
    @settings(max_examples=100, deadline=None)
    @given(dim=st.sampled_from([2, 3]), data=st.data(), radius=st.floats(0.05, 1.0))
    def test_sphere_matches_finite_differences(self, dim, data, radius):
        sphere = Sphere(center=data.draw(points(dim)), radius=radius)
        p = data.draw(points(dim))
        assume(np.linalg.norm(p - sphere.center) > KINK_MARGIN)
        [g] = sphere.distance(p[None])[1]
        assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(g, fd_of(sphere)(p), atol=1e-5)

    def test_sphere_centre_is_a_zero_row(self):
        sphere = Sphere(center=np.array([0.3, -0.2, 1.0]), radius=0.5)
        d, g = sphere.distance(np.array([[0.3, -0.2, 1.0]]))
        np.testing.assert_array_equal(d, [-0.5])
        np.testing.assert_array_equal(g, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(dim=st.sampled_from([2, 3]), data=st.data())
    def test_box_matches_finite_differences(self, dim, data):
        lo = data.draw(points(dim))
        box = Box(lo=lo, hi=lo + data.draw(st.lists(st.floats(0.05, 1.5), min_size=dim,
                                                   max_size=dim).map(np.array)))
        p = data.draw(points(dim))
        [d], [g] = box.distance(p[None])
        assume(abs(d) > KINK_MARGIN)
        q = np.sort(np.abs(p - (box.lo + box.hi) / 2.0) - (box.hi - box.lo) / 2.0)
        assume(d > 0 or q[-1] - q[-2] > KINK_MARGIN)  # inside, off the medial planes
        assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(g, fd_of(box)(p), atol=1e-5)

    @settings(max_examples=100, deadline=None)
    @given(p=points(2))
    def test_two_obstacle_scene_matches_finite_differences(self, p):
        env = Environment(dimension=2, obstacles=[
            Sphere(center=np.array([0.0, 0.0]), radius=0.6),
            Box(lo=np.array([0.8, -0.5]), hi=np.array([1.6, 1.0])),
        ])
        d_sphere, d_box = (obs.distance(p[None])[0][0] for obs in env.obstacles)
        assume(abs(d_sphere - d_box) > KINK_MARGIN)
        nearer = env.obstacles[0] if d_sphere < d_box else env.obstacles[1]
        assume(nearer is env.obstacles[0] or abs(d_box) > KINK_MARGIN)
        assume(np.linalg.norm(p) > KINK_MARGIN)
        if nearer is env.obstacles[1] and d_box < 0:
            q = np.sort(np.abs(p - [1.2, 0.25]) - [0.4, 0.75])
            assume(q[-1] - q[-2] > KINK_MARGIN)
        [g] = nearest_obstacle(env, p[None])[1]
        np.testing.assert_array_equal(g, nearer.distance(p[None])[1][0])
        fd = central_differences(lambda x: nearest_obstacle(env, x)[0], p)
        np.testing.assert_allclose(g, fd, atol=1e-5)

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_tie_takes_the_first_obstacle_in_scene_order(self, order):
        # every point of the y axis is equidistant from the two spheres
        pair = [Sphere(center=np.array([-1.0, 0.0]), radius=0.5),
                Sphere(center=np.array([1.0, 0.0]), radius=0.5)]
        env = Environment(dimension=2, obstacles=[pair[k] for k in order])
        rows = np.array([[0.0, 0.0], [0.0, 0.7], [0.0, -3.0]])
        values, grads = nearest_obstacle(env, rows)
        (first, first_grads), (second, _) = (obs.distance(rows) for obs in env.obstacles)
        np.testing.assert_array_equal(values, first)
        np.testing.assert_array_equal(values, second)
        np.testing.assert_array_equal(grads, first_grads)
        np.testing.assert_allclose(np.linalg.norm(grads, axis=1), 1.0, rtol=1e-15)
        again = [nearest_obstacle(env, r[None]) for r in rows]
        np.testing.assert_array_equal(grads, np.concatenate([g for _, g in again]))
        # a sphere and a box: the unit vector from the sphere, or the box's
        # face normal, whichever the scene lists first
        mixed = [Sphere(center=np.array([0.0, 0.0]), radius=0.5),
                 Box(lo=np.array([1.5, -1.0]), hi=np.array([2.5, 1.0]))]
        env = Environment(dimension=2, obstacles=[mixed[k] for k in order])
        [g] = nearest_obstacle(env, np.array([[1.0, 0.0]]))[1]
        np.testing.assert_array_equal(g, [1.0, 0.0] if order == (0, 1) else [-1.0, 0.0])


class TestThreeD:
    @pytest.fixture
    def env3(self):
        return Environment(dimension=3, obstacles=[
            Sphere(center=np.array([0.5, 0.0, 0.2]), radius=0.3),
            Box(lo=np.array([-1.0, -1.0, -1.0]), hi=np.array([-0.5, -0.4, -0.2])),
        ])

    def test_exact_distances(self, env3):
        # above and at the sphere's center; at the origin the sphere is the
        # nearest obstacle; near the box's upper corner the box wins, at the
        # distance to the corner
        points = np.array([[0.5, 0.0, 1.0], [0.5, 0.0, 0.2], [0.0, 0.0, 0.0], [-0.4, -0.3, -0.1]])
        assert nearest_obstacle(env3, points)[0] == pytest.approx(
            [0.5, -0.3, np.sqrt(0.29) - 0.3, np.sqrt(3 * 0.1 ** 2)])

    def test_gradient_matches_finite_differences(self, env3):
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = rng.uniform([-1.2, -1.2, -1.2], [1.2, 0.7, 0.7])
            values, [g] = nearest_obstacle(env3, p[None])
            fd = central_differences(lambda q: nearest_obstacle(env3, q)[0], p)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_weight_of_a_position_row(self, env3):
        params = WeightParams(epsilon=0.3, sigma_obs=0.1)
        position = np.array([0.5, 0.0, 0.7])  # d = 0.2, c = 0.1
        expected = np.exp(-0.1 ** 2 / (2 * 0.1 ** 2))
        assert weight_trajectory(position[None], env3, params) == pytest.approx([expected],
                                                                               rel=1e-12)


class TestWeights:
    def test_hinge_boundary_and_inside(self):
        params = WeightParams(epsilon=0.4, sigma_obs=0.1)
        assert hinge_cost(0.4, params) == 0.0
        assert hinge_cost(0.3, params) == pytest.approx(0.1)
        assert hinge_cost(5.4, params) == 0.0

    def test_weight_outside_influence_zone(self):
        env = Environment(dimension=2, obstacles=[Sphere(center=np.zeros(2), radius=1.0)])
        params = WeightParams(epsilon=0.3, sigma_obs=0.01)
        assert weight_trajectory(np.array([[5.0, 0.0]]), env, params)[0] == 1.0

    def test_weight_at_one_sigma_cost(self):
        # place the state so that c(x) = sigma_obs exactly
        params = WeightParams(epsilon=0.3, sigma_obs=0.05)
        env = Environment(dimension=2, obstacles=[Sphere(center=np.zeros(2), radius=1.0)])
        d = params.epsilon - params.sigma_obs
        x = np.array([1.0 + d, 0.0])
        assert weight_trajectory(x[None], env, params) == pytest.approx([np.exp(-0.5)], abs=1e-12)

    def test_reference_parameterization(self):
        # epsilon=3, sigma_obs=1: at distance 1 the cost is 2, weight exp(-2)
        params = WeightParams(epsilon=3.0, sigma_obs=1.0)
        env = Environment(dimension=2, obstacles=[Sphere(center=np.zeros(2), radius=1.0)])
        x = np.array([2.0, 0.0])  # d = 1
        assert weight_trajectory(x[None], env, params) == pytest.approx([np.exp(-2.0)], abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0))
    def test_weight_monotone_in_distance(self, d1, d2):
        params = WeightParams(epsilon=0.5, sigma_obs=0.2)
        lo, hi = min(d1, d2), max(d1, d2)
        w_lo = np.exp(-hinge_cost(lo, params) ** 2 / (2 * params.sigma_obs ** 2))
        w_hi = np.exp(-hinge_cost(hi, params) ** 2 / (2 * params.sigma_obs ** 2))
        assert w_lo <= w_hi + 1e-15
        assert (w_hi == 1.0) == (hi >= params.epsilon)

    def test_hinge_continuous_at_epsilon(self):
        params = WeightParams(epsilon=0.7, sigma_obs=0.1)
        for h in (1e-6, 1e-9, 1e-12):
            assert abs(hinge_cost(0.7 - h, params) - hinge_cost(0.7 + h, params)) <= h + 1e-15

    def test_weight_trajectory_obstacle_free(self):
        positions = np.random.default_rng(0).normal(size=(6, 2))
        env = Environment(dimension=2, obstacles=[])
        w = weight_trajectory(positions, env, WeightParams())
        np.testing.assert_array_equal(w, np.ones(6))
        np.testing.assert_array_equal(weight_trajectory(positions, None, WeightParams()),
                                      np.ones(6))

    def test_weight_trajectory_dips_near_obstacle(self):
        env = Environment(dimension=2, obstacles=[Sphere(center=np.array([0.5, 0.0]), radius=0.1)])
        params = WeightParams(epsilon=0.3, sigma_obs=0.1)
        xs = np.linspace(0.0, 1.0, 21)
        positions = np.stack([xs, np.zeros_like(xs)], axis=1)
        w = weight_trajectory(positions, env, params)
        direct = np.array([weight_trajectory(p[None], env, params)[0] for p in positions])
        np.testing.assert_allclose(w, direct)
        assert w.min() < 1.0
        # monotone in the nodewise distance
        d = nearest_obstacle(env, positions)[0]
        order = np.argsort(d)
        assert np.all(np.diff(w[order]) >= -1e-15)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            WeightParams(epsilon=-0.1)
        with pytest.raises(ValueError):
            WeightParams(sigma_obs=0.0)


def test_environment_round_trip(two_obstacle_env):
    data = environment_to_dict(two_obstacle_env)
    again = environment_from_dict(data)
    assert environment_to_dict(again) == data
    with pytest.raises(ValueError, match="unknown obstacle"):
        environment_from_dict({"dimension": 2, "obstacles": [{"type": "cone"}]})
