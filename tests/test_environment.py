import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwskill.environment import (MAX_SDF_CELLS, Box, Environment, SdfGridError, Sphere,
                                 WeightParams, build_sdf, environment_from_dict,
                                 environment_to_dict, hinge_cost, signed_distance,
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
        assert signed_distance(env, np.array([[0.3, -0.2]])) == pytest.approx([-0.75])

    def test_unit_sphere_outside(self):
        env = Environment(dimension=2, obstacles=[Sphere(center=np.zeros(2), radius=1.0)])
        assert signed_distance(env, np.array([[2.0, 0.0]])) == pytest.approx([1.0])

    def test_no_obstacles_sentinel(self):
        env = Environment(dimension=2, obstacles=[])
        assert signed_distance(env, np.zeros((1, 2)))[0] >= 1e6

    def test_dimension_mismatch(self):
        env = Environment(dimension=2, obstacles=[])
        with pytest.raises(ValueError, match="dimension"):
            signed_distance(env, np.zeros((1, 3)))
        with pytest.raises(ValueError, match=r"need \(n, 2\) rows"):
            signed_distance(env, np.zeros(2))  # one point is one row, not a vector

    def test_min_over_obstacles_vs_surface_sampling(self, two_obstacle_env):
        rng = np.random.default_rng(7)
        for _ in range(40):
            p = rng.uniform([-2.0, -2.0], [4.0, 3.0])
            expected = surface_sample_distance(two_obstacle_env, p)
            assert signed_distance(two_obstacle_env, p[None])[0] == pytest.approx(expected,
                                                                                  abs=1e-3)

    def test_box_interior_and_faces(self):
        env = Environment(dimension=2, obstacles=[Box(lo=np.array([0.0, 0.0]), hi=np.array([2.0, 1.0]))])
        # interior, above the top face, and the corner region (Euclidean
        # distance to the corner)
        assert signed_distance(env, np.array([[1.0, 0.5], [1.0, 2.0], [3.0, 2.0]])) == \
            pytest.approx([-0.5, 1.0, np.sqrt(2.0)])

    def test_invariants_of_primitives(self):
        with pytest.raises(ValueError):
            Sphere(center=np.zeros(2), radius=0.0)
        with pytest.raises(ValueError):
            Box(lo=np.array([0.0, 1.0]), hi=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            Environment(dimension=2, obstacles=[Sphere(center=np.zeros(3), radius=1.0)])


class TestSdf:
    def test_grid_node_exact(self, two_obstacle_env):
        sdf = build_sdf(two_obstacle_env, [-2.0, -2.0], [4.0, 3.0], resolution=0.25)
        node = sdf.origin + sdf.resolution * np.array([[3, 5]])
        assert sdf.query(node) == pytest.approx(signed_distance(two_obstacle_env, node), abs=1e-12)

    def test_midpoint_between_nodes_averages(self, two_obstacle_env):
        sdf = build_sdf(two_obstacle_env, [-2.0, -2.0], [4.0, 3.0], resolution=0.25)
        a = sdf.origin + sdf.resolution * np.array([2, 4])
        b = a + np.array([sdf.resolution, 0.0])
        va, vmid, vb = sdf.query(np.array([a, (a + b) / 2, b]))
        assert vmid == pytest.approx((va + vb) / 2, abs=1e-12)

    def test_interpolation_error_below_resolution(self, two_obstacle_env):
        res = 0.05
        sdf = build_sdf(two_obstacle_env, [-2.0, -2.0], [4.0, 3.0], resolution=res)
        rng = np.random.default_rng(42)
        pts = rng.uniform([-2.0, -2.0], [4.0, 3.0], size=(10000, 2))
        errs = np.abs(sdf.query(pts) - signed_distance(two_obstacle_env, pts))
        assert errs.max() <= res

    def test_out_of_bounds_query(self, two_obstacle_env):
        sdf = build_sdf(two_obstacle_env, [-2.0, -2.0], [4.0, 3.0], resolution=0.5)
        with pytest.raises(ValueError, match="outside SDF bounds"):
            sdf.query(np.array([[10.0, 0.0]]))

    def test_bad_construction(self, two_obstacle_env):
        with pytest.raises(ValueError, match="resolution"):
            build_sdf(two_obstacle_env, [-2.0, -2.0], [4.0, 3.0], resolution=0.0)
        with pytest.raises(ValueError, match="degenerate"):
            build_sdf(two_obstacle_env, [0.0, 0.0], [0.0, 1.0], resolution=0.1)

    def test_gradient_matches_finite_differences_of_query(self, two_obstacle_env):
        sdf = build_sdf(two_obstacle_env, [-2.0, -2.0], [4.0, 3.0], resolution=0.1)
        rng = np.random.default_rng(5)
        h = 1e-7
        checked = 0
        while checked < 50:
            p = rng.uniform([-1.8, -1.8], [3.8, 2.8])
            frac = (p - sdf.origin) / sdf.resolution % 1.0
            if np.any(frac < 0.05) or np.any(frac > 0.95):
                continue  # keep away from cell boundaries where the interpolant kinks
            [g] = sdf.gradient(p[None])
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                [fd] = (sdf.query((p + e)[None]) - sdf.query((p - e)[None])) / (2 * h)
                assert g[k] == pytest.approx(fd, rel=1e-5, abs=1e-7)
            checked += 1


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


def corner_loop_query(sdf, p):
    """Oracle: multilinear interpolation of one point, corner by corner."""
    rel = (p - sdf.origin) / sdf.resolution
    cell = np.clip(np.floor(rel).astype(int), 0, np.array(sdf.values.shape) - 2)
    frac = np.clip(rel - cell, 0.0, 1.0)
    value = 0.0
    for corner in sdf._corners:
        weight = np.prod(np.where(corner == 1, frac, 1.0 - frac))
        value += weight * sdf.values[tuple(cell + corner)]
    return float(value)


def corner_loop_gradient(sdf, p):
    """Oracle: gradient of the one-point interpolant, corner by corner."""
    rel = (p - sdf.origin) / sdf.resolution
    cell = np.clip(np.floor(rel).astype(int), 0, np.array(sdf.values.shape) - 2)
    frac = np.clip(rel - cell, 0.0, 1.0)
    grad = np.zeros(sdf.dim)
    for corner in sdf._corners:
        v = sdf.values[tuple(cell + corner)]
        w = np.where(corner == 1, frac, 1.0 - frac)
        sign = np.where(corner == 1, 1.0, -1.0)
        for k in range(sdf.dim):
            grad[k] += v * sign[k] * np.prod(np.delete(w, k))
    return grad / sdf.resolution


@st.composite
def scenes(draw):
    """1-4 random spheres and boxes in 2-D or 3-D inside [-1, 1]^dim."""
    dim = draw(st.sampled_from([2, 3]))
    coord = st.floats(-1.0, 1.0, allow_nan=False)
    size = st.floats(0.05, 0.8, allow_nan=False)
    obstacles = []
    for _ in range(draw(st.integers(1, 4))):
        lo = np.array([draw(coord) for _ in range(dim)])
        if draw(st.booleans()):
            obstacles.append(Sphere(center=lo, radius=draw(size)))
        else:
            obstacles.append(Box(lo=lo, hi=lo + np.array([draw(size) for _ in range(dim)])))
    return Environment(dimension=dim, obstacles=obstacles)


class TestBatchedField:
    @settings(max_examples=30, deadline=None)
    @given(env=scenes(), seed=st.integers(0, 2 ** 32 - 1))
    def test_grid_values_are_exact_distances(self, env, seed):
        res = 0.1 if env.dimension == 2 else 0.2
        sdf = build_sdf(env, -1.2 * np.ones(env.dimension), 2.0 * np.ones(env.dimension), res)
        axes = [sdf.origin[k] + res * np.arange(n) for k, n in enumerate(sdf.values.shape)]
        nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, env.dimension)
        expected = np.array([per_point_distance(env, p) for p in nodes])
        np.testing.assert_array_equal(sdf.values.reshape(-1), expected)
        np.testing.assert_array_equal(signed_distance(env, nodes), expected)
        # batched weights equal one-row weights
        params = WeightParams(epsilon=0.3, sigma_obs=0.1)
        states = np.random.default_rng(seed).uniform(-1.2, 2.0, (20, 2 * env.dimension))
        w = weight_trajectory(states, env, params)
        np.testing.assert_array_equal(w, [weight_trajectory(x[None], env, params)[0]
                                          for x in states])

    @settings(max_examples=30, deadline=None)
    @given(env=scenes(), seed=st.integers(0, 2 ** 32 - 1))
    def test_batched_query_and_gradient_match_corner_loop(self, env, seed):
        res = 0.1 if env.dimension == 2 else 0.2
        sdf = build_sdf(env, -1.2 * np.ones(env.dimension), 2.0 * np.ones(env.dimension), res)
        pts = np.random.default_rng(seed).uniform(sdf.origin, sdf.upper, (40, env.dimension))
        pts[0] = sdf.upper  # the far grid corner is inside
        values, grads = sdf.query(pts), sdf.gradient(pts)
        assert values.shape == (40,) and grads.shape == (40, env.dimension)
        for p, v, g in zip(pts, values, grads):
            assert v == corner_loop_query(sdf, p) == sdf.query(p[None])[0]
            np.testing.assert_array_equal(g, corner_loop_gradient(sdf, p))
            np.testing.assert_array_equal(g, sdf.gradient(p[None])[0])

    def test_off_grid_row_is_named(self, two_obstacle_env):
        sdf = build_sdf(two_obstacle_env, [-2.0, -2.0], [4.0, 3.0], resolution=0.5)
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 3.5], [9.0, 9.0]])
        with pytest.raises(SdfGridError, match=r"query \[0.0, 3.5\] outside SDF bounds") as info:
            sdf.gradient(pts)
        assert info.value.row == 2
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("resolution, shape", [(0.01, "2001x2001"), (1e-300, "2e+301x2e+301")])
    def test_oversized_grid_refused(self, two_obstacle_env, resolution, shape):
        # [-10, 10]^2 at 0.01 m is twice the cap
        assert 2001 ** 2 > MAX_SDF_CELLS
        with pytest.raises(SdfGridError, match=rf"grid {re.escape(shape)} .* exceeds {MAX_SDF_CELLS} cells"):
            build_sdf(two_obstacle_env, [-10.0, -10.0], [10.0, 10.0], resolution=resolution)


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
        assert signed_distance(env3, points) == pytest.approx(
            [0.5, -0.3, np.sqrt(0.29) - 0.3, np.sqrt(3 * 0.1 ** 2)])

    def test_sdf_interpolation_and_gradient(self, env3):
        sdf = build_sdf(env3, [-1.5, -1.5, -1.5], [1.5, 1.0, 1.0], resolution=0.1)
        rng = np.random.default_rng(9)
        errs = []
        for _ in range(500):
            p = rng.uniform([-1.4, -1.4, -1.4], [1.4, 0.9, 0.9])[None]
            errs.append(abs(sdf.query(p)[0] - signed_distance(env3, p)[0]))
        assert max(errs) <= 0.1
        # gradient matches finite differences of the interpolant
        h = 1e-7
        checked = 0
        while checked < 20:
            p = rng.uniform([-1.2, -1.2, -1.2], [1.2, 0.7, 0.7])
            frac = (p - sdf.origin) / sdf.resolution % 1.0
            if np.any(frac < 0.05) or np.any(frac > 0.95):
                continue
            [g] = sdf.gradient(p[None])
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                [fd] = (sdf.query((p + e)[None]) - sdf.query((p - e)[None])) / (2 * h)
                assert g[k] == pytest.approx(fd, rel=1e-5, abs=1e-7)
            checked += 1

    def test_weight_on_full_state(self, env3):
        params = WeightParams(epsilon=0.3, sigma_obs=0.1)
        state = np.array([0.5, 0.0, 0.7, 1.0, 0.0, 0.0])  # d = 0.2, c = 0.1
        expected = np.exp(-0.1 ** 2 / (2 * 0.1 ** 2))
        assert weight_trajectory(state[None], env3, params) == pytest.approx([expected], rel=1e-12)


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

    def test_weight_uses_position_components_only(self):
        env = Environment(dimension=2, obstacles=[Sphere(center=np.zeros(2), radius=1.0)])
        params = WeightParams(epsilon=0.3, sigma_obs=0.01)
        near = np.array([1.1, 0.0])
        state_fast = np.concatenate([near, [99.0, -99.0]])
        state_slow = np.concatenate([near, [0.0, 0.0]])
        w_fast, w_slow = weight_trajectory(np.array([state_fast, state_slow]), env, params)
        assert w_fast == w_slow

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
        states = np.random.default_rng(0).normal(size=(6, 4))
        env = Environment(dimension=2, obstacles=[])
        w = weight_trajectory(states, env, WeightParams())
        np.testing.assert_array_equal(w, np.ones(6))
        np.testing.assert_array_equal(weight_trajectory(states, None, WeightParams()), np.ones(6))

    def test_weight_trajectory_dips_near_obstacle(self):
        env = Environment(dimension=2, obstacles=[Sphere(center=np.array([0.5, 0.0]), radius=0.1)])
        params = WeightParams(epsilon=0.3, sigma_obs=0.1)
        xs = np.linspace(0.0, 1.0, 21)
        states = np.stack([xs, np.zeros_like(xs), np.ones_like(xs), np.zeros_like(xs)], axis=1)
        w = weight_trajectory(states, env, params)
        direct = np.array([weight_trajectory(s[None], env, params)[0] for s in states])
        np.testing.assert_allclose(w, direct)
        assert w.min() < 1.0
        # monotone in the nodewise distance
        d = signed_distance(env, states[:, :2])
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
