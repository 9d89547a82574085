import numpy as np
import pytest

from iwskill.batch import SkillModel, learn_batch_weighted
from iwskill.demos import DemoSet, estimate_states
from iwskill.environment import Environment, SdfGridError, Sphere, build_sdf, weight_trajectory
from iwskill.prior import GaussianState, GaussianTrajectoryPrior, initial_state_distribution
from iwskill.reproduction import (ObstacleFactor, OptimizerOptions, ReproductionProblem,
                                  SingularNormalEquationsError, Solution, StateAnchor,
                                  negative_log_posterior, obstacle_cost, optimize_map,
                                  solution_csv, solution_summary)
from iwskill.synthetic import make_reaching_scene

from test_prior import random_init, random_model


def dense_map_oracle(prior, anchors):
    """Closed-form MAP for anchors-only problems, solved densely in
    information form."""
    d = prior.dim
    lam = prior.dense_precision()
    rhs = lam @ prior.stacked_mean
    for a in anchors:
        sl = slice(a.index * d, (a.index + 1) * d)
        info = np.linalg.inv(a.sigma)
        lam[sl, sl] += info
        rhs[sl] += info @ a.target
    return np.linalg.solve(lam, rhs)


def conditional_given_start(prior, x0):
    """Gaussian conditional mean of the joint prior given the first node."""
    d = prior.dim
    cov = prior.dense_covariance()
    mean = prior.stacked_mean
    delta = np.linalg.solve(cov[:d, :d], x0 - mean[:d])
    rest = mean[d:] + cov[d:, :d] @ delta
    return np.concatenate([x0, rest])


@pytest.fixture
def disc_sdf():
    env = Environment(dimension=2, obstacles=[Sphere(center=np.array([0.5, 0.0]), radius=0.2)])
    return build_sdf(env, [-1.0, -1.0], [2.0, 1.0], resolution=0.02)


class TestObstacleCost:
    def test_far_state_is_free(self, disc_sdf):
        cost, grad = obstacle_cost(np.array([1.8, 0.8, 0.0, 0.0]), disc_sdf, eps_repro=0.1)
        assert cost == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_half_band_cost(self, disc_sdf):
        eps = 0.1
        # place the position at distance eps/2 from the surface
        state = np.array([0.5 + 0.2 + eps / 2, 0.0, 0.0, 0.0])
        cost, grad = obstacle_cost(state, disc_sdf, eps_repro=eps)
        assert cost == pytest.approx(eps / 2, abs=2e-3)  # SDF interpolation error
        assert np.any(grad[:2] != 0.0)
        np.testing.assert_array_equal(grad[2:], 0.0)

    def test_gradient_matches_finite_differences(self, disc_sdf):
        eps = 0.15
        rng = np.random.default_rng(0)
        h = 1e-7
        checked = 0
        while checked < 200:
            angle = rng.uniform(0, 2 * np.pi)
            radius = 0.2 + rng.uniform(0.2, 0.8) * eps
            pos = np.array([0.5, 0.0]) + radius * np.array([np.cos(angle), np.sin(angle)])
            frac = (pos - disc_sdf.origin) / disc_sdf.resolution % 1.0
            if np.any(frac < 0.03) or np.any(frac > 0.97):
                continue
            state = np.concatenate([pos, rng.normal(size=2)])
            cost, grad = obstacle_cost(state, disc_sdf, eps)
            if not 0.01 * eps < cost < 0.99 * eps:
                continue  # stay away from the hinge kink
            for k in range(2):
                e = np.zeros(4)
                e[k] = h
                c_hi, _ = obstacle_cost(state + e, disc_sdf, eps)
                c_lo, _ = obstacle_cost(state - e, disc_sdf, eps)
                fd = (c_hi - c_lo) / (2 * h)
                assert grad[k] == pytest.approx(fd, rel=1e-4, abs=1e-8)
            checked += 1

    def test_out_of_bounds(self, disc_sdf):
        with pytest.raises(ValueError, match="outside"):
            obstacle_cost(np.array([5.0, 5.0, 0.0, 0.0]), disc_sdf, 0.1)


class TestNegativeLogPosterior:
    def test_prior_mean_no_factors(self):
        rng = np.random.default_rng(1)
        prior = GaussianTrajectoryPrior(random_model(rng), random_init(rng))
        problem = ReproductionProblem(prior=prior, factors=[])
        assert negative_log_posterior(prior.stacked_mean, problem) == pytest.approx(0.0, abs=1e-12)

    def test_anchor_at_its_own_mean(self):
        rng = np.random.default_rng(2)
        prior = GaussianTrajectoryPrior(random_model(rng), random_init(rng))
        anchor = StateAnchor(index=2, target=prior.means[2].copy(), sigma=np.asarray(0.1))
        problem = ReproductionProblem(prior=prior, factors=[anchor])
        assert negative_log_posterior(prior.stacked_mean, problem) == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_evaluation(self):
        rng = np.random.default_rng(3)
        prior = GaussianTrajectoryPrior(random_model(rng, n_steps=4), random_init(rng))
        anchors = [StateAnchor(index=0, target=rng.normal(size=2), sigma=np.asarray(0.3)),
                   StateAnchor(index=4, target=rng.normal(size=2), sigma=np.asarray(0.05))]
        problem = ReproductionProblem(prior=prior, factors=anchors)
        lam = prior.dense_precision()
        for _ in range(5):
            x = rng.normal(size=10)
            r = x - prior.stacked_mean
            expected = 0.5 * r @ lam @ r
            for a in anchors:
                ra = x[a.index * 2:(a.index + 1) * 2] - a.target
                expected += 0.5 * ra @ np.linalg.solve(a.sigma, ra)
            assert negative_log_posterior(x, problem) == pytest.approx(expected, rel=1e-9)

    def test_obstacle_factor_only_penalizes_collision(self, disc_sdf):
        model = SkillModel(Phi_tilde=[np.hstack([np.zeros((4, 1)), np.eye(4)])] * 2,
                           Q=[0.01 * np.eye(4)] * 2, dt=0.1)
        clear = GaussianTrajectoryPrior(model, GaussianState(
            mean=np.array([1.5, 0.8, 0.0, 0.0]), cov=0.01 * np.eye(4)))
        colliding = GaussianTrajectoryPrior(model, GaussianState(
            mean=np.array([0.5, 0.25, 0.0, 0.0]), cov=0.01 * np.eye(4)))
        for prior, should_increase in ((clear, False), (colliding, True)):
            factors = [ObstacleFactor(indices=range(3), sdf=disc_sdf, eps_repro=0.1,
                                      sigma_repro=0.05)]
            with_obs = negative_log_posterior(prior.stacked_mean,
                                              ReproductionProblem(prior=prior, factors=factors))
            without = negative_log_posterior(prior.stacked_mean,
                                             ReproductionProblem(prior=prior, factors=[]))
            if should_increase:
                assert with_obs > without
            else:
                assert with_obs == pytest.approx(without, abs=1e-12)


class TestObstacleFactorBatch:
    @pytest.fixture
    def prior(self):
        rng = np.random.default_rng(12)
        return GaussianTrajectoryPrior(random_model(rng, dim=4, n_steps=8, contraction=0.7),
                                 GaussianState(mean=np.array([0.3, 0.0, 0.1, 0.0]),
                                               cov=0.05 * np.eye(4)))

    def test_one_factor_equals_per_node_obstacle_costs(self, prior, disc_sdf):
        rng = np.random.default_rng(13)
        factor = ObstacleFactor(indices=range(9), sdf=disc_sdf, eps_repro=0.15, sigma_repro=0.05)
        problem = ReproductionProblem(prior=prior, factors=[factor])
        for _ in range(5):
            x = np.column_stack([rng.uniform(0.2, 0.8, 9), rng.uniform(-0.3, 0.3, 9),
                                 rng.normal(size=(9, 2))]).reshape(-1)
            expected = 0.5 * prior.quad_form(x)
            active = 0
            for i in range(9):
                c, _ = obstacle_cost(x[4 * i:4 * i + 4], disc_sdf, 0.15)
                expected += 0.5 * c * c / 0.05 ** 2
                active += c > 0
            assert active > 0
            assert negative_log_posterior(x, problem) == pytest.approx(expected, rel=1e-12)

    def test_subset_of_nodes(self, prior, disc_sdf):
        x = np.tile([0.5, 0.1, 0.0, 0.0], 9)  # every node is inside the disc's band
        base = negative_log_posterior(x, ReproductionProblem(prior=prior, factors=[]))
        c, _ = obstacle_cost(x[:4], disc_sdf, 0.1)
        for nodes in ([4], [0, 8], range(9)):
            factor = ObstacleFactor(indices=nodes, sdf=disc_sdf, eps_repro=0.1, sigma_repro=0.05)
            got = negative_log_posterior(x, ReproductionProblem(prior=prior, factors=[factor]))
            assert got == pytest.approx(base + len(factor.indices) * 0.5 * c * c / 0.05 ** 2,
                                        rel=1e-12)

    def test_off_grid_node_is_named(self, prior, disc_sdf):
        factor = ObstacleFactor(indices=range(9), sdf=disc_sdf)
        x = np.tile([0.5, 0.6, 0.0, 0.0], 9)
        x[4 * 6] = 7.0
        with pytest.raises(SdfGridError, match=r"node 6 left the SDF grid: query \[7.0, 0.6\]"):
            negative_log_posterior(x, ReproductionProblem(prior=prior, factors=[factor]))

    def test_index_validation(self, prior, disc_sdf):
        with pytest.raises(ValueError, match="distinct"):
            ObstacleFactor(indices=[1, 2, 1], sdf=disc_sdf)
        with pytest.raises(ValueError, match="factor index 9 outside"):
            ReproductionProblem(prior=prior,
                                factors=[ObstacleFactor(indices=range(10), sdf=disc_sdf)])


class TestOptimizeMap:
    def test_no_factors_returns_mean_immediately(self):
        rng = np.random.default_rng(4)
        prior = GaussianTrajectoryPrior(random_model(rng), random_init(rng))
        sol = optimize_map(ReproductionProblem(prior=prior, factors=[]))
        assert sol.converged and sol.iterations == 0 and sol.stop == "gradient"
        np.testing.assert_allclose(sol.trajectory.states.reshape(-1), prior.stacked_mean,
                                   atol=1e-12)

    def test_anchors_match_dense_information_solve(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            n = int(rng.integers(3, 10))
            prior = GaussianTrajectoryPrior(random_model(rng, dim=2, n_steps=n),
                                      random_init(rng, dim=2))
            anchors = [StateAnchor(index=0, target=rng.normal(size=2), sigma=np.asarray(0.1)),
                       StateAnchor(index=n, target=rng.normal(size=2), sigma=np.asarray(0.2))]
            sol = optimize_map(ReproductionProblem(prior=prior, factors=anchors))
            expected = dense_map_oracle(prior, anchors)
            assert sol.converged
            np.testing.assert_allclose(sol.trajectory.states.reshape(-1), expected, atol=1e-6)

    @pytest.mark.parametrize("grid_n", [30, 60])
    @pytest.mark.parametrize("seed", range(4))
    def test_learned_reaching_prior_solves_in_three_steps(self, seed, grid_n):
        # anchors-only MAP is a quadratic problem: the first damped
        # Gauss-Newton step lands next to the optimum and the step-norm
        # stop ends LM right after it
        scene = make_reaching_scene(seed=seed)
        demo_set = DemoSet(demos=[estimate_states(d, grid_n) for d in scene.raw_demos])
        model = learn_batch_weighted(demo_set, [weight_trajectory(t, scene.env,
                                                                  scene.weight_params)
                                                for t in demo_set.demos])
        prior = GaussianTrajectoryPrior(model, initial_state_distribution(demo_set))
        states = np.stack([t.states for t in demo_set.demos])
        mix = np.random.default_rng(seed).dirichlet(np.ones(states.shape[0]))
        anchors = [StateAnchor(index=0, target=mix @ states[:, 0], sigma=np.asarray(1e-3)),
                   StateAnchor(index=grid_n, target=mix @ states[:, -1], sigma=np.asarray(1e-3))]
        sol = optimize_map(ReproductionProblem(prior=prior, factors=anchors))
        assert sol.stop == "step" and sol.iterations <= 3
        np.testing.assert_allclose(sol.trajectory.states.reshape(-1),
                                   dense_map_oracle(prior, anchors), rtol=0, atol=1e-6)

    def test_tight_start_anchor_matches_gaussian_conditioning(self):
        rng = np.random.default_rng(6)
        prior = GaussianTrajectoryPrior(random_model(rng, dim=2, n_steps=8),
                                  random_init(rng, dim=2))
        new_start = prior.means[0] + np.array([0.3, -0.2])
        anchor = StateAnchor(index=0, target=new_start, sigma=np.asarray(1e-7))
        sol = optimize_map(ReproductionProblem(prior=prior, factors=[anchor]))
        expected = conditional_given_start(prior, new_start)
        np.testing.assert_allclose(sol.trajectory.states.reshape(-1), expected, atol=1e-5)

    def test_two_node_scalar_hand_solve(self):
        # 1-D state, one interval; anchors on both nodes. The posterior
        # information is the prior information plus 1/sigma^2 on each node.
        phi, u, q = 0.8, 0.1, 0.05
        p0 = 0.2
        model = SkillModel(Phi_tilde=np.array([[[u, phi]]]), Q=np.array([[[q]]]), dt=1.0)
        prior = GaussianTrajectoryPrior(model, GaussianState(mean=np.array([0.5]),
                                                       cov=np.array([[p0]])))
        t0, t1, s0, s1 = -0.2, 1.4, 0.3, 0.15
        anchors = [StateAnchor(index=0, target=np.array([t0]), sigma=np.asarray(s0)),
                   StateAnchor(index=1, target=np.array([t1]), sigma=np.asarray(s1))]
        sol = optimize_map(ReproductionProblem(prior=prior, factors=anchors))
        lam_prior = np.array([[1 / p0 + phi ** 2 / q, -phi / q], [-phi / q, 1 / q]])
        mu = np.array([0.5, phi * 0.5 + u])
        lam_post = lam_prior + np.diag([1 / s0 ** 2, 1 / s1 ** 2])
        rhs = lam_prior @ mu + np.array([t0 / s0 ** 2, t1 / s1 ** 2])
        expected = np.linalg.solve(lam_post, rhs)
        np.testing.assert_allclose(sol.trajectory.states.reshape(-1), expected,
                                   rtol=1e-8, atol=1e-8)

    @pytest.mark.parametrize("sigma", [1e-2, 1e-4, 1e-6])
    def test_anchor_converges_to_target_as_sigma_shrinks(self, sigma):
        rng = np.random.default_rng(7)
        prior = GaussianTrajectoryPrior(random_model(rng, dim=2, n_steps=5),
                                  random_init(rng, dim=2))
        target = prior.means[3] + np.array([0.5, 0.4])
        anchor = StateAnchor(index=3, target=target, sigma=np.asarray(sigma))
        sol = optimize_map(ReproductionProblem(prior=prior, factors=[anchor]))
        scale = 1.0 + float(np.linalg.norm(target))
        assert np.linalg.norm(sol.trajectory.states[3] - target) <= 10 * sigma * scale

    def test_objective_history_nonincreasing(self, disc_sdf):
        rng = np.random.default_rng(8)
        prior = GaussianTrajectoryPrior(random_model(rng, dim=4, n_steps=6, contraction=0.7),
                                  GaussianState(mean=np.array([0.2, 0.0, 0.1, 0.0]),
                                                cov=0.05 * np.eye(4)))
        factors = [ObstacleFactor(indices=range(7), sdf=disc_sdf, eps_repro=0.12,
                                  sigma_repro=0.05)]
        factors.append(StateAnchor(index=0, target=np.array([0.1, -0.3, 0.0, 0.0]),
                                   sigma=np.asarray(1e-3)))
        sol = optimize_map(ReproductionProblem(prior=prior, factors=factors))
        assert len(sol.objective_history) >= 2
        assert np.all(np.diff(sol.objective_history) <= 0)

    def test_max_iterations_returns_best_iterate(self):
        rng = np.random.default_rng(9)
        prior = GaussianTrajectoryPrior(random_model(rng, dim=2, n_steps=5),
                                  random_init(rng, dim=2))
        anchors = [StateAnchor(index=5, target=rng.normal(size=2) + 5.0,
                               sigma=np.asarray(1e-6))]
        opts = OptimizerOptions(max_iters=1, lm_damping_init=1e6)
        sol = optimize_map(ReproductionProblem(prior=prior, factors=anchors, options=opts))
        assert not sol.converged and sol.stop == "max_iters"
        assert sol.iterations == 1

    def test_indefinite_beyond_max_damping_raises(self):
        rng = np.random.default_rng(11)
        prior = GaussianTrajectoryPrior(random_model(rng, dim=2, n_steps=5), random_init(rng, 2))
        prior.prec_diag[2] -= 1e14 * np.eye(2)  # no damping up to 1e12 makes this PD
        anchor = StateAnchor(index=0, target=prior.means[0] + 1.0, sigma=np.asarray(0.1))
        with pytest.raises(SingularNormalEquationsError,
                           match="at damping 1.0e\\+13: .*not positive definite"):
            optimize_map(ReproductionProblem(prior=prior, factors=[anchor]))

    def test_overflowing_anchor_information_raises(self):
        # sigma^2 = 1e-320 is a positive subnormal, so the anchor is valid,
        # but its information 1e320 overflows the normal equations
        rng = np.random.default_rng(12)
        prior = GaussianTrajectoryPrior(random_model(rng, dim=2, n_steps=5), random_init(rng, 2))
        anchor = StateAnchor(index=0, target=prior.means[0] + 1.0, sigma=np.asarray(1e-160))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(SingularNormalEquationsError, match="NaN or infinite"):
            optimize_map(ReproductionProblem(prior=prior, factors=[anchor]))

    def test_factor_index_validation(self):
        rng = np.random.default_rng(10)
        prior = GaussianTrajectoryPrior(random_model(rng, dim=2, n_steps=3), random_init(rng, 2))
        with pytest.raises(ValueError, match="outside"):
            ReproductionProblem(prior=prior,
                                factors=[StateAnchor(index=7, target=np.zeros(2),
                                                     sigma=np.asarray(0.1))])

    def test_infeasible_solution_flagged(self, disc_sdf):
        # anchor a node deep inside the obstacle with huge confidence; the
        # optimizer cannot clear it and must say so
        model = SkillModel(Phi_tilde=[np.hstack([np.zeros((4, 1)), np.eye(4)])] * 2,
                           Q=[0.001 * np.eye(4)] * 2, dt=0.1)
        prior = GaussianTrajectoryPrior(model, GaussianState(
            mean=np.array([0.5, 0.0, 0.0, 0.0]), cov=1e-6 * np.eye(4)))
        factors = [StateAnchor(index=i, target=np.array([0.5, 0.0, 0.0, 0.0]),
                               sigma=np.asarray(1e-6)) for i in range(3)]
        factors.append(ObstacleFactor(indices=[1], sdf=disc_sdf, eps_repro=0.1, sigma_repro=1.0))
        sol = optimize_map(ReproductionProblem(prior=prior, factors=factors))
        assert not sol.feasible
        assert sol.min_clearance < 0.0

    def test_clear_solution_feasible(self, disc_sdf):
        rng = np.random.default_rng(11)
        prior = GaussianTrajectoryPrior(random_model(rng, dim=4, n_steps=4, contraction=0.5),
                                  GaussianState(mean=np.array([1.5, 0.7, 0.0, 0.0]),
                                                cov=0.01 * np.eye(4)))
        factors = [ObstacleFactor(indices=range(5), sdf=disc_sdf, eps_repro=0.1,
                                  sigma_repro=0.05)]
        sol = optimize_map(ReproductionProblem(prior=prior, factors=factors))
        assert sol.feasible
        assert sol.min_clearance >= 0.1 - 0.01


def test_solution_exports():
    traj_states = np.arange(8.0).reshape(2, 4)
    from iwskill.demos import StateTrajectory
    sol = Solution(trajectory=StateTrajectory(dt=0.5, states=traj_states),
                   objective=1.25, iterations=3, stop="step", feasible=True,
                   min_clearance=0.42)
    csv_text = solution_csv(sol)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "t,x_1,x_2,x_3,x_4"
    assert len(lines) == 3
    summary = solution_summary(sol)
    assert summary == {"objective": 1.25, "iterations": 3, "converged": True, "stop": "step",
                       "feasible": True, "min_clearance": 0.42}
    sol.min_clearance = 1e9  # no obstacle factor: nothing was checked
    assert solution_summary(sol)["min_clearance"] is None
    for stop in ("gradient", "damping", "max_iters"):
        sol.stop = stop
        assert solution_summary(sol)["converged"] is (stop != "max_iters")
        assert solution_summary(sol)["stop"] == stop
