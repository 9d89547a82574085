import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwskill.batch import SkillModel, learn_batch_weighted
from iwskill.demos import DemoSet, estimate_states
from iwskill.environment import Environment, SdfGridError, Sphere, build_sdf, weight_trajectory
from iwskill.prior import GaussianTrajectoryPrior
from iwskill.reproduction import (ObstacleFactor, OptimizerOptions, ReproductionProblem,
                                  SingularNormalEquationsError, Solution, StateAnchor,
                                  negative_log_posterior, optimize_map, solution_csv,
                                  solution_summary)
from iwskill.synthetic import make_reaching_scene

from test_prior import dense_covariance, random_init, random_model


def dense_map_oracle(prior, anchors):
    """MAP of an anchors-only problem: the least-squares solution of the
    stacked whitened rows, the prior's start row W_0 (x_0 - mu_0), each
    interval's dynamics rows W_{i+1} (x_{i+1} - Phi_i x_i - u_i) and each
    anchor's rows (x_index - target) / sigma, with W_k^T W_k = info_k. It
    never forms the information matrix, whose entries reach 1e10 on learned
    priors."""
    n, d = prior.n_steps + 1, prior.dim
    w = np.linalg.cholesky(prior.info).transpose(0, 2, 1)
    rows = np.zeros(((n + len(anchors)) * d, n * d))
    rhs = np.zeros(rows.shape[0])
    rows[:d, :d], rhs[:d] = w[0], w[0] @ prior.means[0]
    for i in range(n - 1):
        r = slice((i + 1) * d, (i + 2) * d)
        rows[r, (i + 1) * d:(i + 2) * d] = w[i + 1]
        rows[r, i * d:(i + 1) * d] = -w[i + 1] @ prior.model.transition[i]
        rhs[r] = w[i + 1] @ prior.model.bias[i]
    for k, a in enumerate(anchors):
        r = slice((n + k) * d, (n + k + 1) * d)
        rows[r, a.index * d:(a.index + 1) * d] = np.eye(d) / a.sigma
        rhs[r] = a.target / a.sigma
    return np.linalg.lstsq(rows, rhs, rcond=None)[0]


def start_only_closed_form(prior, anchor):
    """MAP with one anchor on node 0: the start's Gaussian posterior, rolled
    through the dynamics (every dynamics residual is zero)."""
    info0 = prior.info[0]
    d = prior.dim
    states = [np.linalg.solve(info0 + np.eye(d) / anchor.sigma ** 2,
                              info0 @ prior.means[0] + anchor.target / anchor.sigma ** 2)]
    for phi, u in zip(prior.model.transition, prior.model.bias):
        states.append(phi @ states[-1] + u)
    return np.concatenate(states)


def hinge_row(state, sdf, eps_repro):
    """The one row of an obstacle factor on `state` at sigma_repro 1, and its
    Jacobian row: the hinge max(eps_repro - d, 0) and its gradient."""
    r, _, jac = ObstacleFactor(indices=[0], sdf=sdf, eps_repro=eps_repro,
                               sigma_repro=1.0).linearize(np.asarray(state)[None, :])
    return float(r[0]), jac[0]


@pytest.mark.parametrize("damping", [-1.0, 0.0, np.nan, np.inf])
def test_options_refuse_a_damping_start_that_cannot_escalate(damping):
    # x10 escalation from a start <= 0 never passes LM_DAMPING_MAX
    with pytest.raises(ValueError, match="lm_damping_init must be positive"):
        OptimizerOptions(lm_damping_init=damping)


def reaching_prior(seed, grid_n, weighted=True):
    """Prior of the reaching scene's batch-learned model, which starts from
    the demos' start states, and the demos' states (K, N+1, D)."""
    scene = make_reaching_scene(seed=seed)
    demo_set = DemoSet(demos=[estimate_states(d, grid_n) for d in scene.raw_demos])
    env = scene.env if weighted else None
    model = learn_batch_weighted(demo_set, [weight_trajectory(t.states, env, scene.weight_params)
                                            for t in demo_set.demos])
    return (GaussianTrajectoryPrior(model),
            np.stack([t.states for t in demo_set.demos]))


def conditional_given_start(prior, x0):
    """Gaussian conditional mean of the joint prior given the first node."""
    d = prior.dim
    cov = dense_covariance(prior)
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
        cost, grad = hinge_row(np.array([1.8, 0.8, 0.0, 0.0]), disc_sdf, eps_repro=0.1)
        assert cost == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_half_band_cost(self, disc_sdf):
        eps = 0.1
        # place the position at distance eps/2 from the surface
        state = np.array([0.5 + 0.2 + eps / 2, 0.0, 0.0, 0.0])
        cost, grad = hinge_row(state, disc_sdf, eps_repro=eps)
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
            cost, grad = hinge_row(state, disc_sdf, eps)
            if not 0.01 * eps < cost < 0.99 * eps:
                continue  # stay away from the hinge kink
            for k in range(2):
                e = np.zeros(4)
                e[k] = h
                c_hi, _ = hinge_row(state + e, disc_sdf, eps)
                c_lo, _ = hinge_row(state - e, disc_sdf, eps)
                fd = (c_hi - c_lo) / (2 * h)
                assert grad[k] == pytest.approx(fd, rel=1e-4, abs=1e-8)
            checked += 1

    def test_out_of_bounds(self, disc_sdf):
        with pytest.raises(ValueError, match="outside"):
            hinge_row(np.array([5.0, 5.0, 0.0, 0.0]), disc_sdf, 0.1)


class TestNegativeLogPosterior:
    def test_prior_mean_no_factors(self):
        rng = np.random.default_rng(1)
        prior = GaussianTrajectoryPrior(random_model(rng), random_init(rng))
        problem = ReproductionProblem(prior=prior, factors=[])
        objective, _, _ = negative_log_posterior(prior.stacked_mean, problem)
        assert objective == pytest.approx(0.0, abs=1e-12)

    def test_anchor_at_its_own_mean(self):
        rng = np.random.default_rng(2)
        prior = GaussianTrajectoryPrior(random_model(rng), random_init(rng))
        anchor = StateAnchor(index=2, target=prior.means[2].copy(), sigma=0.1)
        problem = ReproductionProblem(prior=prior, factors=[anchor])
        objective, _, _ = negative_log_posterior(prior.stacked_mean, problem)
        assert objective == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_evaluation(self):
        rng = np.random.default_rng(3)
        prior = GaussianTrajectoryPrior(random_model(rng, n_steps=4), random_init(rng))
        anchors = [StateAnchor(index=0, target=rng.normal(size=2), sigma=0.3),
                   StateAnchor(index=4, target=rng.normal(size=2), sigma=0.05)]
        problem = ReproductionProblem(prior=prior, factors=anchors)
        lam = prior.dense_precision()
        for _ in range(5):
            x = rng.normal(size=10)
            r = x - prior.stacked_mean
            expected = 0.5 * r @ lam @ r
            for a in anchors:
                ra = x[a.index * 2:(a.index + 1) * 2] - a.target
                expected += 0.5 * ra @ ra / a.sigma ** 2
            assert negative_log_posterior(x, problem)[0] == pytest.approx(expected, rel=1e-9)

    def test_obstacle_factor_only_penalizes_collision(self, disc_sdf):
        model = SkillModel(Phi_tilde=[np.hstack([np.zeros((4, 1)), np.eye(4)])] * 2,
                           Q=[0.01 * np.eye(4)] * 2, dt=0.1,
                           init_mean=np.array([1.5, 0.8, 0.0, 0.0]), init_cov=0.01 * np.eye(4))
        clear = GaussianTrajectoryPrior(model)
        colliding = GaussianTrajectoryPrior(model, (np.array([0.5, 0.25, 0.0, 0.0]),
                                                    0.01 * np.eye(4)))
        for prior, should_increase in ((clear, False), (colliding, True)):
            factors = [ObstacleFactor(indices=range(3), sdf=disc_sdf, eps_repro=0.1,
                                      sigma_repro=0.05)]
            with_obs = negative_log_posterior(prior.stacked_mean,
                                              ReproductionProblem(prior=prior, factors=factors))[0]
            without = negative_log_posterior(prior.stacked_mean,
                                             ReproductionProblem(prior=prior, factors=[]))[0]
            if should_increase:
                assert with_obs > without
            else:
                assert with_obs == pytest.approx(without, abs=1e-12)


class TestObstacleFactorBatch:
    @pytest.fixture
    def prior(self):
        rng = np.random.default_rng(12)
        return GaussianTrajectoryPrior(random_model(rng, dim=4, n_steps=8, contraction=0.7),
                                 (np.array([0.3, 0.0, 0.1, 0.0]), 0.05 * np.eye(4)))

    def test_one_factor_equals_per_node_obstacle_costs(self, prior, disc_sdf):
        rng = np.random.default_rng(13)
        factor = ObstacleFactor(indices=range(9), sdf=disc_sdf, eps_repro=0.15, sigma_repro=0.05)
        problem = ReproductionProblem(prior=prior, factors=[factor])
        for _ in range(5):
            x = np.column_stack([rng.uniform(0.2, 0.8, 9), rng.uniform(-0.3, 0.3, 9),
                                 rng.normal(size=(9, 2))]).reshape(-1)
            expected = 0.5 * prior.quad_form(x)[0]
            active = 0
            for i in range(9):
                c, _ = hinge_row(x[4 * i:4 * i + 4], disc_sdf, 0.15)
                expected += 0.5 * c * c / 0.05 ** 2
                active += c > 0
            assert active > 0
            assert negative_log_posterior(x, problem)[0] == pytest.approx(expected, rel=1e-12)

    def test_subset_of_nodes(self, prior, disc_sdf):
        x = np.tile([0.5, 0.1, 0.0, 0.0], 9)  # every node is inside the disc's band
        base = negative_log_posterior(x, ReproductionProblem(prior=prior, factors=[]))[0]
        c, _ = hinge_row(x[:4], disc_sdf, 0.1)
        for nodes in ([4], [0, 8], range(9)):
            factor = ObstacleFactor(indices=nodes, sdf=disc_sdf, eps_repro=0.1, sigma_repro=0.05)
            got = negative_log_posterior(x, ReproductionProblem(prior=prior, factors=[factor]))[0]
            assert got == pytest.approx(base + len(factor.indices) * 0.5 * c * c / 0.05 ** 2,
                                        rel=1e-12)

    def test_off_grid_node_is_named(self, prior, disc_sdf):
        factor = ObstacleFactor(indices=range(9), sdf=disc_sdf, eps_repro=0.1, sigma_repro=0.05)
        x = np.tile([0.5, 0.6, 0.0, 0.0], 9)
        x[4 * 6] = 7.0
        with pytest.raises(SdfGridError, match=r"node 6 left the SDF grid: query \[7.0, 0.6\]"):
            negative_log_posterior(x, ReproductionProblem(prior=prior, factors=[factor]))

    def test_index_validation(self, prior, disc_sdf):
        with pytest.raises(ValueError, match="distinct"):
            ObstacleFactor(indices=[1, 2, 1], sdf=disc_sdf, eps_repro=0.1, sigma_repro=0.05)
        with pytest.raises(ValueError, match="factor index 9 outside"):
            ReproductionProblem(prior=prior, factors=[ObstacleFactor(
                indices=range(10), sdf=disc_sdf, eps_repro=0.1, sigma_repro=0.05)])


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
            anchors = [StateAnchor(index=0, target=rng.normal(size=2), sigma=0.1),
                       StateAnchor(index=n, target=rng.normal(size=2), sigma=0.2)]
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
        prior, states = reaching_prior(seed, grid_n)
        mix = np.random.default_rng(seed).dirichlet(np.ones(states.shape[0]))
        anchors = [StateAnchor(index=0, target=mix @ states[:, 0], sigma=1e-3),
                   StateAnchor(index=grid_n, target=mix @ states[:, -1], sigma=1e-3)]
        sol = optimize_map(ReproductionProblem(prior=prior, factors=anchors))
        assert sol.stop == "step" and sol.iterations <= 3
        np.testing.assert_allclose(sol.trajectory.states.reshape(-1),
                                   dense_map_oracle(prior, anchors), rtol=0, atol=1e-6)

    @pytest.mark.parametrize("weighted", [True, False])
    def test_oracle_matches_start_only_closed_form(self, weighted):
        # the committed reaching reproduction (results/reaching): 60 nodes,
        # a start anchor at sigma 1e-3; an information-form solve is 1e-4 off
        prior, _ = reaching_prior(0, 60, weighted)
        anchor = StateAnchor(index=0, target=np.array([0.0, 0.5, 3.0, 1.0]), sigma=1e-3)
        np.testing.assert_allclose(dense_map_oracle(prior, [anchor]),
                                   start_only_closed_form(prior, anchor), rtol=0, atol=1e-8)

    def test_tight_start_anchor_matches_gaussian_conditioning(self):
        rng = np.random.default_rng(6)
        prior = GaussianTrajectoryPrior(random_model(rng, dim=2, n_steps=8),
                                  random_init(rng, dim=2))
        new_start = prior.means[0] + np.array([0.3, -0.2])
        anchor = StateAnchor(index=0, target=new_start, sigma=1e-7)
        sol = optimize_map(ReproductionProblem(prior=prior, factors=[anchor]))
        expected = conditional_given_start(prior, new_start)
        np.testing.assert_allclose(sol.trajectory.states.reshape(-1), expected, atol=1e-5)

    def test_two_node_scalar_hand_solve(self):
        # 1-D state, one interval; anchors on both nodes. The posterior
        # information is the prior information plus 1/sigma^2 on each node.
        phi, u, q = 0.8, 0.1, 0.05
        p0 = 0.2
        prior = GaussianTrajectoryPrior(SkillModel(
            Phi_tilde=np.array([[[u, phi]]]), Q=np.array([[[q]]]), dt=1.0,
            init_mean=np.array([0.5]), init_cov=np.array([[p0]])))
        t0, t1, s0, s1 = -0.2, 1.4, 0.3, 0.15
        anchors = [StateAnchor(index=0, target=np.array([t0]), sigma=s0),
                   StateAnchor(index=1, target=np.array([t1]), sigma=s1)]
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
        anchor = StateAnchor(index=3, target=target, sigma=sigma)
        sol = optimize_map(ReproductionProblem(prior=prior, factors=[anchor]))
        scale = 1.0 + float(np.linalg.norm(target))
        assert np.linalg.norm(sol.trajectory.states[3] - target) <= 10 * sigma * scale

    def test_objective_history_nonincreasing(self, disc_sdf):
        rng = np.random.default_rng(8)
        prior = GaussianTrajectoryPrior(random_model(rng, dim=4, n_steps=6, contraction=0.7),
                                  (np.array([0.2, 0.0, 0.1, 0.0]), 0.05 * np.eye(4)))
        factors = [ObstacleFactor(indices=range(7), sdf=disc_sdf, eps_repro=0.12,
                                  sigma_repro=0.05)]
        factors.append(StateAnchor(index=0, target=np.array([0.1, -0.3, 0.0, 0.0]),
                                   sigma=1e-3))
        sol = optimize_map(ReproductionProblem(prior=prior, factors=factors))
        assert len(sol.objective_history) >= 2
        assert np.all(np.diff(sol.objective_history) <= 0)

    def test_max_iterations_returns_best_iterate(self):
        rng = np.random.default_rng(9)
        prior = GaussianTrajectoryPrior(random_model(rng, dim=2, n_steps=5),
                                  random_init(rng, dim=2))
        anchors = [StateAnchor(index=5, target=rng.normal(size=2) + 5.0,
                               sigma=1e-6)]
        opts = OptimizerOptions(max_iters=1, lm_damping_init=1e6)
        sol = optimize_map(ReproductionProblem(prior=prior, factors=anchors, options=opts))
        assert not sol.converged and sol.stop == "max_iters"
        assert sol.iterations == 1

    def test_indefinite_beyond_max_damping_raises(self):
        rng = np.random.default_rng(11)
        prior = GaussianTrajectoryPrior(random_model(rng, dim=2, n_steps=5), random_init(rng, 2))
        prior.prec_diag[2] -= 1e14 * np.eye(2)  # no damping up to 1e12 makes this PD
        anchor = StateAnchor(index=0, target=prior.means[0] + 1.0, sigma=0.1)
        with pytest.raises(SingularNormalEquationsError,
                           match="at damping 1.0e\\+13: .*not positive definite"):
            optimize_map(ReproductionProblem(prior=prior, factors=[anchor]))

    def test_overflowing_anchor_information_raises(self):
        # sigma 1e-160 is a valid anchor, but its information 1e320
        # overflows the gradient and the Gauss-Newton blocks: LM stops at
        # once, before any step, and numpy warns of nothing
        rng = np.random.default_rng(12)
        prior = GaussianTrajectoryPrior(random_model(rng, dim=2, n_steps=5), random_init(rng, 2))
        anchor = StateAnchor(index=0, target=prior.means[0] + 1.0, sigma=1e-160)
        with pytest.raises(SingularNormalEquationsError,
                           match="at damping 0: NaN or infinite gradient or Gauss-Newton"):
            optimize_map(ReproductionProblem(prior=prior, factors=[anchor]))

    def test_factor_index_validation(self):
        rng = np.random.default_rng(10)
        prior = GaussianTrajectoryPrior(random_model(rng, dim=2, n_steps=3), random_init(rng, 2))
        with pytest.raises(ValueError, match="outside"):
            ReproductionProblem(prior=prior,
                                factors=[StateAnchor(index=7, target=np.zeros(2),
                                                     sigma=0.1)])

    def test_infeasible_solution_flagged(self, disc_sdf):
        # anchor a node deep inside the obstacle with huge confidence; the
        # optimizer cannot clear it and must say so
        prior = GaussianTrajectoryPrior(SkillModel(
            Phi_tilde=[np.hstack([np.zeros((4, 1)), np.eye(4)])] * 2, Q=[0.001 * np.eye(4)] * 2,
            dt=0.1, init_mean=np.array([0.5, 0.0, 0.0, 0.0]), init_cov=1e-6 * np.eye(4)))
        factors = [StateAnchor(index=i, target=np.array([0.5, 0.0, 0.0, 0.0]),
                               sigma=1e-6) for i in range(3)]
        factors.append(ObstacleFactor(indices=[1], sdf=disc_sdf, eps_repro=0.1, sigma_repro=1.0))
        sol = optimize_map(ReproductionProblem(prior=prior, factors=factors))
        assert not sol.feasible
        assert sol.min_clearance < 0.0

    def test_clear_solution_feasible(self, disc_sdf):
        rng = np.random.default_rng(11)
        prior = GaussianTrajectoryPrior(random_model(rng, dim=4, n_steps=4, contraction=0.5),
                                  (np.array([1.5, 0.7, 0.0, 0.0]), 0.01 * np.eye(4)))
        factors = [ObstacleFactor(indices=range(5), sdf=disc_sdf, eps_repro=0.1,
                                  sigma_repro=0.05)]
        sol = optimize_map(ReproductionProblem(prior=prior, factors=factors))
        assert sol.feasible
        assert sol.min_clearance >= 0.1 - 0.01

    def test_each_point_is_linearized_once(self, disc_sdf):
        # the start and every trial point: a kept step is not evaluated again
        class Counting:
            def __init__(self, factor):
                self.factor, self.indices, self.calls = factor, factor.indices, 0

            def linearize(self, states):
                self.calls += 1
                return self.factor.linearize(states)

        rng = np.random.default_rng(11)
        prior = GaussianTrajectoryPrior(random_model(rng, dim=4, n_steps=4, contraction=0.5),
                                        (np.array([1.5, 0.7, 0.0, 0.0]), 0.01 * np.eye(4)))
        factors = [Counting(StateAnchor(index=0, target=np.array([0.3, 0.05, 0.0, 0.0]),
                                        sigma=0.01)),
                   Counting(ObstacleFactor(indices=range(5), sdf=disc_sdf, eps_repro=0.1,
                                           sigma_repro=0.05))]
        sol = optimize_map(ReproductionProblem(prior=prior, factors=factors))
        assert len(sol.objective_history) > 2
        assert [f.calls for f in factors] == [sol.iterations + 1] * 2


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 4), n_steps=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_gradient_matches_central_differences(dim, n_steps, seed):
    rng = np.random.default_rng(seed)
    prior = GaussianTrajectoryPrior(random_model(rng, dim=dim, n_steps=n_steps),
                                    random_init(rng, dim))
    anchors = [StateAnchor(index=int(rng.integers(0, n_steps + 1)), target=rng.normal(size=dim),
                           sigma=float(rng.uniform(0.05, 1.0))) for _ in range(2)]
    problem = ReproductionProblem(prior=prior, factors=anchors)
    x = prior.stacked_mean + rng.normal(scale=0.1, size=prior.stacked_mean.size)
    _, grad, _ = negative_log_posterior(x, problem)
    h = 1e-5
    fd = np.array([(negative_log_posterior(x + h * e, problem)[0]
                    - negative_log_posterior(x - h * e, problem)[0]) / (2 * h)
                   for e in np.eye(x.size)])
    np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-6 * max(1.0, np.abs(fd).max()))


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
