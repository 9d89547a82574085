from dataclasses import replace

import numpy as np
import pytest

from iwskill.batch import SkillModel
from iwskill.demos import DemoSet, StateTrajectory
from iwskill.linalg import psd_sqrt
from iwskill.prior import (GaussianTrajectoryPrior, initial_state_distribution, prior_band_csv,
                           sample_trajectories)


def random_model(rng, dim=2, n_steps=5, noise=0.05, contraction=0.9):
    phis, qs = [], []
    for _ in range(n_steps):
        phi = rng.normal(size=(dim, dim))
        phi *= contraction / max(np.abs(np.linalg.eigvals(phi)))
        u = rng.normal(scale=0.3, size=dim)
        a = rng.normal(scale=noise, size=(dim, dim))
        # keep Q comfortably positive definite so inverses stay well behaved
        phis.append(np.hstack([u[:, None], phi]))
        qs.append(a @ a.T + 0.2 * noise ** 2 * np.eye(dim))
    return SkillModel(Phi_tilde=np.stack(phis), Q=np.stack(qs), dt=0.1,
                      init_mean=np.zeros(dim), init_cov=np.eye(dim))


def node_marginals(model, init=None):
    """The marginal Gaussian (mean, cov) of every node, from the prior's
    moment arrays."""
    prior = GaussianTrajectoryPrior(model, init)
    return list(zip(prior.means, prior.covs))


def dense_covariance(prior):
    """Oracle: the full (N+1)D joint covariance of a prior, from the Markov
    cross-covariance recursion, one block at a time."""
    n = prior.n_steps
    blocks = [[None] * (n + 1) for _ in range(n + 1)]
    for j in range(n + 1):
        blocks[j][j] = prior.covs[j]
        for i in range(j + 1, n + 1):
            blocks[i][j] = prior.model.transition[i - 1] @ blocks[i - 1][j]
            blocks[j][i] = blocks[i][j].T
    return np.block(blocks)


def reference_moments_and_precision(model, init, jitter=1e-10):
    """Per-interval loops over the model's intervals: rollout moments and the
    information-form precision blocks, one (D, D+1) map at a time."""
    steps = [(model.Phi_tilde[i], model.Phi_tilde[i][:, 1:], model.Q[i])
             for i in range(model.n_steps)]
    means, covs = [init[0]], [init[1]]
    for phi_tilde, phi, q in steps:
        means.append(phi_tilde @ np.concatenate([[1.0], means[-1]]))
        cov = phi @ covs[-1] @ phi.T + q
        covs.append((cov + cov.T) / 2.0)
    d, n = model.dim, model.n_steps
    eye = np.eye(d)
    diag = np.zeros((n + 1, d, d))
    off = np.zeros((n, d, d))
    diag[0] = np.linalg.inv(init[1] + jitter * eye)
    for i, (_, phi, q) in enumerate(steps):
        q_inv = np.linalg.inv(q + jitter * eye)
        diag[i] += phi.T @ q_inv @ phi
        diag[i + 1] += q_inv
        off[i] = -q_inv @ phi
    return np.stack(means), np.stack(covs), diag, off


def random_init(rng, dim=2):
    a = rng.normal(scale=0.2, size=(dim, dim))
    return rng.normal(size=dim), a @ a.T + 0.01 * np.eye(dim)


class TestInitialStateDistribution:
    def test_single_demo(self):
        states = np.arange(12.0).reshape(3, 4)
        ds = DemoSet(demos=[StateTrajectory(dt=0.1, states=states)])
        mean, cov = initial_state_distribution(ds)
        np.testing.assert_array_equal(mean, states[0])
        np.testing.assert_allclose(cov, 1e-8 * np.eye(4))

    def test_two_symmetric_starts(self):
        a = 0.7
        s1 = np.zeros((3, 2)); s1[0, 0] = a
        s2 = np.zeros((3, 2)); s2[0, 0] = -a
        ds = DemoSet(demos=[StateTrajectory(dt=0.1, states=s1),
                            StateTrajectory(dt=0.1, states=s2)])
        mean, cov = initial_state_distribution(ds)
        np.testing.assert_allclose(mean, 0.0, atol=1e-15)
        # population variance of the two points, plus the 1e-8 regularizer
        assert cov[0, 0] == pytest.approx(a ** 2 + 1e-8, rel=1e-12)

    def test_matches_direct_moments(self):
        rng = np.random.default_rng(0)
        starts = rng.normal(size=(10, 4))
        demos = [StateTrajectory(dt=0.1, states=np.vstack([s, np.zeros((2, 4))]))
                 for s in starts]
        mean, cov = initial_state_distribution(DemoSet(demos=demos))
        np.testing.assert_allclose(mean, starts.mean(axis=0))
        centered = starts - starts.mean(axis=0)
        np.testing.assert_allclose(cov, centered.T @ centered / 10 + 1e-8 * np.eye(4),
                                   rtol=1e-12)


class TestRollout:
    def test_identity_dynamics_are_constant(self):
        dim = 3
        model = SkillModel(Phi_tilde=[np.hstack([np.zeros((dim, 1)), np.eye(dim)])] * 4,
                           Q=[np.zeros((dim, dim))] * 4, dt=0.1,
                           init_mean=[1.0, -2.0, 0.5], init_cov=0.3 * np.eye(dim))
        for mean, cov in node_marginals(model):
            np.testing.assert_allclose(mean, model.init_mean)
            np.testing.assert_allclose(cov, model.init_cov)

    def test_scalar_geometric_recursion(self):
        model = SkillModel(Phi_tilde=[[[1.0, 0.5]]] * 3, Q=np.zeros((3, 1, 1)), dt=1.0,
                           init_mean=np.zeros(1), init_cov=np.zeros((1, 1)))
        means = [mean[0] for mean, _ in node_marginals(model)]
        np.testing.assert_allclose(means, [0.0, 1.0, 1.5, 1.75])

    def test_dimension_mismatch(self):
        model = random_model(np.random.default_rng(1), dim=2)
        with pytest.raises(ValueError, match="dimension"):
            node_marginals(model, (np.zeros(3), np.eye(3)))

    def test_moments_match_monte_carlo(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, dim=2, n_steps=4)
        init = random_init(rng, dim=2)
        marginals = node_marginals(model, init)
        n = 200_000
        samples = init[0] + rng.standard_normal((n, 2)) @ np.linalg.cholesky(init[1]).T
        for i in range(1, model.n_steps + 1):
            noise = rng.standard_normal((n, 2)) @ np.linalg.cholesky(
                model.Q[i - 1] + 1e-14 * np.eye(2)).T
            samples = samples @ model.transition[i - 1].T + model.bias[i - 1] + noise
            mean, p = marginals[i]
            se_mean = np.sqrt(np.diag(p) / n)
            assert np.all(np.abs(samples.mean(axis=0) - mean) <= 4 * se_mean)
            emp_cov = np.cov(samples.T)
            se_cov = np.sqrt((np.outer(np.diag(p), np.diag(p)) + p ** 2) / n)
            assert np.all(np.abs(emp_cov - p) <= 4 * se_cov)


class TestJointPrior:
    def test_two_node_joint_covariance(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, dim=2, n_steps=1)
        init = random_init(rng, dim=2)
        prior = GaussianTrajectoryPrior(model, init)
        phi = model.transition[0]
        p0 = init[1]
        expected = np.block([[p0, p0 @ phi.T],
                             [phi @ p0, phi @ p0 @ phi.T + model.Q[0]]])
        np.testing.assert_allclose(dense_covariance(prior), expected, rtol=1e-12)

    def test_marginals_consistent_with_rollout(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, dim=3, n_steps=6)
        init = random_init(rng, dim=3)
        prior = GaussianTrajectoryPrior(model, init)
        marginals = node_marginals(model, init)
        dense = dense_covariance(prior)
        for i, (_, cov) in enumerate(marginals):
            np.testing.assert_allclose(prior.covs[i], cov, atol=1e-10)
            np.testing.assert_allclose(dense[3 * i:3 * i + 3, 3 * i:3 * i + 3], cov,
                                       atol=1e-10)

    def test_precision_is_block_tridiagonal(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, dim=2, n_steps=5)
        init = random_init(rng, dim=2)
        prior = GaussianTrajectoryPrior(model, init)
        inv = np.linalg.inv(dense_covariance(prior))
        scale = np.max(np.abs(inv))
        d = 2
        for i in range(6):
            for j in range(6):
                if abs(i - j) > 1:
                    block = inv[d * i:d * i + d, d * j:d * j + d]
                    assert np.max(np.abs(block)) / scale <= 1e-8

    def test_precision_times_covariance_is_identity(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, dim=2, n_steps=4)
        init = random_init(rng, dim=2)
        prior = GaussianTrajectoryPrior(model, init)
        product = prior.dense_precision() @ dense_covariance(prior)
        np.testing.assert_allclose(product, np.eye(10), atol=1e-6)

    def test_quad_form_matches_dense(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, dim=2, n_steps=4)
        init = random_init(rng, dim=2)
        prior = GaussianTrajectoryPrior(model, init)
        lam = prior.dense_precision()
        for _ in range(5):
            x = rng.normal(size=10)
            r = x - prior.stacked_mean
            value, grad = prior.quad_form(x)
            np.testing.assert_allclose(value, r @ lam @ r, rtol=1e-10)
            np.testing.assert_allclose(grad, lam @ r, rtol=1e-8, atol=1e-8 * np.abs(lam @ r).max())

    def test_added_noise_never_shrinks_variances(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, dim=2, n_steps=5)
        init = random_init(rng, dim=2)
        base = node_marginals(model, init)
        noisier = node_marginals(replace(model, Q=model.Q + 0.05 * np.eye(2)), init)
        for (_, cov_lo), (_, cov_hi) in zip(base, noisier):
            assert np.all(np.diag(cov_hi) >= np.diag(cov_lo) - 1e-12)

    def test_starts_from_the_model_moments_unless_given_a_start(self):
        rng = np.random.default_rng(16)
        mean, cov = random_init(rng, dim=2)
        model = replace(random_model(rng, dim=2, n_steps=4), init_mean=mean, init_cov=cov)
        own, given = GaussianTrajectoryPrior(model), GaussianTrajectoryPrior(model, (mean, cov))
        for key in ("means", "covs", "prec_diag", "prec_off"):
            np.testing.assert_array_equal(getattr(own, key), getattr(given, key))
        other = GaussianTrajectoryPrior(model, (np.zeros(2), np.eye(2)))
        np.testing.assert_array_equal(other.means[0], np.zeros(2))
        np.testing.assert_array_equal(other.covs[0], np.eye(2))

    @pytest.mark.parametrize("dim,n_steps", [(1, 1), (2, 5), (4, 60), (6, 200)])
    def test_arrays_equal_per_interval_loops(self, dim, n_steps):
        rng = np.random.default_rng(dim * 1000 + n_steps)
        model = random_model(rng, dim=dim, n_steps=n_steps)
        init = random_init(rng, dim=dim)
        prior = GaussianTrajectoryPrior(model, init)
        means, covs, diag, off = reference_moments_and_precision(model, init)
        np.testing.assert_array_equal(prior.means, means)
        np.testing.assert_array_equal(prior.covs, covs)
        np.testing.assert_array_equal(prior.prec_diag, diag)
        np.testing.assert_array_equal(prior.prec_off, off)
        for (mean, cov), m, c in zip(node_marginals(model, init), means, covs):
            np.testing.assert_array_equal(mean, m)
            np.testing.assert_array_equal(cov, c)

    def test_overflowing_dynamics_raise(self):
        rng = np.random.default_rng(15)
        model = random_model(rng, dim=2, n_steps=6)
        phi_tilde = model.Phi_tilde.copy()
        phi_tilde[3] = 1e200 * phi_tilde[3]
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError, match="overflow at node 4 of 6"):
            GaussianTrajectoryPrior(replace(model, Phi_tilde=phi_tilde), random_init(rng, dim=2))


class TestSampling:
    def test_zero_noise_fixed_start_gives_mean_path(self):
        rng = np.random.default_rng(10)
        phis = []
        for _ in range(4):
            phi = rng.normal(size=(2, 2)) * 0.4
            phis.append(np.hstack([rng.normal(size=(2, 1)), phi]))
        model = SkillModel(Phi_tilde=np.stack(phis), Q=np.zeros((4, 2, 2)), dt=0.1,
                           init_mean=[0.3, -0.1], init_cov=np.zeros((2, 2)))
        prior = GaussianTrajectoryPrior(model)
        samples = sample_trajectories(prior, 5, seed=0)
        assert samples.shape == (5, 5, 2)
        for states in samples:
            np.testing.assert_allclose(states, prior.means, atol=1e-12)

    def test_seed_determinism(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, dim=2, n_steps=4)
        prior = GaussianTrajectoryPrior(model, random_init(rng, dim=2))
        np.testing.assert_array_equal(sample_trajectories(prior, 3, seed=42),
                                      sample_trajectories(prior, 3, seed=42))

    def test_sample_covariance_matches_marginals(self):
        rng = np.random.default_rng(12)
        model = random_model(rng, dim=2, n_steps=3)
        prior = GaussianTrajectoryPrior(model, random_init(rng, dim=2))
        n = 50_000
        stacked = sample_trajectories(prior, n, seed=7)
        for i in range(4):
            emp = np.cov(stacked[:, i, :].T)
            p = prior.covs[i]
            se = np.sqrt((np.outer(np.diag(p), np.diag(p)) + p ** 2) / n)
            assert np.all(np.abs(emp - p) <= 4 * se)

    @pytest.mark.parametrize("dim,n_steps", [(1, 1), (2, 5), (4, 60)])
    def test_samples_equal_per_interval_loop(self, dim, n_steps):
        rng = np.random.default_rng(dim * 100 + n_steps)
        model = random_model(rng, dim=dim, n_steps=n_steps)
        mean, cov = random_init(rng, dim=dim)
        prior = GaussianTrajectoryPrior(model, (mean, cov))
        draws = np.random.default_rng(5)
        state = mean + draws.standard_normal((3, dim)) @ psd_sqrt(cov).T
        nodes = [state]
        for i in range(n_steps):
            noise = draws.standard_normal((3, dim)) @ psd_sqrt(prior.model.Q[i]).T
            state = state @ prior.model.Phi_tilde[i][:, 1:].T + prior.model.Phi_tilde[i][:, 0] \
                + noise
            nodes.append(state)
        np.testing.assert_array_equal(sample_trajectories(prior, 3, seed=5),
                                      np.stack(nodes, axis=1))

    def test_bad_count(self):
        rng = np.random.default_rng(13)
        prior = GaussianTrajectoryPrior(random_model(rng), random_init(rng))
        with pytest.raises(ValueError):
            sample_trajectories(prior, 0, seed=0)


def test_band_csv_shape():
    rng = np.random.default_rng(14)
    model = random_model(rng, dim=2, n_steps=3)
    prior = GaussianTrajectoryPrior(model, random_init(rng, dim=2))
    lines = prior_band_csv(prior).strip().split("\n")
    assert lines[0] == "t,mean_1,mean_2,std_1,std_2"
    assert len(lines) == 5
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    np.testing.assert_allclose(first[1:3], prior.means[0])
