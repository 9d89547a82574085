"""Acceptance suite: one test per release criterion.

Each test prints `ACCEPTANCE <n> ... PASS` on success (visible with
`pytest tests/test_acceptance.py -v -s`) and enforces its runtime budget.
"""

import json
import os
import time

import numpy as np
import pytest

from iwskill.batch import SkillModel, effective_sample_size, learn_batch_weighted
from iwskill.cli import main as cli_main
from iwskill.demos import DemoSet, estimate_states, save_raw_demo
from iwskill.environment import (Environment, Sphere, WeightParams, environment_to_dict,
                                 hinge_cost, weight_trajectory)
from iwskill.incremental import IncrementalLearner, assimilate_demo, extract_map
from iwskill.prior import GaussianTrajectoryPrior, sample_trajectories
from iwskill.reproduction import (ObstacleFactor, ReproductionProblem, StateAnchor,
                                  optimize_map)
from iwskill.synthetic import (make_placing_scene, make_reaching_scene,
                               max_deviation_from_segment, path_length)
from iwskill.utils import write_json
from test_batch import Interval, fit_one
from test_incremental import beliefs
from test_prior import dense_covariance, node_marginals


def _report(number: int, title: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number} {title}: PASS ({elapsed:.1f}s)")


def ridge_oracle(inputs, targets, weights, lam):
    """Row-by-row lstsq on the square-root-weighted stacked system."""
    sqrt_w = np.sqrt(weights)
    dim_in = inputs.shape[0]
    design = np.vstack([(inputs * sqrt_w).T, np.sqrt(lam) * np.eye(dim_in)])
    phi = np.empty((targets.shape[0], dim_in))
    for r in range(targets.shape[0]):
        rhs = np.concatenate([targets[r] * sqrt_w, np.zeros(dim_in)])
        phi[r], *_ = np.linalg.lstsq(design, rhs, rcond=None)
    return phi


def test_acceptance_1_weighted_regression_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(1001)
    for _ in range(200):
        dim = int(rng.choice([2, 4, 6]))
        k = int(rng.integers(3, 21))
        inputs = np.vstack([np.ones((1, k)), rng.normal(size=(dim, k))])
        targets = rng.normal(size=(dim, k))
        weights = rng.uniform(1e-3, 1.0, size=k)
        lam = float(10.0 ** rng.uniform(-6, -2))
        data = Interval(inputs=inputs, targets=targets, weights=weights)
        step = fit_one(data, lam=lam)
        expected = ridge_oracle(inputs, targets, weights, lam)
        rel = np.linalg.norm(step.Phi_tilde - expected) / max(np.linalg.norm(expected), 1e-12)
        assert rel <= 1e-8

        def loss(phi):
            err = targets - phi @ inputs
            return float(np.sum(weights * np.sum(err ** 2, axis=0)) + lam * np.sum(phi ** 2))

        base = loss(step.Phi_tilde)
        scale = max(np.max(np.abs(step.Phi_tilde)), 1.0)
        for _ in range(100):
            delta = rng.normal(scale=1e-3 * scale, size=step.Phi_tilde.shape)
            assert base <= loss(step.Phi_tilde + delta) + 1e-12
    _report(1, "weighted ridge regression matches brute-force oracle and minimizes loss",
            started, budget=10.0)


def test_acceptance_2_batch_incremental_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(1002)
    alpha = beta = 1e10
    for _ in range(5):
        k = int(rng.integers(6, 14))
        n_steps = int(rng.integers(2, 6))
        dim = int(rng.choice([2, 4]))
        demos = [np.random.default_rng(rng.integers(1 << 31)).normal(size=(n_steps + 1, dim))
                 for _ in range(k)]
        weights = [rng.uniform(0.05, 1.0, size=n_steps + 1) for _ in range(k)]

        from iwskill.demos import StateTrajectory
        trajs = [StateTrajectory(dt=0.1, states=s) for s in demos]
        learner = IncrementalLearner(n_steps, dim, alpha, beta, dt=0.1)
        for traj, w in zip(trajs, weights):
            assimilate_demo(learner, traj, w)
        model = extract_map(learner)

        for i in range(n_steps):
            inputs = np.vstack([np.ones((1, k)),
                                np.stack([s[i] for s in demos], axis=1)])
            targets = np.stack([s[i + 1] for s in demos], axis=1)
            w = np.array([weights[j][i] for j in range(k)])
            batch = fit_one(Interval(inputs=inputs, targets=targets, weights=w),
                            lam=1.0 / alpha)
            rel = np.max(np.abs(model.Phi_tilde[i] - batch.Phi_tilde)) \
                / np.max(np.abs(batch.Phi_tilde))
            assert rel <= 1e-8

        for s in beliefs(learner):
            assert s.nu == 1.0 / beta + k  # exact

        perm = list(rng.permutation(k))
        learner_p = IncrementalLearner(n_steps, dim, alpha, beta, dt=0.1)
        for p in perm:
            assimilate_demo(learner_p, trajs[p], weights[p])
        for sa, sb in zip(beliefs(learner), beliefs(learner_p)):
            assert np.max(np.abs(sa.R - sb.R)) / np.max(np.abs(sa.R)) <= 1e-8
            assert np.max(np.abs(sa.M - sb.M)) / np.max(np.abs(sa.M)) <= 1e-8
    _report(2, "incremental MAP equals batch ridge at lambda=1/alpha; nu exact; "
               "M, R order-invariant", started, budget=10.0)


def test_acceptance_3_z_normalizer():
    started = time.monotonic()
    rng = np.random.default_rng(1003)
    for k in range(2, 51):
        assert effective_sample_size(np.ones(k)) == float(k - 1)  # exact
    # Q equals the (K-1)-normalized residual covariance at unit weights
    for _ in range(10):
        k = int(rng.integers(6, 20))
        dim = 3
        inputs = np.vstack([np.ones((1, k)), rng.normal(size=(dim, k))])
        targets = rng.normal(size=(dim, k))
        data = Interval(inputs=inputs, targets=targets, weights=np.ones(k))
        step = fit_one(data, lam=0.0)
        phi = ridge_oracle(inputs, targets, np.ones(k), 0.0)
        resid = targets - phi @ inputs
        expected_q = resid @ resid.T / (k - 1)
        np.testing.assert_allclose(step.Q, expected_q, rtol=1e-9, atol=1e-12)
    _report(3, "z equals K-1 at unit weights and Q is the residual covariance",
            started, budget=10.0)


def test_acceptance_4_weight_function():
    started = time.monotonic()
    env = Environment(dimension=2, obstacles=[Sphere(center=np.zeros(2), radius=1.0)])

    params = WeightParams(epsilon=0.3, sigma_obs=0.01)
    for extra in (0.0, 0.05, 2.0):
        x = np.array([1.0 + params.epsilon + extra, 0.0])
        assert weight_trajectory(x[None], env, params)[0] == 1.0
    # hinge cost equal to sigma_obs gives exp(-1/2)
    x = np.array([1.0 + params.epsilon - params.sigma_obs, 0.0])
    assert weight_trajectory(x[None], env, params)[0] == pytest.approx(np.exp(-0.5), abs=1e-12)
    # monotone nondecreasing in the distance over a dense sweep
    sweep = np.linspace(-0.5, 1.0, 1000)
    w = [np.exp(-hinge_cost(d, params) ** 2 / (2 * params.sigma_obs ** 2)) for d in sweep]
    assert np.all(np.diff(w) >= 0.0)
    # reference parameterization epsilon=3, sigma=1: w(d=1) = exp(-2)
    ref = WeightParams(epsilon=3.0, sigma_obs=1.0)
    x = np.array([2.0, 0.0])  # distance 1 from the unit sphere
    assert weight_trajectory(x[None], env, ref)[0] == pytest.approx(np.exp(-2.0), abs=1e-12)
    _report(4, "weight function boundary, decay point, monotonicity, and the "
               "epsilon=3/sigma=1 profile", started, budget=10.0)


def _random_model(rng, dim, n_steps):
    phis, qs = [], []
    for _ in range(n_steps):
        phi = rng.normal(size=(dim, dim))
        phi *= 0.9 / max(np.abs(np.linalg.eigvals(phi)))
        u = rng.normal(scale=0.3, size=dim)
        a = rng.normal(scale=0.1, size=(dim, dim))
        phis.append(np.hstack([u[:, None], phi]))
        qs.append(a @ a.T + 2e-3 * np.eye(dim))
    a = rng.normal(scale=0.2, size=(dim, dim))
    return SkillModel(Phi_tilde=np.stack(phis), Q=np.stack(qs), dt=0.1,
                      init_mean=rng.normal(size=dim), init_cov=a @ a.T + 0.01 * np.eye(dim))


def test_acceptance_5_prior_correctness():
    started = time.monotonic()
    rng = np.random.default_rng(1005)
    for n_steps in (3, 6, 10):
        dim = int(rng.choice([2, 3]))
        model = _random_model(rng, dim, n_steps)
        prior = GaussianTrajectoryPrior(model)

        inv = np.linalg.inv(dense_covariance(prior))
        scale = np.max(np.abs(inv))
        for i in range(n_steps + 1):
            for j in range(n_steps + 1):
                if abs(i - j) > 1:
                    block = inv[dim * i:dim * (i + 1), dim * j:dim * (j + 1)]
                    assert np.max(np.abs(block)) / scale <= 1e-8

        n = 100_000
        stacked = sample_trajectories(prior, n, seed=1005)
        for i, (mean, cov) in enumerate(node_marginals(model)):
            emp_mean = stacked[:, i, :].mean(axis=0)
            se_mean = np.sqrt(np.diag(cov) / n) + 1e-12
            assert np.all(np.abs(emp_mean - mean) <= 3 * se_mean)
            emp_cov = np.cov(stacked[:, i, :].T)
            se_cov = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / n) + 1e-12
            assert np.all(np.abs(emp_cov - cov) <= 3 * se_cov)
    _report(5, "precision exactly block-tridiagonal; moments match 1e5 Monte-Carlo "
               "rollouts within 3 SE", started, budget=60.0)


def test_acceptance_6_map_inference_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(1006)

    # anchors-only MAP vs dense Gaussian conditioning (information form)
    for _ in range(6):
        n_steps = int(rng.integers(3, 11))
        dim = 2
        prior = GaussianTrajectoryPrior(_random_model(rng, dim, n_steps))
        anchors = [StateAnchor(index=0, target=rng.normal(size=dim), sigma=0.1),
                   StateAnchor(index=n_steps, target=rng.normal(size=dim), sigma=0.05)]
        solution = optimize_map(ReproductionProblem(prior=prior, anchors=anchors))
        lam = prior.dense_precision()
        rhs = lam @ prior.stacked_mean
        for f in anchors:
            sl = slice(f.index * dim, (f.index + 1) * dim)
            lam[sl, sl] += np.eye(dim) / f.sigma ** 2
            rhs[sl] += f.target / f.sigma ** 2
        expected = np.linalg.solve(lam, rhs)
        assert solution.converged
        assert np.max(np.abs(solution.trajectory.states.reshape(-1) - expected)) <= 1e-6

    # obstacle-cost gradients vs central finite differences on in-band states:
    # the one row of an obstacle factor at sigma_repro 1 is the hinge cost
    env = Environment(dimension=2, obstacles=[Sphere(center=np.array([0.5, 0.0]),
                                                     radius=0.2)])
    eps = 0.15
    factor = ObstacleFactor(env=env, eps_repro=eps, sigma_repro=1.0)
    h = 1e-7
    checked = 0
    while checked < 1000:
        angle = rng.uniform(0, 2 * np.pi)
        radius = 0.2 + rng.uniform(0.15, 0.85) * eps
        pos = np.array([0.5, 0.0]) + radius * np.array([np.cos(angle), np.sin(angle)])
        state = np.concatenate([pos, rng.normal(size=2)])
        [cost], [grad] = factor.linearize(state[None, :])
        if not 0.05 * eps < cost < 0.95 * eps:
            continue  # keep clear of the hinge kink
        for kdim in range(2):
            e = np.zeros(4)
            e[kdim] = h
            fd = (factor.linearize((state + e)[None, :])[0][0]
                  - factor.linearize((state - e)[None, :])[0][0]) / (2 * h)
            assert abs(grad[kdim] - fd) <= 1e-4 * max(abs(fd), 1e-3)
        checked += 1
    _report(6, "anchors-only MAP matches dense conditioning to 1e-6; obstacle "
               "gradients match finite differences to 1e-4", started, budget=30.0)


def test_acceptance_7_reaching_analogue():
    started = time.monotonic()
    scene = make_reaching_scene()
    demo_set = DemoSet(demos=[estimate_states(d, 60) for d in scene.raw_demos])
    weighted = learn_batch_weighted(demo_set, [weight_trajectory(t.positions, scene.env, scene.weight_params)
                                               for t in demo_set.demos])
    unweighted = learn_batch_weighted(demo_set, [weight_trajectory(t.positions, None, scene.weight_params)
                                                 for t in demo_set.demos])
    # both models start from the demos' start moments
    prior_w = GaussianTrajectoryPrior(weighted)
    prior_u = GaussianTrajectoryPrior(unweighted)

    start = weighted.init_mean[:2]
    dev_w = max_deviation_from_segment(prior_w.means[:, :2], start, scene.goal)
    dev_u = max_deviation_from_segment(prior_u.means[:, :2], start, scene.goal)
    assert dev_w < 0.5 * dev_u, f"weighted deviation {dev_w:.4f} vs unweighted {dev_u:.4f}"

    # reproduction from a new start in an obstacle-free scene
    new_start = np.array([0.0, 0.5, 3.0, 1.0])
    lengths = {}
    for name, prior in (("weighted", prior_w), ("unweighted", prior_u)):
        anchor = StateAnchor(index=0, target=new_start, sigma=1e-3)
        solution = optimize_map(ReproductionProblem(prior=prior, anchors=[anchor]))
        assert solution.converged
        assert solution.feasible and solution.min_clearance == np.inf  # no obstacles
        lengths[name] = path_length(solution.trajectory.positions)
    assert lengths["weighted"] / lengths["unweighted"] < 1.0
    _report(7, "weighted reaching prior hugs the straight-line intent and "
               "reproduces a shorter path", started, budget=60.0)


def test_acceptance_8_placing_analogue():
    started = time.monotonic()
    scene = make_placing_scene()
    n_steps = 60
    influenced = [estimate_states(d, n_steps) for d in scene.influenced_raw]
    clean = [estimate_states(d, n_steps) for d in scene.clean_raw]

    def run(use_weights: bool):
        learner = IncrementalLearner(n_steps, 4, alpha=1e10, beta=1e10, dt=influenced[0].dt)
        for traj in influenced:
            w = (weight_trajectory(traj.positions, scene.cluttered_env, scene.weight_params)
                 if use_weights else np.ones(n_steps + 1))
            assimilate_demo(learner, traj, w)
        for traj in clean:
            w = (weight_trajectory(traj.positions, scene.clean_env, scene.weight_params)
                 if use_weights else np.ones(n_steps + 1))
            assimilate_demo(learner, traj, w)
        assert len(learner.starts) == 6
        assert learner.nu[0] == pytest.approx(1e-10 + 6)
        return GaussianTrajectoryPrior(extract_map(learner))

    prior_w = run(True)
    prior_u = run(False)
    clean_mean = np.mean([t.positions for t in clean], axis=0)
    dist_w = np.linalg.norm(prior_w.means[:, :2] - clean_mean)
    dist_u = np.linalg.norm(prior_u.means[:, :2] - clean_mean)
    assert dist_w < 0.5 * dist_u, f"weighted {dist_w:.4f} vs unweighted {dist_u:.4f}"
    _report(8, "incremental weighted prior adapts to the clean placing motion",
            started, budget=30.0)


def test_acceptance_9_cli_determinism(tmp_path):
    started = time.monotonic()
    scene = make_reaching_scene(n_raw=40)
    root = tmp_path / "scene"
    root.mkdir()
    demo_names = []
    for k, demo in enumerate(scene.raw_demos):
        name = f"demo_{k:03d}.json"
        save_raw_demo(str(root / name), demo)
        demo_names.append(name)
    write_json(str(root / "env.json"), environment_to_dict(scene.env))
    write_json(str(root / "config.json"), {
        "demos": demo_names,
        "environment": "env.json",
        "grid_n": 25,
        "align": "dtw",
        "weights": {"epsilon": 0.3, "sigma_obs": 0.01},
        "alpha": 1e10, "beta": 1e10,
        "seed": 3,
        "out_dir": "out",
        "rollout_samples": 3,
        "reproduction": {
            "environment": "env.json",
            "starts": [[0.0, 0.5, 3.0, 1.0]],
            "start_sigma": 1e-3,
            "eps_repro": 0.05,
            "sigma_repro": 0.05,
        },
    })

    def run(out_dir: str) -> dict:
        cfg = ["--config", str(root / "config.json"), "--seed", "3", "--out", out_dir]
        assert cli_main(cfg + ["ingest"]) == 0
        assert cli_main(cfg + ["weights"]) == 0
        assert cli_main(cfg + ["learn"]) == 0
        assert cli_main(cfg + ["assimilate", "--checkpoint",
                               os.path.join(out_dir, "ck.npz"),
                               "--demo", str(root / "demo_000.json")]) == 0
        # assimilate overwrote model.json; relearn so rollout/reproduce see
        # the batch model both runs
        assert cli_main(cfg + ["learn"]) == 0
        model = os.path.join(out_dir, "model.json")
        assert cli_main(cfg + ["rollout", "--model", model]) == 0
        assert cli_main(cfg + ["reproduce", "--model", model]) == 0
        found = {}
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                found[name] = fh.read()
        return found

    first = run(str(tmp_path / "a"))
    second = run(str(tmp_path / "b"))
    assert sorted(first) == sorted(second)
    for name in first:
        assert first[name] == second[name], f"output {name} differs between runs"
    assert len(first) >= 10
    _report(9, "all CLI subcommands byte-identical across repeated seeded runs",
            started, budget=60.0)
