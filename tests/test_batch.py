import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwskill.batch import (DegenerateWeightsWarning, SingularSystemError, SkillModel,
                           SkillStepModel, StepData, assemble_step_data,
                           batch_estimate_step, learn_batch_weighted,
                           model_from_dict, model_to_dict)
from iwskill.demos import DemoSet, StateTrajectory
from iwskill.environment import Environment, WeightParams, weight_trajectory


def ridge_oracle(inputs, targets, weights, lam):
    """Independent row-by-row solve of the weighted ridge problem via lstsq
    on the square-root-weighted stacked system."""
    sqrt_w = np.sqrt(weights)
    dim_in = inputs.shape[0]
    design = np.vstack([(inputs * sqrt_w).T, np.sqrt(lam) * np.eye(dim_in)])
    phi = np.empty((targets.shape[0], dim_in))
    for r in range(targets.shape[0]):
        rhs = np.concatenate([targets[r] * sqrt_w, np.zeros(dim_in)])
        phi[r], *_ = np.linalg.lstsq(design, rhs, rcond=None)
    return phi


def loss(phi, inputs, targets, weights, lam):
    """Weighted squared residual trace plus Frobenius ridge (unit noise)."""
    err = targets - phi @ inputs
    return float(np.sum(weights * np.sum(err ** 2, axis=0)) + lam * np.sum(phi ** 2))


def random_step(rng, dim=3, k=8, weight_lo=0.1):
    inputs = np.vstack([np.ones((1, k)), rng.normal(size=(dim, k))])
    targets = rng.normal(size=(dim, k))
    weights = rng.uniform(weight_lo, 1.0, size=k)
    return StepData(inputs=inputs, targets=targets, weights=weights)


def demo_set_from_states(states_per_demo, dt=0.1):
    return DemoSet(demos=[StateTrajectory(dt=dt, states=s) for s in states_per_demo])


class TestBatchEstimateStep:
    def test_unit_weights_z_is_k_minus_one(self):
        rng = np.random.default_rng(0)
        data = random_step(rng, dim=2, k=3, weight_lo=1.0)
        data = StepData(inputs=data.inputs, targets=data.targets, weights=np.ones(3))
        step = batch_estimate_step(data, lam=0.0)
        # z = (3^2 - 3)/3 = 2; verify through Q against the explicit residuals
        resid = data.targets - step.Phi_tilde @ data.inputs
        np.testing.assert_allclose(step.Q, resid @ resid.T / 2.0, atol=1e-12)

    def test_scalar_two_sample_exact_fit(self):
        # (x, y) = (1, 2), (2, 4) with no bias column constraint: include the
        # bias row anyway; an exact map (u, phi) = (0, 2) exists
        inputs = np.array([[1.0, 1.0], [1.0, 2.0]])
        targets = np.array([[2.0, 4.0]])
        data = StepData(inputs=inputs, targets=targets, weights=np.ones(2))
        step = batch_estimate_step(data, lam=0.0)
        np.testing.assert_allclose(step.Phi_tilde @ inputs, targets, atol=1e-10)
        np.testing.assert_allclose(step.Q, 0.0, atol=1e-12)

    def test_matches_lstsq_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            data = random_step(rng, dim=int(rng.integers(1, 5)), k=int(rng.integers(6, 15)))
            lam = float(rng.uniform(1e-6, 1e-2))
            step = batch_estimate_step(data, lam=lam)
            expected = ridge_oracle(data.inputs, data.targets, data.weights, lam)
            np.testing.assert_allclose(step.Phi_tilde, expected, rtol=1e-8, atol=1e-10)

    def test_minimizer_beats_perturbations(self):
        rng = np.random.default_rng(2)
        data = random_step(rng, dim=3, k=10)
        lam = 1e-3
        step = batch_estimate_step(data, lam=lam)
        base = loss(step.Phi_tilde, data.inputs, data.targets, data.weights, lam)
        for _ in range(100):
            delta = rng.normal(scale=1e-3, size=step.Phi_tilde.shape)
            assert base <= loss(step.Phi_tilde + delta, data.inputs, data.targets,
                                data.weights, lam) + 1e-12

    def test_near_singleton_weights_fall_back(self):
        # one dominant weight: z = 2w/(1+w) for weights (1, w), so the second
        # weight must sit below 5e-13 to cross the 1e-12 degeneracy threshold;
        # matching the K=1 fit to 1e-6 further needs w << lam * 1e-6
        rng = np.random.default_rng(3)
        dim, k = 2, 2
        inputs = np.vstack([np.ones((1, k)), rng.normal(size=(dim, k))])
        targets = rng.normal(size=(dim, k))
        weights = np.array([1.0, 1e-18])
        data = StepData(inputs=inputs, targets=targets, weights=weights)
        with pytest.warns(DegenerateWeightsWarning):
            step = batch_estimate_step(data, lam=1e-10, q_min=1e-6)
        np.testing.assert_allclose(step.Q, 1e-6 * np.eye(dim))
        # the map matches the single-demo fit
        solo = StepData(inputs=inputs[:, :1], targets=targets[:, :1], weights=np.ones(1))
        with pytest.warns(DegenerateWeightsWarning):
            solo_step = batch_estimate_step(solo, lam=1e-10)
        np.testing.assert_allclose(step.Phi_tilde, solo_step.Phi_tilde, atol=1e-6)

    def test_single_demo_z_degenerate(self):
        data = StepData(inputs=np.array([[1.0], [0.5]]), targets=np.array([[2.0]]),
                        weights=np.ones(1))
        with pytest.warns(DegenerateWeightsWarning):
            step = batch_estimate_step(data, lam=1e-8)
        np.testing.assert_allclose(step.Q, 1e-6 * np.eye(1))

    def test_singular_system_without_ridge(self):
        # K < D+1 cannot determine the map at lam = 0
        data = StepData(inputs=np.array([[1.0, 1.0], [0.5, 0.5], [0.2, 0.2]]),
                        targets=np.zeros((2, 2)), weights=np.ones(2))
        with pytest.raises(SingularSystemError):
            batch_estimate_step(data, lam=0.0)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.1, 50.0))
    def test_weight_scaling_invariance_at_zero_ridge(self, scale):
        rng = np.random.default_rng(9)
        data = random_step(rng, dim=2, k=8)
        scaled = StepData(inputs=data.inputs, targets=data.targets,
                          weights=data.weights * scale)
        a = batch_estimate_step(data, lam=0.0)
        b = batch_estimate_step(scaled, lam=0.0)
        np.testing.assert_allclose(a.Phi_tilde, b.Phi_tilde, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(a.Q, b.Q, rtol=1e-8, atol=1e-12)

    def test_q_symmetric_psd(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            data = random_step(rng, dim=4, k=12)
            step = batch_estimate_step(data, lam=1e-8)
            np.testing.assert_allclose(step.Q, step.Q.T, atol=1e-12)
            assert np.linalg.eigvalsh(step.Q).min() >= -1e-10


class TestAssembleAndLearn:
    def test_single_demo_augmentation(self):
        rng = np.random.default_rng(5)
        states = rng.normal(size=(4, 2))
        ds = demo_set_from_states([states])
        data = assemble_step_data(ds, [np.ones(4)], 1)
        assert data.inputs.shape == (3, 1)
        assert data.inputs[0, 0] == 1.0
        np.testing.assert_array_equal(data.inputs[1:, 0], states[1])
        np.testing.assert_array_equal(data.targets[:, 0], states[2])

    def test_all_unit_weights(self):
        rng = np.random.default_rng(6)
        ds = demo_set_from_states([rng.normal(size=(4, 2)) for _ in range(3)])
        data = assemble_step_data(ds, [np.ones(4)] * 3, 0)
        np.testing.assert_array_equal(data.weights, 1.0)

    def test_index_out_of_range(self):
        rng = np.random.default_rng(7)
        ds = demo_set_from_states([rng.normal(size=(4, 2))])
        with pytest.raises(ValueError, match="out of range"):
            assemble_step_data(ds, [np.ones(4)], 3)

    def test_transition_uses_input_node_weight(self):
        rng = np.random.default_rng(15)
        ds = demo_set_from_states([rng.normal(size=(4, 2)) for _ in range(3)])
        # node weights differ wildly along each demo; interval i must pick w[i]
        weights = [np.array([0.9, 0.2, 0.7, 0.1]),
                   np.array([0.3, 0.8, 0.4, 0.6]),
                   np.array([0.5, 0.1, 0.9, 0.2])]
        data = assemble_step_data(ds, weights, 1)
        np.testing.assert_array_equal(data.weights, [0.2, 0.8, 0.1])

    def test_demo_order_invariance(self):
        rng = np.random.default_rng(8)
        states = [rng.normal(size=(5, 2)) for _ in range(6)]
        weights = [rng.uniform(0.2, 1.0, size=5) for _ in range(6)]
        ds = demo_set_from_states(states)
        model = learn_batch_weighted(ds, weights, lam=1e-6)
        perm = [3, 0, 5, 1, 4, 2]
        ds2 = demo_set_from_states([states[p] for p in perm])
        model2 = learn_batch_weighted(ds2, [weights[p] for p in perm], lam=1e-6)
        for a, b in zip(model.steps, model2.steps):
            np.testing.assert_allclose(a.Phi_tilde, b.Phi_tilde, rtol=1e-9)
            np.testing.assert_allclose(a.Q, b.Q, rtol=1e-9, atol=1e-15)

    def test_duplicating_demos_keeps_phi(self):
        rng = np.random.default_rng(10)
        states = [rng.normal(size=(5, 2)) for _ in range(4)]
        weights = [rng.uniform(0.2, 1.0, size=5) for _ in range(4)]
        model = learn_batch_weighted(demo_set_from_states(states), weights, lam=0.0)
        model2 = learn_batch_weighted(demo_set_from_states(states * 2), weights * 2, lam=0.0)
        for a, b in zip(model.steps, model2.steps):
            np.testing.assert_allclose(a.Phi_tilde, b.Phi_tilde, rtol=1e-8, atol=1e-10)

    def test_uniform_weights_equal_ols(self):
        rng = np.random.default_rng(11)
        states = [rng.normal(size=(6, 2)) for _ in range(9)]
        ds = demo_set_from_states(states)
        model = learn_batch_weighted(ds, [np.ones(6)] * 9, lam=0.0)
        for i, step in enumerate(model.steps):
            x = np.vstack([np.ones((1, 9)), np.stack([s[i] for s in states], axis=1)])
            y = np.stack([s[i + 1] for s in states], axis=1)
            ols = np.linalg.lstsq(x.T, y.T, rcond=None)[0].T
            np.testing.assert_allclose(step.Phi_tilde, ols, rtol=1e-8, atol=1e-10)

    def test_identical_demos_rollout_reproduces_mean(self):
        rng = np.random.default_rng(12)
        base = rng.normal(size=(8, 4))
        ds = demo_set_from_states([base.copy() for _ in range(4)])
        env = Environment(dimension=2, obstacles=[])
        model = learn_batch_weighted(ds, [weight_trajectory(t, env, WeightParams()) for t in ds.demos])
        state = base[0].copy()
        for i, step in enumerate(model.steps):
            state = step.predict(state)
            np.testing.assert_allclose(state, base[i + 1], atol=1e-8)

    def test_step_error_carries_index(self):
        rng = np.random.default_rng(13)
        states = [rng.normal(size=(5, 4)) for _ in range(2)]  # K=2 < D+1=5
        ds = demo_set_from_states(states)
        with pytest.raises(SingularSystemError, match="interval 0"):
            learn_batch_weighted(ds, [np.ones(5)] * 2, lam=0.0)


def test_model_round_trip():
    rng = np.random.default_rng(14)
    steps = []
    for _ in range(3):
        q = rng.normal(size=(2, 2))
        steps.append(SkillStepModel(Phi_tilde=rng.normal(size=(2, 3)), Q=q @ q.T))
    model = SkillModel(steps=steps, dt=0.25)
    again = model_from_dict(model_to_dict(model))
    assert again.dt == model.dt and again.dim == 2
    for a, b in zip(model.steps, again.steps):
        np.testing.assert_array_equal(a.Phi_tilde, b.Phi_tilde)
        np.testing.assert_array_equal(a.Q, b.Q)
