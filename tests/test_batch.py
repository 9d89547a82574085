import re
import warnings
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

import iwskill.batch
from iwskill.batch import (DegenerateWeightsWarning, SingularSystemError, SkillModel,
                           fit_intervals, learn_batch_weighted, load_model, model_from_dict,
                           model_to_dict, save_model)
from iwskill.demos import DemoSet, StateTrajectory
from iwskill.environment import Environment, WeightParams, weight_trajectory
from iwskill.prior import initial_state_distribution

# One interval's regression problem: augmented inputs (D+1, K), targets
# (D, K) and the diagonal of the importance weight matrix (K,).
Interval = namedtuple("Interval", "inputs targets weights")
FitStep = namedtuple("FitStep", "Phi_tilde Q")


def fit_one(data, lam=None):
    """One interval fit as an N=1 stack."""
    phi, q = fit_intervals(data.inputs[None], data.targets[None], data.weights[None], lam)
    return FitStep(Phi_tilde=phi[0], Q=q[0])


def stacked_interval(ds, weights, i, monkeypatch):
    """Interval i of the stacks that learn_batch_weighted hands to
    fit_intervals."""
    seen = []

    def capture(inputs, targets, w, lam=None):
        seen.append(Interval(inputs, targets, w))
        n, d, _ = targets.shape
        return np.zeros((n, d, d + 1)), np.zeros((n, d, d))

    monkeypatch.setattr(iwskill.batch, "fit_intervals", capture)
    learn_batch_weighted(ds, weights)
    return Interval(*(a[i] for a in seen[0]))


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
    return Interval(inputs=inputs, targets=targets, weights=weights)


def intervals(model):
    """(Phi_tilde, Q) of every interval of a SkillModel."""
    return [FitStep(p, q) for p, q in zip(model.Phi_tilde, model.Q)]


def demo_set_from_states(states_per_demo, dt=0.1):
    return DemoSet(demos=[StateTrajectory(dt=dt, states=s) for s in states_per_demo])


class TestBatchEstimateStep:
    def test_unit_weights_z_is_k_minus_one(self):
        rng = np.random.default_rng(0)
        data = random_step(rng, dim=2, k=3, weight_lo=1.0)
        data = Interval(inputs=data.inputs, targets=data.targets, weights=np.ones(3))
        step = fit_one(data, lam=0.0)
        # z = (3^2 - 3)/3 = 2; verify through Q against the explicit residuals
        resid = data.targets - step.Phi_tilde @ data.inputs
        np.testing.assert_allclose(step.Q, resid @ resid.T / 2.0, atol=1e-12)

    def test_scalar_two_sample_exact_fit(self):
        # (x, y) = (1, 2), (2, 4) with no bias column constraint: include the
        # bias row anyway; an exact map (u, phi) = (0, 2) exists
        inputs = np.array([[1.0, 1.0], [1.0, 2.0]])
        targets = np.array([[2.0, 4.0]])
        data = Interval(inputs=inputs, targets=targets, weights=np.ones(2))
        step = fit_one(data, lam=0.0)
        np.testing.assert_allclose(step.Phi_tilde @ inputs, targets, atol=1e-10)
        np.testing.assert_allclose(step.Q, 0.0, atol=1e-12)

    def test_matches_lstsq_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            data = random_step(rng, dim=int(rng.integers(1, 5)), k=int(rng.integers(6, 15)))
            lam = float(rng.uniform(1e-6, 1e-2))
            step = fit_one(data, lam=lam)
            expected = ridge_oracle(data.inputs, data.targets, data.weights, lam)
            np.testing.assert_allclose(step.Phi_tilde, expected, rtol=1e-8, atol=1e-10)

    def test_minimizer_beats_perturbations(self):
        rng = np.random.default_rng(2)
        data = random_step(rng, dim=3, k=10)
        lam = 1e-3
        step = fit_one(data, lam=lam)
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
        data = Interval(inputs=inputs, targets=targets, weights=weights)
        with pytest.warns(DegenerateWeightsWarning):
            step = fit_one(data, lam=1e-10)
        np.testing.assert_allclose(step.Q, 1e-6 * np.eye(dim))
        # the map matches the single-demo fit
        solo = Interval(inputs=inputs[:, :1], targets=targets[:, :1], weights=np.ones(1))
        with pytest.warns(DegenerateWeightsWarning):
            solo_step = fit_one(solo, lam=1e-10)
        np.testing.assert_allclose(step.Phi_tilde, solo_step.Phi_tilde, atol=1e-6)

    def test_single_demo_z_degenerate(self):
        data = Interval(inputs=np.array([[1.0], [0.5]]), targets=np.array([[2.0]]),
                        weights=np.ones(1))
        with pytest.warns(DegenerateWeightsWarning):
            step = fit_one(data, lam=1e-8)
        np.testing.assert_allclose(step.Q, 1e-6 * np.eye(1))

    def test_singular_system_without_ridge(self):
        # K < D+1 cannot determine the map at lam = 0
        data = Interval(inputs=np.array([[1.0, 1.0], [0.5, 0.5], [0.2, 0.2]]),
                        targets=np.zeros((2, 2)), weights=np.ones(2))
        with pytest.raises(SingularSystemError):
            fit_one(data, lam=0.0)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.1, 50.0))
    def test_weight_scaling_invariance_at_zero_ridge(self, scale):
        rng = np.random.default_rng(9)
        data = random_step(rng, dim=2, k=8)
        scaled = Interval(inputs=data.inputs, targets=data.targets,
                          weights=data.weights * scale)
        a = fit_one(data, lam=0.0)
        b = fit_one(scaled, lam=0.0)
        np.testing.assert_allclose(a.Phi_tilde, b.Phi_tilde, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(a.Q, b.Q, rtol=1e-8, atol=1e-12)

    def test_q_symmetric_psd(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            data = random_step(rng, dim=4, k=12)
            step = fit_one(data, lam=1e-8)
            np.testing.assert_allclose(step.Q, step.Q.T, atol=1e-12)
            assert np.linalg.eigvalsh(step.Q).min() >= -1e-10


class TestAssembleAndLearn:
    def test_single_demo_augmentation(self, monkeypatch):
        rng = np.random.default_rng(5)
        states = rng.normal(size=(4, 2))
        ds = demo_set_from_states([states])
        data = stacked_interval(ds, [np.ones(4)], 1, monkeypatch)
        assert data.inputs.shape == (3, 1)
        assert data.inputs[0, 0] == 1.0
        np.testing.assert_array_equal(data.inputs[1:, 0], states[1])
        np.testing.assert_array_equal(data.targets[:, 0], states[2])

    def test_all_unit_weights(self, monkeypatch):
        rng = np.random.default_rng(6)
        ds = demo_set_from_states([rng.normal(size=(4, 2)) for _ in range(3)])
        data = stacked_interval(ds, [np.ones(4)] * 3, 0, monkeypatch)
        np.testing.assert_array_equal(data.weights, 1.0)

    def test_index_out_of_range(self):
        # node weights that stop short of the last interval's input node
        rng = np.random.default_rng(7)
        ds = demo_set_from_states([rng.normal(size=(4, 2))])
        with pytest.raises(ValueError, match="one weight per node"):
            learn_batch_weighted(ds, [np.ones(3)])

    def test_transition_uses_input_node_weight(self, monkeypatch):
        rng = np.random.default_rng(15)
        ds = demo_set_from_states([rng.normal(size=(4, 2)) for _ in range(3)])
        # node weights differ wildly along each demo; interval i must pick w[i]
        weights = [np.array([0.9, 0.2, 0.7, 0.1]),
                   np.array([0.3, 0.8, 0.4, 0.6]),
                   np.array([0.5, 0.1, 0.9, 0.2])]
        data = stacked_interval(ds, weights, 1, monkeypatch)
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
        for a, b in zip(intervals(model), intervals(model2)):
            np.testing.assert_allclose(a.Phi_tilde, b.Phi_tilde, rtol=1e-9)
            np.testing.assert_allclose(a.Q, b.Q, rtol=1e-9, atol=1e-15)

    def test_duplicating_demos_keeps_phi(self):
        rng = np.random.default_rng(10)
        states = [rng.normal(size=(5, 2)) for _ in range(4)]
        weights = [rng.uniform(0.2, 1.0, size=5) for _ in range(4)]
        model = learn_batch_weighted(demo_set_from_states(states), weights, lam=0.0)
        model2 = learn_batch_weighted(demo_set_from_states(states * 2), weights * 2, lam=0.0)
        for a, b in zip(intervals(model), intervals(model2)):
            np.testing.assert_allclose(a.Phi_tilde, b.Phi_tilde, rtol=1e-8, atol=1e-10)

    def test_uniform_weights_equal_ols(self):
        rng = np.random.default_rng(11)
        states = [rng.normal(size=(6, 2)) for _ in range(9)]
        ds = demo_set_from_states(states)
        model = learn_batch_weighted(ds, [np.ones(6)] * 9, lam=0.0)
        for i, step in enumerate(intervals(model)):
            x = np.vstack([np.ones((1, 9)), np.stack([s[i] for s in states], axis=1)])
            y = np.stack([s[i + 1] for s in states], axis=1)
            ols = np.linalg.lstsq(x.T, y.T, rcond=None)[0].T
            np.testing.assert_allclose(step.Phi_tilde, ols, rtol=1e-8, atol=1e-10)

    def test_identical_demos_rollout_reproduces_mean(self):
        rng = np.random.default_rng(12)
        base = rng.normal(size=(8, 4))
        ds = demo_set_from_states([base.copy() for _ in range(4)])
        env = Environment(dimension=2, obstacles=[])
        model = learn_batch_weighted(ds, [weight_trajectory(t.states, env, WeightParams())
                                         for t in ds.demos])
        state = base[0].copy()
        for i, step in enumerate(intervals(model)):
            state = step.Phi_tilde @ np.concatenate([[1.0], state])
            np.testing.assert_allclose(state, base[i + 1], atol=1e-8)

    def test_model_starts_from_the_demos_start_moments(self):
        # bit for bit the moments a prior built from the demos would start from
        rng = np.random.default_rng(16)
        ds = demo_set_from_states([rng.normal(size=(6, 4)) for _ in range(7)])
        model = learn_batch_weighted(ds, [np.ones(6)] * 7)
        mean, cov = initial_state_distribution(ds)
        np.testing.assert_array_equal(model.init_mean, mean)
        np.testing.assert_array_equal(model.init_cov, cov)

    def test_step_error_carries_index(self):
        rng = np.random.default_rng(13)
        states = [rng.normal(size=(5, 4)) for _ in range(2)]  # K=2 < D+1=5
        ds = demo_set_from_states(states)
        with pytest.raises(SingularSystemError, match="interval 0"):
            learn_batch_weighted(ds, [np.ones(5)] * 2, lam=0.0)


def small_model():
    rng = np.random.default_rng(14)
    phis, qs = [], []
    for _ in range(3):
        q = rng.normal(size=(2, 2))
        phis.append(rng.normal(size=(2, 3)))
        qs.append(q @ q.T)
    a = rng.normal(size=(2, 2))
    return SkillModel(Phi_tilde=np.stack(phis), Q=np.stack(qs), dt=0.25,
                      init_mean=rng.normal(size=2), init_cov=a @ a.T)


def test_model_round_trip(tmp_path):
    model = small_model()
    again = model_from_dict(model_to_dict(model))
    assert again.dt == model.dt and again.dim == 2
    assert np.array_equal(again.init_mean, model.init_mean)
    assert np.array_equal(again.init_cov, model.init_cov)
    for a, b in zip(intervals(model), intervals(again)):
        np.testing.assert_array_equal(a.Phi_tilde, b.Phi_tilde)
        np.testing.assert_array_equal(a.Q, b.Q)
    # through the file: one line of JSON that holds every float exactly
    path = str(tmp_path / "model.json")
    save_model(path, model)
    with open(path) as fh:
        assert len(fh.read().splitlines()) == 1
    again = load_model(path)
    assert np.array_equal(again.Phi_tilde, model.Phi_tilde)
    assert np.array_equal(again.Q, model.Q)
    assert again.dt == model.dt
    assert np.array_equal(again.init_cov, model.init_cov)


@pytest.mark.parametrize("key,value,reason", [
    ("dt", float("inf"), "dt must be a positive finite number, got inf"),
    ("dt", float("nan"), "dt must be a positive finite number, got nan"),
    ("dt", 0.0, "dt must be a positive finite number, got 0.0"),
    ("dt", -1, "dt must be a positive finite number, got -1.0"),
    ("D", float("inf"), "D must be a positive int, got inf"),
    ("D", 2.0, "D must be a positive int, got 2.0"),
    ("D", 0, "D must be a positive int, got 0"),
    ("Phi_tilde", float("nan"), "step 1: Phi_tilde must be finite"),
    ("Q", float("-inf"), "step 1: Q must be finite"),
], ids=["dt-inf", "dt-nan", "dt-zero", "dt-negative", "D-inf", "D-float", "D-zero",
        "Phi-nan", "Q-inf"])
def test_model_reader_rejects_bad_values(key, value, reason):
    data = model_to_dict(small_model())
    if key in data:
        data[key] = value
    else:
        data["steps"][1][key][0][0] = value
    with pytest.raises(ValueError, match=re.escape(reason)):
        model_from_dict(data)


@pytest.mark.parametrize("key,value,reason", [
    ("init_mean", None, "missing key 'init_mean': the model was written without its start "
                        "moments; re-run learn or assimilate"),
    ("init_cov", None, "missing key 'init_cov'"),
    ("init_mean", [0.0, 0.0, 0.0], "init_mean must be a list of 2 finite numbers"),
    ("init_mean", [float("nan"), 0.0], "init_mean must be a list of 2 finite numbers"),
    ("init_cov", [[1.0, 0.0]], "init_cov must be a positive semi-definite matrix"),
    ("init_cov", [[1.0, 0.0], [0.0, float("inf")]], "init_cov must be a positive semi-definite"),
    ("init_cov", [[1.0, 0.5], [0.0, 1.0]], "init_cov must be a positive semi-definite matrix"),
    ("init_cov", [[1.0, 2.0], [2.0, 1.0]], "init_cov must be a positive semi-definite matrix"),
    ("init_cov", [[{}, 0.0], [0.0, 1.0]], "init_cov must be a positive semi-definite matrix"),
], ids=["no-mean", "no-cov", "mean-length", "mean-nan", "cov-shape", "cov-inf",
        "cov-asymmetric", "cov-indefinite", "cov-object"])
def test_model_reader_rejects_bad_start_moments(key, value, reason):
    data = model_to_dict(small_model())
    if value is None:
        del data[key]
    else:
        data[key] = value
    with pytest.raises(ValueError, match=re.escape(reason)):
        model_from_dict(data)


def reference_fit(inputs, targets, weights, lam):
    """Per-interval reference loop: each interval's weighted ridge map and
    noise covariance by the formulas of the former single-interval
    estimator, with its default ridge and its 1e-6 * I floor. Returns the
    stacks and the degenerate intervals, or raises SingularSystemError
    naming the first singular interval."""
    phis, qs, degenerate = [], [], []
    for i in range(inputs.shape[0]):
        x, y, w = inputs[i], targets[i], weights[i]
        if lam is None:
            gram_trace = float(np.sum(w * np.sum(x ** 2, axis=0)))
            lam_i = 1e-10 * gram_trace / x.shape[0]
        else:
            lam_i = lam
        gram = (x * w) @ x.T + lam_i * np.eye(x.shape[0])
        cross = (y * w) @ x.T
        try:
            factor = cho_factor(gram)
            pivots = np.diag(factor[0])
            if lam_i == 0 and pivots.min() <= 1e-13 * pivots.max():
                raise np.linalg.LinAlgError("rank-deficient pivot")
        except np.linalg.LinAlgError:
            raise SingularSystemError(f"interval {i}:") from None
        phi = cho_solve(factor, cross.T).T
        residuals = y - phi @ x
        s1 = float(np.sum(w))
        s2 = float(np.sum(w * w))
        z = (s1 * s1 - s2) / s1
        degenerate.append(z <= 1e-12)
        if degenerate[-1]:
            q = 1e-6 * np.eye(y.shape[0])
        else:
            q = (residuals * w) @ residuals.T / z
            q = (q + q.T) / 2.0
        phis.append(phi)
        qs.append(q)
    return np.stack(phis), np.stack(qs), degenerate


class TestStackedFitEqualsPerIntervalLoop:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 6), d=st.integers(1, 4), k=st.integers(1, 12),
           seed=st.integers(0, 2 ** 32 - 1),
           lam=st.one_of(st.none(), st.just(0.0), st.floats(1e-9, 10.0)),
           degenerate_frac=st.sampled_from([0.0, 0.3, 1.0]))
    def test_bit_identical(self, n, d, k, seed, lam, degenerate_frac):
        rng = np.random.default_rng(seed)
        inputs = np.concatenate([np.ones((n, 1, k)), rng.normal(size=(n, d, k))], axis=1)
        targets = rng.normal(size=(n, d, k))
        weights = rng.uniform(0.05, 1.0, size=(n, k))
        # one dominant weight: z = 2 (K-1) 1e-18 / (1 + ...) is below 1e-12
        dominated = rng.uniform(size=n) < degenerate_frac
        weights[dominated] = 1e-18
        weights[dominated, 0] = 1.0
        try:
            expected = reference_fit(inputs, targets, weights, lam)
        except SingularSystemError as exc:
            with pytest.raises(SingularSystemError, match=str(exc)):
                fit_intervals(inputs, targets, weights, lam)
            return
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            phi, q = fit_intervals(inputs, targets, weights, lam)
        np.testing.assert_array_equal(phi, expected[0])
        np.testing.assert_array_equal(q, expected[1])
        warned = any(issubclass(w.category, DegenerateWeightsWarning) for w in caught)
        assert warned == any(expected[2])
        assert phi.flags.c_contiguous and q.flags.c_contiguous

    def test_degenerate_intervals_are_floored_and_named(self):
        rng = np.random.default_rng(16)
        inputs = np.concatenate([np.ones((3, 1, 4)), rng.normal(size=(3, 2, 4))], axis=1)
        weights = rng.uniform(0.2, 1.0, size=(3, 4))
        weights[1] = [1.0, 1e-18, 1e-18, 1e-18]
        with pytest.warns(DegenerateWeightsWarning, match="1 of 3 intervals .first: interval 1"):
            _, q = fit_intervals(inputs, rng.normal(size=(3, 2, 4)), weights, 1e-8)
        np.testing.assert_array_equal(q[1], 1e-6 * np.eye(2))
        assert np.all(np.diagonal(q[[0, 2]], axis1=1, axis2=2) != 1e-6)

    def test_learn_matches_fit_of_stacked_demos(self):
        rng = np.random.default_rng(17)
        states = [rng.normal(size=(6, 3)) for _ in range(5)]
        weights = [rng.uniform(0.1, 1.0, size=6) for _ in range(5)]
        model = learn_batch_weighted(demo_set_from_states(states), weights)
        inputs = np.stack([np.vstack([np.ones((1, 5)), np.stack([s[i] for s in states], axis=1)])
                           for i in range(5)])
        targets = np.stack([np.stack([s[i + 1] for s in states], axis=1) for i in range(5)])
        w = np.array([[weights[j][i] for j in range(5)] for i in range(5)])
        phi, q, _ = reference_fit(inputs, targets, w, None)
        np.testing.assert_array_equal(model.Phi_tilde, phi)
        np.testing.assert_array_equal(model.Q, q)


@pytest.mark.parametrize("phi,q,match", [
    (np.zeros((2, 2, 3)), [np.eye(2), [[1.0, 0.5], [0.0, 1.0]]], "Q must be symmetric"),
    (np.zeros((0, 2, 3)), np.zeros((0, 2, 2)), "N >= 1"),
    (np.zeros((2, 2, 2)), np.zeros((2, 2, 2)), r"Phi_tilde \(N, D, D\+1\)"),
    (np.zeros((2, 2, 3)), np.zeros((3, 2, 2)), r"Q \(N, D, D\)"),
])
def test_model_stacks_are_validated(phi, q, match):
    with pytest.raises(ValueError, match=match):
        SkillModel(Phi_tilde=phi, Q=q, dt=0.1, init_mean=np.zeros(2), init_cov=np.eye(2))
