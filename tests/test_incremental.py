import os
import zipfile
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwskill.batch import SingularSystemError, start_moments
from iwskill.demos import DemoSet, StateTrajectory
from iwskill.incremental import (CHECKPOINT_KEYS, IncrementalLearner, assimilate_demo,
                                 extract_map, load_checkpoint, save_checkpoint)
from test_batch import Interval, fit_one, intervals

MNIW = namedtuple("MNIW", "M R V nu")


def beliefs(learner):
    """Interval i's sufficient statistics (M, R, V, nu) for every i."""
    return [MNIW(*stats) for stats in zip(learner.M, learner.R, learner.V, learner.nu)]


def random_demos(rng, k=10, n_steps=3, dim=4):
    demos = [StateTrajectory(dt=0.1, states=rng.normal(size=(n_steps + 1, dim)))
             for _ in range(k)]
    weights = [rng.uniform(0.1, 1.0, size=n_steps + 1) for _ in range(k)]
    return demos, weights


def assimilate_all(learner, demos, weights):
    for demo, w in zip(demos, weights):
        assimilate_demo(learner, demo, w)
    return learner


class TestInit:
    def test_reference_hyperparameters(self):
        learner = IncrementalLearner(2, 4, alpha=1e10, beta=1e10, dt=0.1)
        for step in beliefs(learner):
            np.testing.assert_allclose(step.R, 1e-10 * np.eye(5))
            np.testing.assert_allclose(step.V, 1e-10 * np.eye(4))
            assert step.nu == pytest.approx(1e-10)
            np.testing.assert_array_equal(step.M, 0.0)

    def test_map_before_any_demo(self):
        # a model needs the moments of at least one start state
        learner = IncrementalLearner(2, 4, alpha=1e10, beta=1e10, dt=0.1)
        with pytest.raises(ValueError, match="no demonstration assimilated yet"):
            extract_map(learner)

    def test_model_starts_from_the_assimilated_demos(self):
        rng = np.random.default_rng(3)
        demos, weights = random_demos(rng, k=4)
        learner = assimilate_all(IncrementalLearner(3, 4, 1e10, 1e10, dt=0.1), demos, weights)
        model = extract_map(learner)
        mean, cov = start_moments(np.stack([d.states[0] for d in demos]))
        np.testing.assert_array_equal(model.init_mean, mean)
        np.testing.assert_array_equal(model.init_cov, cov)

    def test_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            IncrementalLearner(2, 4, alpha=0.0, beta=1e10, dt=0.1)
        with pytest.raises(ValueError):
            IncrementalLearner(2, 4, alpha=1e10, beta=-1.0, dt=0.1)

    @pytest.mark.parametrize("dt", [0.0, -0.1, np.inf, np.nan])
    def test_dt_must_be_positive_and_finite(self, dt):
        with pytest.raises(ValueError, match="^dt must be positive and finite, got "):
            IncrementalLearner(2, 4, alpha=1e10, beta=1e10, dt=dt)

    def test_dt_has_no_default(self):
        # a learner is made on its grid: no first demo chooses its dt
        with pytest.raises(TypeError):
            IncrementalLearner(2, 4, alpha=1e10, beta=1e10)

    @pytest.mark.parametrize("n_steps, dim", [(0, 4), (2, 0)])
    def test_empty_grid_is_refused(self, n_steps, dim):
        with pytest.raises(ValueError, match="^need n_steps >= 1 and dim >= 1$"):
            IncrementalLearner(n_steps, dim, alpha=1e10, beta=1e10, dt=0.1)

    def test_weight_of_the_wrong_shape_is_refused(self):
        learner = IncrementalLearner(2, 1, alpha=1e10, beta=1e10, dt=1.0)
        demo = StateTrajectory(dt=1.0, states=[[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError, match="^need one weight per trajectory node$"):
            assimilate_demo(learner, demo, np.ones(2))


class TestUpdateLaws:
    def test_scalar_hand_evaluation(self):
        # D=1 transition x=1 -> 2 with unit weight against the written-out laws
        learner = IncrementalLearner(1, 1, alpha=1e10, beta=1e10, dt=1.0)
        assimilate_demo(learner, StateTrajectory(dt=1.0, states=[[1.0], [2.0]]), np.ones(2))
        [state] = beliefs(learner)
        x_tilde = np.array([1.0, 1.0])
        r_expected = np.outer(x_tilde, x_tilde) + 1e-10 * np.eye(2)
        np.testing.assert_allclose(state.R, r_expected, rtol=1e-12)
        m_expected = np.array([[2.0, 2.0]]) @ np.linalg.inv(r_expected)
        np.testing.assert_allclose(state.M, m_expected, rtol=1e-6)
        resid = 2.0 - (state.M @ x_tilde).item()
        v_expected = 1e-10 + resid ** 2 + (state.M @ (1e-10 * np.eye(2)) @ state.M.T).item()
        np.testing.assert_allclose(state.V, [[v_expected]], rtol=1e-6)
        assert state.nu == pytest.approx(1.0 + 1e-10)

    def test_vanishing_weight_leaves_statistics(self):
        # alpha = beta = 1 keeps R well conditioned so the solve round trip
        # stays at machine precision, far below the 1e-12 budget
        rng = np.random.default_rng(0)
        demos, weights = random_demos(rng, k=1)
        learner = IncrementalLearner(3, 4, alpha=1.0, beta=1.0, dt=0.1)
        assimilate_demo(learner, demos[0], np.ones(4))
        before = [(s.M.copy(), s.R.copy(), s.V.copy(), s.nu) for s in beliefs(learner)]
        ghost = StateTrajectory(dt=0.1, states=rng.normal(size=(4, 4)))
        assimilate_demo(learner, ghost, np.full(4, 1e-30))
        for (m0, r0, v0, nu0), s in zip(before, beliefs(learner)):
            assert np.max(np.abs(s.R - r0)) / np.max(np.abs(r0)) <= 1e-12
            assert np.max(np.abs(s.M - m0)) / max(np.max(np.abs(m0)), 1e-300) <= 1e-12
            assert np.max(np.abs(s.V - v0)) / np.max(np.abs(v0)) <= 1e-12
            assert s.nu == pytest.approx(nu0 + 1.0)

    def test_same_demo_twice_adds_evidence(self):
        rng = np.random.default_rng(1)
        demos, _ = random_demos(rng, k=1)
        w = np.full(4, 0.6)
        learner = IncrementalLearner(3, 4, alpha=1e6, beta=1e6, dt=0.1)
        assimilate_demo(learner, demos[0], w)
        assimilate_demo(learner, demos[0], w)
        for i, s in enumerate(beliefs(learner)):
            x_tilde = np.concatenate([[1.0], demos[0].states[i]])
            expected = 2 * 0.6 * np.outer(x_tilde, x_tilde) + np.eye(5) / 1e6
            np.testing.assert_allclose(s.R, expected, rtol=1e-9)
            assert s.nu == pytest.approx(1e-6 + 2.0)

    def test_last_node_weight_is_unused(self):
        # interval i weighs x_i -> x_{i+1} by w(x_i), as batch learning does,
        # so node N's weight may be 0
        demo = StateTrajectory(dt=0.1, states=np.random.default_rng(3).normal(size=(4, 4)))
        learners = [IncrementalLearner(3, 4, alpha=1e4, beta=1e4, dt=0.1) for _ in range(2)]
        assimilate_demo(learners[0], demo, np.ones(4))
        assimilate_demo(learners[1], demo, np.array([1.0, 1.0, 1.0, 0.0]))
        for a, b in zip(beliefs(learners[0]), beliefs(learners[1])):
            np.testing.assert_array_equal(a.M, b.M)
            np.testing.assert_array_equal(a.V, b.V)

    def test_grid_mismatch_and_bad_weights(self):
        learner = IncrementalLearner(3, 4, alpha=1e4, beta=1e4, dt=0.1)
        wrong = StateTrajectory(dt=0.1, states=np.zeros((3, 4)))
        with pytest.raises(ValueError, match="grid"):
            assimilate_demo(learner, wrong, np.ones(3))
        demo = StateTrajectory(dt=0.1, states=np.random.default_rng(2).normal(size=(4, 4)))
        with pytest.raises(ValueError, match="positive"):
            assimilate_demo(learner, demo, np.array([1.0, 0.0, 1.0, 1.0]))
        assimilate_demo(learner, demo, np.ones(4))
        other_dt = StateTrajectory(dt=0.2, states=demo.states)
        with pytest.raises(ValueError, match="dt"):
            assimilate_demo(learner, other_dt, np.ones(4))

    @settings(max_examples=300, deadline=None)
    @given(dt=st.floats(1e-6, 1e3), rel=st.floats(-3e-9, 3e-9), off=st.floats(-3e-12, 3e-12))
    def test_dt_tolerance_is_np_isclose(self, dt, rel, off):
        # the one grid rule, through both of its users: a DemoSet takes demo b
        # after demo a, and a learner made with a's dt assimilates b, exactly
        # when np.isclose at rtol 1e-9 and atol 1e-12 says the steps agree
        a, b = (StateTrajectory(dt=x, states=np.zeros((3, 1)))
                for x in (dt, dt * (1.0 + rel) + off))
        learner = IncrementalLearner(2, 1, 1.0, 1.0, dt=a.dt)
        taken = []
        for accept in (lambda: DemoSet([a, b]), lambda: assimilate_demo(learner, b, np.ones(3))):
            try:
                accept()
                taken.append(True)
            except ValueError:
                taken.append(False)
        assert taken == [bool(np.isclose(b.dt, a.dt, rtol=1e-9, atol=1e-12))] * 2


class TestBatchEquivalence:
    def test_map_matches_batch_ridge(self):
        rng = np.random.default_rng(3)
        demos, weights = random_demos(rng, k=12, n_steps=4, dim=4)
        alpha = 1e10
        learner = assimilate_all(IncrementalLearner(4, 4, alpha=alpha, beta=1e10, dt=0.1),
                                 demos, weights)
        model = extract_map(learner)
        for i in range(4):
            inputs = np.vstack([np.ones((1, 12)),
                                np.stack([d.states[i] for d in demos], axis=1)])
            targets = np.stack([d.states[i + 1] for d in demos], axis=1)
            w = np.array([weights[k][i] for k in range(12)])
            batch = fit_one(Interval(inputs=inputs, targets=targets, weights=w),
                            lam=1.0 / alpha)
            scale = np.max(np.abs(batch.Phi_tilde))
            assert np.max(np.abs(model.Phi_tilde[i] - batch.Phi_tilde)) / scale <= 1e-8

    def test_unrolled_r_statistic(self):
        rng = np.random.default_rng(4)
        demos, weights = random_demos(rng, k=8, n_steps=3, dim=4)
        alpha = 1e6
        learner = assimilate_all(IncrementalLearner(3, 4, alpha=alpha, beta=1e6, dt=0.1),
                                 demos, weights)
        for i, s in enumerate(beliefs(learner)):
            inputs = np.vstack([np.ones((1, 8)),
                                np.stack([d.states[i] for d in demos], axis=1)])
            w = np.array([weights[k][i] for k in range(8)])
            expected = (inputs * w) @ inputs.T + np.eye(5) / alpha
            np.testing.assert_allclose(s.R, expected, rtol=1e-9)

    def test_m_and_r_permutation_invariant(self):
        rng = np.random.default_rng(5)
        demos, weights = random_demos(rng, k=7)
        a = assimilate_all(IncrementalLearner(3, 4, 1e10, 1e10, dt=0.1), demos, weights)
        perm = [4, 2, 6, 0, 5, 1, 3]
        b = assimilate_all(IncrementalLearner(3, 4, 1e10, 1e10, dt=0.1),
                           [demos[p] for p in perm], [weights[p] for p in perm])
        for sa, sb in zip(beliefs(a), beliefs(b)):
            assert np.max(np.abs(sa.R - sb.R)) / np.max(np.abs(sa.R)) <= 1e-8
            assert np.max(np.abs(sa.M - sb.M)) / np.max(np.abs(sa.M)) <= 1e-8

    def test_nu_counts_demos_exactly(self):
        rng = np.random.default_rng(6)
        demos, weights = random_demos(rng, k=9)
        beta = 1e10
        learner = assimilate_all(IncrementalLearner(3, 4, 1e10, beta, dt=0.1), demos, weights)
        for s in beliefs(learner):
            assert s.nu == 1.0 / beta + 9

    def test_spd_after_every_update(self):
        rng = np.random.default_rng(7)
        demos, weights = random_demos(rng, k=6)
        learner = IncrementalLearner(3, 4, 1e10, 1e10, dt=0.1)
        for demo, w in zip(demos, weights):
            assimilate_demo(learner, demo, w)
            for s in beliefs(learner):
                np.linalg.cholesky(s.R)
                np.linalg.cholesky(s.V)

    def test_v_stays_exactly_symmetric(self):
        rng = np.random.default_rng(11)
        demos, weights = random_demos(rng, k=8, n_steps=5, dim=3)
        learner = IncrementalLearner(5, 3, 1e10, 1e10, dt=0.1)
        for demo, w in zip(demos, weights):
            assimilate_demo(learner, demo, w)
            np.testing.assert_array_equal(learner.V, learner.V.transpose(0, 2, 1))

    def test_q_approaches_batch_with_many_unit_weight_demos(self):
        # recursive V and the batch residual normalizer agree only in the
        # large-K limit: (K-1) vs (K+D+1) scaling, so K=50 at D=2 keeps the
        # gap under 10%
        rng = np.random.default_rng(8)
        n_steps, dim, k = 2, 2, 50
        demos = [StateTrajectory(dt=0.1, states=rng.normal(size=(n_steps + 1, dim)))
                 for _ in range(k)]
        weights = [np.ones(n_steps + 1)] * k
        learner = assimilate_all(IncrementalLearner(n_steps, dim, 1e10, 1e10, dt=0.1),
                                 demos, weights)
        model = extract_map(learner)
        for i in range(n_steps):
            inputs = np.vstack([np.ones((1, k)),
                                np.stack([d.states[i] for d in demos], axis=1)])
            targets = np.stack([d.states[i + 1] for d in demos], axis=1)
            batch = fit_one(Interval(inputs=inputs, targets=targets,
                                     weights=np.ones(k)), lam=1e-10)
            rel = np.linalg.norm(model.Q[i] - batch.Q) / np.linalg.norm(batch.Q)
            assert rel <= 0.10


def rewrite_checkpoint(path, **fields):
    """Rewrite the npz checkpoint at `path` with `fields` replaced; a field
    given as None is deleted."""
    with np.load(path) as npz:
        data = dict(npz)
    for key, value in fields.items():
        if value is None:
            del data[key]
        else:
            data[key] = value
    with open(path, "wb") as fh:
        np.savez(fh, **data)


def saved_learner(tmp_path, name="ck.npz"):
    """A learner that has seen two demos, saved at `tmp_path / name`."""
    rng = np.random.default_rng(10)
    demos, weights = random_demos(rng, k=2)
    path = str(tmp_path / name)
    learner = assimilate_all(IncrementalLearner(3, 4, 1e10, 1e10, dt=0.1), demos, weights)
    save_checkpoint(path, learner)
    return path


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        demos, weights = random_demos(rng, k=3)
        learner = assimilate_all(IncrementalLearner(3, 4, 1e10, 1e10, dt=0.1), demos, weights)
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, learner)
        again = load_checkpoint(path)
        assert len(again.starts) == 3 and again.dt == 0.1
        np.testing.assert_array_equal(again.starts, learner.starts)
        for sa, sb in zip(beliefs(learner), beliefs(again)):
            np.testing.assert_array_equal(sa.M, sb.M)
            np.testing.assert_array_equal(sa.R, sb.R)
            np.testing.assert_array_equal(sa.V, sb.V)
            assert sa.nu == sb.nu
        model_a = extract_map(learner)
        model_b = extract_map(again)
        for a, b in zip(intervals(model_a), intervals(model_b)):
            np.testing.assert_array_equal(a.Phi_tilde, b.Phi_tilde)

    def test_learner_saved_before_its_first_demo(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, IncrementalLearner(3, 4, 1e10, 1e10, dt=0.25))
        again = load_checkpoint(path)
        assert again.dt == 0.25 and again.starts.shape == (0, 4)
        with pytest.raises(ValueError, match="^no demonstration assimilated yet"):
            extract_map(again)

    def test_bytes_are_pinned(self, tmp_path):
        # a binary file in out_dir keeps repeated CLI runs byte-identical only
        # because every zip entry carries the same fixed timestamp
        path = saved_learner(tmp_path, "a.ckpt.json")
        learner = load_checkpoint(path)
        save_checkpoint(str(tmp_path / "b.ckpt.json"), learner)
        assert sorted(os.listdir(tmp_path)) == ["a.ckpt.json", "b.ckpt.json"]
        assert (tmp_path / "a.ckpt.json").read_bytes() == (tmp_path / "b.ckpt.json").read_bytes()
        with zipfile.ZipFile(path) as zf:
            entries = zf.infolist()
        assert [e.filename for e in entries] == [f"{k}.npy" for k in CHECKPOINT_KEYS]
        assert all(e.date_time == (1980, 1, 1, 0, 0, 0) for e in entries)

    def test_corrupt_checkpoint(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{ not json")
        with pytest.raises(Exception):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("field,row", [("M", np.zeros((4, 3))), ("R", np.zeros((4, 5))),
                                           ("V", np.zeros((4, 3))), ("nu", np.ones(1))])
    def test_wrong_shaped_step_is_named(self, tmp_path, field, row):
        path = saved_learner(tmp_path)
        rewrite_checkpoint(path, **{field: np.stack([row] * 3)})
        with pytest.raises(ValueError, match=f"{field} must be a number array of shape"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field,mutate,reason", [
        ("version", lambda a: np.array(1), "version must be 2, got 1"),
        ("version", lambda a: None, "missing key 'version'"),
        ("nu", lambda a: None, "missing key 'nu'"),
        ("V", lambda a: a[:2], r"V must be a number array of shape \(3, 4, 4\)"),
        ("nu", lambda a: np.ones((3, 1)), r"nu must be a number array of shape \(3,\)"),
        ("alpha", lambda a: np.array("1e10"), r"alpha must be a number array of shape \(\)"),
        ("M", lambda a: np.full_like(a, np.nan), "M must be finite"),
        ("R", lambda a: a * np.inf, "R must be finite"),
        ("V", lambda a: np.where(np.eye(4) > 0, a, -np.inf), "V must be finite"),
        ("nu", lambda a: np.full_like(a, -5.0), "nu must be positive"),
        ("nu", lambda a: np.array([3.0, 0.0, 3.0]), "nu must be positive"),
        ("starts", lambda a: a[:, :3], r"starts must be a number array of shape \(2, 4\)"),
        ("starts", lambda a: np.full_like(a, np.nan), "starts must be finite"),
        ("alpha", lambda a: np.array(0.0), "alpha must be a positive finite number"),
        ("beta", lambda a: np.array(-1e10), "beta must be a positive finite number"),
        ("dt", lambda a: np.array(np.inf), "dt must be finite, got inf"),
        ("dt", lambda a: np.array(np.nan), "dt must be finite, got nan"),
        ("dt", lambda a: np.array(0), "dt must be a positive finite number"),
        ("R", lambda a: -a, "R must be symmetric positive definite in every interval"),
        ("V", lambda a: a + np.triu(np.full((4, 4), 1e300), 1),
         "V must be symmetric positive definite in every interval"),
    ], ids=["version", "no-version", "no-nu", "V-steps", "nu-2d", "alpha-string", "M-nan",
            "R-inf", "V-inf", "nu-negative", "nu-zero", "starts-width", "starts-nan",
            "alpha-zero", "beta-negative", "dt-inf", "dt-nan", "dt-zero", "R-negative",
            "V-asymmetric"])
    def test_invalid_field_is_named(self, tmp_path, field, mutate, reason):
        path = saved_learner(tmp_path)
        with np.load(path) as npz:
            value = npz[field]
        rewrite_checkpoint(path, **{field: mutate(value)})
        with pytest.raises(ValueError, match=reason):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage", ["truncated", "flipped-byte"])
    def test_damaged_archive_is_a_value_error(self, tmp_path, damage):
        path = saved_learner(tmp_path)
        with open(path, "rb") as fh:
            raw = fh.read()
        if damage == "truncated":
            raw = raw[:len(raw) // 2]
        else:  # inside the first array's data: its CRC no longer matches
            raw = raw[:100] + bytes([raw[100] ^ 0xFF]) + raw[101:]
        with open(path, "wb") as fh:
            fh.write(raw)
        with pytest.raises(ValueError, match="damaged npz archive"):
            load_checkpoint(path)

    def test_pickled_array_is_refused(self, tmp_path):
        path = saved_learner(tmp_path)
        rewrite_checkpoint(path, M=np.array([{"M": 0.0}], dtype=object))
        with pytest.raises(ValueError, match="allow_pickle=False"):
            load_checkpoint(path)


def reference_update(stats, w, x_in, x_out):
    """One interval's weighted conjugate update, by the formulas of the former
    per-interval MNIW state: R, then M through a solve against the new R
    (C-contiguous, as the stack holds it), then V with the residual and
    symmetrized drift terms, then nu."""
    x_tilde = np.concatenate([[1.0], x_in])
    r_new = stats.R + w * np.outer(x_tilde, x_tilde)
    np.linalg.cholesky(r_new)  # the positive-definite test
    cross = w * np.outer(x_out, x_tilde) + stats.M @ stats.R
    m_new = np.ascontiguousarray(np.linalg.solve(r_new, cross.T).T)
    resid = x_out - m_new @ x_tilde
    drift = m_new - stats.M
    t = drift @ stats.R @ drift.T
    v_new = stats.V + w * np.outer(resid, resid) + (t + t.T) / 2
    return MNIW(m_new, r_new, v_new, stats.nu + 1.0)


class TestStackedUpdateEqualsPerIntervalLoop:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), d=st.integers(1, 4), k=st.integers(1, 5),
           seed=st.integers(0, 2 ** 32 - 1), alpha=st.sampled_from([1.0, 1e6, 1e10]),
           beta=st.sampled_from([1.0, 1e10]))
    def test_bit_identical(self, n, d, k, seed, alpha, beta):
        rng = np.random.default_rng(seed)
        learner = IncrementalLearner(n, d, alpha, beta, dt=0.1)
        stats = beliefs(learner)
        for _ in range(k):
            demo = StateTrajectory(dt=0.1, states=rng.normal(size=(n + 1, d)))
            w = rng.uniform(1e-3, 1.0, size=n + 1)
            assimilate_demo(learner, demo, w)
            stats = [reference_update(s, w[i], demo.states[i], demo.states[i + 1])
                     for i, s in enumerate(stats)]
            for got, want in zip(beliefs(learner), stats):
                for a, b in zip(got, want):
                    np.testing.assert_array_equal(a, b)
        for a in (learner.M, learner.R, learner.V):
            assert a.flags.c_contiguous


class TestIntervalStack:
    @pytest.mark.parametrize("n", [1, 200])
    def test_statistics_stay_c_contiguous(self, n):
        rng = np.random.default_rng(12)
        learner = IncrementalLearner(n, 2, 1e6, 1e6, dt=0.1)
        for _ in range(2):
            assimilate_demo(learner, StateTrajectory(dt=0.1, states=rng.normal(size=(n + 1, 2))),
                            rng.uniform(0.1, 1.0, size=n + 1))
        for a in (learner.M, learner.R, learner.V):
            assert a.flags.c_contiguous

    def test_indefinite_r_names_its_interval(self):
        # one bad interval deep in a 200-interval stack: the stacked factor
        # fails, and the per-interval pass names the interval
        rng = np.random.default_rng(13)
        learner = IncrementalLearner(200, 2, 1.0, 1.0, dt=0.1)
        learner.R[137] = -np.eye(3)
        demo = StateTrajectory(dt=0.1, states=rng.normal(size=(201, 2)))
        with pytest.raises(SingularSystemError, match="^interval 137: MNIW column statistics R "
                                                      "not positive definite$"):
            assimilate_demo(learner, demo, np.ones(201))
