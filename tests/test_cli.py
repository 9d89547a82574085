import gc
import json
import os
import re

import numpy as np
import pytest

from iwskill.batch import load_model
from iwskill.cli import main as cli_main
from iwskill.demos import (DemoSet, RawDemo, dtw_align, estimate_states, load_raw_demo,
                           save_raw_demo)
from iwskill.environment import build_sdf, environment_to_dict, load_environment
from iwskill.prior import GaussianTrajectoryPrior, initial_state_distribution, prior_band_csv
from iwskill.synthetic import make_reaching_scene
from iwskill.utils import read_json, write_json
from test_incremental import rewrite_checkpoint


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    """Reaching scene on disk: demos, environments, and a base config."""
    root = tmp_path_factory.mktemp("scene")
    scene = make_reaching_scene(n_raw=40)
    demo_names = []
    for k, demo in enumerate(scene.raw_demos):
        name = f"demo_{k:03d}.json"
        save_raw_demo(str(root / name), demo)
        demo_names.append(name)
    write_json(str(root / "env_learning.json"), environment_to_dict(scene.env))
    empty_env = {"dimension": 2, "obstacles": []}
    write_json(str(root / "env_empty.json"), empty_env)
    config = {
        "demos": demo_names,
        "environment": "env_learning.json",
        "grid_n": 30,
        "align": "none",
        "weights": {"epsilon": 0.3, "sigma_obs": 0.01},
        "ridge_lambda": 1e-10,
        "alpha": 1e10,
        "beta": 1e10,
        "seed": 0,
        "out_dir": "out",
        "reproduction": {
            "starts": [[0.0, 0.5, 3.0, 1.0], [0.0, -0.5, 3.0, 2.0]],
            "start_sigma": 1e-3,
            "eps_repro": 0.1,
            "sigma_repro": 0.05,
            "sdf_resolution": 0.05,
            "sdf_margin": 0.4,
        },
    }
    write_json(str(root / "config.json"), config)
    config_clean = dict(config)
    config_clean["environment"] = "env_empty.json"
    write_json(str(root / "config_clean.json"), config_clean)
    return root, scene


def read_all_outputs(out_dir):
    found = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            found[name] = fh.read()
    return found


class TestLearn:
    def test_learn_writes_model_and_weights(self, scene_dir, tmp_path):
        root, _ = scene_dir
        out = str(tmp_path / "out")
        assert cli_main(["--config", str(root / "config.json"), "--out", out, "learn"]) == 0
        model = load_model(os.path.join(out, "model.json"))
        assert model.n_steps == 30 and model.dim == 4
        with open(os.path.join(out, "weights.csv")) as fh:
            header = fh.readline().strip()
        assert header == "demo,node,weight"

    def test_obstacle_free_weights_all_one(self, scene_dir, tmp_path):
        root, _ = scene_dir
        out = str(tmp_path / "out")
        assert cli_main(["--config", str(root / "config_clean.json"), "--out", out,
                         "weights"]) == 0
        rows = np.loadtxt(os.path.join(out, "weights.csv"), delimiter=",", skiprows=1)
        np.testing.assert_array_equal(rows[:, 2], 1.0)

    def test_no_weighting_equals_unit_weight_run(self, scene_dir, tmp_path):
        root, _ = scene_dir
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert cli_main(["--config", str(root / "config.json"), "--out", out_a,
                         "--no-weighting", "learn"]) == 0
        assert cli_main(["--config", str(root / "config_clean.json"), "--out", out_b,
                         "learn"]) == 0
        assert read_all_outputs(out_a) == read_all_outputs(out_b)

    def test_run_twice_byte_identical(self, scene_dir, tmp_path):
        root, _ = scene_dir
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        for out in (out_a, out_b):
            assert cli_main(["--config", str(root / "config.json"), "--out", out,
                             "--seed", "7", "learn"]) == 0
        assert read_all_outputs(out_a) == read_all_outputs(out_b)

    def test_model_round_trip_identical(self, scene_dir, tmp_path):
        root, _ = scene_dir
        out = str(tmp_path / "out")
        assert cli_main(["--config", str(root / "config.json"), "--out", out, "learn"]) == 0
        path = os.path.join(out, "model.json")
        model = load_model(path)
        from iwskill.batch import model_to_dict
        with open(path) as fh:
            assert json.load(fh) == model_to_dict(model)


class TestIngest:
    def test_ingest_outputs(self, scene_dir, tmp_path):
        root, _ = scene_dir
        out = str(tmp_path / "out")
        assert cli_main(["--config", str(root / "config.json"), "--out", out, "ingest"]) == 0
        with open(os.path.join(out, "ingest_summary.json")) as fh:
            summary = json.load(fh)
        assert summary == {"demos": 8, "n_steps": 30, "dim": 4,
                           "dt": pytest.approx(1.0 / 30)}
        assert os.path.exists(os.path.join(out, "trajectory_007.json"))


class TestAssimilate:
    def test_incremental_matches_batch_learn(self, tmp_path):
        # random polynomial demos keep every interval's regression well
        # conditioned; there the 1e-8 batch equivalence is numerically
        # meaningful (the scene demos' near-collinear inputs are not)
        rng = np.random.default_rng(21)
        t = np.linspace(0.0, 1.0, 20)
        demo_names = []
        for k in range(8):
            coeffs = rng.normal(scale=0.5, size=(4, 2))
            pos = sum(c[None, :] * (t ** p)[:, None] for p, c in enumerate(coeffs))
            name = f"demo_{k:03d}.json"
            from iwskill.demos import RawDemo
            save_raw_demo(str(tmp_path / name), RawDemo(timestamps=t, positions=pos))
            demo_names.append(name)
        write_json(str(tmp_path / "config.json"),
                   {"demos": demo_names, "grid_n": 12, "align": "none",
                    "ridge_lambda": 1e-10, "alpha": 1e10, "beta": 1e10,
                    "out_dir": "out"})
        out_inc = str(tmp_path / "inc")
        checkpoint = os.path.join(out_inc, "ck.npz")
        for name in demo_names:
            code = cli_main(["--config", str(tmp_path / "config.json"), "--out", out_inc,
                             "assimilate", "--checkpoint", checkpoint,
                             "--demo", str(tmp_path / name)])
            assert code == 0
        out_batch = str(tmp_path / "batch")
        # ridge_lambda in the shared config equals 1/alpha
        assert cli_main(["--config", str(tmp_path / "config.json"), "--out", out_batch,
                         "learn"]) == 0
        inc = load_model(os.path.join(out_inc, "model.json"))
        batch = load_model(os.path.join(out_batch, "model.json"))
        for a, b in zip(inc.Phi_tilde, batch.Phi_tilde):
            scale = max(np.max(np.abs(b)), 1e-12)
            assert np.max(np.abs(a - b)) / scale <= 1e-8

    def test_corrupt_checkpoint_no_partial_write(self, scene_dir, tmp_path):
        root, _ = scene_dir
        out = str(tmp_path / "out")
        os.makedirs(out)
        checkpoint = os.path.join(out, "ck.npz")
        with open(checkpoint, "w") as fh:
            fh.write("{ definitely not json")
        before = read_all_outputs(out)
        code = cli_main(["--config", str(root / "config.json"), "--out", out,
                         "assimilate", "--checkpoint", checkpoint,
                         "--demo", str(root / "demo_000.json")])
        assert code == 2
        assert read_all_outputs(out) == before
        assert not os.path.exists(os.path.join(out, "model.json"))

    def test_wrong_shaped_checkpoint_names_the_file(self, scene_dir, tmp_path, capsys):
        root, _ = scene_dir
        out = str(tmp_path / "out")
        checkpoint = os.path.join(out, "ck.npz")
        base = ["--config", str(root / "config.json"), "--out", out, "assimilate",
                "--checkpoint", checkpoint]
        assert cli_main(base + ["--demo", str(root / "demo_000.json")]) == 0
        with np.load(checkpoint) as npz:
            r = npz["R"]
        rewrite_checkpoint(checkpoint, R=r[:, :-1])
        capsys.readouterr()
        assert cli_main(base + ["--demo", str(root / "demo_001.json")]) == 2
        err = capsys.readouterr().err
        assert f"failed to read checkpoint {checkpoint}: R must be a number array of shape" in err

    @pytest.mark.parametrize("content", ["json", "pickle", "truncated", "flipped-byte",
                                         "version-1"])
    def test_unreadable_checkpoint_changes_nothing(self, scene_dir, tmp_path, capsys, content):
        root, _ = scene_dir
        out = str(tmp_path / "out")
        checkpoint = os.path.join(out, "ck.json")
        base = ["--config", str(root / "config.json"), "--out", out]
        assert cli_main(base + ["learn"]) == 0
        if content == "json":  # the checkpoint format of earlier versions
            write_json(checkpoint, {"alpha": 1e10, "beta": 1e10, "demos_seen": 1, "dt": 0.1,
                                    "n_steps": 1, "dim": 1, "steps": [
                                        {"M": [[0.0, 1.0]], "R": [[1.0, 0.0], [0.0, 1.0]],
                                         "V": [[1.0]], "nu": 2.0}]})
        else:
            assert cli_main(base + ["assimilate", "--checkpoint", checkpoint,
                                    "--demo", str(root / "demo_000.json")]) == 0
            with open(checkpoint, "rb") as fh:
                raw = fh.read()
            if content == "pickle":
                rewrite_checkpoint(checkpoint, nu=np.array([{"nu": 1.0}], dtype=object))
            elif content == "version-1":  # a demo count in place of the start states
                rewrite_checkpoint(checkpoint, version=np.array(1), demos_seen=np.array(1),
                                   starts=None)
            else:  # a flipped byte in the first array's data fails its CRC
                with open(checkpoint, "wb") as fh:
                    fh.write(raw[:len(raw) // 2] if content == "truncated"
                             else raw[:100] + bytes([raw[100] ^ 0xFF]) + raw[101:])
        reason = {"json": "not an npz checkpoint", "pickle": "allow_pickle=False",
                  "truncated": "damaged npz archive (File is not a zip file)",
                  "flipped-byte": "damaged npz archive (Bad CRC-32",
                  "version-1": "version must be 2, got 1"}[content]
        assert cli_main(base + ["learn"]) == 0
        before = read_all_outputs(out)
        assert {"ck.json", "model.json"} <= set(before)
        capsys.readouterr()
        assert cli_main(base + ["assimilate", "--checkpoint", checkpoint,
                                "--demo", str(root / "demo_001.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: failed to read checkpoint {checkpoint}: ")
        assert reason in err and err.count("\n") == 1
        assert read_all_outputs(out) == before

    def test_grid_mismatch_exit_code(self, scene_dir, tmp_path, capsys):
        root, _ = scene_dir
        out = str(tmp_path / "out")
        checkpoint = os.path.join(out, "ck.npz")
        assert cli_main(["--config", str(root / "config.json"), "--out", out,
                         "assimilate", "--checkpoint", checkpoint,
                         "--demo", str(root / "demo_000.json")]) == 0
        # now rewrite the config with a different grid
        cfg = read_json(root / "config.json")
        cfg["demos"] = [str(root / d) for d in cfg["demos"]]
        cfg["environment"] = str(root / cfg["environment"])
        cfg["grid_n"] = 17
        other = str(tmp_path / "config17.json")
        write_json(other, cfg)
        before = read_all_outputs(out)
        capsys.readouterr()
        code = cli_main(["--config", other, "--out", out, "assimilate",
                         "--checkpoint", checkpoint,
                         "--demo", str(root / "demo_001.json")])
        assert code == 2
        assert capsys.readouterr().err == ("config error: demo grid (17, 4) does not match "
                                           "learner grid (30, 4)\n")
        assert read_all_outputs(out) == before


class TestRollout:
    def test_rollout_outputs(self, scene_dir, tmp_path):
        root, _ = scene_dir
        out = str(tmp_path / "out")
        assert cli_main(["--config", str(root / "config.json"), "--out", out, "learn"]) == 0
        assert cli_main(["--config", str(root / "config.json"), "--out", out,
                         "rollout", "--model", os.path.join(out, "model.json")]) == 0
        prior = np.loadtxt(os.path.join(out, "prior.csv"), delimiter=",", skiprows=1)
        assert prior.shape == (31, 1 + 4 + 4)
        assert os.path.exists(os.path.join(out, "rollout.svg"))


    def test_svg_draws_each_obstacle_the_band_and_the_paths(self, scene_dir, tmp_path):
        root, _ = scene_dir
        scene = str(tmp_path / "env.json")
        write_json(scene, {"dimension": 2, "obstacles": [
            {"type": "sphere", "center": [1.7, 0.5], "radius": 0.2},
            {"type": "box", "min": [2.2, -0.8], "max": [2.6, -0.5]}]})
        cfg = read_json(root / "config.json")
        cfg.update(demos=[str(root / d) for d in cfg["demos"]], environment=scene,
                   rollout_samples=2)
        cfg["reproduction"].update(environment=scene, starts=[[0.0, 0.5, 3.0, 1.0]])
        write_json(str(tmp_path / "cfg.json"), cfg)
        out = tmp_path / "out"
        base = ["--config", str(tmp_path / "cfg.json"), "--out", str(out)]
        assert cli_main(base + ["learn"]) == 0
        for command in ("rollout", "reproduce"):
            assert cli_main(base + [command, "--model", str(out / "model.json")]) == 0
        # the samples and the prior mean; the dashed prior mean and the solution
        for name, polylines, dashed in (("rollout.svg", 3, 0), ("solution_000.svg", 2, 1)):
            svg = (out / name).read_text()
            assert svg.count('<circle ') == svg.count('<circle cx=') == 1
            assert svg.count('<rect ') == 2 and svg.count('<rect x=') == 1  # and the background
            assert svg.count('fill="#d62728"') == 2  # both obstacles
            assert svg.count('<polygon ') == svg.count('fill="#aec7e8"') == 1  # the band
            assert svg.count('<polyline ') == polylines
            assert svg.count('stroke-dasharray') == dashed


def write_scalar_model(path, n_steps=5, **keys):
    """A five-step model of a one-dimensional state, written by hand; `keys`
    replace top-level keys, and a key given as None is left out."""
    model = {"dt": 0.1, "D": 1, "init_mean": [0.0], "init_cov": [[0.01]],
             "steps": [{"Phi_tilde": [[0.1, 0.9]], "Q": [[0.01]]}] * n_steps, **keys}
    write_json(str(path), {k: v for k, v in model.items() if v is not None})


class TestScalarModel:
    """A model with one-dimensional states is drawn as time vs value."""

    def test_rollout_and_reproduce_write_svg(self, tmp_path):
        write_scalar_model(tmp_path / "model.json")
        write_json(str(tmp_path / "cfg.json"), {
            "out_dir": "out", "rollout_samples": 2, "reproduction": {"starts": [[0.5]]}})
        base = ["--config", str(tmp_path / "cfg.json")]
        model = ["--model", str(tmp_path / "model.json")]
        assert cli_main(base + ["rollout"] + model) == 0
        assert cli_main(base + ["reproduce"] + model) == 0
        for name in ("rollout.svg", "solution_000.svg"):
            with open(tmp_path / "out" / name) as fh:
                assert fh.read().startswith("<svg")

    @pytest.mark.parametrize("reproduction, message", [
        ({"anchors": [{"index": 99, "state": [0.0]}]},
         "reproduction.anchors[0].index must be a node 0..5, got 99"),
        ({"anchors": [{"index": 5, "state": [0.0]}, {"index": 2, "state": [0.0, 1.0]}]},
         "reproduction.anchors[1].state must have dimension 1"),
        ({"starts": [[0.5], [0.5, 0.0]]}, "reproduction.starts[1] must have dimension 1"),
    ])
    def test_reproduction_input_off_the_model_names_its_key(self, tmp_path, capsys,
                                                            reproduction, message):
        write_scalar_model(tmp_path / "model.json")
        write_json(str(tmp_path / "cfg.json"), {"out_dir": "out", "reproduction": reproduction})
        assert cli_main(["--config", str(tmp_path / "cfg.json"), "reproduce",
                         "--model", str(tmp_path / "model.json")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_indefinite_init_cov_is_a_config_error(self, tmp_path, capsys):
        write_scalar_model(tmp_path / "model.json", n_steps=1)
        cfg = str(tmp_path / "cfg.json")
        write_json(cfg, {"out_dir": "out", "init_state": {"mean": [0.0], "cov": [[-1.0]]}})
        assert cli_main(["--config", cfg, "rollout", "--model",
                         str(tmp_path / "model.json")]) == 2
        assert f"{cfg}: init_state.cov must be a positive semi-definite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "prior.csv").exists()

    @pytest.mark.parametrize("keys, message", [
        ({"init_cov": None}, "missing key 'init_cov': the model was written without its start "
                             "moments; re-run learn or assimilate"),
        ({"init_cov": [[0.01, 0.0]]}, "init_cov must be a positive semi-definite matrix"),
        ({"init_mean": [float("nan")]}, "init_mean must be a list of 1 finite numbers"),
    ], ids=["missing", "mis-shaped", "non-finite"])
    def test_model_without_valid_start_moments_is_refused(self, tmp_path, capsys, keys,
                                                          message):
        model = str(tmp_path / "model.json")
        write_scalar_model(model, **keys)
        write_json(str(tmp_path / "cfg.json"), {"out_dir": "out"})
        for command in ("rollout", "reproduce"):
            assert cli_main(["--config", str(tmp_path / "cfg.json"), command,
                             "--model", model]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: failed to read model {model}: {message}")
        assert not (tmp_path / "out").exists()


class TestModelOnly:
    """`rollout` and `reproduce` start from the start moments stored in the
    model: they read no demo file."""

    @pytest.mark.parametrize("learning", ["learn", "assimilate"])
    def test_rollout_and_reproduce_read_no_demo(self, scene_dir, tmp_path, monkeypatch,
                                                learning):
        root, _ = scene_dir
        cfg = read_json(root / "config.json")
        demos = [str(tmp_path / d) for d in cfg["demos"]]
        for d in cfg["demos"]:
            (tmp_path / d).write_bytes((root / d).read_bytes())
        cfg.update(demos=demos, environment=str(root / cfg["environment"]), align="dtw",
                   rollout_samples=2)
        cfg_path = str(tmp_path / "cfg.json")
        write_json(cfg_path, cfg)
        base = ["--config", cfg_path, "--out", str(tmp_path / "out")]
        if learning == "learn":
            assert cli_main(base + ["learn"]) == 0
        else:  # assimilate never aligns its demos
            for path in demos:
                assert cli_main(base + ["assimilate", "--checkpoint", str(tmp_path / "ck.npz"),
                                        "--demo", path]) == 0
        model = str(tmp_path / "out" / "model.json")

        def rollout_and_reproduce(stage_out):
            for command in ("rollout", "reproduce"):
                assert cli_main(["--config", cfg_path, "--out", stage_out, command,
                                 "--model", model]) == 0
            return read_all_outputs(stage_out)
        with_demos = rollout_and_reproduce(str(tmp_path / "with_demos"))
        # the prior starts from the moments of the demos' start states as learning saw them
        raw = [load_raw_demo(path) for path in demos]
        states = [estimate_states(r, 30) for r in (dtw_align(raw) if learning == "learn" else raw)]
        prior = GaussianTrajectoryPrior(load_model(model),
                                        initial_state_distribution(DemoSet(demos=states)))
        assert with_demos["prior.csv"] == prior_band_csv(prior).encode()
        for path in demos:
            os.remove(path)

        def no_demo(*args, **kwargs):
            raise AssertionError("a demo was read")
        monkeypatch.setattr("iwskill.demos.load_raw_demo", no_demo)
        monkeypatch.setattr("iwskill.demos.estimate_states", no_demo)
        assert rollout_and_reproduce(str(tmp_path / "without_demos")) == with_demos


class TestReproduce:
    def test_init_state_skips_demo_alignment(self, scene_dir, tmp_path, monkeypatch):
        root, _ = scene_dir
        out = str(tmp_path / "out")
        assert cli_main(["--config", str(root / "config.json"), "--out", out, "learn"]) == 0
        cfg = read_json(root / "config.json")
        demos = [str(tmp_path / d) for d in cfg["demos"]]
        for d in cfg["demos"]:
            (tmp_path / d).write_bytes((root / d).read_bytes())
        cfg.update(demos=demos, environment=None, align="dtw",
                   init_state={"mean": [0.0, 0.5, 3.0, 1.0], "cov": (1e-4 * np.eye(4)).tolist()})
        cfg["reproduction"] = {"starts": [[0.0, 0.5, 3.0, 1.0]]}
        write_json(str(tmp_path / "cfg.json"), cfg)

        def no_alignment(*args, **kwargs):
            raise AssertionError("demos aligned although init_state is set")
        monkeypatch.setattr("iwskill.demos.dtw_align", no_alignment)

        def rollout_and_reproduce(stage_out):
            for command in ("rollout", "reproduce"):
                assert cli_main(["--config", str(tmp_path / "cfg.json"), "--out", stage_out,
                                 command, "--model", os.path.join(out, "model.json")]) == 0
            return read_all_outputs(stage_out)
        with_demos = rollout_and_reproduce(str(tmp_path / "with_demos"))
        assert "prior.csv" in with_demos and "solution_000.csv" in with_demos
        for path in demos:  # never read: deleting them changes nothing
            os.remove(path)
        assert rollout_and_reproduce(str(tmp_path / "without_demos")) == with_demos

    def test_mean_start_returns_prior_mean(self, scene_dir, tmp_path):
        root, _ = scene_dir
        out = str(tmp_path / "out")
        assert cli_main(["--config", str(root / "config.json"), "--out", out, "learn"]) == 0
        # start exactly at the prior's initial mean, no obstacles, no anchors
        model = load_model(os.path.join(out, "model.json"))
        cfg = read_json(root / "config.json")
        cfg["demos"] = [str(root / d) for d in cfg["demos"]]
        cfg["environment"] = str(root / cfg["environment"])
        cfg["reproduction"] = {"starts": [model.init_mean.tolist()], "start_sigma": 1e-3}
        cfg_path = str(tmp_path / "config_mean.json")
        write_json(cfg_path, cfg)
        assert cli_main(["--config", cfg_path, "--out", out, "reproduce",
                         "--model", os.path.join(out, "model.json")]) == 0
        sol = np.loadtxt(os.path.join(out, "solution_000.csv"), delimiter=",", skiprows=1)
        # anchor target equals the prior mean start, so the optimum is the mean
        np.testing.assert_allclose(sol[:, 1:], GaussianTrajectoryPrior(model).means, atol=1e-6)

    def test_two_starts_two_solutions(self, scene_dir, tmp_path):
        root, _ = scene_dir
        out = str(tmp_path / "out")
        assert cli_main(["--config", str(root / "config.json"), "--out", out, "learn"]) == 0
        assert cli_main(["--config", str(root / "config.json"), "--out", out,
                         "reproduce", "--model", os.path.join(out, "model.json")]) == 0
        for si in range(2):
            for ext in (".csv", ".json", ".svg"):
                assert os.path.exists(os.path.join(out, f"solution_{si:03d}{ext}"))

    def test_displaced_obstacles_clearance(self, scene_dir, tmp_path):
        root, scene = scene_dir
        out = str(tmp_path / "out")
        assert cli_main(["--config", str(root / "config.json"), "--out", out, "learn"]) == 0
        displaced = {"dimension": 2,
                     "obstacles": [{"type": "sphere", "center": [1.7, 0.5], "radius": 0.2}]}
        write_json(str(tmp_path / "env_displaced.json"), displaced)
        cfg = read_json(root / "config.json")
        cfg["demos"] = [str(root / d) for d in cfg["demos"]]
        cfg["environment"] = str(root / cfg["environment"])
        cfg["reproduction"]["environment"] = os.path.join(str(tmp_path), "env_displaced.json")
        cfg["reproduction"]["starts"] = [[0.0, 0.5, 3.0, 1.0]]
        cfg_path = str(tmp_path / "config_disp.json")
        write_json(cfg_path, cfg)
        assert cli_main(["--config", cfg_path, "--out", out, "reproduce",
                         "--model", os.path.join(out, "model.json")]) == 0
        with open(os.path.join(out, "solution_000.json")) as fh:
            summary = json.load(fh)
        assert summary["feasible"]
        assert summary["min_clearance"] >= 0.1 - 0.01
        # verify the clearance claim against an independently built SDF
        sol = np.loadtxt(os.path.join(out, "solution_000.csv"), delimiter=",", skiprows=1)
        env = load_environment(str(tmp_path / "env_displaced.json"))
        sdf = build_sdf(env, [-1.0, -2.5], [4.0, 3.0], resolution=0.02)
        assert sdf.query(sol[:, 1:3]).min() >= 0.1 - 0.01 - 0.02  # sdf resolution slack

    def test_obstacle_free_min_clearance_is_null(self, scene_dir, tmp_path):
        root, _ = scene_dir
        out = str(tmp_path / "out")
        assert cli_main(["--config", str(root / "config.json"), "--out", out, "learn"]) == 0
        assert cli_main(["--config", str(root / "config.json"), "--out", out,
                         "reproduce", "--model", os.path.join(out, "model.json")]) == 0
        with open(os.path.join(out, "solution_000.json")) as fh:
            summary = json.load(fh)
        assert summary["min_clearance"] is None
        assert summary["feasible"] is True


def _reproduce_in_displaced_scene(scene_dir, tmp_path, reproduction, overrides=None):
    """Learn, then reproduce past one displaced disc with the given
    reproduction (and top-level config) settings; returns the exit code."""
    overrides = overrides or {}
    root, _ = scene_dir
    out = str(tmp_path / "out")
    assert cli_main(["--config", str(root / "config.json"), "--out", out, "learn"]) == 0
    write_json(str(tmp_path / "env_displaced.json"),
               {"dimension": 2,
                "obstacles": [{"type": "sphere", "center": [1.7, 0.5], "radius": 0.2}]})
    cfg = read_json(root / "config.json")
    cfg["demos"] = [str(root / d) for d in cfg["demos"]]
    cfg["environment"] = str(root / cfg["environment"])
    cfg["reproduction"]["environment"] = str(tmp_path / "env_displaced.json")
    cfg["reproduction"]["starts"] = [[0.0, 0.5, 3.0, 1.0]]
    cfg.update(overrides)
    cfg["reproduction"].update(reproduction)
    cfg_path = str(tmp_path / "cfg.json")
    write_json(cfg_path, cfg)
    return cli_main(["--config", cfg_path, "--out", out, "reproduce",
                     "--model", os.path.join(out, "model.json")])


class TestExitCodes:
    def test_off_grid_iterate_is_numerical_failure(self, scene_dir, tmp_path, capsys):
        # a loose initial state lets a tight start anchor far outside the
        # small grid pull the path off it
        code = _reproduce_in_displaced_scene(
            scene_dir, tmp_path,
            {"sdf_margin": 0.05, "starts": [[40.0, 40.0, 3.0, 1.0]]},
            {"init_state": {"mean": [0.0, 0.5, 3.0, 1.0], "cov": np.eye(4).tolist()}})
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure: node " in err
        assert "left the SDF grid" in err and "outside SDF bounds" in err

    def test_oversized_sdf_grid_is_numerical_failure(self, scene_dir, tmp_path, capsys):
        # a 5 mm grid over the scene and the prior's reach (about 10 x 9 m)
        # is about 2085 x 1741 cells, over the cap
        code = _reproduce_in_displaced_scene(scene_dir, tmp_path, {"sdf_resolution": 0.005})
        assert code == 3
        err = capsys.readouterr().err
        assert re.search(r"numerical failure: SDF grid \d{4}x\d{4} at resolution 0.005 exceeds", err)
        assert "reproduction.sdf_resolution" in err and "3-sigma position spread 3.3" in err

    def test_unfactorizable_normal_equations_are_numerical_failure(self, scene_dir, tmp_path,
                                                                   capsys):
        # the anchor's information 1/start_sigma^2 = 1e320 overflows to inf:
        # LM stops before its first step, and numpy prints no warning
        code = _reproduce_in_displaced_scene(scene_dir, tmp_path, {"start_sigma": 1e-160})
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure: normal equations not factorizable at damping" in err
        assert "NaN or infinite" in err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    def test_diverging_prior_is_numerical_failure(self, scene_dir, tmp_path, capsys):
        root, _ = scene_dir
        out = str(tmp_path / "out")
        model_path = os.path.join(out, "model.json")
        assert cli_main(["--config", str(root / "config.json"), "--out", out, "learn"]) == 0
        model = read_json(model_path)
        model["steps"][10]["Phi_tilde"] = (1e200 * np.asarray(model["steps"][10]["Phi_tilde"])
                                           ).tolist()
        write_json(model_path, model)
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli_main(["--config", str(root / "config.json"), "--out", out,
                             "rollout", "--model", model_path])
        assert code == 3
        assert "numerical failure: prior moments overflow at node 11 of 30" in (
            capsys.readouterr().err)

    def test_model_with_a_short_step_names_the_file(self, scene_dir, tmp_path, capsys):
        root, _ = scene_dir
        out = str(tmp_path / "out")
        model_path = os.path.join(out, "model.json")
        assert cli_main(["--config", str(root / "config.json"), "--out", out, "learn"]) == 0
        model = read_json(model_path)
        model["steps"][7]["Q"] = model["steps"][7]["Q"][:-1]
        write_json(model_path, model)
        capsys.readouterr()
        for command in ("rollout", "reproduce"):
            assert cli_main(["--config", str(root / "config.json"), "--out", out,
                             command, "--model", model_path]) == 2
            assert f"failed to read model {model_path}: step 7: Q must be" in (
                capsys.readouterr().err)

    def test_model_with_an_infinite_dt_names_the_file(self, scene_dir, tmp_path, capsys):
        root, _ = scene_dir
        out = str(tmp_path / "out")
        model_path = os.path.join(out, "model.json")
        assert cli_main(["--config", str(root / "config.json"), "--out", out, "learn"]) == 0
        with open(model_path) as fh:
            model = json.load(fh)
        model["dt"] = float("inf")
        write_json(model_path, model)
        capsys.readouterr()
        for command in ("rollout", "reproduce"):
            assert cli_main(["--config", str(root / "config.json"), "--out", out,
                             command, "--model", model_path]) == 2
            assert capsys.readouterr().err == (f"config error: failed to read model {model_path}: "
                                               "dt must be a positive finite number, got inf\n")
        assert not os.path.exists(os.path.join(out, "prior.csv"))

    def test_non_positive_damping_start_names_its_key(self, scene_dir, tmp_path, capsys):
        # LM would escalate it by x10 forever on a damped system that is indefinite
        assert _reproduce_in_displaced_scene(scene_dir, tmp_path, {"lm_damping_init": -1.0}) == 2
        assert "reproduction.lm_damping_init must be a positive number, got -1.0" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("stage", ["learn", "assimilate", "dtw"])  # dtw: learn, aligned
    def test_overflowing_demos_are_numerical_failure(self, scene_dir, tmp_path, capsys, stage):
        _, scene = scene_dir
        names = [f"demo_{k}.json" for k in range(len(scene.raw_demos))]
        for name, demo in zip(names, scene.raw_demos):
            save_raw_demo(str(tmp_path / name), RawDemo(demo.timestamps, 1e200 * demo.positions))
        write_json(str(tmp_path / "cfg.json"), {"demos": names, "grid_n": 20,
                                                "align": "dtw" if stage == "dtw" else "none"})
        argv = ["--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"),
                "learn" if stage == "dtw" else stage]
        if stage == "assimilate":
            argv += ["--checkpoint", str(tmp_path / "ck.npz"), "--demo", str(tmp_path / names[0])]
        assert cli_main(argv) == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: interval 0: system not finite (overflow)\n"
        assert not (tmp_path / "out" / "model.json").exists()
        assert not (tmp_path / "ck.npz").exists()

    @pytest.mark.parametrize("content, reason", [
        ("{ not json", "Expecting property name"),
        ('{"dimension": 2, "obstacles": [{"type": "cone"}]}', "unknown obstacle type: 'cone'"),
        ("[1, 2]", "the scene must be an object, got [1, 2]"),
        ('"abc"', "the scene must be an object, got 'abc'"),
        ('{"dimension": 2, "obstacles": [1]}', "obstacles[0] must be an object, got 1"),
        ('{"dimension": 2, "obstacles": [{"type": "sphere", "center": 0, "radius": 0.2}]}',
         "obstacles[0]: sphere center must be a list of D finite numbers, got 0"),
        ('{"dimension": Infinity, "obstacles": []}', "dimension must be 2 or 3, got inf"),
        ('{"dimension": 2, "obstacles": [{"type": "box", "min": [0, 0], "max": [1, 1]}, '
         '{"type": "sphere", "center": [1, 0], "radius": Infinity}]}',
         "obstacles[1]: sphere radius must be positive and finite, got inf"),
        ('{"dimension": 2, "obstacles": [{"type": "box", "min": [0, NaN], "max": [1, 1]}]}',
         "obstacles[0]: box min must be a list of D finite numbers, got [0, nan]"),
    ], ids=["not-json", "cone", "list", "string", "obstacle-not-object", "center-scalar",
            "dimension-inf", "radius-inf", "box-nan"])
    @pytest.mark.parametrize("route", ["environment", "reproduction.environment",
                                       "assimilate --env"])
    def test_unreadable_scene_names_the_file(self, scene_dir, tmp_path, capsys, content, reason,
                                             route):
        root, _ = scene_dir
        out = str(tmp_path / "out")
        assert cli_main(["--config", str(root / "config.json"), "--out", out, "learn"]) == 0
        scene = tmp_path / "scene.json"
        scene.write_text(content)
        cfg = read_json(root / "config.json")
        cfg.update(demos=[str(root / d) for d in cfg["demos"]], environment=None)
        argv = ["--config", str(tmp_path / "cfg.json"), "--out", out]
        if route == "environment":
            cfg["environment"] = str(scene)
            argv += ["learn"]
        elif route == "reproduction.environment":
            cfg["reproduction"]["environment"] = str(scene)
            argv += ["reproduce", "--model", os.path.join(out, "model.json")]
        else:
            argv += ["assimilate", "--checkpoint", str(tmp_path / "ck.npz"),
                     "--demo", str(root / "demo_000.json"), "--env", str(scene)]
        write_json(str(tmp_path / "cfg.json"), cfg)
        capsys.readouterr()
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: failed to read scene {scene}: ")
        assert reason in err

    def test_null_config_value_names_its_key(self, tmp_path, capsys):
        write_json(str(tmp_path / "cfg.json"), {"reproduction": {"max_iters": None}})
        assert cli_main(["--config", str(tmp_path / "cfg.json"), "learn"]) == 2
        assert "reproduction.max_iters must be an int, got None" in capsys.readouterr().err

    def test_missing_config(self, tmp_path, capsys):
        assert cli_main(["--config", str(tmp_path / "nope.json"), "learn"]) == 2

    def test_model_dimension_mismatch(self, scene_dir, tmp_path):
        root, _ = scene_dir
        out = str(tmp_path / "out")
        assert cli_main(["--config", str(root / "config.json"), "--out", out, "learn"]) == 0
        cfg = read_json(root / "config.json")
        cfg["demos"] = [str(root / d) for d in cfg["demos"]]
        cfg["environment"] = str(root / cfg["environment"])
        cfg["init_state"] = {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
        cfg_path = str(tmp_path / "cfg.json")
        write_json(cfg_path, cfg)
        assert cli_main(["--config", cfg_path, "--out", out, "rollout",
                         "--model", os.path.join(out, "model.json")]) == 2

    def test_demo_without_position_column(self, tmp_path, capsys):
        (tmp_path / "demo.csv").write_text(
            "t\n" + "".join(f"{t}\n" for t in np.linspace(0.0, 1.0, 8)))
        write_json(str(tmp_path / "cfg.json"), {"demos": ["demo.csv"], "align": "none"})
        assert cli_main(["--config", str(tmp_path / "cfg.json"), "--out",
                         str(tmp_path / "out"), "learn"]) == 2
        assert "failed to read demo" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out" / "model.json")

    @pytest.mark.parametrize("line", ["0.2,nan,0.1", "nan,0.1,0.1"])
    def test_non_finite_demo_names_the_file_and_row(self, tmp_path, capsys, line):
        rows = [f"{0.1 * i},{0.1 * i},0.0" for i in range(8)]
        rows[2] = line
        (tmp_path / "demo.csv").write_text("\n".join(rows) + "\n")
        write_json(str(tmp_path / "cfg.json"), {"demos": ["demo.csv", "demo.csv"]})
        assert cli_main(["--config", str(tmp_path / "cfg.json"), "--out",
                         str(tmp_path / "out"), "learn"]) == 2
        err = capsys.readouterr().err
        assert f"failed to read demo {tmp_path / 'demo.csv'}: row 2 is not finite" in err

    @pytest.mark.parametrize("index", [8, -1])
    def test_dtw_reference_out_of_range_names_the_key(self, scene_dir, tmp_path, capsys, index):
        root, _ = scene_dir
        cfg = read_json(root / "config.json")
        cfg.update(demos=[str(root / d) for d in cfg["demos"]], environment=None,
                   align="dtw", dtw_reference=index)
        write_json(str(tmp_path / "cfg.json"), cfg)
        assert cli_main(["--config", str(tmp_path / "cfg.json"), "--out",
                         str(tmp_path / "out"), "learn"]) == 2
        err = capsys.readouterr().err
        assert "config error: dtw_reference must index one of the 8 demos" in err
        assert f"got {index}" in err

    def test_unknown_config_key(self, tmp_path):
        write_json(str(tmp_path / "bad.json"), {"grid": 10})
        assert cli_main(["--config", str(tmp_path / "bad.json"), "learn"]) == 2

    def test_missing_demo_file(self, tmp_path, capsys):
        write_json(str(tmp_path / "cfg.json"), {"demos": ["missing.json"]})
        assert cli_main(["--config", str(tmp_path / "cfg.json"), "learn"]) == 2
        assert f"failed to read demo {tmp_path / 'missing.json'}: " in capsys.readouterr().err

    def test_reproduce_ignores_missing_learning_scene(self, scene_dir, tmp_path):
        # only `reproduction.environment` is read by reproduce
        root, _ = scene_dir
        out = str(tmp_path / "out")
        assert cli_main(["--config", str(root / "config.json"), "--out", out, "learn"]) == 0
        cfg = read_json(root / "config.json")
        cfg.update(demos=[str(root / d) for d in cfg["demos"]],
                   environment=str(tmp_path / "missing.json"))
        write_json(str(tmp_path / "cfg.json"), cfg)
        assert cli_main(["--config", str(tmp_path / "cfg.json"), "--out", out, "reproduce",
                         "--model", os.path.join(out, "model.json")]) == 0

    def test_non_convergence_exit_keeps_summary(self, scene_dir, tmp_path):
        root, _ = scene_dir
        out = str(tmp_path / "out")
        assert cli_main(["--config", str(root / "config.json"), "--out", out, "learn"]) == 0
        cfg = read_json(root / "config.json")
        cfg["demos"] = [str(root / d) for d in cfg["demos"]]
        cfg["environment"] = str(root / cfg["environment"])
        cfg["reproduction"]["starts"] = [[0.0, 0.5, 3.0, 1.0]]
        cfg["reproduction"]["max_iters"] = 1
        cfg["reproduction"]["lm_damping_init"] = 1e8  # tiny first step cannot converge
        cfg_path = str(tmp_path / "cfg.json")
        write_json(cfg_path, cfg)
        code = cli_main(["--config", cfg_path, "--out", out, "reproduce",
                         "--model", os.path.join(out, "model.json")])
        assert code == 4
        with open(os.path.join(out, "solution_000.json")) as fh:
            assert json.load(fh)["converged"] is False

    def test_numerical_failure_exit(self, scene_dir, tmp_path):
        root, _ = scene_dir
        cfg = read_json(root / "config.json")
        cfg["demos"] = [str(root / d) for d in cfg["demos"][:2]]  # K=2 < D+1
        cfg["environment"] = str(root / cfg["environment"])
        cfg["ridge_lambda"] = 0.0
        cfg_path = str(tmp_path / "cfg.json")
        write_json(cfg_path, cfg)
        assert cli_main(["--config", cfg_path, "--out", str(tmp_path / "out"),
                         "learn"]) == 3


def test_import_freezes_the_loaded_modules():
    """Full collections in a process that calls `main` repeatedly skip numpy,
    scipy and the iwskill modules, which live as long as the process."""
    assert gc.get_freeze_count() > 10_000
