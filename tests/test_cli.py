import gc
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from iwskill.batch import DegenerateWeightsWarning, load_model
from iwskill import cli
from iwskill.cli import main as cli_main
from iwskill.demos import (DemoSet, RawDemo, dtw_align, estimate_states, load_raw_demo,
                           save_raw_demo)
from iwskill.environment import (WeightParams, environment_to_dict, load_environment,
                                 nearest_obstacle, weight_trajectory)
from iwskill.prior import GaussianTrajectoryPrior, initial_state_distribution, prior_band_csv
from iwskill.synthetic import make_placing_scene, make_reaching_scene
from iwskill.utils import read_json, write_json
from test_batch import model_to_dict
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
        "alpha": 1e10,
        "beta": 1e10,
        "seed": 0,
        "out_dir": "out",
        "reproduction": {
            "starts": [[0.0, 0.5, 3.0, 1.0], [0.0, -0.5, 3.0, 2.0]],
            "start_sigma": 1e-3,
            "eps_repro": 0.1,
            "sigma_repro": 0.05,
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

    @pytest.mark.parametrize("obstacle", ["disc", "box"])
    def test_weights_csv_equals_one_weight_call_per_demo(self, obstacle, tmp_path):
        # `learn` weighs the nodes of all demos in one call
        if obstacle == "disc":
            scene = make_reaching_scene(n_raw=40)
            raw, env = scene.raw_demos, scene.env
        else:
            scene = make_placing_scene(n_raw=40)
            raw, env = scene.influenced_raw + scene.clean_raw, scene.cluttered_env
        for k, demo in enumerate(raw):
            save_raw_demo(str(tmp_path / f"demo_{k}.json"), demo)
        write_json(str(tmp_path / "env.json"), environment_to_dict(env))
        write_json(str(tmp_path / "cfg.json"), {
            "demos": [f"demo_{k}.json" for k in range(len(raw))], "environment": "env.json",
            "grid_n": 60, "align": "none", "weights": {"epsilon": 0.3, "sigma_obs": 0.05}})
        out = tmp_path / "out"
        assert cli_main(["--config", str(tmp_path / "cfg.json"), "--out", str(out), "learn"]) == 0
        params = WeightParams(epsilon=0.3, sigma_obs=0.05)
        alone = [weight_trajectory(estimate_states(d, 60).positions, env, params) for d in raw]
        assert min(w.min() for w in alone) < 0.5  # the scene's obstacle weighs some nodes down
        expected = "demo,node,weight\n" + "".join(
            f"{k},{i},{float(v)!r}\n" for k, w in enumerate(alone) for i, v in enumerate(w))
        assert (out / "weights.csv").read_text() == expected

    def test_model_round_trip_identical(self, scene_dir, tmp_path):
        root, _ = scene_dir
        out = str(tmp_path / "out")
        assert cli_main(["--config", str(root / "config.json"), "--out", out, "learn"]) == 0
        path = os.path.join(out, "model.json")
        model = load_model(path)
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


    def test_dtw_aligned_demos_fit_as_one_equal_each_fit_alone(self, scene_dir, tmp_path):
        # `ingest` fits the aligned demos' shared timestamps once, over all columns
        root, _ = scene_dir
        cfg = read_json(root / "config.json")
        cfg.update(demos=[str(root / d) for d in cfg["demos"]], align="dtw")
        write_json(str(tmp_path / "cfg.json"), cfg)
        out = str(tmp_path / "out")
        assert cli_main(["--config", str(tmp_path / "cfg.json"), "--out", out, "ingest"]) == 0
        aligned = dtw_align([load_raw_demo(p) for p in cfg["demos"]])
        for k, demo in enumerate(aligned):
            alone = estimate_states(demo, cfg["grid_n"])
            written = read_json(os.path.join(out, f"trajectory_{k:03d}.json"))
            assert written == {"dt": alone.dt, "states": alone.states.tolist()}

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
                    "alpha": 1e10, "beta": 1e10, "out_dir": "out"})
        out_inc = str(tmp_path / "inc")
        checkpoint = os.path.join(out_inc, "ck.npz")
        for name in demo_names:
            code = cli_main(["--config", str(tmp_path / "config.json"), "--out", out_inc,
                             "assimilate", "--checkpoint", checkpoint,
                             "--demo", str(tmp_path / name)])
            assert code == 0
        out_batch = str(tmp_path / "batch")
        # learn's near-zero ridge, like the learner's 1/alpha, is negligible here
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

    @pytest.mark.parametrize("key, index, value, code, reason", [
        ("M", (0, 0, 0), 1e200, 3, "numerical failure: interval 0: MNIW scale V not finite "
                                   "(overflow)"),
        ("starts", (0, 0), 1e200, 3, "numerical failure: start-state moments overflow"),
        ("V", (0, 0, 0), -1e308, 2, "config error: failed to read checkpoint {}: V must be "
                                    "symmetric positive definite in every interval"),
    ], ids=["M-drift-overflow", "starts-overflow", "V-indefinite"])
    def test_checkpoint_entry_that_breaks_the_learner(self, scene_dir, tmp_path, capsys, key,
                                                      index, value, code, reason):
        # each once ended in RuntimeWarnings, a multi-line message, or an
        # indefinite Q in a model written with exit 0
        root, _ = scene_dir
        out = str(tmp_path / "out")
        checkpoint = os.path.join(out, "ck.npz")
        base = ["--config", str(root / "config.json"), "--out", out, "assimilate",
                "--checkpoint", checkpoint]
        for k in range(3):
            assert cli_main(base + ["--demo", str(root / f"demo_{k:03d}.json")]) == 0
        with np.load(checkpoint) as npz:
            array = npz[key].copy()
        array[index] = value
        rewrite_checkpoint(checkpoint, **{key: array})
        before = read_all_outputs(out)
        capsys.readouterr()
        assert cli_main(base + ["--demo", str(root / "demo_003.json")]) == code
        assert capsys.readouterr().err == reason.format(checkpoint) + "\n"
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
        demo = str(root / "demo_001.json")
        code = cli_main(["--config", other, "--out", out, "assimilate",
                         "--checkpoint", checkpoint, "--demo", demo])
        assert code == 2
        assert capsys.readouterr().err == (f"config error: checkpoint {checkpoint} does not take "
                                           f"demo {demo}: grid (N, D) = (17, 4), not (30, 4)\n")
        assert read_all_outputs(out) == before
        # the grid of the checkpoint, at twice its dt
        slow = load_raw_demo(demo)
        demo = str(tmp_path / "slow.json")
        save_raw_demo(demo, RawDemo(2.0 * slow.timestamps, slow.positions))
        code = cli_main(["--config", str(root / "config.json"), "--out", out, "assimilate",
                         "--checkpoint", checkpoint, "--demo", demo])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"config error: checkpoint {checkpoint} does not take demo {demo}: dt = ")
        assert read_all_outputs(out) == before

    @pytest.mark.parametrize("alpha, beta", [(1e10, 1e10), (1.0, 1.0), (1e10, 1.0)])
    def test_alpha_beta_off_the_checkpoint_are_refused(self, scene_dir, tmp_path, capsys,
                                                        alpha, beta):
        # the checkpoint keeps the pair it was created with (1e10, 1e10)
        root, _ = scene_dir
        out = str(tmp_path / "out")
        checkpoint = os.path.join(out, "ck.npz")
        assert cli_main(["--config", str(root / "config.json"), "--out", out,
                         "assimilate", "--checkpoint", checkpoint,
                         "--demo", str(root / "demo_000.json")]) == 0
        cfg = read_json(root / "config.json")
        cfg["demos"] = [str(root / d) for d in cfg["demos"]]
        cfg["environment"] = str(root / cfg["environment"])
        cfg["alpha"], cfg["beta"] = alpha, beta
        other = str(tmp_path / "config_alpha_beta.json")
        write_json(other, cfg)
        before = read_all_outputs(out)
        capsys.readouterr()
        code = cli_main(["--config", other, "--out", out, "assimilate",
                         "--checkpoint", checkpoint, "--demo", str(root / "demo_001.json")])
        if (alpha, beta) == (1e10, 1e10):
            assert code == 0
            return
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: checkpoint {checkpoint} holds (alpha, beta) = "
            f"(10000000000.0, 10000000000.0), the config ({alpha!r}, {beta!r})\n")
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
        assert capsys.readouterr() == ("", f"config error: {message}\n")
        # refused before the first solve: not even a good start 0 is written
        assert not list(tmp_path.glob("**/solution_*"))

    @pytest.mark.parametrize("keys, message", [
        ({"init_cov": None}, "missing key 'init_cov': the model was written without its start "
                             "moments; re-run learn or assimilate"),
        ({"init_cov": [[0.01, 0.0]]}, "init_cov must be a positive semi-definite matrix"),
        ({"init_cov": [[-1.0]]}, "init_cov must be a positive semi-definite matrix"),
        ({"init_mean": [float("nan")]}, "init_mean must be finite, got nan at index [0]"),
    ], ids=["missing", "mis-shaped", "indefinite", "non-finite"])
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
        # verify the clearance claim against the exact distances
        sol = np.loadtxt(os.path.join(out, "solution_000.csv"), delimiter=",", skiprows=1)
        env = load_environment(str(tmp_path / "env_displaced.json"))
        assert nearest_obstacle(env, sol[:, 1:3])[0].min() >= 0.1 - 0.01

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


    def _solution_clearance(self, out, env_path, dim):
        """The solution summary, and the exact minimum clearance of the
        solution path's positions in the scene at `env_path`."""
        summary = read_json(os.path.join(out, "solution_000.json"))
        sol = np.loadtxt(os.path.join(out, "solution_000.csv"), delimiter=",", skiprows=1)
        return summary, nearest_obstacle(load_environment(env_path), sol[:, 1:dim + 1])[0].min()

    def test_unweighted_placing_prior_reproduces_past_the_box(self, tmp_path):
        # LM drives this prior's path under the box, far below the scene
        scene = make_placing_scene()
        names = []
        for k, demo in enumerate(scene.influenced_raw + scene.clean_raw):
            save_raw_demo(str(tmp_path / f"demo_{k}.json"), demo)
            names.append(f"demo_{k}.json")
        write_json(str(tmp_path / "env.json"), environment_to_dict(scene.cluttered_env))
        write_json(str(tmp_path / "cfg.json"), {
            "demos": names, "environment": "env.json", "grid_n": 60, "align": "none",
            "reproduction": {"environment": "env.json", "starts": [[0.0, 0.6, 0.0, 0.0]]}})
        base = ["--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]
        assert cli_main(base + ["--no-weighting", "learn"]) == 0
        assert cli_main(base + ["reproduce", "--model", str(tmp_path / "out" / "model.json")]) == 0
        summary, clearance = self._solution_clearance(str(tmp_path / "out"),
                                                      str(tmp_path / "env.json"), 2)
        assert summary["converged"]
        assert summary["min_clearance"] == pytest.approx(clearance, abs=1e-9)
        assert summary["feasible"] == (clearance >= 0.1 - 0.01)

    def test_three_d_workspace_reproduces_past_a_sphere(self, tmp_path):
        # a 3 x 3 x 2 m scene (2.3 M cells on a 0.02 m grid): a floor, a
        # corner post, and a sphere that the prior's mean path cuts through
        rng = np.random.default_rng(0)
        s = np.linspace(0.0, 1.0, 40)
        names = []
        for k in range(10):
            a = np.array([0.3, 0.3, 0.3]) + rng.uniform(-0.1, 0.1, 3)
            b = np.array([2.6, 2.6, 1.5]) + rng.uniform(-0.1, 0.1, 3)
            pace = s + rng.uniform(-0.05, 0.05) * np.sin(np.pi * s)
            bow = rng.uniform(-0.4, 0.4, 3) * np.sin(np.pi * s)[:, None]
            save_raw_demo(str(tmp_path / f"demo_{k}.json"),
                          RawDemo(s.copy(), a + pace[:, None] * (b - a) + bow))
            names.append(f"demo_{k}.json")
        write_json(str(tmp_path / "scene.json"), {"dimension": 3, "obstacles": [
            {"type": "box", "min": [0.0, 0.0, -0.1], "max": [3.0, 3.0, 0.0]},
            {"type": "box", "min": [2.9, 2.9, 0.0], "max": [3.0, 3.0, 1.9]},
            {"type": "sphere", "center": [1.5, 1.5, 0.8], "radius": 0.3}]})
        write_json(str(tmp_path / "cfg.json"), {
            "demos": names, "grid_n": 30, "align": "none",
            "reproduction": {"environment": "scene.json"}})
        out, model = str(tmp_path / "out"), str(tmp_path / "out" / "model.json")
        base = ["--config", str(tmp_path / "cfg.json"), "--out", out]
        assert cli_main(base + ["learn"]) == 0
        assert cli_main(base + ["reproduce", "--model", model]) == 0
        env_path = str(tmp_path / "scene.json")
        prior = GaussianTrajectoryPrior(load_model(model))
        assert nearest_obstacle(load_environment(env_path), prior.means[:, :3])[0].min() < 0
        summary, clearance = self._solution_clearance(out, env_path, 3)
        assert summary["converged"] and summary["feasible"]
        assert summary["min_clearance"] == pytest.approx(clearance, abs=1e-9)
        assert clearance >= 0.1 - 0.01


def _reproduce_in_displaced_scene(scene_dir, tmp_path, reproduction, init_cov=None):
    """Learn, then reproduce past one displaced disc with the given
    reproduction settings (and `init_cov` in place of the learned model's);
    returns the exit code."""
    root, _ = scene_dir
    out = str(tmp_path / "out")
    assert cli_main(["--config", str(root / "config.json"), "--out", out, "learn"]) == 0
    if init_cov is not None:
        model = read_json(os.path.join(out, "model.json"))
        model["init_cov"] = init_cov
        write_json(os.path.join(out, "model.json"), model)
    write_json(str(tmp_path / "env_displaced.json"),
               {"dimension": 2,
                "obstacles": [{"type": "sphere", "center": [1.7, 0.5], "radius": 0.2}]})
    cfg = read_json(root / "config.json")
    cfg["demos"] = [str(root / d) for d in cfg["demos"]]
    cfg["environment"] = str(root / cfg["environment"])
    cfg["reproduction"]["environment"] = str(tmp_path / "env_displaced.json")
    cfg["reproduction"]["starts"] = [[0.0, 0.5, 3.0, 1.0]]
    cfg["reproduction"].update(reproduction)
    cfg_path = str(tmp_path / "cfg.json")
    write_json(cfg_path, cfg)
    return cli_main(["--config", cfg_path, "--out", out, "reproduce",
                     "--model", os.path.join(out, "model.json")])


class TestExitCodes:
    def test_learn_without_demos_is_a_config_error(self, tmp_path, capsys):
        write_json(str(tmp_path / "cfg.json"), {"demos": [], "out_dir": "out"})
        assert cli_main(["--config", str(tmp_path / "cfg.json"), "learn"]) == 2
        assert capsys.readouterr().err == "config error: no demo files configured\n"
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_far_iterate_reproduces(self, scene_dir, tmp_path):
        # a loose start covariance lets a tight start anchor far from the disc
        # pull the path tens of metres away: the obstacle distances are exact
        # wherever the path goes, so it reproduces
        far = _reproduce_in_displaced_scene(
            scene_dir, tmp_path, {"starts": [[40.0, 40.0, 3.0, 1.0]]}, np.eye(4).tolist())
        assert far == 0
        summary = read_json(tmp_path / "out" / "solution_000.json")
        sol = np.loadtxt(tmp_path / "out" / "solution_000.csv", delimiter=",", skiprows=1)
        env = load_environment(str(tmp_path / "env_displaced.json"))
        assert summary["feasible"] and sol[0, 1:3] == pytest.approx([40.0, 40.0], abs=1e-3)
        assert summary["min_clearance"] == pytest.approx(nearest_obstacle(env, sol[:, 1:3])[0].min())

    def test_fine_scene_reproduces_without_grid_keys(self, scene_dir, tmp_path, capsys):
        # the scene plus the prior's reach spans about 10 x 9 m, which no
        # longer sizes anything; a grid setting is no longer a key
        for key, value in (("sdf_resolution", 0.005), ("sdf_margin", 0.05)):
            assert _reproduce_in_displaced_scene(scene_dir, tmp_path, {key: value}) == 2
            assert f"unknown reproduction keys ['{key}']" in capsys.readouterr().err
        assert _reproduce_in_displaced_scene(scene_dir, tmp_path, {}) == 0

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

    def test_non_positive_max_iters_names_its_key(self, scene_dir, tmp_path, capsys):
        # LM would stop before its first step and report the start as not converged
        assert _reproduce_in_displaced_scene(scene_dir, tmp_path, {"max_iters": 0}) == 2
        assert capsys.readouterr().err == (f"config error: {tmp_path / 'cfg.json'}: reproduction."
                                           "max_iters must be a positive int, got 0\n")

    def test_underflowing_weights_name_the_demo_node_and_keys(self, scene_dir, tmp_path,
                                                              capsys):
        # at sigma_obs 1 mm, exp(-c^2 / (2 sigma_obs^2)) is 0 from 3.9 cm inside the band
        root, _ = scene_dir
        cfg = read_json(root / "config.json")
        cfg["demos"] = [str(root / d) for d in cfg["demos"]]
        cfg["environment"] = str(root / cfg["environment"])
        cfg["weights"] = {"epsilon": 0.3, "sigma_obs": 0.001}
        cfg_path = str(tmp_path / "cfg.json")
        write_json(cfg_path, cfg)
        out = str(tmp_path / "out")
        base = ["--config", cfg_path, "--out", out]
        assert cli_main(base + ["weights"]) == 0  # the report shows the zeros
        rows = np.loadtxt(os.path.join(out, "weights.csv"), delimiter=",", skiprows=1)
        first = rows[rows[:, 2] == 0.0][0]
        assert first[:2].tolist() == [0, 12]
        capsys.readouterr()
        demo = cfg["demos"][0]
        for argv in (["learn"], ["assimilate", "--checkpoint", str(tmp_path / "ck.npz"),
                                 "--demo", demo]):
            assert cli_main(base + argv) == 2
            assert capsys.readouterr().err == (
                f"config error: demo {demo}: the importance weight of node 12 underflows "
                "to 0; raise weights.sigma_obs or lower weights.epsilon\n")
        assert sorted(os.listdir(out)) == ["weights.csv"]
        assert not os.path.exists(tmp_path / "ck.npz")

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
         "obstacles[0]: sphere center must be a number array of shape (n,) with n >= 1, "
         "got 0"),
        ('{"dimension": Infinity, "obstacles": []}', "dimension must be an int, got inf"),
        ('{"dimension": 4.0, "obstacles": []}', "dimension must be 2 or 3, got 4"),
        ('{"dimension": 2, "obstacles": [{"type": "box", "min": [0, 0], "max": [1, 1]}, '
         '{"type": "sphere", "center": [1, 0], "radius": Infinity}]}',
         "obstacles[1]: sphere radius must be a positive finite number, got inf"),
        ('{"dimension": 2, "obstacles": [{"type": "box", "min": [0, NaN], "max": [1, 1]}]}',
         "obstacles[0]: box min must be finite, got nan at index [1]"),
        ('{"dimension": 2, "obstacles": [{"type": "sphere", "center": ["1.5", "0.9"], '
         '"radius": 0.2}]}', "obstacles[0]: sphere center must be a number array of shape (n,) "
                             "with n >= 1, got ['1.5', '0.9']"),
        ('{"dimension": 2, "obstacles": [{"type": "sphere", "center": [1.5, 0.9], '
         '"radius": 1e308}]}', "obstacles[0] is wider than the float range"),
    ], ids=["not-json", "cone", "list", "string", "obstacle-not-object", "center-scalar",
            "dimension-inf", "dimension-4", "radius-inf", "box-nan", "center-strings", "radius-huge"])
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

    def test_model_dimension_mismatch(self, scene_dir, tmp_path, capsys):
        assert _reproduce_in_displaced_scene(scene_dir, tmp_path, {"starts": [[0.0, 0.0]]}) == 2
        assert capsys.readouterr().err.endswith(
            "config error: reproduction.starts[0] must have dimension 4\n")

    @pytest.mark.parametrize("columns, scene_dim", [(1, 2), (2, 3)],
                             ids=["1-D-demos-2-D-scene", "2-D-demos-3-D-scene"])
    def test_scene_off_the_position_dimension_is_refused(self, scene_dir, tmp_path, capsys,
                                                          columns, scene_dim):
        # every learning stage, with the scene of the config or of --env, and
        # reproduce with a model learned from the same demos: one line, exit
        # 2, nothing written
        _, scene = scene_dir
        demos = []
        for k, demo in enumerate(scene.raw_demos[:4]):
            demos.append(str(tmp_path / f"demo_{k}.json"))
            save_raw_demo(demos[-1], RawDemo(demo.timestamps, demo.positions[:, :columns]))
        env = str(tmp_path / "env.json")
        write_json(env, {"dimension": scene_dim, "obstacles": [
            {"type": "sphere", "center": [0.5] * scene_dim, "radius": 0.2}]})
        base = {"demos": demos, "grid_n": 20, "align": "none", "out_dir": "out"}
        write_json(str(tmp_path / "learn.json"), dict(base, environment=env))
        write_json(str(tmp_path / "bare.json"), base)
        write_json(str(tmp_path / "repro.json"),
                   dict(base, reproduction={"environment": env, "starts": [[0.0] * 2 * columns]}))
        ck = str(tmp_path / "ck.npz")
        learning = (("learn.json", ["weights"]), ("learn.json", ["learn"]),
                    ("learn.json", ["assimilate", "--checkpoint", ck, "--demo", demos[0]]),
                    ("bare.json", ["assimilate", "--checkpoint", ck, "--demo", demos[0],
                                   "--env", env]))
        for config, argv in learning:
            assert cli_main(["--config", str(tmp_path / config)] + argv) == 2
            assert capsys.readouterr() == ("", f"config error: scene {env} has dimension "
                                               f"{scene_dim}, not the demos' position dimension "
                                               f"D/2 = {columns}\n")
        assert not (tmp_path / "out").exists() and not os.path.exists(ck)
        model = str(tmp_path / "model" / "model.json")
        assert cli_main(["--config", str(tmp_path / "bare.json"), "--out",
                         str(tmp_path / "model"), "learn"]) == 0
        capsys.readouterr()
        assert cli_main(["--config", str(tmp_path / "repro.json"), "reproduce",
                         "--model", model]) == 2
        assert capsys.readouterr() == ("", f"config error: reproduction.environment has "
                                           f"dimension {scene_dim}, not the model's position "
                                           f"dimension D/2 = {columns}\n")
        assert not (tmp_path / "out").exists()

    def test_overflowing_clearance_is_null(self, scene_dir, tmp_path, capsys):
        # the only obstacle is centred at 1e308: every distance overflows to
        # inf, which reads as no obstacle, not as an infinite clearance; one
        # at 1e12 m is in reach, however far, and reports its clearance
        assert _reproduce_in_displaced_scene(scene_dir, tmp_path, {}) == 0
        for x in (1e308, 1e12):
            write_json(str(tmp_path / "env_displaced.json"), {"dimension": 2, "obstacles": [
                {"type": "sphere", "center": [x, 0.0], "radius": 0.2}]})
            capsys.readouterr()
            assert cli_main(["--config", str(tmp_path / "cfg.json"), "--out",
                             str(tmp_path / "far"), "reproduce",
                             "--model", str(tmp_path / "out" / "model.json")]) == 0
            sol = np.loadtxt(tmp_path / "far" / "solution_000.csv", delimiter=",", skiprows=1)
            clearance = nearest_obstacle(load_environment(str(tmp_path / "env_displaced.json")),
                                         sol[:, 1:3])[0].min()
            assert (clearance == np.inf) == (x == 1e308)
            shown = "n/a" if x == 1e308 else f"{clearance:.4f}"
            out = capsys.readouterr().out
            assert out.count("\n") == 1 and out.endswith(f"feasible=True, min clearance {shown}\n")
            assert read_json(tmp_path / "far" / "solution_000.json")["min_clearance"] == (
                None if x == 1e308 else clearance)

    def test_demo_without_position_column(self, tmp_path, capsys):
        (tmp_path / "demo.csv").write_text(
            "t\n" + "".join(f"{t}\n" for t in np.linspace(0.0, 1.0, 8)))
        write_json(str(tmp_path / "cfg.json"), {"demos": ["demo.csv"], "align": "none"})
        assert cli_main(["--config", str(tmp_path / "cfg.json"), "--out",
                         str(tmp_path / "out"), "learn"]) == 2
        assert "failed to read demo" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out" / "model.json")

    @pytest.mark.parametrize("text", ["t,x,y\n", "\n\n"], ids=["header", "blank"])
    def test_demo_without_samples_names_the_file(self, tmp_path, capsys, text):
        (tmp_path / "demo.csv").write_text(text)
        write_json(str(tmp_path / "cfg.json"), {"demos": ["demo.csv"], "align": "none"})
        assert cli_main(["--config", str(tmp_path / "cfg.json"), "--out",
                         str(tmp_path / "out"), "learn"]) == 2
        assert capsys.readouterr().err == (
            f"config error: failed to read demo {tmp_path / 'demo.csv'}: no samples\n")

    @pytest.mark.parametrize("line", ["0.2,nan,0.1", "nan,0.1,0.1"])
    def test_non_finite_demo_names_the_file_and_row(self, tmp_path, capsys, line):
        rows = [f"{0.1 * i},{0.1 * i},0.0" for i in range(8)]
        rows[2] = line
        (tmp_path / "demo.csv").write_text("\n".join(rows) + "\n")
        write_json(str(tmp_path / "cfg.json"), {"demos": ["demo.csv", "demo.csv"]})
        assert cli_main(["--config", str(tmp_path / "cfg.json"), "--out",
                         str(tmp_path / "out"), "learn"]) == 2
        err = capsys.readouterr().err
        reason = {"0.2,nan,0.1": "positions must be finite, got nan at index [2, 0]",
                  "nan,0.1,0.1": "timestamps must be finite, got nan at index [2]"}[line]
        assert f"failed to read demo {tmp_path / 'demo.csv'}: {reason}\n" in err

    def test_unknown_config_key(self, tmp_path):
        write_json(str(tmp_path / "bad.json"), {"grid": 10})
        assert cli_main(["--config", str(tmp_path / "bad.json"), "learn"]) == 2

    @pytest.mark.parametrize("key, value, stage", [
        ("init_state", {"mean": [0.0, 0.5, 3.0, 1.0], "cov": np.eye(4).tolist()}, "rollout"),
        ("ridge_lambda", 1e-10, "learn"), ("dtw_reference", 0, "learn")],
        ids=["init_state", "ridge_lambda", "dtw_reference"])
    def test_deleted_key_is_unknown(self, scene_dir, tmp_path, capsys, key, value, stage):
        # the prior starts from the model, learn fits with the scale-aware
        # ridge, and DTW aligns to the longest demo: no key selects otherwise
        root, _ = scene_dir
        cfg = read_json(root / "config.json")
        cfg.update(demos=[str(root / d) for d in cfg["demos"]], environment=None, align="dtw")
        cfg[key] = value
        write_json(str(tmp_path / "cfg.json"), cfg)
        argv = ["--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"), stage]
        assert cli_main(argv + ["--model", str(tmp_path / "model.json")] * (stage != "learn")) == 2
        assert capsys.readouterr().err == (f"config error: {tmp_path / 'cfg.json'}: "
                                           f"unknown config keys ['{key}']\n")
        assert not (tmp_path / "out").exists()

    def test_missing_demo_file(self, tmp_path, capsys):
        write_json(str(tmp_path / "cfg.json"), {"demos": ["missing.json"]})
        assert cli_main(["--config", str(tmp_path / "cfg.json"), "learn"]) == 2
        assert f"failed to read demo {tmp_path / 'missing.json'}: " in capsys.readouterr().err

    @pytest.mark.parametrize("what, key", [("demo", "positions"), ("model", "steps"),
                                           ("checkpoint", "nu")])
    def test_file_without_a_key_names_the_key(self, scene_dir, tmp_path, capsys, what, key):
        # every file the CLI reads reports a key it lacks in the same words
        root, _ = scene_dir
        cfg = str(tmp_path / "cfg.json")
        write_json(cfg, {"demos": [str(tmp_path / "demo.json")], "align": "none"})
        path = str(tmp_path / f"{what}.{'npz' if what == 'checkpoint' else 'json'}")
        if what == "demo":
            write_json(path, {"timestamps": [0.0, 0.1, 0.2, 0.3]})
            argv = ["learn"]
        elif what == "model":
            write_scalar_model(path, steps=None)
            argv = ["rollout", "--model", path]
        else:
            cfg = str(root / "config.json")
            argv = ["assimilate", "--checkpoint", path, "--demo", str(root / "demo_000.json")]
            assert cli_main(["--config", cfg, "--out", str(tmp_path / "first")] + argv) == 0
            rewrite_checkpoint(path, nu=None)
        capsys.readouterr()
        assert cli_main(["--config", cfg, "--out", str(tmp_path / "out")] + argv) == 2
        assert capsys.readouterr() == ("", f"config error: failed to read {what} {path}: "
                                           f"missing key '{key}'\n")

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
        cfg["reproduction"]["max_iters"] = 1  # one step does not reach the minimum
        cfg_path = str(tmp_path / "cfg.json")
        write_json(cfg_path, cfg)
        code = cli_main(["--config", cfg_path, "--out", out, "reproduce",
                         "--model", os.path.join(out, "model.json")])
        assert code == 4
        with open(os.path.join(out, "solution_000.json")) as fh:
            assert json.load(fh)["converged"] is False

    @pytest.mark.parametrize("stage, path, value, message", [
        ("reproduce", ("reproduction", "starts", 0, 0), float("nan"),
         "reproduction.starts[0] must be finite, got nan at index [0]"),
        ("reproduce", ("reproduction", "anchors", 0, "state", 1), float("nan"),
         "reproduction.anchors[0].state must be finite, got nan at index [1]"),
        ("reproduce", ("reproduction", "eps_repro"), float("nan"),
         "reproduction.eps_repro must be finite, got nan"),
        ("learn", ("weights", "epsilon"), float("nan"), "weights.epsilon must be finite, got nan"),
        ("assimilate", ("alpha",), float("inf"), "alpha must be finite, got inf"),
        ("learn", ("grid_n",), "12", "grid_n must be an int, got '12'"),
        ("learn", ("grid_n",), 12.5, "grid_n must be an int, got 12.5"),
        ("assimilate", ("alpha",), "1e3", "alpha must be a number, got '1e3'"),
        ("reproduce", ("reproduction", "max_iters"), True,
         "reproduction.max_iters must be an int, got True"),
        ("learn", ("weights", "sigma_obs"), 1e-320,
         "weights.sigma_obs must be a positive number whose square is positive and finite, "
         "got 1e-320"),
        ("rollout", ("seed",), -5, "seed must be >= 0, got -5"),
        ("rollout", ("rollout_samples",), -3, "rollout_samples must be >= 0, got -3"),
        ("assimilate", ("alpha",), -1, "alpha must be positive with a finite reciprocal, got -1.0"),
    ], ids=["starts-nan", "anchor-state-nan", "eps_repro-nan", "epsilon-nan",
            "alpha-inf", "grid_n-string", "grid_n-fraction",
            "alpha-string", "max_iters-bool", "sigma_obs-underflow",
            "seed-negative", "rollout_samples-negative", "alpha-negative"])
    def test_non_number_config_value_names_the_file_and_key(self, scene_dir, tmp_path, capsys,
                                                             stage, path, value, message):
        root, _ = scene_dir
        out = str(tmp_path / "out")
        assert cli_main(["--config", str(root / "config.json"), "--out", out, "learn"]) == 0
        cfg = read_json(root / "config.json")
        cfg.update(demos=[str(root / d) for d in cfg["demos"]],
                   environment=str(root / cfg["environment"]))
        cfg["reproduction"]["anchors"] = [{"index": 30, "state": [3.0, 1.5, 0.0, 0.0]}]
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        cfg_path = str(tmp_path / "cfg.json")
        write_json(cfg_path, cfg)
        argv = ["--config", cfg_path, "--out", out, stage]
        if stage == "assimilate":
            argv += ["--checkpoint", str(tmp_path / "ck.npz"), "--demo", cfg["demos"][0]]
        elif stage in ("rollout", "reproduce"):
            argv += ["--model", os.path.join(out, "model.json")]
        capsys.readouterr()
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == f"config error: {cfg_path}: {message}\n"

    def test_negative_seed_flag_is_refused(self, scene_dir, tmp_path, capsys):
        # --seed overrides the config after the config reader checked it
        root, _ = scene_dir
        out = str(tmp_path / "out")
        assert cli_main(["--config", str(root / "config.json"), "--out", out, "learn"]) == 0
        capsys.readouterr()
        assert cli_main(["--config", str(root / "config.json"), "--out", out, "--seed", "-5",
                         "rollout", "--model", os.path.join(out, "model.json")]) == 2
        assert capsys.readouterr() == ("", "config error: --seed must be >= 0, got -5\n")
        assert not os.path.exists(os.path.join(out, "prior.csv"))

    def test_model_with_a_string_entry_names_the_file(self, scene_dir, tmp_path, capsys):
        root, _ = scene_dir
        out = str(tmp_path / "out")
        model_path = os.path.join(out, "model.json")
        assert cli_main(["--config", str(root / "config.json"), "--out", out, "learn"]) == 0
        model = read_json(model_path)
        model["steps"][2]["Q"][1][1] = str(model["steps"][2]["Q"][1][1])
        write_json(model_path, model)
        capsys.readouterr()
        for command in ("rollout", "reproduce"):
            assert cli_main(["--config", str(root / "config.json"), "--out", out,
                             command, "--model", model_path]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: failed to read model {model_path}: step 2: "
                                  f"Q must be a number array of shape (4, 4), got [[")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("key", ["Phi_tilde", "Q"])
    @pytest.mark.parametrize("command", ["rollout", "reproduce"])
    def test_overflowing_model_entry_is_one_line(self, scene_dir, tmp_path, capsys, key,
                                                  command):
        # RuntimeWarning is an error here: the moment loop must not warn
        root, _ = scene_dir
        out = str(tmp_path / "out")
        model_path = os.path.join(out, "model.json")
        assert cli_main(["--config", str(root / "config.json"), "--out", out, "learn"]) == 0
        model = read_json(model_path)
        model["steps"][3][key][0][0] = 1e308
        write_json(model_path, model)
        capsys.readouterr()
        assert cli_main(["--config", str(root / "config.json"), "--out", out,
                         command, "--model", model_path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: prior moments overflow at node ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("align", ["none", "dtw"])
    @pytest.mark.parametrize("stage", ["ingest", "learn", "assimilate"])
    def test_overflowing_demo_names_its_file(self, scene_dir, tmp_path, capsys, align, stage):
        root, scene = scene_dir
        bad = str(tmp_path / "demo_bad.json")
        positions = scene.raw_demos[1].positions.copy()
        positions[5] = 1e308
        save_raw_demo(bad, RawDemo(scene.raw_demos[1].timestamps, positions))
        cfg = read_json(root / "config.json")
        cfg.update(demos=[str(root / d) for d in cfg["demos"]], environment=None, align=align)
        cfg["demos"][1] = bad
        write_json(str(tmp_path / "cfg.json"), cfg)
        argv = ["--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"), stage]
        if stage == "assimilate":
            argv += ["--checkpoint", str(tmp_path / "ck.npz"), "--demo", bad]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: failed to read demo {bad}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists() and not (tmp_path / "ck.npz").exists()


    @pytest.mark.parametrize("align", ["none", "dtw"])
    @pytest.mark.parametrize("stage", ["ingest", "learn", "assimilate"])
    def test_alternating_overflow_names_its_file(self, scene_dir, tmp_path, capsys, align, stage):
        # +-1e308 samples overflow the spline slopes; with DTW the stacked fit
        # fails, and fitting each demo alone names the file
        root, scene = scene_dir
        bad = str(tmp_path / "demo_bad.json")
        demo = scene.raw_demos[2]
        sign = np.where(np.arange(len(demo))[:, None] % 2 == 0, 1.0, -1.0)
        save_raw_demo(bad, RawDemo(demo.timestamps, 1e308 * sign * np.ones_like(demo.positions)))
        cfg = read_json(root / "config.json")
        cfg.update(demos=[str(root / d) for d in cfg["demos"]], environment=None, align=align)
        cfg["demos"][2] = bad
        write_json(str(tmp_path / "cfg.json"), cfg)
        argv = ["--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"), stage]
        if stage == "assimilate":
            argv += ["--checkpoint", str(tmp_path / "ck.npz"), "--demo", bad]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == (f"config error: failed to read demo {bad}: the spline "
                                           "states are not finite (overflow)\n")
        assert not (tmp_path / "out").exists() and not (tmp_path / "ck.npz").exists()

def test_degenerate_weights_warning_is_one_line(tmp_path):
    # on noisy weighted placing demos, half of the intervals lose their noise
    # estimate; the warning stays a Python warning, printed as one line
    scene = make_placing_scene(noise=0.01, seed=0)
    names = []
    for k, demo in enumerate(scene.influenced_raw + scene.clean_raw):
        save_raw_demo(str(tmp_path / f"demo_{k}.json"), demo)
        names.append(f"demo_{k}.json")
    write_json(str(tmp_path / "env.json"), environment_to_dict(scene.cluttered_env))
    write_json(str(tmp_path / "cfg.json"), {"demos": names, "environment": "env.json",
                                            "grid_n": 60, "align": "none"})
    argv = ["--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"), "learn"]
    with pytest.warns(DegenerateWeightsWarning, match="effective sample size degenerate"):
        assert cli_main(argv) == 0
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-m", "iwskill.cli"] + argv, capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0
    assert run.stderr.startswith("warning: effective sample size degenerate at ")
    assert run.stderr.count("\n") == 1


def test_import_freezes_the_loaded_modules():
    """Full collections in a process that calls `main` repeatedly skip numpy
    and the iwskill modules, which live as long as the process; scipy's are
    frozen when `reproduce` first loads them."""
    assert gc.get_freeze_count() > 10_000


def test_import_leaves_out_the_heavy_scipy_packages():
    """A fresh process that imports the CLI (each stage is one) loads no
    scipy module: only `reproduce` does."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = ("import sys, iwskill.cli, iwskill; print(sorted(m for m in sys.modules "
             "if m.partition('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True)
    assert run.stdout == "[]\n"


def test_only_reproduce_loads_scipy(scene_dir, tmp_path):
    """Each stage in a fresh process: only `reproduce` loads scipy, for
    LAPACK's banded Cholesky; every other stage ends with none loaded."""
    root, _ = scene_dir
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = ("import sys, iwskill.cli; code = iwskill.cli.main(sys.argv[1:]); print(sorted(m for m "
             "in sys.modules if m in ('scipy', 'scipy.linalg'))); sys.exit(code)")
    model = str(tmp_path / "model.json")
    loaded = {}
    for stage in (["ingest"], ["weights"],
                  ["assimilate", "--checkpoint", str(tmp_path / "ck.json"), "--demo",
                   str(root / "demo_000.json")],
                  ["learn"], ["rollout", "--model", model], ["reproduce", "--model", model]):
        run = subprocess.run([sys.executable, "-c", probe, "--config", str(root / "config.json"),
                              "--out", str(tmp_path)] + stage, capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=path), check=True)
        loaded[stage[0]] = run.stdout.splitlines()[-1]
    assert loaded == {"ingest": "[]", "weights": "[]", "assimilate": "[]", "learn": "[]",
                      "rollout": "[]", "reproduce": "['scipy', 'scipy.linalg']"}


def test_demo_spanning_past_the_float_range_is_one_line(tmp_path):
    # the steps of its timestamps overflow: the spline fit refuses the demo, and
    # the order check before it warns of nothing
    demo = str(tmp_path / "demo.json")
    save_raw_demo(demo, RawDemo(np.array([-1.7e308, -1e308, 1e308, 1.7e308]), np.zeros((4, 2))))
    write_json(str(tmp_path / "cfg.json"), {"demos": [demo], "grid_n": 10})
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-m", "iwskill.cli", "--config", str(tmp_path / "cfg.json"),
                          "--out", str(tmp_path / "out"), "ingest"], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 2
    assert run.stderr == (f"config error: failed to read demo {demo}: the spline states are not "
                          "finite (overflow)\n")


def test_parser_is_built_once_and_no_flag_leaks_into_the_next_call(scene_dir, tmp_path,
                                                                   monkeypatch):
    root, _ = scene_dir
    seen = []
    for command in ("learn", "assimilate"):
        monkeypatch.setitem(cli._COMMANDS, command,
                            lambda cfg, args: seen.append((vars(args), cfg.seed, cfg.out_dir)) or 0)
    base = ["--config", str(root / "config.json")]
    assimilate = ["assimilate", "--checkpoint", "ck.npz", "--demo", "d.json"]
    assert cli_main(base + ["--no-weighting", "--seed", "5", "--out", "o", "learn"]) == 0
    assert cli_main(base + ["learn"]) == 0
    assert cli_main(base + ["--no-weighting"] + assimilate + ["--env", "e.json"]) == 0
    assert cli_main(base + assimilate) == 0
    config, out = str(root / "config.json"), str(root / "out")
    assert seen == [
        ({"config": config, "seed": 5, "out": "o", "no_weighting": True, "command": "learn"},
         5, "o"),
        ({"config": config, "seed": None, "out": None, "no_weighting": False,
          "command": "learn"}, 0, out),
        ({"config": config, "seed": None, "out": None, "no_weighting": True,
          "command": "assimilate", "checkpoint": "ck.npz", "demo": "d.json", "env": "e.json"},
         0, out),
        ({"config": config, "seed": None, "out": None, "no_weighting": False,
          "command": "assimilate", "checkpoint": "ck.npz", "demo": "d.json", "env": None},
         0, out)]
    assert cli.build_parser() is cli.build_parser()
