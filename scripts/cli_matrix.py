"""A fixed matrix of CLI calls, run in process, for byte-for-byte comparisons.

Cases: the reaching and placing scenes x seeds 0 and 3 x band noise 0 and
0.01 m x `align` none and dtw x weighted and `--no-weighting`, at grid_n 40.
Each case runs `weights`, `learn`, `rollout` with samples, and `reproduce`
twice: free, with a start and a goal anchor, and past the scene's obstacle
from two starts at sigma_repro 0.005. Then it assimilates every demo into a
checkpoint, and runs `rollout` and both reproductions of that model.

Every input and artifact is written under --out, together with
`manifest.json`: each call's argv, exit code, stdout and stderr, with the
output directory's path left out so that trees written to different places
compare equal. A RuntimeWarning is an error; a call that raises is recorded
with exit code null and the exception as its stderr. Two versions of the
program give the same results when `diff -r` finds no difference between
their trees. The bytes depend on the BLAS build, so no hashes are kept.
The last line counts the calls' exit codes, and the reproductions' `stop`
reasons and how many of them are `feasible`, read from the
`solution_*.json` files in the tree.

`--quick` runs one seed, noise 0.01 and grid_n 20 (8 cases, as tier-1 does).

Usage: PYTHONPATH=src python scripts/cli_matrix.py --out DIR [--quick]
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import sys
import warnings
from collections import Counter

import numpy as np

from iwskill.cli import main as cli_main
from iwskill.demos import save_raw_demo
from iwskill.environment import environment_to_dict
from iwskill.synthetic import make_placing_scene, make_reaching_scene
from iwskill.utils import read_json, write_json


def _state(demo, at: int) -> list:
    """Position and finite-difference velocity of a raw demo at its first
    (0) or last (-1) sample, read off the samples, not the program."""
    i, j = (0, 1) if at == 0 else (-2, -1)
    p, t = demo.positions, demo.timestamps
    return np.concatenate([p[at], (p[j] - p[i]) / (t[j] - t[i])]).tolist()


def write_inputs(root: str, scene_name: str, seed: int, noise: float) -> dict:
    """The demos of one synthetic scene under `root`, with `env.json`, the
    scene its obstacle is in, and for placing `env_clean.json`, the scene
    without it. Returns the demo file names, the scene each demo was recorded
    in, and the reproductions' start, goal and starts past the obstacle."""
    os.makedirs(root, exist_ok=True)
    if scene_name == "reaching":
        scene = make_reaching_scene(noise=noise, seed=seed)
        demos, cluttered = scene.raw_demos, scene.env
        recorded_in = ["env.json"] * len(demos)
    else:
        scene = make_placing_scene(noise=noise, seed=seed)
        demos, cluttered = scene.influenced_raw + scene.clean_raw, scene.cluttered_env
        recorded_in = (["env.json"] * len(scene.influenced_raw)
                       + ["env_clean.json"] * len(scene.clean_raw))
        write_json(os.path.join(root, "env_clean.json"), environment_to_dict(scene.clean_env))
    write_json(os.path.join(root, "env.json"), environment_to_dict(cluttered))
    names = []
    for k, demo in enumerate(demos):
        names.append(f"demo_{k:03d}.json")
        save_raw_demo(os.path.join(root, names[-1]), demo)
    return {"demos": names, "recorded_in": recorded_in,
            "start": np.mean([_state(d, 0) for d in demos], axis=0).tolist(),
            "goal": np.mean([_state(d, -1) for d in demos], axis=0).tolist(),
            "obstacle_starts": [_state(demos[0], 0), _state(demos[1], 0)]}


def cases(quick: bool) -> list:
    seeds, noises, grid_n = ((0,), (0.01,), 20) if quick else ((0, 3), (0.0, 0.01), 40)
    return [{"scene": scene, "seed": seed, "noise": noise, "align": align,
             "weighted": weighted, "grid_n": grid_n}
            for scene, seed, noise, align, weighted in itertools.product(
                ("reaching", "placing"), seeds, noises, ("none", "dtw"), (True, False))]


def call(argv: list, root: str) -> dict:
    """One CLI call in process, as from a fresh process: every warning is
    shown once per call, and a RuntimeWarning is an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("default")
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli_main(argv)
        except Exception as exc:  # recorded, and the matrix goes on
            code = None
            err.write(f"{type(exc).__name__}: {exc}\n")
    prefix = root + os.sep
    return {"argv": [a.replace(prefix, "") for a in argv], "exit": code,
            "stdout": out.getvalue().replace(prefix, ""),
            "stderr": err.getvalue().replace(prefix, "")}


def run_case(case: dict, root: str, inputs: dict, input_dir: str) -> list:
    name = (f"{case['scene']}-seed{case['seed']}-noise{case['noise']}-{case['align']}-"
            f"{'weighted' if case['weighted'] else 'unweighted'}")
    case_dir = os.path.join(root, name)
    os.makedirs(case_dir, exist_ok=True)
    inputs_rel = os.path.relpath(input_dir, case_dir)  # configs name paths relative to themselves
    base = {"demos": [os.path.join(inputs_rel, d) for d in inputs["demos"]],
            "environment": os.path.join(inputs_rel, "env.json"), "grid_n": case["grid_n"],
            "align": case["align"], "seed": case["seed"], "rollout_samples": 3}
    configs = {
        "free": dict(base, reproduction={
            "starts": [inputs["start"]],
            "anchors": [{"index": case["grid_n"], "state": inputs["goal"]}]}),
        "obstacle": dict(base, reproduction={
            "environment": os.path.join(inputs_rel, "env.json"), "sigma_repro": 0.005,
            "starts": inputs["obstacle_starts"]}),
    }
    for label, cfg in configs.items():
        write_json(os.path.join(case_dir, f"config_{label}.json"), cfg)
    flags = [] if case["weighted"] else ["--no-weighting"]

    def cli(out: str, *argv, config="free"):
        return call(["--config", os.path.join(case_dir, f"config_{config}.json"),
                     "--out", os.path.join(case_dir, out)] + flags + list(argv), root)

    def use(model_dir: str, prefix: str) -> list:
        model = os.path.join(case_dir, model_dir, "model.json")
        return [cli(prefix + "rollout", "rollout", "--model", model),
                cli(prefix + "reproduce_free", "reproduce", "--model", model),
                cli(prefix + "reproduce_obstacle", "reproduce", "--model", model,
                    config="obstacle")]

    calls = [cli("weights", "weights"), cli("learn", "learn")] + use("learn", "")
    checkpoint = os.path.join(case_dir, "checkpoint.npz")
    for k, (demo, env) in enumerate(zip(inputs["demos"], inputs["recorded_in"])):
        calls.append(cli(f"assimilate_{k:03d}", "assimilate", "--checkpoint", checkpoint,
                         "--demo", os.path.join(input_dir, demo),
                         "--env", os.path.join(input_dir, env)))
    calls += use(f"assimilate_{len(inputs['demos']) - 1:03d}", "assimilated_")
    return [dict(call_, case=name) for call_ in calls]


def run_matrix(out: str, quick: bool) -> list:
    root = os.path.abspath(out)
    calls, inputs = [], {}
    for case in cases(quick):
        key = (case["scene"], case["seed"], case["noise"])
        input_dir = os.path.join(root, "inputs", "{}-seed{}-noise{}".format(*key))
        if key not in inputs:
            inputs[key] = write_inputs(input_dir, *key)
        calls += run_case(case, root, inputs[key], input_dir)
    with open(os.path.join(root, "manifest.json"), "w") as fh:
        json.dump({"cases": cases(quick), "calls": calls}, fh, indent=1)
        fh.write("\n")
    return calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="directory for the tree")
    parser.add_argument("--quick", action="store_true", help="the small tier-1 matrix")
    args = parser.parse_args(argv)
    if os.path.exists(args.out) and os.listdir(args.out):
        print(f"{args.out} is not empty: a tree from two runs would not compare", file=sys.stderr)
        return 2
    calls = run_matrix(args.out, args.quick)
    codes = Counter(str(c["exit"]) for c in calls)
    solutions = [read_json(os.path.join(directory, name))
                 for directory, _, names in os.walk(args.out) for name in names
                 if name.startswith("solution_") and name.endswith(".json")]
    stops = Counter(s["stop"] for s in solutions)
    print(f"{len(calls)} calls, exit codes {dict(sorted(codes.items()))}; reproductions: "
          f"stop {dict(sorted(stops.items()))}, feasible "
          f"{sum(s['feasible'] for s in solutions)}/{len(solutions)} -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
