"""A fixed matrix of CLI calls, run in process, for byte-for-byte comparisons.

Cases: the reaching and placing scenes x seeds 0 and 3 x band noise 0 and
0.01 m x `align` none and dtw x weighted and `--no-weighting`, at grid_n 40.
The reaching demos are JSON files and the placing demos CSV files. Each case
runs `ingest`, `weights`, `learn`, `rollout` with samples, and `reproduce`
twice: free, with a start and a goal anchor, and past the scene's obstacle
from two starts at sigma_repro 0.005. Then it assimilates every demo into a
checkpoint, and runs `rollout` and both reproductions of that model: 512
calls and 1,509 files.

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

`--quick` runs one seed, noise 0.01 and grid_n 20 (8 cases and 128 calls, as
tier-1 does).

`--compare BASE_DIR` runs nothing: it prints one line on how the tree at
--out differs from the tree at BASE_DIR, both written by this script. It
counts the differing files per artifact kind (the file name with its
numbers as `*`), gives the largest absolute and relative difference over the
numeric cells of the differing CSV files, the calls whose exit code changed,
and the reproductions whose `stop`, `feasible` or `iterations` changed in
`solution_*.json`. A relative difference is |a - b| / max(|a|, |b|).

Usage: PYTHONPATH=src python scripts/cli_matrix.py --out DIR [--quick]
       PYTHONPATH=src python scripts/cli_matrix.py --out DIR --compare BASE_DIR
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import re
import sys
import warnings
from collections import Counter

import numpy as np

from iwskill.cli import main as cli_main
from iwskill.demos import save_raw_demo
from iwskill.environment import environment_to_dict
from iwskill.synthetic import make_placing_scene, make_reaching_scene
from iwskill.utils import atomic_write_text, csv_text, read_json, write_json


def _state(demo, at: int) -> list:
    """Position and finite-difference velocity of a raw demo at its first
    (0) or last (-1) sample, read off the samples, not the program."""
    i, j = (0, 1) if at == 0 else (-2, -1)
    p, t = demo.positions, demo.timestamps
    return np.concatenate([p[at], (p[j] - p[i]) / (t[j] - t[i])]).tolist()


def write_inputs(root: str, scene_name: str, seed: int, noise: float) -> dict:
    """The demos of one synthetic scene under `root`, reaching's as JSON and
    placing's as CSV files, with `env.json`, the scene its obstacle is in,
    and for placing `env_clean.json`, the scene without it. Returns the demo
    file names, the scene each demo was recorded in, and the reproductions'
    start, goal and starts past the obstacle."""
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
        if scene_name == "reaching":
            names.append(f"demo_{k:03d}.json")
            save_raw_demo(os.path.join(root, names[-1]), demo)
        else:
            names.append(f"demo_{k:03d}.csv")
            header = ["t"] + [f"x_{j + 1}" for j in range(demo.dim)]
            atomic_write_text(os.path.join(root, names[-1]), csv_text(
                header, np.column_stack([demo.timestamps, demo.positions])))
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

    calls = [cli("ingest", "ingest"), cli("weights", "weights"),
             cli("learn", "learn")] + use("learn", "")
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


def _files(root: str) -> set:
    return {os.path.relpath(os.path.join(directory, name), root)
            for directory, _, names in os.walk(root) for name in names}


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _cell_differences(a: bytes, b: bytes) -> tuple | None:
    """(largest absolute, largest relative) difference over the cells of two
    CSV files that read as numbers in both and differ; None for tables of
    different shapes."""
    rows_a, rows_b = ([line.split(",") for line in text.decode().splitlines()] for text in (a, b))
    if [len(row) for row in rows_a] != [len(row) for row in rows_b]:
        return None
    largest = (0.0, 0.0)
    for cell_a, cell_b in zip(itertools.chain(*rows_a), itertools.chain(*rows_b)):
        try:
            x, y = float(cell_a), float(cell_b)
        except ValueError:
            continue
        diff = abs(x - y)
        if diff > 0:  # not -0.0 against 0.0, nor one number written two ways
            largest = (max(largest[0], diff), max(largest[1], diff / max(abs(x), abs(y))))
    return largest


def _exit_codes(root: str) -> dict:
    """Each call's exit code, by its output directory, which names the call."""
    return {call["argv"][call["argv"].index("--out") + 1]: call["exit"]
            for call in read_json(os.path.join(root, "manifest.json"))["calls"]}


def compare(base: str, tree: str) -> str:
    """One line on how the matrix tree at `tree` differs from the one at `base`."""
    base_files, tree_files = _files(base), _files(tree)
    kinds, shapes, largest = Counter(), 0, (0.0, 0.0)
    solutions, flips, steps = 0, Counter(), []
    for name in sorted(base_files & tree_files):
        a, b = _read_bytes(os.path.join(base, name)), _read_bytes(os.path.join(tree, name))
        kind = re.sub(r"\d+", "*", os.path.basename(name))
        if kind == "solution_*.json":
            old, new = json.loads(a), json.loads(b)
            solutions += 1
            flips.update(key for key in ("stop", "feasible") if old[key] != new[key])
            if old["iterations"] != new["iterations"]:
                steps.append(new["iterations"] - old["iterations"])
        if a != b:
            kinds[kind] += 1
            cells = _cell_differences(a, b) if kind.endswith(".csv") else (0.0, 0.0)
            if cells is None:
                shapes += 1
            else:
                largest = tuple(map(max, largest, cells))
    old_exit, new_exit = _exit_codes(base), _exit_codes(tree)
    exits = [f"{call} {old_exit.get(call, 'absent')} -> {new_exit.get(call, 'absent')}"
             for call in sorted(old_exit.keys() | new_exit.keys())
             if old_exit.get(call, "absent") != new_exit.get(call, "absent")]
    return (f"{sum(kinds.values())} of {len(tree_files)} files differ ("
            + (", ".join(f"{kind} {n}" for kind, n in sorted(kinds.items())) or "none")
            + f"), {len(base_files ^ tree_files)} in one tree only; numeric CSV cells differ by "
            f"up to {largest[0]:.3g} absolute and {largest[1]:.3g} relative"
            + (f", {shapes} CSV files change shape" if shapes else "")
            + f"; exit codes changed: {len(exits)}" + "".join(f", {e}" for e in exits[:5])
            + f"; of {solutions} solutions, stop changed in {flips['stop']}, feasible in "
            f"{flips['feasible']}, iterations in {len(steps)}"
            + (f" ({min(steps):+d} to {max(steps):+d})" if steps else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="directory for the tree")
    parser.add_argument("--quick", action="store_true", help="the small tier-1 matrix")
    parser.add_argument("--compare", metavar="BASE_DIR",
                        help="run nothing; print how the tree at --out differs from this one")
    args = parser.parse_args(argv)
    if args.compare:
        print(compare(args.compare, args.out))
        return 0
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
