"""Placing experiment: incremental refinement as the environment clears.

Three demos arc over a box obstacle; three later demos, recorded after the
box is gone, go straight. Both a weighted and an unweighted learner
assimilate them one at a time through the CLI checkpoint flow; the report
compares each final prior mean against the clean-demo mean.

Usage: python scripts/run_placing.py [--out results/placing]
"""

import argparse
import os
import sys

import numpy as np

from iwskill.cli import main as cli_main
from iwskill.demos import save_raw_demo
from iwskill.environment import environment_to_dict
from iwskill.synthetic import make_placing_scene
from iwskill.utils import write_json


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/placing")
    args = parser.parse_args()

    scene = make_placing_scene()
    os.makedirs(args.out, exist_ok=True)
    demo_files = []
    for k, demo in enumerate(scene.influenced_raw + scene.clean_raw):
        path = os.path.join(args.out, f"demo_{k:03d}.json")
        save_raw_demo(path, demo)
        demo_files.append(path)
    write_json(os.path.join(args.out, "env_cluttered.json"),
               environment_to_dict(scene.cluttered_env))
    write_json(os.path.join(args.out, "env_clean.json"),
               environment_to_dict(scene.clean_env))
    config = {
        "demos": [os.path.basename(p) for p in demo_files],
        "grid_n": 60,
        "align": "none",
        "weights": {"epsilon": scene.weight_params.epsilon,
                    "sigma_obs": scene.weight_params.sigma_obs},
        "alpha": 1e10,
        "beta": 1e10,
        "seed": 0,
        "out_dir": ".",
    }
    cfg_path = os.path.join(args.out, "config.json")
    write_json(cfg_path, config)

    n_influenced = len(scene.influenced_raw)
    results = {}
    for label, weighted in (("weighted", True), ("unweighted", False)):
        out_dir = os.path.join(args.out, label)
        checkpoint = os.path.join(out_dir, "checkpoint.npz")
        if os.path.exists(checkpoint):  # a rerun starts fresh, not from the last run's learner
            os.remove(checkpoint)
        for k, demo_path in enumerate(demo_files):
            env = ("env_cluttered.json" if k < n_influenced else "env_clean.json")
            cmd = ["--config", cfg_path, "--out", out_dir, "assimilate",
                   "--checkpoint", checkpoint, "--demo", demo_path,
                   "--env", os.path.join(args.out, env)]
            if not weighted:
                cmd.insert(4, "--no-weighting")
            code = cli_main(cmd)
            if code != 0:
                print(f"{label} assimilate {k} failed with exit code {code}",
                      file=sys.stderr)
                return code
        code = cli_main(["--config", cfg_path, "--out", out_dir, "rollout",
                         "--model", os.path.join(out_dir, "model.json")])
        if code != 0:
            return code
        prior = np.loadtxt(os.path.join(out_dir, "prior.csv"), delimiter=",", skiprows=1)
        results[label] = prior[:, 1:3]

    from iwskill.demos import estimate_states
    clean_mean = np.mean([estimate_states(d, 60).positions for d in scene.clean_raw],
                         axis=0)
    distances = {label: float(np.linalg.norm(means - clean_mean))
                 for label, means in results.items()}
    ratio = distances["weighted"] / distances["unweighted"]
    for label, dist in distances.items():
        print(f"{label}: L2 distance to the clean-demo mean {dist:.4f}")
    print(f"distance ratio (weighted/unweighted): {ratio:.3f}")
    write_json(os.path.join(args.out, "summary.json"),
               {"distance_ratio": ratio, **distances})
    return 0


if __name__ == "__main__":
    sys.exit(main())
