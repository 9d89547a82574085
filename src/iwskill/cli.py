"""Command-line pipeline: ingest, weights, learn, assimilate, rollout, reproduce.

Every stage reads one JSON config (see config.PipelineConfig) plus a few
flags, writes deterministic artifacts into the output directory, and exits
with 0 on success, 2 on configuration errors, 3 on numerical failures, and
4 when the optimizer does not converge.
"""

import argparse
import gc
import os
import sys

import numpy as np

from . import demos as dm
from .batch import (SingularSystemError, learn_batch_weighted, load_model, save_model)
from .config import ConfigError, PipelineConfig, load_config
from .environment import (NO_OBSTACLE_DISTANCE, SdfGridError, build_sdf, load_environment,
                          scene_bounds, weight_trajectory)
from .incremental import (IncrementalLearner, assimilate_demo, extract_map, load_checkpoint,
                          save_checkpoint)
from .prior import GaussianTrajectoryPrior, prior_band_csv, sample_trajectories
from .reproduction import (ObstacleFactor, ReproductionProblem, SingularNormalEquationsError,
                           StateAnchor, optimize_map, solution_csv, solution_summary)
from .svg import SvgScene
from .utils import atomic_write_text, csv_text, write_json

# Import-time objects live as long as the process; frozen, a full collection skips
# them (0.2 ms instead of 11 ms in a process that calls `main` in a loop).
gc.freeze()
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NO_CONVERGENCE = 4


def _read(load, what: str, path: str):
    """`load(path)`, or a ConfigError naming the `what` file it failed to read."""
    try:
        return load(path)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        raise ConfigError(f"failed to read {what} {path}: {exc}") from exc


def _load_demo_set(cfg: PipelineConfig) -> dm.DemoSet:
    if not cfg.demos:
        raise ConfigError("no demo files configured")
    raw = [_read(dm.load_raw_demo, "demo", p) for p in cfg.demos]
    if cfg.align == "dtw":
        if cfg.dtw_reference is not None and not 0 <= cfg.dtw_reference < len(raw):
            raise ConfigError(f"dtw_reference must index one of the {len(raw)} demos "
                              f"(0 to {len(raw) - 1}), got {cfg.dtw_reference}")
        raw = dm.dtw_align(raw, cfg.dtw_reference)
    return dm.DemoSet(demos=[dm.estimate_states(d, cfg.grid_n) for d in raw])


def _demo_weights(cfg: PipelineConfig, trajs: list, env_path: str | None,
                  no_weighting: bool) -> list:
    """Per-node weights of each trajectory against the scene at `env_path`;
    all ones with `--no-weighting` or without a scene."""
    env = None if no_weighting or env_path is None else _read(load_environment, "scene", env_path)
    return [weight_trajectory(t.states, env, cfg.weights) for t in trajs]


def _write_weights(cfg: PipelineConfig, weights: list) -> None:
    """`weights.csv` in the output directory, and each demo's minimum and
    mean weight on stdout."""
    atomic_write_text(os.path.join(cfg.out_dir, "weights.csv"), csv_text(
        ["demo", "node", "weight"], np.concatenate(weights)[:, None],
        [f"{k},{i}" for k, w in enumerate(weights) for i in range(len(w))]))
    for k, w in enumerate(weights):
        print(f"demo {k}: min weight {w.min():.6f}, mean weight {w.mean():.6f}")


def _load_prior(cfg: PipelineConfig, model_path: str) -> GaussianTrajectoryPrior:
    """The model's trajectory prior, started from `init_state` if it is set,
    else from the model's start moments."""
    model = _read(load_model, "model", model_path)
    if cfg.init_state is not None and cfg.init_state[0].shape != (model.dim,):
        raise ConfigError(f"init_state has dimension {cfg.init_state[0].shape[0]}, "
                          f"the model {model.dim}")
    return GaussianTrajectoryPrior(model, cfg.init_state)


def cmd_ingest(cfg: PipelineConfig, args) -> int:
    demo_set = _load_demo_set(cfg)
    for k, traj in enumerate(demo_set.demos):
        write_json(os.path.join(cfg.out_dir, f"trajectory_{k:03d}.json"),
                   {"dt": traj.dt, "states": traj.states.tolist()})
    write_json(os.path.join(cfg.out_dir, "ingest_summary.json"),
               {"demos": demo_set.k, "n_steps": demo_set.n_steps,
                "dim": demo_set.dim, "dt": demo_set.dt})
    print(f"ingested {demo_set.k} demos onto a {demo_set.n_steps}-step grid "
          f"(dt={demo_set.dt:.6f}, D={demo_set.dim})")
    return EXIT_OK


def cmd_weights(cfg: PipelineConfig, args) -> int:
    demo_set = _load_demo_set(cfg)
    weights = _demo_weights(cfg, demo_set.demos, cfg.environment, args.no_weighting)
    _write_weights(cfg, weights)
    return EXIT_OK


def cmd_learn(cfg: PipelineConfig, args) -> int:
    demo_set = _load_demo_set(cfg)
    weights = _demo_weights(cfg, demo_set.demos, cfg.environment, args.no_weighting)
    model = learn_batch_weighted(demo_set, weights, cfg.ridge_lambda)
    save_model(os.path.join(cfg.out_dir, "model.json"), model)
    _write_weights(cfg, weights)
    print(f"learned {model.n_steps}-step model (D={model.dim}) -> "
          f"{os.path.join(cfg.out_dir, 'model.json')}")
    return EXIT_OK


def cmd_assimilate(cfg: PipelineConfig, args) -> int:
    traj = dm.estimate_states(_read(dm.load_raw_demo, "demo", args.demo), cfg.grid_n)

    if os.path.exists(args.checkpoint):  # assimilate_demo refuses a demo off its grid
        learner = _read(load_checkpoint, "checkpoint", args.checkpoint)
    else:
        learner = IncrementalLearner(traj.n_steps, traj.dim, cfg.alpha, cfg.beta, dt=traj.dt)

    env_path = args.env if args.env is not None else cfg.environment
    [weights] = _demo_weights(cfg, [traj], env_path, args.no_weighting)
    assimilate_demo(learner, traj, weights)

    save_checkpoint(args.checkpoint, learner)
    save_model(os.path.join(cfg.out_dir, "model.json"), extract_map(learner))
    print(f"assimilated demo {args.demo} (weights min {weights.min():.6f}); "
          f"{len(learner.starts)} demos seen")
    return EXIT_OK


def _plane(prior: GaussianTrajectoryPrior, states: np.ndarray) -> np.ndarray:
    """Drawing coordinates of (N+1, D) states: their first two dimensions,
    or time vs value for scalar states."""
    return states[:, :2] if prior.dim >= 2 else np.column_stack([prior.times, states[:, 0]])


def _band_scene(prior: GaussianTrajectoryPrior, env) -> SvgScene:
    """The scene's obstacles and the prior mean's one-sigma band."""
    scene = SvgScene()
    if env is not None:
        scene.environment(env)
    half = np.linalg.norm(prior.stds[:, :2], axis=1) if prior.dim >= 2 else prior.stds[:, 0]
    scene.band(_plane(prior, prior.means), half)
    return scene


def cmd_rollout(cfg: PipelineConfig, args) -> int:
    prior = _load_prior(cfg, args.model)
    atomic_write_text(os.path.join(cfg.out_dir, "prior.csv"), prior_band_csv(prior))
    samples = []
    if cfg.rollout_samples > 0:
        samples = sample_trajectories(prior, cfg.rollout_samples, seed=cfg.seed)
        header = ["sample", "t"] + [f"x_{j + 1}" for j in range(prior.dim)]
        table = np.column_stack([np.tile(prior.times, len(samples)),
                                 samples.reshape(-1, prior.dim)])
        labels = [str(si) for si in range(len(samples)) for _ in prior.times]
        atomic_write_text(os.path.join(cfg.out_dir, "samples.csv"),
                          csv_text(header, table, labels))
    env = _read(load_environment, "scene", cfg.environment) if cfg.environment else None
    scene = _band_scene(prior, env)
    for states in samples:
        scene.polyline(_plane(prior, states), color="#9467bd", width=1.0, opacity=0.5)
    scene.polyline(_plane(prior, prior.means), color="#1f77b4", width=2.5)
    atomic_write_text(os.path.join(cfg.out_dir, "rollout.svg"), scene.render())
    print(f"rolled out prior over {prior.n_steps} steps -> {cfg.out_dir}")
    return EXIT_OK


def _reproduction_factors(cfg: PipelineConfig, prior: GaussianTrajectoryPrior, env) -> list:
    """Configured anchors, then one obstacle factor over every node when the
    reproduction scene has obstacles."""
    rc = cfg.reproduction
    factors = list(rc.anchors)
    for i, a in enumerate(factors):
        where = f"reproduction.anchors[{i}]"
        if a.target.shape != (prior.dim,):
            raise ConfigError(f"{where}.state must have dimension {prior.dim}")
        if not 0 <= a.index <= prior.n_steps:
            raise ConfigError(f"{where}.index must be a node 0..{prior.n_steps}, got {a.index}")
    if env is not None and env.obstacles:
        lo, hi = scene_bounds(env, rc.sdf_margin)
        # make sure the prior's reachable area is inside the grid
        pos = prior.means[:, :env.dimension]
        spread = 3.0 * prior.stds[:, :env.dimension].max()
        lo = np.minimum(lo, pos.min(axis=0) - rc.sdf_margin - spread)
        hi = np.maximum(hi, pos.max(axis=0) + rc.sdf_margin + spread)
        try:
            sdf = build_sdf(env, lo, hi, rc.sdf_resolution)
        except SdfGridError as exc:
            raise SdfGridError(f"{exc}: raise reproduction.sdf_resolution (the grid spans "
                               f"the scene and the prior's 3-sigma position spread "
                               f"{spread:.4g} m)") from exc
        factors.append(ObstacleFactor(indices=range(prior.n_steps + 1), sdf=sdf,
                                      eps_repro=rc.eps_repro, sigma_repro=rc.sigma_repro))
    return factors


def cmd_reproduce(cfg: PipelineConfig, args) -> int:
    prior = _load_prior(cfg, args.model)
    rc = cfg.reproduction
    starts = rc.starts if rc.starts else [None]
    env = _read(load_environment, "scene", rc.environment) if rc.environment else None
    base_factors = _reproduction_factors(cfg, prior, env)
    all_converged = True
    for si, start in enumerate(starts):
        factors = list(base_factors)
        if start is not None:
            target = np.asarray(start, dtype=float)
            if target.shape != (prior.dim,):
                raise ConfigError(f"reproduction.starts[{si}] must have dimension {prior.dim}")
            factors.append(StateAnchor(index=0, target=target, sigma=rc.start_sigma))
        solution = optimize_map(ReproductionProblem(prior=prior, factors=factors,
                                                    options=rc.options))
        all_converged &= solution.converged
        stem = os.path.join(cfg.out_dir, f"solution_{si:03d}")
        atomic_write_text(stem + ".csv", solution_csv(solution))
        write_json(stem + ".json", solution_summary(solution))
        scene = _band_scene(prior, env)
        scene.polyline(_plane(prior, prior.means), color="#1f77b4", width=1.5, dashed=True)
        scene.polyline(_plane(prior, solution.trajectory.states), color="#2ca02c", width=2.5)
        atomic_write_text(stem + ".svg", scene.render())
        clear = solution.min_clearance
        clear_txt = "n/a" if clear >= NO_OBSTACLE_DISTANCE else f"{clear:.4f}"
        print(f"start {si}: objective {solution.objective:.6g}, {solution.iterations} "
              f"iterations, converged={solution.converged} (stop: {solution.stop}), "
              f"feasible={solution.feasible}, min clearance {clear_txt}")
    return EXIT_OK if all_converged else EXIT_NO_CONVERGENCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iwskill",
        description="Importance-weighted skill learning and MAP reproduction")
    parser.add_argument("--config", required=True, help="pipeline config JSON")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="override output directory")
    parser.add_argument("--no-weighting", action="store_true",
                        help="treat every demonstration node as weight 1")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ingest", help="align demos and write state trajectories")
    sub.add_parser("weights", help="write the per-demo per-node weight report")
    sub.add_parser("learn", help="batch-learn the skill model")
    p_assim = sub.add_parser("assimilate", help="fold one demo into an MNIW checkpoint")
    p_assim.add_argument("--checkpoint", required=True, help="checkpoint path (created if absent)")
    p_assim.add_argument("--demo", required=True, help="raw demo file to assimilate")
    p_assim.add_argument("--env", default=None,
                         help="environment the demo was recorded in (default: config environment)")
    p_roll = sub.add_parser("rollout", help="roll out the prior of a learned model")
    p_roll.add_argument("--model", required=True, help="skill model JSON")
    p_repro = sub.add_parser("reproduce", help="MAP reproduction for configured starts")
    p_repro.add_argument("--model", required=True, help="skill model JSON")
    return parser


_COMMANDS = {
    "ingest": cmd_ingest,
    "weights": cmd_weights,
    "learn": cmd_learn,
    "assimilate": cmd_assimilate,
    "rollout": cmd_rollout,
    "reproduce": cmd_reproduce,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out_dir = args.out
        return _COMMANDS[args.command](cfg, args)
    except (SingularSystemError, SingularNormalEquationsError, SdfGridError,
            np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError, KeyError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
