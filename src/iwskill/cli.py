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
import warnings
from dataclasses import replace
from functools import cache

import numpy as np

from . import demos as dm
from .batch import (SingularSystemError, learn_batch_weighted, load_model, save_model)
from .config import ConfigError, PipelineConfig, load_config
from .environment import load_environment, weight_trajectory
from .incremental import (IncrementalLearner, assimilate_demo, extract_map, load_checkpoint,
                          save_checkpoint)
from .linalg import lapack
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
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"failed to read {what} {path}: {reason}") from exc


def _load_demo_set(cfg: PipelineConfig) -> dm.DemoSet:
    if not cfg.demos:
        raise ConfigError("no demo files configured")
    raw = [_read(dm.load_raw_demo, "demo", p) for p in cfg.demos]
    if cfg.align == "dtw":
        raw = dm.dtw_align(raw)
        k, p = len(raw), raw[0].dim
        try:  # aligned demos share the reference's timestamps: one fit of all columns, 0.7 ms
            # for 8 demos of 200 samples on a 2-core Xeon VM, against 1.7 ms one at a time
            wide = dm.estimate_states(dm.RawDemo(raw[0].timestamps,
                                                 np.hstack([d.positions for d in raw])), cfg.grid_n)
        except ValueError:
            pass  # fit one demo at a time below, which names the file
        else:
            states = wide.states.reshape(-1, 2, k, p).transpose(2, 0, 1, 3).reshape(k, -1, 2 * p)
            return dm.DemoSet(demos=[dm.StateTrajectory(dt=wide.dt, states=s) for s in states])
    # an overflowing demo fails its spline fit: name its file (demo k is aligned demo k)
    return dm.DemoSet(demos=[_read(lambda _: dm.estimate_states(d, cfg.grid_n), "demo", p)
                             for d, p in zip(raw, cfg.demos)])


def _demo_weights(cfg: PipelineConfig, trajs: list, env_path: str | None,
                  no_weighting: bool) -> np.ndarray:
    """Per-node weights (K, N+1) of the K trajectories against the scene at
    `env_path`, all positions in one call; all ones with `--no-weighting` or
    without a scene. A scene must have the demos' position dimension D/2."""
    env = None if no_weighting or env_path is None else _read(load_environment, "scene", env_path)
    positions = np.stack([t.positions for t in trajs])
    if env is not None and env.dimension != positions.shape[2]:
        raise ConfigError(f"scene {env_path} has dimension {env.dimension}, not the demos' "
                          f"position dimension D/2 = {positions.shape[2]}")
    return weight_trajectory(positions.reshape(-1, positions.shape[2]), env,
                             cfg.weights).reshape(positions.shape[:2])


def _check_learnable(weights: np.ndarray, paths: list) -> None:
    """A ConfigError naming the demo file and the first input node (0..N-1,
    the nodes learning weighs transitions by) whose weight underflowed to 0."""
    for w, path in zip(weights, paths):
        zero = np.flatnonzero(w[:-1] == 0)
        if zero.size:
            raise ConfigError(f"demo {path}: the importance weight of node {zero[0]} underflows "
                              f"to 0; raise weights.sigma_obs or lower weights.epsilon")


def _write_weights(cfg: PipelineConfig, weights: np.ndarray) -> None:
    """`weights.csv` in the output directory, and each demo's minimum and
    mean weight on stdout."""
    nodes = [f",{i}" for i in range(weights.shape[1])]  # each row's label is "demo,node"
    atomic_write_text(os.path.join(cfg.out_dir, "weights.csv"), csv_text(
        ["demo", "node", "weight"], weights.reshape(-1, 1),
        [demo + node for demo in map(str, range(len(weights))) for node in nodes]))
    for k, w in enumerate(weights):
        print(f"demo {k}: min weight {w.min():.6f}, mean weight {w.mean():.6f}")


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
    _check_learnable(weights, cfg.demos)
    model = learn_batch_weighted(demo_set, weights)
    save_model(os.path.join(cfg.out_dir, "model.json"), model)
    _write_weights(cfg, weights)
    print(f"learned {model.n_steps}-step model (D={model.dim}) -> "
          f"{os.path.join(cfg.out_dir, 'model.json')}")
    return EXIT_OK


def cmd_assimilate(cfg: PipelineConfig, args) -> int:
    traj = _read(lambda p: dm.estimate_states(dm.load_raw_demo(p), cfg.grid_n), "demo",
                 args.demo)

    if os.path.exists(args.checkpoint):
        learner = _read(load_checkpoint, "checkpoint", args.checkpoint)
        if (learner.alpha, learner.beta) != (cfg.alpha, cfg.beta):
            raise ConfigError(f"checkpoint {args.checkpoint} holds (alpha, beta) = "
                              f"{learner.alpha, learner.beta}, the config {cfg.alpha, cfg.beta}")
        try:
            dm.check_grid(traj, learner.n_steps, learner.dim, learner.dt)
        except ValueError as exc:
            raise ConfigError(f"checkpoint {args.checkpoint} does not take demo {args.demo}: "
                              f"{exc}") from None
    else:
        learner = IncrementalLearner(traj.n_steps, traj.dim, cfg.alpha, cfg.beta, dt=traj.dt)

    env_path = args.env if args.env is not None else cfg.environment
    weights = _demo_weights(cfg, [traj], env_path, args.no_weighting)
    _check_learnable(weights, [args.demo])
    assimilate_demo(learner, traj, weights[0])

    model = extract_map(learner)  # before any write: a failure leaves both files as they were
    save_checkpoint(args.checkpoint, learner)
    save_model(os.path.join(cfg.out_dir, "model.json"), model)
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
    prior = GaussianTrajectoryPrior(_read(load_model, "model", args.model))
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


@cache
def _load_lapack() -> None:
    """Load scipy's LAPACK routines, once per process, and freeze them with
    the import-time objects: loaded after that freeze, they would be scanned
    by every full collection in a process that calls `main` in a loop (the
    benchmark's `reproduce_free` op tail read 12.6 ms so, 9.7 ms frozen, on
    a 2-core Xeon VM)."""
    lapack()
    gc.freeze()


def cmd_reproduce(cfg: PipelineConfig, args) -> int:
    _load_lapack()
    prior = GaussianTrajectoryPrior(_read(load_model, "model", args.model))
    rc = cfg.reproduction
    env = _read(load_environment, "scene", rc.environment) if rc.environment else None
    try:  # every input is checked against the model before the first solve
        problem = ReproductionProblem(
            prior=prior, anchors=rc.anchors, max_iters=rc.max_iters,
            obstacle=ObstacleFactor(env, rc.eps_repro, rc.sigma_repro) if env else None)
    except ValueError as exc:
        raise ConfigError(f"reproduction.{exc}") from None
    for i, start in enumerate(rc.starts):
        if start.shape != (prior.dim,):
            raise ConfigError(f"reproduction.starts[{i}] must have dimension {prior.dim}")
    all_converged = True
    for si, start in enumerate(rc.starts or [None]):
        anchors = [] if start is None else [StateAnchor(0, start, rc.start_sigma)]
        solution = optimize_map(replace(problem, anchors=rc.anchors + anchors))
        all_converged &= solution.converged
        stem = os.path.join(cfg.out_dir, f"solution_{si:03d}")
        atomic_write_text(stem + ".csv", solution_csv(solution))
        summary = solution_summary(solution)
        write_json(stem + ".json", summary)
        scene = _band_scene(prior, env)
        scene.polyline(_plane(prior, prior.means), color="#1f77b4", width=1.5, dashed=True)
        scene.polyline(_plane(prior, solution.trajectory.states), color="#2ca02c", width=2.5)
        atomic_write_text(stem + ".svg", scene.render())
        clear = summary["min_clearance"]
        clear_txt = "n/a" if clear is None else f"{clear:.4f}"
        print(f"start {si}: objective {solution.objective:.6g}, {solution.iterations} "
              f"iterations, converged={solution.converged} (stop: {solution.stop}), "
              f"feasible={solution.feasible}, min clearance {clear_txt}")
    return EXIT_OK if all_converged else EXIT_NO_CONVERGENCE


@cache  # built once per process: `main` runs in a loop in the benchmark and the tests
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
    default_format = warnings.formatwarning  # a warning is one line without a source path
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        cfg = load_config(args.config)
        if args.seed is not None:  # the config reader checks the config's own seed
            if args.seed < 0:
                raise ConfigError(f"--seed must be >= 0, got {args.seed}")
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out_dir = args.out
        return _COMMANDS[args.command](cfg, args)
    except (SingularSystemError, SingularNormalEquationsError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError, KeyError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        warnings.formatwarning = default_format


if __name__ == "__main__":
    sys.exit(main())
