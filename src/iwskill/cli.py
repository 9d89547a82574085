"""Command-line pipeline: ingest, weights, learn, assimilate, rollout, reproduce.

Every stage reads one JSON config (see config.PipelineConfig) plus a few
flags, writes deterministic artifacts into the output directory, and exits
with 0 on success, 2 on configuration errors, 3 on numerical failures, and
4 when the optimizer does not converge.
"""

import argparse
import io
import os
import sys

import numpy as np

from . import demos as dm
from .batch import (SingularSystemError, learn_batch_weighted, load_model, save_model)
from .config import ConfigError, PipelineConfig, load_config
from .environment import (NO_OBSTACLE_DISTANCE, SdfGridError, build_sdf, load_environment,
                          scene_bounds, weight_trajectory)
from .incremental import (assimilate_demo, extract_map, init_prior, load_checkpoint,
                          save_checkpoint)
from .prior import (GaussianState, GaussianTrajectoryPrior, build_joint_prior,
                    initial_state_distribution, prior_band_csv, sample_trajectories)
from .reproduction import (ObstacleFactor, OptimizerOptions, ReproductionProblem,
                           SingularNormalEquationsError, StateAnchor, optimize_map,
                           solution_csv, solution_summary)
from .svg import SvgScene
from .utils import atomic_write_text, write_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NO_CONVERGENCE = 4


def _load_demo_set(cfg: PipelineConfig) -> dm.DemoSet:
    if not cfg.demos:
        raise ConfigError("no demo files configured")
    try:
        raw = [dm.load_raw_demo(p) for p in cfg.demos]
    except (ValueError, KeyError, OSError) as exc:
        raise ConfigError(f"failed to read demos: {exc}") from exc
    if cfg.align == "dtw":
        raw = dm.dtw_align(raw, cfg.dtw_reference)
    return dm.DemoSet(demos=[dm.estimate_states(d, cfg.grid_n) for d in raw])


def _demo_weights(cfg: PipelineConfig, demo_set: dm.DemoSet, no_weighting: bool):
    if no_weighting or cfg.environment is None:
        return [np.ones(cfg.grid_n + 1) for _ in range(demo_set.k)]
    env = load_environment(cfg.environment)
    return [weight_trajectory(t, env, cfg.weights) for t in demo_set.demos]


def _weights_csv(weights) -> str:
    out = io.StringIO()
    out.write("demo,node,weight\n")
    for k, w in enumerate(weights):
        for i, v in enumerate(w):
            out.write(f"{k},{i},{repr(float(v))}\n")
    return out.getvalue()


def _report_weights(weights) -> None:
    for k, w in enumerate(weights):
        print(f"demo {k}: min weight {w.min():.6f}, mean weight {w.mean():.6f}")


def _initial_state(cfg: PipelineConfig, model_dim: int,
                   demo_set: dm.DemoSet | None) -> GaussianState:
    if cfg.init_state is not None:
        mean = np.asarray(cfg.init_state["mean"], dtype=float)
        cov = np.asarray(cfg.init_state["cov"], dtype=float)
        if mean.shape != (model_dim,) or cov.shape != (model_dim, model_dim):
            raise ConfigError("init_state dimensions do not match the model")
        return GaussianState(mean=mean, cov=cov)
    if demo_set is None:
        raise ConfigError("need either init_state or demo files to build the prior")
    return initial_state_distribution(demo_set)


def cmd_ingest(cfg: PipelineConfig, args) -> int:
    demo_set = _load_demo_set(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    for k, traj in enumerate(demo_set.demos):
        write_json(os.path.join(cfg.out_dir, f"trajectory_{k:03d}.json"),
                   dm.trajectory_to_dict(traj))
    write_json(os.path.join(cfg.out_dir, "ingest_summary.json"),
               {"demos": demo_set.k, "n_steps": demo_set.n_steps,
                "dim": demo_set.dim, "dt": demo_set.dt})
    print(f"ingested {demo_set.k} demos onto a {demo_set.n_steps}-step grid "
          f"(dt={demo_set.dt:.6f}, D={demo_set.dim})")
    return EXIT_OK


def cmd_weights(cfg: PipelineConfig, args) -> int:
    demo_set = _load_demo_set(cfg)
    weights = _demo_weights(cfg, demo_set, args.no_weighting)
    os.makedirs(cfg.out_dir, exist_ok=True)
    atomic_write_text(os.path.join(cfg.out_dir, "weights.csv"), _weights_csv(weights))
    _report_weights(weights)
    return EXIT_OK


def cmd_learn(cfg: PipelineConfig, args) -> int:
    demo_set = _load_demo_set(cfg)
    weights = _demo_weights(cfg, demo_set, args.no_weighting)
    model = learn_batch_weighted(demo_set, weights, cfg.ridge_lambda)
    os.makedirs(cfg.out_dir, exist_ok=True)
    save_model(os.path.join(cfg.out_dir, "model.json"), model)
    atomic_write_text(os.path.join(cfg.out_dir, "weights.csv"), _weights_csv(weights))
    _report_weights(weights)
    print(f"learned {model.n_steps}-step model (D={model.dim}) -> "
          f"{os.path.join(cfg.out_dir, 'model.json')}")
    return EXIT_OK


def cmd_assimilate(cfg: PipelineConfig, args) -> int:
    try:
        raw = dm.load_raw_demo(args.demo)
    except (ValueError, KeyError, OSError) as exc:
        raise ConfigError(f"failed to read demo {args.demo}: {exc}") from exc
    traj = dm.estimate_states(raw, cfg.grid_n)

    if os.path.exists(args.checkpoint):
        try:
            learner = load_checkpoint(args.checkpoint)
        except Exception as exc:
            raise ConfigError(f"corrupt checkpoint {args.checkpoint}: {exc}") from exc
        if learner.n_steps != traj.n_steps or learner.dim != traj.dim:
            raise ConfigError(
                f"checkpoint grid ({learner.n_steps}, {learner.dim}) does not match "
                f"demo grid ({traj.n_steps}, {traj.dim})")
    else:
        learner = init_prior(traj.n_steps, traj.dim, cfg.alpha, cfg.beta, dt=traj.dt)

    env_path = args.env if args.env is not None else cfg.environment
    if args.no_weighting or env_path is None:
        weights = np.ones(traj.n_steps + 1)
    else:
        weights = weight_trajectory(traj, load_environment(env_path), cfg.weights)
    assimilate_demo(learner, traj, weights)

    save_checkpoint(args.checkpoint, learner)
    os.makedirs(cfg.out_dir, exist_ok=True)
    save_model(os.path.join(cfg.out_dir, "model.json"), extract_map(learner))
    print(f"assimilated demo {args.demo} (weights min {weights.min():.6f}); "
          f"{learner.demos_seen} demos seen")
    return EXIT_OK


def _rollout_svg(prior: GaussianTrajectoryPrior, env, samples) -> str:
    """Prior mean with a one-sigma band, optional samples, and the scene.
    States are projected onto their first two dimensions (time vs value for
    scalar states)."""
    scene = SvgScene()
    if env is not None:
        scene.environment(env)
    stds = np.sqrt(np.clip(np.stack([np.diag(c) for c in prior.covs]), 0, None))
    if prior.dim >= 2:
        means = prior.means[:, :2]
        half = np.linalg.norm(stds[:, :2], axis=1)
        sample_paths = [traj.states[:, :2] for traj in samples]
    else:
        t = prior.dt * np.arange(prior.n_steps + 1)
        means = np.column_stack([t, prior.means[:, 0]])
        half = stds[:, 0]
        sample_paths = [np.column_stack([t, traj.states[:, 0]]) for traj in samples]
    scene.band(means, half)
    for path in sample_paths:
        scene.polyline(path, color="#9467bd", width=1.0, opacity=0.5)
    scene.polyline(means, color="#1f77b4", width=2.5)
    return scene.render()


def cmd_rollout(cfg: PipelineConfig, args) -> int:
    model = load_model(args.model)
    demo_set = _load_demo_set(cfg) if cfg.demos else None
    init = _initial_state(cfg, model.dim, demo_set)
    prior = build_joint_prior(model, init)
    os.makedirs(cfg.out_dir, exist_ok=True)
    atomic_write_text(os.path.join(cfg.out_dir, "prior.csv"), prior_band_csv(prior))
    samples = []
    if cfg.rollout_samples > 0:
        samples = sample_trajectories(prior, cfg.rollout_samples, seed=cfg.seed)
        out = io.StringIO()
        out.write("sample,t," + ",".join(f"x_{j + 1}" for j in range(model.dim)) + "\n")
        for si, traj in enumerate(samples):
            for i in range(traj.n_steps + 1):
                row = [str(si), repr(float(i * traj.dt))]
                row += [repr(float(v)) for v in traj.states[i]]
                out.write(",".join(row) + "\n")
        atomic_write_text(os.path.join(cfg.out_dir, "samples.csv"), out.getvalue())
    env = load_environment(cfg.environment) if cfg.environment else None
    atomic_write_text(os.path.join(cfg.out_dir, "rollout.svg"),
                      _rollout_svg(prior, env, samples))
    print(f"rolled out prior over {prior.n_steps} steps -> {cfg.out_dir}")
    return EXIT_OK


def _reproduction_factors(cfg: PipelineConfig, prior: GaussianTrajectoryPrior, env) -> list:
    """Configured anchors, then one obstacle factor over every node when the
    reproduction scene has obstacles."""
    rc = cfg.reproduction
    d = prior.dim
    factors = []
    for spec in rc.anchors:
        target = np.asarray(spec["state"], dtype=float)
        if target.shape != (d,):
            raise ConfigError(f"anchor state must have dimension {d}")
        factors.append(StateAnchor(index=int(spec["index"]), target=target,
                                   sigma=np.asarray(float(spec.get("sigma", rc.start_sigma)))))
    if env is not None and env.obstacles:
        lo, hi = scene_bounds(env, rc.sdf_margin)
        # make sure the prior's reachable area is inside the grid
        pos = prior.means[:, :env.dimension]
        spread = 3.0 * np.sqrt(np.clip(np.stack(
            [np.diag(c)[:env.dimension] for c in prior.covs]), 0, None)).max()
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
    model = load_model(args.model)
    demo_set = _load_demo_set(cfg) if cfg.demos else None
    init = _initial_state(cfg, model.dim, demo_set)
    prior = build_joint_prior(model, init)
    rc = cfg.reproduction
    starts = rc.starts if rc.starts else [None]
    os.makedirs(cfg.out_dir, exist_ok=True)

    opts = OptimizerOptions(max_iters=rc.max_iters, abs_tol=rc.abs_tol,
                            rel_tol=rc.rel_tol, lm_damping_init=rc.lm_damping_init,
                            tol_clear=rc.tol_clear)
    env = load_environment(rc.environment) if rc.environment else None
    base_factors = _reproduction_factors(cfg, prior, env)
    all_converged = True
    for si, start in enumerate(starts):
        factors = list(base_factors)
        if start is not None:
            target = np.asarray(start, dtype=float)
            if target.shape != (model.dim,):
                raise ConfigError(f"start state must have dimension {model.dim}")
            factors.append(StateAnchor(index=0, target=target,
                                       sigma=np.asarray(rc.start_sigma)))
        solution = optimize_map(ReproductionProblem(prior=prior, factors=factors,
                                                    options=opts))
        all_converged &= solution.converged
        stem = os.path.join(cfg.out_dir, f"solution_{si:03d}")
        atomic_write_text(stem + ".csv", solution_csv(solution))
        write_json(stem + ".json", solution_summary(solution))
        scene = SvgScene()
        if env is not None:
            scene.environment(env)
        stds = np.sqrt(np.clip(np.stack([np.diag(c) for c in prior.covs]), 0, None))
        scene.band(prior.means[:, :2], np.linalg.norm(stds[:, :2], axis=1))
        scene.polyline(prior.means[:, :2], color="#1f77b4", width=1.5, dashed=True)
        scene.polyline(solution.trajectory.states[:, :2], color="#2ca02c", width=2.5)
        atomic_write_text(stem + ".svg", scene.render())
        clear = solution.min_clearance
        clear_txt = "n/a" if clear >= NO_OBSTACLE_DISTANCE else f"{clear:.4f}"
        print(f"start {si}: objective {solution.objective:.6g}, "
              f"{solution.iterations} iterations, converged={solution.converged}, "
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
