"""Pipeline configuration: one JSON file drives every CLI stage.

Paths inside the file are resolved relative to the file's directory, so a
config plus its data directory is relocatable.
"""

import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .environment import WeightParams
from .reproduction import OptimizerOptions, StateAnchor


class ConfigError(Exception):
    """Bad or missing configuration input (CLI exit code 2)."""


@dataclass
class ReproductionConfig:
    environment: str | None = None
    starts: list = field(default_factory=list)
    start_sigma: float = 1e-3
    anchors: list = field(default_factory=list)     # StateAnchor, from {"index", "state", "sigma"}
    eps_repro: float = 0.1
    sigma_repro: float = 0.05
    sdf_resolution: float = 0.02
    sdf_margin: float = 0.5
    # read from the same flat keys: max_iters, abs_tol, rel_tol, lm_damping_init, tol_clear
    options: OptimizerOptions = field(default_factory=OptimizerOptions)


@dataclass
class PipelineConfig:
    demos: list = field(default_factory=list)
    environment: str | None = None
    grid_n: int = 50
    align: str = "dtw"                # "dtw" or "none" (demos already aligned)
    dtw_reference: int | None = None
    weights: WeightParams = field(default_factory=WeightParams)
    ridge_lambda: float | None = None
    alpha: float = 1e10
    beta: float = 1e10
    seed: int = 0
    out_dir: str = "out"
    rollout_samples: int = 0
    init_state: dict | None = None     # {"mean": [...], "cov": [[...]]}
    reproduction: ReproductionConfig = field(default_factory=ReproductionConfig)


_TOP_KEYS = {f.name for f in fields(PipelineConfig)}
_REPRO_KEYS = {f.name for f in fields(ReproductionConfig) + fields(OptimizerOptions)} - {"options"}


def _scalar(raw: dict, key: str, kind: type, where: str, positive: bool = False):
    """raw[key] as a `kind` (int or float; a whole number for int), or a ConfigError
    naming the key; with `positive`, also one if it is not a positive finite number."""
    try:
        value = kind(raw[key])
        if kind is int and isinstance(raw[key], float) and not raw[key].is_integer():
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}{key} must be {'an int' if kind is int else 'a number'}, "
                          f"got {raw[key]!r}") from None
    if positive and not 0 < value < math.inf:
        raise ConfigError(f"{where}{key} must be a positive number, got {raw[key]!r}")
    return value


def _scalars(cls: type, raw: dict, where: str) -> dict:
    """Every int or float field of dataclass `cls` that `raw` names,
    converted by the type of the field's default."""
    return {f.name: _scalar(raw, f.name, type(f.default), where) for f in fields(cls)
            if f.name in raw and type(f.default) in (int, float)}


def _typed(value, kind: type, key: str, what: str):
    """`value` itself, or a ConfigError naming `key` if it is not a `kind`."""
    if not isinstance(value, kind):
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return value


def _state(value, key: str) -> list:
    """`value` itself, or a ConfigError naming `key` if it is not a list of numbers."""
    if not (isinstance(value, list) and all(isinstance(v, (int, float)) for v in value)):
        raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
    return value


def _anchor(raw: dict, where: str, start_sigma: float) -> StateAnchor:
    """One `reproduction.anchors` entry; its `sigma` defaults to start_sigma."""
    raw = {"index": None, "state": None, "sigma": start_sigma, **raw}
    return StateAnchor(index=_scalar(raw, "index", int, where),
                       target=np.asarray(_state(raw["state"], where + "state"), float),
                       sigma=_scalar(raw, "sigma", float, where, positive=True))


def load_config(path: str) -> PipelineConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc

    where = f"{path}: "
    _typed(raw, dict, f"{where}the config", "an object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p, key, optional=False):
        if p is None and optional:
            return None
        return os.path.normpath(os.path.join(base, _typed(p, str, where + key, "a path")))

    cfg = PipelineConfig(**_scalars(PipelineConfig, raw, where))
    cfg.demos = [resolve(p, "demos")
                 for p in _typed(raw.get("demos", []), list, where + "demos", "a list of paths")]
    cfg.environment = resolve(raw.get("environment"), "environment", optional=True)
    cfg.align = raw.get("align", cfg.align)
    if raw.get("dtw_reference") is not None:
        cfg.dtw_reference = _scalar(raw, "dtw_reference", int, where)
    if "weights" in raw:
        block = _typed(raw["weights"], dict, where + "weights", "an object")
        try:
            cfg.weights = WeightParams(epsilon=_scalar(block, "epsilon", float, where + "weights."),
                                       sigma_obs=_scalar(block, "sigma_obs", float,
                                                         where + "weights."))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{path}: bad weights block ({exc})") from exc
    if raw.get("ridge_lambda") is not None:
        cfg.ridge_lambda = _scalar(raw, "ridge_lambda", float, where)
    cfg.out_dir = resolve(raw.get("out_dir", cfg.out_dir), "out_dir")
    if raw.get("init_state") is not None:
        cfg.init_state = _typed(raw["init_state"], dict, where + "init_state", "an object")
        for key in ("mean", "cov"):
            if key not in cfg.init_state:
                raise ConfigError(f"{where}init_state.{key} is missing")
        cov = np.asarray(cfg.init_state["cov"], dtype=float)
        if (cov.ndim != 2 or cov.shape[0] != cov.shape[1] or not np.isfinite(cov).all()
                or np.linalg.eigvalsh(cov).min() < -1e-12 * np.abs(cov).max()):
            raise ConfigError(f"{where}init_state.cov must be a positive semi-definite "
                              f"matrix, got {cfg.init_state['cov']!r}")

    repro_raw = _typed(raw.get("reproduction", {}), dict, where + "reproduction", "an object")
    unknown = set(repro_raw) - _REPRO_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown reproduction keys {sorted(unknown)}")
    repro = where + "reproduction."
    for key in ("start_sigma", "lm_damping_init"):
        if key in repro_raw:
            _scalar(repro_raw, key, float, repro, positive=True)
    rc = ReproductionConfig(**_scalars(ReproductionConfig, repro_raw, repro),
                            options=OptimizerOptions(**_scalars(OptimizerOptions, repro_raw,
                                                                repro)))
    rc.environment = resolve(repro_raw.get("environment"), "reproduction.environment",
                             optional=True)
    rc.starts = [_state(start, f"{repro}starts[{i}]") for i, start in enumerate(
        _typed(repro_raw.get("starts", []), list, repro + "starts", "a list of states"))]
    rc.anchors = [_anchor(_typed(a, dict, repro + "anchors", "a list of objects"),
                          f"{repro}anchors[{i}].", rc.start_sigma)
                  for i, a in enumerate(_typed(repro_raw.get("anchors", []), list,
                                               repro + "anchors", "a list of objects"))]
    cfg.reproduction = rc

    if cfg.grid_n < 1:
        raise ConfigError("grid_n must be >= 1")
    if cfg.align not in ("dtw", "none"):
        raise ConfigError(f"align must be 'dtw' or 'none', got {cfg.align!r}")
    return cfg
