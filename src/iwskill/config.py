"""Pipeline configuration: one JSON file drives every CLI stage.

Paths inside the file are resolved relative to the file's directory, so a
config plus its data directory is relocatable.
"""

import json
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .environment import WeightParams


class ConfigError(Exception):
    """Bad or missing configuration input (CLI exit code 2)."""


@dataclass
class ReproductionConfig:
    environment: str | None = None
    starts: list = field(default_factory=list)
    start_sigma: float = 1e-3
    anchors: list = field(default_factory=list)     # {"index", "state", "sigma"}
    eps_repro: float = 0.1
    sigma_repro: float = 0.05
    sdf_resolution: float = 0.02
    sdf_margin: float = 0.5
    max_iters: int = 100
    abs_tol: float = 1e-8
    rel_tol: float = 1e-8
    lm_damping_init: float = 1e-4
    tol_clear: float = 0.01


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

    def validate(self) -> None:
        if self.grid_n < 1:
            raise ConfigError("grid_n must be >= 1")
        if self.align not in ("dtw", "none"):
            raise ConfigError(f"align must be 'dtw' or 'none', got {self.align!r}")
        for path in self.demos:
            if not os.path.exists(path):
                raise ConfigError(f"demo file not found: {path}")
        for path in (self.environment, self.reproduction.environment):
            if path is not None and not os.path.exists(path):
                raise ConfigError(f"environment file not found: {path}")


_TOP_KEYS = {f.name for f in fields(PipelineConfig)}
_REPRO_KEYS = {f.name for f in fields(ReproductionConfig)}


def _scalar(raw: dict, key: str, kind: type, where: str):
    """raw[key] as a `kind` (int or float), or a ConfigError naming the key."""
    try:
        return kind(raw[key])
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}{key} must be {'an int' if kind is int else 'a number'}, "
                          f"got {raw[key]!r}") from None


def _coerce_scalars(target, raw: dict, where: str) -> None:
    """Set every int or float field of `target` that `raw` names, converted
    by the type of the field's default."""
    for f in fields(target):
        if f.name in raw and type(f.default) in (int, float):
            setattr(target, f.name, _scalar(raw, f.name, type(f.default), where))


def _typed(value, kind: type, key: str, what: str):
    """`value` itself, or a ConfigError naming `key` if it is not a `kind`."""
    if not isinstance(value, kind):
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return value


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

    cfg = PipelineConfig()
    cfg.demos = [resolve(p, "demos")
                 for p in _typed(raw.get("demos", []), list, where + "demos", "a list of paths")]
    cfg.environment = resolve(raw.get("environment"), "environment", optional=True)
    _coerce_scalars(cfg, raw, where)
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
    rc = ReproductionConfig(
        environment=resolve(repro_raw.get("environment"), "reproduction.environment",
                            optional=True),
        starts=_typed(repro_raw.get("starts", []), list, repro + "starts", "a list of states"),
        anchors=[_typed(a, dict, repro + "anchors", "a list of objects")
                 for a in _typed(repro_raw.get("anchors", []), list, repro + "anchors",
                                 "a list of objects")])
    _coerce_scalars(rc, repro_raw, repro)
    cfg.reproduction = rc

    cfg.validate()
    return cfg
