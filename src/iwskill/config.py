"""Pipeline configuration: one JSON file drives every CLI stage.

Paths inside the file are resolved relative to the file's directory, so a
config plus its data directory is relocatable.
"""

import json
import math
import os
from dataclasses import dataclass, field, fields

from .environment import WeightParams
from .reproduction import LM_MAX_ITERS, StateAnchor
from .utils import checked_array, checked_number


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
    max_iters: int = LM_MAX_ITERS


@dataclass
class PipelineConfig:
    demos: list = field(default_factory=list)
    environment: str | None = None
    grid_n: int = 50
    align: str = "dtw"                # "dtw" or "none" (demos already aligned)
    weights: WeightParams = field(default_factory=WeightParams)
    alpha: float = 1e10
    beta: float = 1e10
    seed: int = 0
    out_dir: str = "out"
    rollout_samples: int = 0
    reproduction: ReproductionConfig = field(default_factory=ReproductionConfig)


_TOP_KEYS = {f.name for f in fields(PipelineConfig)}
_REPRO_KEYS = {f.name for f in fields(ReproductionConfig)}
_POSITIVE = {"grid_n", "start_sigma", "sigma_repro", "max_iters"}


def _scalars(cls: type, raw: dict, where: str) -> dict:
    """Every int or float field of dataclass `cls` that `raw` names, read as
    a number of the type of the field's default, positive for _POSITIVE."""
    return {f.name: checked_number(raw[f.name], where + f.name, type(f.default),
                                   f.name in _POSITIVE)
            for f in fields(cls) if f.name in raw and type(f.default) in (int, float)}


def _typed(value, kind: type, key: str, what: str):
    """`value` itself, or a ConfigError naming `key` if it is not a `kind`."""
    if not isinstance(value, kind):
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return value


def _anchor(raw: dict, where: str, start_sigma: float) -> StateAnchor:
    """One `reproduction.anchors` entry; its `sigma` defaults to start_sigma."""
    raw = {"index": None, "state": None, "sigma": start_sigma, **raw}
    return StateAnchor(index=checked_number(raw["index"], where + "index", int),
                       target=checked_array(raw["state"], where + "state", (None,)),
                       sigma=checked_number(raw["sigma"], where + "sigma", positive=True))


def load_config(path: str) -> PipelineConfig:
    """The config at `path`; a ConfigError names the file, and the key of a
    value that is not of its documented type."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    try:
        return _parse(raw, path)
    except ValueError as exc:  # the number readers name the file and the key
        raise ConfigError(str(exc)) from None


def _parse(raw, path: str) -> PipelineConfig:
    """The config of the JSON value `raw` read from `path`."""
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
    for key, value in (("alpha", cfg.alpha), ("beta", cfg.beta)):  # the learner starts at I/value
        if not (value > 0 and 1.0 / value < math.inf):
            raise ConfigError(f"{where}{key} must be positive with a finite reciprocal, "
                              f"got {value!r}")
    cfg.demos = [resolve(p, "demos")
                 for p in _typed(raw.get("demos", []), list, where + "demos", "a list of paths")]
    cfg.environment = resolve(raw.get("environment"), "environment", optional=True)
    cfg.align = raw.get("align", cfg.align)
    if "weights" in raw:
        block = _typed(raw["weights"], dict, where + "weights", "an object")
        keys = sorted(f.name for f in fields(WeightParams))
        if sorted(block) != keys:
            raise ConfigError(f"{where}weights must have exactly the keys {keys}, "
                              f"got {sorted(block)}")
        params = _scalars(WeightParams, block, where + "weights.")
        try:
            cfg.weights = WeightParams(**params)
        except ValueError as exc:
            raise ConfigError(f"{where}weights.{exc}") from None
    cfg.out_dir = resolve(raw.get("out_dir", cfg.out_dir), "out_dir")

    repro_raw = _typed(raw.get("reproduction", {}), dict, where + "reproduction", "an object")
    unknown = set(repro_raw) - _REPRO_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown reproduction keys {sorted(unknown)}")
    repro = where + "reproduction."
    rc = ReproductionConfig(**_scalars(ReproductionConfig, repro_raw, repro))
    for key, value in (("seed", cfg.seed), ("rollout_samples", cfg.rollout_samples),
                       ("reproduction.eps_repro", rc.eps_repro)):
        if value < 0:
            raise ConfigError(f"{where}{key} must be >= 0, got {value!r}")
    rc.environment = resolve(repro_raw.get("environment"), "reproduction.environment",
                             optional=True)
    rc.starts = [checked_array(start, f"{repro}starts[{i}]", (None,)) for i, start in enumerate(
        _typed(repro_raw.get("starts", []), list, repro + "starts", "a list of states"))]
    rc.anchors = [_anchor(_typed(a, dict, repro + "anchors", "a list of objects"),
                          f"{repro}anchors[{i}].", rc.start_sigma)
                  for i, a in enumerate(_typed(repro_raw.get("anchors", []), list,
                                               repro + "anchors", "a list of objects"))]
    cfg.reproduction = rc

    if cfg.align not in ("dtw", "none"):
        raise ConfigError(f"{where}align must be 'dtw' or 'none', got {cfg.align!r}")
    return cfg
