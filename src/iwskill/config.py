"""Pipeline configuration: one JSON file drives every CLI stage.

Paths inside the file are resolved relative to the file's directory, so a
config plus its data directory is relocatable.
"""

import json
import os
from dataclasses import dataclass, field, fields

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


def _coerce_scalars(target, raw: dict) -> None:
    """Set every int or float field of `target` that `raw` names, converted
    by the type of the field's default."""
    for f in fields(target):
        if f.name in raw and type(f.default) in (int, float):
            setattr(target, f.name, type(f.default)(raw[f.name]))


def load_config(path: str) -> PipelineConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc

    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return None if p is None else os.path.normpath(os.path.join(base, p))

    cfg = PipelineConfig()
    cfg.demos = [resolve(p) for p in raw.get("demos", [])]
    cfg.environment = resolve(raw.get("environment"))
    _coerce_scalars(cfg, raw)
    cfg.align = raw.get("align", cfg.align)
    cfg.dtw_reference = raw.get("dtw_reference")
    if "weights" in raw:
        try:
            cfg.weights = WeightParams(epsilon=float(raw["weights"]["epsilon"]),
                                       sigma_obs=float(raw["weights"]["sigma_obs"]))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{path}: bad weights block ({exc})") from exc
    if raw.get("ridge_lambda") is not None:
        cfg.ridge_lambda = float(raw["ridge_lambda"])
    cfg.out_dir = resolve(raw.get("out_dir", cfg.out_dir))
    cfg.init_state = raw.get("init_state")

    repro_raw = raw.get("reproduction", {})
    unknown = set(repro_raw) - _REPRO_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown reproduction keys {sorted(unknown)}")
    rc = ReproductionConfig(environment=resolve(repro_raw.get("environment")),
                            starts=repro_raw.get("starts", []),
                            anchors=repro_raw.get("anchors", []))
    _coerce_scalars(rc, repro_raw)
    cfg.reproduction = rc

    cfg.validate()
    return cfg
