import json
import re

import pytest

from iwskill.config import ConfigError, load_config
from iwskill.utils import write_json

TOP_KEYS = {"demos", "environment", "grid_n", "align", "dtw_reference", "weights",
            "ridge_lambda", "alpha", "beta", "seed", "out_dir", "rollout_samples",
            "init_state", "reproduction"}
REPRO_KEYS = {"environment", "starts", "start_sigma", "anchors", "eps_repro",
              "sigma_repro", "sdf_resolution", "sdf_margin", "max_iters", "abs_tol",
              "rel_tol", "lm_damping_init", "tol_clear"}


def test_accepted_keys_are_exactly_the_documented_ones(tmp_path):
    from iwskill.config import _REPRO_KEYS, _TOP_KEYS
    assert _TOP_KEYS == TOP_KEYS and _REPRO_KEYS == REPRO_KEYS
    path = str(tmp_path / "cfg.json")
    write_json(path, {"reproduction": {"max_iter": 5}})
    with pytest.raises(ConfigError, match=r"unknown reproduction keys \['max_iter'\]"):
        load_config(path)


def test_scalars_take_the_type_of_their_default(tmp_path):
    path = str(tmp_path / "cfg.json")
    write_json(path, {"grid_n": 12.0, "alpha": 3, "seed": "4", "rollout_samples": 2.0,
                      "reproduction": {"start_sigma": 1, "max_iters": 7.0, "tol_clear": "0.5",
                                       "starts": [[0.0, 1.0]]}})
    cfg = load_config(path)
    assert (cfg.grid_n, cfg.alpha, cfg.seed, cfg.rollout_samples) == (12, 3.0, 4, 2)
    assert type(cfg.grid_n) is int and type(cfg.alpha) is float
    rc = cfg.reproduction
    assert (rc.start_sigma, rc.options.max_iters, rc.options.tol_clear) == (1.0, 7, 0.5)
    assert type(rc.start_sigma) is float and type(rc.options.max_iters) is int
    assert rc.starts == [[0.0, 1.0]] and rc.anchors == [] and rc.environment is None
    assert (rc.eps_repro, rc.options.abs_tol) == (0.1, 1e-8)  # untouched defaults


@pytest.mark.parametrize("raw,message", [
    ({"grid_n": None}, "grid_n must be an int, got None"),
    ({"grid_n": "abc"}, "grid_n must be an int, got 'abc'"),
    ({"alpha": None}, "alpha must be a number, got None"),
    ({"grid_n": 1e999}, "grid_n must be an int, got inf"),
    ({"ridge_lambda": "small"}, "ridge_lambda must be a number"),
    ({"dtw_reference": "first"}, "dtw_reference must be an int"),
    ({"reproduction": {"max_iters": None}}, "reproduction.max_iters must be an int, got None"),
    ({"reproduction": {"sigma_repro": None}}, "reproduction.sigma_repro must be a number"),
    ({"weights": {"epsilon": None, "sigma_obs": 0.01}}, "weights.epsilon must be a number"),
    ({"weights": {"epsilon": 0.3, "sigma_obs": None}}, "weights.sigma_obs must be a number"),
    ({"weights": None}, "weights must be an object, got None"),
    ({"weights": [0.3, 0.01]}, "weights must be an object"),
    ({"reproduction": None}, "reproduction must be an object, got None"),
    ({"reproduction": [1.0]}, "reproduction must be an object"),
    ({"demos": "demo_000.json"}, "demos must be a list of paths, got 'demo_000.json'"),
    ({"demos": [3]}, "demos must be a path, got 3"),
    ({"environment": 5}, "environment must be a path, got 5"),
    ({"out_dir": None}, "out_dir must be a path, got None"),
    ({"init_state": [0.0]}, "init_state must be an object"),
    ({"reproduction": {"environment": ["env.json"]}}, "reproduction.environment must be a path"),
    ({"reproduction": {"starts": 5}}, "reproduction.starts must be a list of states"),
    ({"reproduction": {"anchors": [[0, 1.0]]}}, "reproduction.anchors must be a list of objects"),
    ({"init_state": {"cov": [[0.01]]}}, "init_state.mean is missing"),
    ({"init_state": {"mean": [0.0]}}, "init_state.cov is missing"),
    ({"init_state": {"mean": [0.0], "cov": [[-1.0]]}},
     "init_state.cov must be a positive semi-definite matrix, got [[-1.0]]"),
    ({"reproduction": {"start_sigma": -0.001}},
     "reproduction.start_sigma must be a positive number, got -0.001"),
    ({"reproduction": {"start_sigma": 0}},
     "reproduction.start_sigma must be a positive number, got 0"),
    ({"reproduction": {"start_sigma": 1e999}},
     "reproduction.start_sigma must be a positive number, got inf"),
    ({"reproduction": {"anchors": [{"index": 3, "state": [0.0], "sigma": 0}]}},
     "reproduction.anchors[0].sigma must be a positive number, got 0"),
    ({"reproduction": {"anchors": [{"index": 3, "state": [0.0], "sigma": [0.1]}]}},
     "reproduction.anchors[0].sigma must be a number, got [0.1]"),
    ({"reproduction": {"anchors": [{"index": 3, "state": [0.0]},
                                   {"index": [1], "state": [0.0]}]}},
     "reproduction.anchors[1].index must be an int, got [1]"),
    ({"reproduction": {"anchors": [{"state": [0.0]}]}},
     "reproduction.anchors[0].index must be an int, got None"),
    ({"reproduction": {"anchors": [{"index": 3, "state": 0.5}]}},
     "reproduction.anchors[0].state must be a list of numbers, got 0.5"),
    ({"reproduction": {"anchors": [{"index": 3, "state": [0.0, "x"]}]}},
     "reproduction.anchors[0].state must be a list of numbers, got [0.0, 'x']"),
    ({"reproduction": {"start_sigma": -1.0, "anchors": [{"index": 3, "state": [0.0]}]}},
     "reproduction.start_sigma must be a positive number, got -1.0"),
    ({"reproduction": {"lm_damping_init": -1.0}},
     "reproduction.lm_damping_init must be a positive number, got -1.0"),
    ({"reproduction": {"lm_damping_init": 0}},
     "reproduction.lm_damping_init must be a positive number, got 0"),
    ({"reproduction": {"lm_damping_init": 1e999}},
     "reproduction.lm_damping_init must be a positive number, got inf"),
    ({"grid_n": 12.7}, "grid_n must be an int, got 12.7"),
    ({"reproduction": {"anchors": [{"index": 2.5, "state": [0.0]}]}},
     "reproduction.anchors[0].index must be an int, got 2.5"),
    ({"reproduction": {"starts": [["a", 0, 0, 0]]}},
     "reproduction.starts[0] must be a list of numbers, got ['a', 0, 0, 0]"),
    ({"reproduction": {"starts": [[0.0, 1.0], 0.5]}},
     "reproduction.starts[1] must be a list of numbers, got 0.5"),
    ({"init_state": {"mean": [0.0], "cov": [[{"a": 1}]]}},
     "init_state.cov must be a positive semi-definite matrix, got [[{'a': 1}]]"),
    ({"init_state": {"mean": [0.0, 0.0], "cov": [[1.0, 0.5], [0.0, 1.0]]}},
     "init_state.cov must be a positive semi-definite matrix, got [[1.0, 0.5], [0.0, 1.0]]"),
    ({"init_state": {"mean": [0.0, 0.0], "cov": [[1.0]]}},
     "init_state.cov must be a positive semi-definite matrix, got [[1.0]]"),
    ({"init_state": {"mean": "origin", "cov": [[1.0]]}},
     "init_state.mean must be a list of D finite numbers, got 'origin'"),
])
def test_malformed_value_names_its_key(tmp_path, raw, message):
    path = str(tmp_path / "cfg.json")
    with open(path, "w") as fh:
        json.dump(raw, fh)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
        load_config(path)


def test_anchors_take_start_sigma_by_default(tmp_path):
    path = str(tmp_path / "cfg.json")
    write_json(path, {"reproduction": {"start_sigma": 0.25, "anchors": [
        {"index": 4, "state": [1, 2.5]}, {"index": 7.0, "state": [0.0, 0.0], "sigma": 1e-3}]}})
    a, b = load_config(path).reproduction.anchors
    assert (a.index, a.sigma, b.index, b.sigma) == (4, 0.25, 7, 1e-3)
    assert a.target.dtype == float and a.target.tolist() == [1.0, 2.5]


def test_config_must_be_an_object(tmp_path):
    path = str(tmp_path / "cfg.json")
    write_json(path, [{"grid_n": 10}])
    with pytest.raises(ConfigError, match="the config must be an object"):
        load_config(path)
