import json
import os
import re
from dataclasses import fields

import pytest

from iwskill.config import ConfigError, load_config
from iwskill.utils import write_json

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
TOP_KEYS = {"demos", "environment", "grid_n", "align", "weights", "alpha", "beta", "seed",
            "out_dir", "rollout_samples", "reproduction"}
REPRO_KEYS = {"environment", "starts", "start_sigma", "anchors", "eps_repro",
              "sigma_repro", "max_iters"}


def test_accepted_keys_are_exactly_the_documented_ones(tmp_path):
    from iwskill.config import _REPRO_KEYS, _TOP_KEYS
    assert _TOP_KEYS == TOP_KEYS and _REPRO_KEYS == REPRO_KEYS
    path = str(tmp_path / "cfg.json")
    write_json(path, {"reproduction": {"max_iter": 5}})
    with pytest.raises(ConfigError, match=r"unknown reproduction keys \['max_iter'\]"):
        load_config(path)


@pytest.mark.parametrize("key", ["abs_tol", "rel_tol", "lm_damping_init", "tol_clear"])
def test_removed_solver_settings_are_refused_by_name(tmp_path, key):
    # the LM numerics are constants of reproduction.py; old configs name them
    path = str(tmp_path / "cfg.json")
    write_json(path, {"reproduction": {"max_iters": 50, key: 0.01}})
    with pytest.raises(ConfigError, match=re.escape(f"{path}: unknown reproduction keys "
                                                    f"['{key}']")):
        load_config(path)


def test_readme_documents_exactly_the_accepted_keys():
    from iwskill.config import _REPRO_KEYS, _TOP_KEYS
    from iwskill.environment import WeightParams
    with open(README) as fh:
        text = fh.read()
    tables = {}
    for head, body in re.findall(r"^\| (.*?) \| default \| meaning \|\n\|---\|---\|---\|\n"
                                 r"((?:\|.*\n)+)", text, re.M):
        tables[head] = {key: default for keys, default in
                        re.findall(r"^\| (.*?) \| (.*?) \|", body, re.M)
                        for key in re.findall(r"`(\w+)`", keys)}
    assert set(tables) == {"key", "`reproduction` key"}
    assert set(tables["key"]) == _TOP_KEYS
    assert set(tables["`reproduction` key"]) == _REPRO_KEYS
    weights = json.loads(tables["key"]["weights"].strip("`"))
    assert set(weights) == {f.name for f in fields(WeightParams)}


def test_scalars_take_the_type_of_their_default(tmp_path):
    path = str(tmp_path / "cfg.json")
    write_json(path, {"grid_n": 12.0, "alpha": 3, "seed": 4, "rollout_samples": 2.0,
                      "reproduction": {"start_sigma": 1, "max_iters": 7.0, "starts": [[0, 1.0]]}})
    cfg = load_config(path)
    assert (cfg.grid_n, cfg.alpha, cfg.seed, cfg.rollout_samples) == (12, 3.0, 4, 2)
    assert type(cfg.grid_n) is int and type(cfg.alpha) is float
    rc = cfg.reproduction
    assert (rc.start_sigma, rc.max_iters) == (1.0, 7)
    assert type(rc.start_sigma) is float and type(rc.max_iters) is int
    assert [s.tolist() for s in rc.starts] == [[0.0, 1.0]] and rc.starts[0].dtype == float
    assert rc.anchors == [] and rc.environment is None
    assert (rc.eps_repro, rc.sigma_repro) == (0.1, 0.05)  # untouched defaults


# One row per malformed value: (label, config, message). The test id is
# "label-message", so a row can be deleted without renaming any other; the
# labels raw0-raw49 are the positions the rows held when ids were positional.
MALFORMED_VALUES = [
    ("raw0", {"grid_n": None}, "grid_n must be an int, got None"),
    ("raw1", {"grid_n": "abc"}, "grid_n must be an int, got 'abc'"),
    ("raw2", {"alpha": None}, "alpha must be a number, got None"),
    ("raw3", {"grid_n": 1e999}, "grid_n must be an int, got inf"),
    ("raw4", {"ridge_lambda": "small"}, "unknown config keys ['ridge_lambda']"),
    ("raw5", {"dtw_reference": "first"}, "unknown config keys ['dtw_reference']"),
    ("raw6", {"reproduction": {"max_iters": None}},
     "reproduction.max_iters must be an int, got None"),
    ("raw7", {"reproduction": {"sigma_repro": None}}, "reproduction.sigma_repro must be a number"),
    ("raw8", {"weights": {"epsilon": None, "sigma_obs": 0.01}},
     "weights.epsilon must be a number"),
    ("raw9", {"weights": {"epsilon": 0.3, "sigma_obs": None}},
     "weights.sigma_obs must be a number"),
    ("raw10", {"weights": None}, "weights must be an object, got None"),
    ("raw11", {"weights": [0.3, 0.01]}, "weights must be an object"),
    ("raw12", {"reproduction": None}, "reproduction must be an object, got None"),
    ("raw13", {"reproduction": [1.0]}, "reproduction must be an object"),
    ("raw14", {"demos": "demo_000.json"}, "demos must be a list of paths, got 'demo_000.json'"),
    ("raw15", {"demos": [3]}, "demos must be a path, got 3"),
    ("raw16", {"environment": 5}, "environment must be a path, got 5"),
    ("raw17", {"out_dir": None}, "out_dir must be a path, got None"),
    ("raw18", {"init_state": [0.0]}, "unknown config keys ['init_state']"),
    ("raw19", {"reproduction": {"environment": ["env.json"]}},
     "reproduction.environment must be a path"),
    ("raw20", {"reproduction": {"starts": 5}}, "reproduction.starts must be a list of states"),
    ("raw21", {"reproduction": {"anchors": [[0, 1.0]]}},
     "reproduction.anchors must be a list of objects"),
    ("raw22", {"init_state": {"cov": [[0.01]]}}, "unknown config keys ['init_state']"),
    ("raw23", {"init_state": {"mean": [0.0]}}, "unknown config keys ['init_state']"),
    ("raw24", {"init_state": {"mean": [0.0], "cov": [[-1.0]]}},
     "unknown config keys ['init_state']"),
    ("raw25", {"reproduction": {"start_sigma": -0.001}},
     "reproduction.start_sigma must be a positive finite number, got -0.001"),
    ("raw26", {"reproduction": {"start_sigma": 0}},
     "reproduction.start_sigma must be a positive finite number, got 0.0"),
    ("raw27", {"reproduction": {"start_sigma": 1e999}},
     "reproduction.start_sigma must be a positive finite number, got inf"),
    ("raw28", {"reproduction": {"anchors": [{"index": 3, "state": [0.0], "sigma": 0}]}},
     "reproduction.anchors[0].sigma must be a positive finite number, got 0.0"),
    ("raw29", {"reproduction": {"anchors": [{"index": 3, "state": [0.0], "sigma": [0.1]}]}},
     "reproduction.anchors[0].sigma must be a number, got [0.1]"),
    ("raw30", {"reproduction": {"anchors": [{"index": 3, "state": [0.0]},
                                   {"index": [1], "state": [0.0]}]}},
     "reproduction.anchors[1].index must be an int, got [1]"),
    ("raw31", {"reproduction": {"anchors": [{"state": [0.0]}]}},
     "reproduction.anchors[0].index must be an int, got None"),
    ("raw32", {"reproduction": {"anchors": [{"index": 3, "state": 0.5}]}},
     "reproduction.anchors[0].state must be a number array of shape (n,) with n >= 1, got 0.5"),
    ("raw33", {"reproduction": {"anchors": [{"index": 3, "state": [0.0, "x"]}]}},
     "reproduction.anchors[0].state must be a number array of shape (n,) with n >= 1, "
     "got [0.0, 'x']"),
    ("raw34", {"reproduction": {"start_sigma": -1.0, "anchors": [{"index": 3, "state": [0.0]}]}},
     "reproduction.start_sigma must be a positive finite number, got -1.0"),
    ("raw35", {"reproduction": {"max_iters": 0}},
     "reproduction.max_iters must be a positive int, got 0"),
    ("raw36", {"reproduction": {"max_iters": -5}},
     "reproduction.max_iters must be a positive int, got -5"),
    ("raw37", {"reproduction": {"eps_repro": -1}},
     "reproduction.eps_repro must be >= 0, got -1.0"),
    ("raw38", {"grid_n": 12.7}, "grid_n must be an int, got 12.7"),
    ("raw39", {"reproduction": {"anchors": [{"index": 2.5, "state": [0.0]}]}},
     "reproduction.anchors[0].index must be an int, got 2.5"),
    ("raw40", {"reproduction": {"starts": [["a", 0, 0, 0]]}},
     "reproduction.starts[0] must be a number array of shape (n,) with n >= 1, "
     "got ['a', 0, 0, 0]"),
    ("raw41", {"reproduction": {"starts": [[0.0, 1.0], 0.5]}},
     "reproduction.starts[1] must be a number array of shape (n,) with n >= 1, got 0.5"),
    ("raw42", {"init_state": {"mean": [0.0], "cov": [[{"a": 1}]]}},
     "unknown config keys ['init_state']"),
    ("raw43", {"init_state": {"mean": [0.0, 0.0], "cov": [[1.0, 0.5], [0.0, 1.0]]}},
     "unknown config keys ['init_state']"),
    ("raw44", {"init_state": {"mean": [0.0, 0.0], "cov": [[1.0]]}},
     "unknown config keys ['init_state']"),
    ("raw45", {"init_state": {"mean": "origin", "cov": [[1.0]]}},
     "unknown config keys ['init_state']"),
    ("raw46", {"weights": {"epsilon": 0.3, "sigma_ob": 0.001}},
     "weights must have exactly the keys ['epsilon', 'sigma_obs'], got ['epsilon', 'sigma_ob']"),
    ("raw47", {"weights": {"epsilon": 0.3}},
     "weights must have exactly the keys ['epsilon', 'sigma_obs'], got ['epsilon']"),
    ("raw48", {"reproduction": {"starts": [[True, 0.5, 0, 0]]}},
     "reproduction.starts[0] must be a number array, got True at index [0]"),
    ("raw49", {"reproduction": {"anchors": [{"index": 3, "state": [0, False, 1, 1]}]}},
     "reproduction.anchors[0].state must be a number array, got False at index [1]"),
    ("seed", {"seed": -5}, "seed must be >= 0, got -5"),
    ("rollout_samples", {"rollout_samples": -3}, "rollout_samples must be >= 0, got -3"),
    ("alpha", {"alpha": -1}, "alpha must be positive with a finite reciprocal, got -1.0"),
    ("beta", {"beta": 0}, "beta must be positive with a finite reciprocal, got 0.0"),
    ("subnormal alpha", {"alpha": 5e-324},
     "alpha must be positive with a finite reciprocal, got 5e-324"),
]


@pytest.mark.parametrize("raw,message", [
    pytest.param(raw, message, id=f"{label}-{message}")
    for label, raw, message in MALFORMED_VALUES])
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


def test_invalid_json_names_the_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("not json")
    with pytest.raises(ConfigError) as exc:
        load_config(str(path))
    assert str(exc.value) == f"{path}: invalid JSON (Expecting value: line 1 column 1 (char 0))"
