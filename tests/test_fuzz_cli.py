"""Property: one malformed value in the config, the scene, `model.json`, a
demo or the learner checkpoint (or one deleted key) ends the stage that reads
the file with exit 0, 2, 3 or 4, at most one stderr line and no
RuntimeWarning; on exit 0 every artifact is finite."""

import contextlib
import io
import json
import math
import os
import re
import shutil
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from iwskill.cli import main as cli_main
from iwskill.demos import save_raw_demo
from iwskill.environment import environment_to_dict
from iwskill.synthetic import make_reaching_scene
from iwskill.utils import write_json

GRID_N = 20
DIM = 4
REACHING = make_reaching_scene(n_raw=40)
SCENE = environment_to_dict(REACHING.env)
DEMO = {"timestamps": REACHING.raw_demos[0].timestamps.tolist(),
        "positions": REACHING.raw_demos[0].positions.tolist()}
CONFIG = {
    "demos": [f"demo_{k:03d}.json" for k in range(8)],
    "environment": "env.json",
    "grid_n": GRID_N,
    "align": "none",
    "weights": {"epsilon": 0.3, "sigma_obs": 0.05},
    "alpha": 1e10,
    "beta": 1e10,
    "seed": 0,
    "out_dir": "out",
    "rollout_samples": 2,
    "reproduction": {
        "environment": "env.json",
        "starts": [[0.0, 0.5, 3.0, 1.0]],
        "start_sigma": 1e-3,
        "anchors": [{"index": GRID_N, "state": [3.0, 1.5, 0.0, 0.0], "sigma": 0.01}],
        "eps_repro": 0.1,
        "sigma_repro": 0.05,
        "max_iters": 50,
    },
}
# the layout `learn` writes; the values come from the learned model
MODEL_LAYOUT = {"dt": 0, "D": 0, "init_mean": [0] * DIM, "init_cov": [[0] * DIM] * DIM,
                "steps": [{"Phi_tilde": [[0] * (DIM + 1)] * DIM, "Q": [[0] * DIM] * DIM}]
                * GRID_N}
FILES = {"config.json": CONFIG, "env.json": SCENE, "model.json": MODEL_LAYOUT,
         "demo_000.json": DEMO}
# every stage that reads the file
STAGES = {"config.json": ("ingest", "weights", "learn", "assimilate", "rollout", "reproduce"),
          "env.json": ("weights", "learn", "assimilate", "rollout", "reproduce"),
          "model.json": ("rollout", "reproduce"),
          "demo_000.json": ("ingest", "weights", "learn", "assimilate")}
# the files of a work directory: FILES and the demos left unchanged
INPUTS = sorted(set(FILES) | set(CONFIG["demos"]))
DELETE = "<delete the key>"
VALUES = [None, math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-320, "1.5", True, [], {},
          DELETE]
# the arrays of a checkpoint, each mutated in one entry, and the values put there
CHECKPOINT_ARRAYS = ("M", "R", "V", "nu", "starts", "alpha", "beta", "dt")
CHECKPOINT_VALUES = [math.nan, math.inf, -math.inf, 1e308, -1e308, 1e200, 1e-320, -1.0, 0.0,
                     DELETE]


def _paths(doc, prefix=()):
    """The path of every value inside `doc`, below the root."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(
        doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


PATHS = {name: sorted(_paths(doc), key=repr) for name, doc in FILES.items()}


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(sorted(FILES)))
    return name, draw(st.sampled_from(PATHS[name])), draw(st.sampled_from(STAGES[name]))


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The demos, the scene, the config and a model learned from them."""
    root = tmp_path_factory.mktemp("fuzz")
    for name, demo in zip(CONFIG["demos"], REACHING.raw_demos):
        save_raw_demo(str(root / name), demo)
    write_json(str(root / "env.json"), SCENE)
    write_json(str(root / "config.json"), CONFIG)
    assert cli_main(["--config", str(root / "config.json"), "--out", str(root), "learn"]) == 0
    return root


def _mutated(base, work: str, name: str, path: tuple, value) -> None:
    """Write `name` from the base directory into `work` with the value at
    `path` replaced by `value`, or deleted."""
    with open(base / name) as fh:
        doc = json.load(fh)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    write_json(os.path.join(work, name), doc)


@pytest.fixture(scope="module")
def checkpoint(base):
    """A learner checkpoint that has assimilated the first three demos."""
    path = str(base / "ck.npz")
    for name in CONFIG["demos"][:3]:
        assert cli_main(["--config", str(base / "config.json"), "--out", str(base / "ck_out"),
                         "assimilate", "--checkpoint", path, "--demo", str(base / name)]) == 0
    return path


def _run(argv: list) -> int:
    """The exit code of the CLI on `argv`, once checked: 0, 2, 3 or 4, one
    stderr line on 2 or 3 and none otherwise, and no RuntimeWarning."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = cli_main(argv)
    assert code in (0, 2, 3, 4)
    assert len(stderr.getvalue().splitlines()) == (1 if code in (2, 3) else 0), (
        stderr.getvalue())
    assert not [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    return code


def _assert_finite(paths: list) -> None:
    """Every number in each CSV, JSON, SVG or npz file of `paths` is finite."""
    for path in paths:
        if path.endswith(".csv"):
            with open(path) as fh:
                rows = fh.read().splitlines()[1:]
            assert np.isfinite([float(v) for row in rows for v in row.split(",")]).all(), path
        elif path.endswith(".json"):
            with open(path) as fh:
                json.load(fh, parse_constant=lambda c: pytest.fail(f"{path} holds {c}"))
        elif path.endswith(".svg"):
            with open(path) as fh:
                assert not re.search(r"\b(nan|inf)\b", fh.read()), path
        else:
            with np.load(path) as npz:
                assert all(np.isfinite(npz[k]).all() for k in npz.files), path


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=mutations(), value=st.sampled_from(VALUES))
@example(case=("config.json", ("weights", "sigma_obs"), "weights"), value=1e-320)
@example(case=("config.json", ("weights", "sigma_obs"), "learn"), value=1e308)
@example(case=("model.json", ("steps", 3, "Phi_tilde", 0, 0), "rollout"), value=1e308)
@example(case=("model.json", ("steps", 3, "Q", 0, 0), "reproduce"), value=1e308)
@example(case=("config.json", ("reproduction", "eps_repro"), "reproduce"), value=math.nan)
@example(case=("env.json", ("obstacles", 0, "center", 0), "reproduce"), value=1e308)
def test_one_bad_value_fails_cleanly(base, case, value):
    name, path, stage = case
    work = tempfile.mkdtemp(dir=base)
    try:
        for other in INPUTS:
            if other == name:
                _mutated(base, work, name, path, value)
            else:
                shutil.copy(base / other, work)
        checkpoint, out = os.path.join(work, "ck.npz"), os.path.join(work, "out")
        argv = ["--config", os.path.join(work, "config.json"), "--out", out, stage]
        if stage == "assimilate":
            argv += ["--checkpoint", checkpoint, "--demo", os.path.join(work, "demo_000.json")]
        elif stage in ("rollout", "reproduce"):
            argv += ["--model", os.path.join(work, "model.json")]
        if _run(argv) == 0:
            _assert_finite([os.path.join(out, f) for f in sorted(os.listdir(out))]
                           + [checkpoint] * (stage == "assimilate"))
    finally:
        shutil.rmtree(work)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(key=st.sampled_from(CHECKPOINT_ARRAYS), entry=st.integers(0, 10 ** 6),
       value=st.sampled_from(CHECKPOINT_VALUES))
@example(key="M", entry=0, value=1e200)       # V's drift term overflows
@example(key="starts", entry=0, value=1e200)  # the start moments overflow
@example(key="V", entry=0, value=-1e308)      # an indefinite V made an indefinite Q
@example(key="V", entry=1, value=1e308)       # far from symmetric
def test_one_bad_checkpoint_entry_fails_cleanly(base, checkpoint, key, entry, value):
    with np.load(checkpoint) as npz:
        arrays = {k: npz[k].copy() for k in npz.files}
    if value is DELETE:
        del arrays[key]
    else:
        arrays[key].flat[entry % arrays[key].size] = value
    work = tempfile.mkdtemp(dir=base)
    try:
        mutated, out = os.path.join(work, "ck.npz"), os.path.join(work, "out")
        np.savez(mutated, **arrays)
        if _run(["--config", str(base / "config.json"), "--out", out, "assimilate",
                 "--checkpoint", mutated, "--demo", str(base / CONFIG["demos"][3])]) == 0:
            _assert_finite([os.path.join(out, "model.json"), mutated])
    finally:
        shutil.rmtree(work)
