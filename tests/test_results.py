"""The experiment scripts regenerate the headline numbers committed in
`results/`: the reaching deviation ratio and the placing distance ratio,
both below 1 (the weighted prior beats the unweighted one)."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))


@pytest.mark.parametrize("scene,ratio", [("reaching", "deviation_ratio"),
                                         ("placing", "distance_ratio")])
def test_script_matches_committed_summary(tmp_path, scene, ratio):
    path = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))
                           if p)
    # pytest's warning filter does not reach the subprocess: give it the same one
    subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                    os.path.join(ROOT, "scripts", f"run_{scene}.py"), "--out", str(tmp_path)],
                   check=True, capture_output=True,
                   env=dict(os.environ, PYTHONPATH=path))
    with open(tmp_path / "summary.json") as fh:
        got = json.load(fh)[ratio]
    with open(os.path.join(ROOT, "results", scene, "summary.json")) as fh:
        committed = json.load(fh)[ratio]
    assert got == pytest.approx(committed, rel=1e-6)
    assert got < 1.0
