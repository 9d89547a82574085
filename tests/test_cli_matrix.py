"""`scripts/cli_matrix.py`, the CLI matrix that compares two versions of the
program byte for byte: its quick matrix writes the same tree run after run,
wherever the tree is written."""

import json
import os
import subprocess
import sys
from collections import Counter

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))


def read_tree(root) -> dict:
    files = {}
    for directory, _, names in os.walk(root):
        for name in names:
            with open(os.path.join(directory, name), "rb") as fh:
                files[os.path.relpath(os.path.join(directory, name), root)] = fh.read()
    return files


def test_quick_matrix_writes_the_same_tree_twice(tmp_path):
    path = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))
                           if p)
    runs = [subprocess.Popen([sys.executable, os.path.join(ROOT, "scripts", "cli_matrix.py"),
                              "--out", str(tmp_path / name), "--quick"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                             env=dict(os.environ, PYTHONPATH=path))
            for name in ("first", "second")]
    for run in runs:
        out, err = run.communicate(timeout=300)
        assert run.returncode == 0, err
    first, second = read_tree(tmp_path / "first"), read_tree(tmp_path / "second")
    assert sorted(first) == sorted(second)
    assert [name for name in first if first[name] != second[name]] == []
    manifest = json.loads(first["manifest.json"])
    assert len(manifest["cases"]) == 8 and str(tmp_path) not in first["manifest.json"].decode()
    # each case: ingest, weights, learn, rollout and two reproductions of the batch
    # model, one assimilation per demo (8 reaching, 6 placing), then three calls on
    # that model
    assert len(manifest["calls"]) == 4 * (6 + 8 + 3) + 4 * (6 + 6 + 3)
    assert all(call["exit"] is not None for call in manifest["calls"])
    # the last line counts the reproductions' stop reasons and feasible ones:
    # three solutions (one free start, two past the obstacle) per model, two models per case
    solutions = [json.loads(data) for name, data in first.items()
                 if os.path.basename(name).startswith("solution_") and name.endswith(".json")]
    stops = Counter(s["stop"] for s in solutions)
    assert len(solutions) == 8 * 2 * 3
    assert out.endswith(f"; reproductions: stop {dict(sorted(stops.items()))}, feasible "
                        f"{sum(s['feasible'] for s in solutions)}/48 -> {tmp_path / 'second'}\n")
