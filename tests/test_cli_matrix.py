"""`scripts/cli_matrix.py`, the CLI matrix that compares two versions of the
program byte for byte: its quick matrix writes the same tree run after run,
wherever the tree is written, and `--compare` reports how two trees differ."""

import json
import os
import shutil
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


def test_compare_counts_the_files_and_cells_that_differ(tmp_path):
    path = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))
                           if p)
    script = [sys.executable, os.path.join(ROOT, "scripts", "cli_matrix.py")]

    def run(*argv):
        done = subprocess.run(script + list(argv), capture_output=True, text=True, timeout=300,
                              env=dict(os.environ, PYTHONPATH=path))
        assert done.returncode == 0, done.stderr
        return done.stdout

    base, tree = tmp_path / "base", tmp_path / "tree"
    run("--out", str(base), "--quick")
    n_files = len(read_tree(base))
    assert run("--out", str(base), "--compare", str(base)) == (
        f"0 of {n_files} files differ (none), 0 in one tree only; numeric CSV cells differ by "
        "up to 0 absolute and 0 relative; exit codes changed: 0; of 48 solutions, stop changed "
        "in 0, feasible in 0, iterations in 0\n")
    # one cell of one prior.csv moved
    shutil.copytree(base, tree)
    prior = next(tree.glob("*/rollout/prior.csv"))
    rows = [line.split(",") for line in prior.read_text().splitlines()]
    old = float(rows[3][1])
    rows[3][1] = repr(old + 0.25)
    prior.write_text("".join(",".join(row) + "\n" for row in rows))
    diff = abs(float(rows[3][1]) - old)
    assert run("--out", str(tree), "--compare", str(base)) == (
        f"1 of {n_files} files differ (prior.csv 1), 0 in one tree only; numeric CSV cells "
        f"differ by up to {diff:.3g} absolute and "
        f"{diff / max(abs(old), abs(old + 0.25)):.3g} relative; exit codes changed: 0; of 48 "
        "solutions, stop changed in 0, feasible in 0, iterations in 0\n")
