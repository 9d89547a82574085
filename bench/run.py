"""iwskill benchmark: end-to-end CLI workloads and a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N      # every workload, one table
    python3 bench/run.py --smoke                      # a few ops of each, both modes

One process, one client, single-threaded BLAS: a closed loop (measure.py)
calls `iwskill.cli.main(argv)` in-process, one op (one CLI stage call) at a
time, and checks every op's output (workloads.py). The loop runs for at
least `--seconds` and stops at a group boundary of the workload. See
README.md for the workloads, the metrics and what they showed.

With `--trace 0` the last line of stdout is a JSON object whose `metrics` are
the end-to-end metrics. With `--trace 1`, op groups alternate between
untraced and traced, and `metrics` are the per-layer self times and counts
per traced op (see tracing.py), plus the tracing overhead. The line before
it is a JSON report: run environment, op counts, the tail percentile, every
failed op with its exit code or failing check, and the quality ratios.

The program is imported from `src/` next to this directory; the benchmark
refuses to run without it. Scratch files go to `.bench_work/`.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ["learn_dtw", "assimilate_stream", "reproduce_free", "reproduce_cluttered"]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    for var in THREAD_VARS:  # single-threaded BLAS, set before numpy loads it
        os.environ[var] = "1"
    sys.path[:0] = [SRC, BENCH]
    from measure import measure

    return measure(name, seed, seconds, trace)


def run_child(workload: str, seed: int, seconds: float, trace: int):
    """Run one workload in its own process (peak RSS is per process); return
    (exit code, report, result) with None for what it did not print."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          capture_output=True, text=True, timeout=900, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    report = result = None
    try:
        result = json.loads(lines[-1])
        report = json.loads(lines[-2])["report"]
    except (IndexError, ValueError, KeyError):
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode, report, result


def run_all(seed: int, seconds: float, trace: int) -> int:
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for workload in WORKLOAD_NAMES:
        code, report, result = run_child(workload, seed, seconds, trace)
        if code != 0 or result is None:
            print(f"{workload}: benchmark exited with {code}")
            summary["correct"] = False
            continue
        summary["workloads"][workload] = result
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        print(f"== {workload}  seed {seed}  ops {result['attempted']}  "
              f"failed {result['failed']}  ({report['failed_frac']:.3f})")
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")
        if not trace:
            t = report["op_tail"]
            print(f"  op_tail_ms is p{t['percentile']:.1f} of {t['samples']} ops "
                  f"({t['beyond']} beyond it)")
        for q, v in report["quality"].items():
            print(f"  {q:40s} {v:14.6g}")
        for f in report["failures"]:
            print(f"  FAILED op {f['op']}: exit code {f['exit_code']}: {f['check']}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def smoke() -> int:
    """A few ops of every workload in both modes: checks pass and the output
    has the schema and the metric names and units of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = [w["name"] for w in spec["workloads"]] == WORKLOAD_NAMES
    if not ok:
        print(f"BENCHMARK.json workloads differ from {WORKLOAD_NAMES}")
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            code, report, result = run_child(workload, 1, 0, trace)
            problems = []
            if code != 0 or result is None or report is None:
                problems.append(f"exit code {code}, no result")
            else:
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"result keys {sorted(result)}")
                if not (result["correct"] is True and result["failed"] == 0
                        and result["attempted"] >= 1):
                    problems.append(f"checks failed: {report['failures']}")
                got = {k: m["unit"] for k, m in result["metrics"].items()}
                if got != expected[trace]:
                    problems.append(f"metric names or units differ: "
                                    f"{set(got.items()) ^ set(expected[trace].items())}")
                if not all(isinstance(m["value"], (int, float)) and m["value"] == m["value"]
                           for m in result["metrics"].values()):
                    problems.append("non-numeric metric value")
            ok &= not problems
            print(f"{workload:20s} trace {trace}: " + ("ok" if not problems else
                                                      "FAIL " + "; ".join(problems)))
            if trace and report and report["trace_targets_missing"]:
                print(f"  not traced, absent from the program: "
                      f"{report['trace_targets_missing']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and validate the output")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "iwskill", "cli.py")):
        print(f"no iwskill sources under {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
