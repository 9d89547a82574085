"""One benchmark run of one workload: set-up, the timed loop, the metrics.

Imported by run.py once BLAS has been limited to one thread.
"""

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import iwskill.cli as cli

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
# Set-up is repeated and its median reported, so that one slow import or
# file-system hiccup does not decide setup_s.
SETUP_REPS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import iwskill.cli; "
                "print(time.perf_counter() - t)")
# The speed of a shared host drifts by tens of percent over seconds, with no
# CPU steal to show for it: a fixed pure-Python loop took 20 to 28 ms in
# consecutive 2 s windows on an idle 2-core VM. A short fixed kernel (see
# HostSpeed) is timed before and after every op and every set-up, and their
# times are reported at a nominal host speed: wall time * NOMINAL_KERNEL_S /
# kernel time. The raw wall times are in the report.
NOMINAL_KERNEL_S = 0.0035

END_TO_END_UNITS = {"op_p50_ms": "ms", "op_tail_ms": "ms", "ops_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}
QUALITY = ("deviation_ratio", "distance_ratio", "feasible_frac")


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("_bytes") or name.endswith("bytes_written"):
        return "B"
    if name.startswith("quality.") or name.endswith("_ratio"):
        return "ratio"
    return "count"


def import_seconds() -> float:
    """Time to import the CLI in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "platform": platform.platform()}


def call(fn, argv):
    """One op: (exit code or None if it raised, wall seconds, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = fn(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an op that raises is a failed op, not a failed run
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return code, elapsed, err.getvalue()


class HostSpeed:
    """A fixed kernel mixing the kinds of work the program does: a Python
    loop over numpy scalars (as in DTW), small LAPACK solves, and a JSON
    dump. On the 2-core VM it tracked op times better than a pure-Python
    loop: medians of 10 scaled ops varied by 3-7% (coefficient of
    variation), against 4-8% with the loop and 14-16% unscaled."""

    def __init__(self):
        import numpy as np
        from scipy.linalg import cho_factor, cho_solve

        self._np, self._cho_factor, self._cho_solve = np, cho_factor, cho_solve
        a = np.random.default_rng(0).normal(size=(48, 48))
        self.dist = np.abs(a)
        self.gram = a @ a.T + 48.0 * np.eye(48)
        self.rows = a[:12].tolist()

    def kernel_seconds(self) -> float:
        np = self._np
        start = time.perf_counter()
        n = self.dist.shape[0]
        acc = np.full((n + 1, n + 1), np.inf)
        acc[0, 0] = 0.0
        for i in range(n):
            for j in range(n):
                acc[i + 1, j + 1] = self.dist[i, j] + min(acc[i, j], acc[i, j + 1], acc[i + 1, j])
        for k in range(40):
            self._cho_solve(self._cho_factor(self.gram), self.dist[k % n])
        json.dumps(self.rows)
        return time.perf_counter() - start


def tail(ms: list):
    """Highest percentile with at least ten samples beyond it: the value,
    its percentile, and the number of samples beyond it. Below 11 samples
    no order statistic has ten beyond it, and the minimum is reported."""
    s = sorted(ms)
    k = max(len(s) - 11, 0)
    pct = 100.0 * k / (len(s) - 1) if len(s) > 1 else 100.0
    return s[k], pct, len(s) - 1 - k


def measure(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Run workload `name` and print the report and result lines."""
    run_dir = os.path.join(WORK, f"{name}-seed{seed}-pid{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        report, result, tracer = _run(WORKLOADS[name], run_dir, seed, seconds, trace)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    report.update(workload=name, seed=seed, seconds=seconds)
    if tracer is not None:
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        report["trace_file"] = os.path.join(".bench_work", "traces", f"{name}-seed{seed}.json")
        tracer.write(os.path.join(ROOT, report["trace_file"]))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


def _run(workload_cls, run_dir, seed, seconds, trace):
    """Set up SETUP_REPS times, then run ops until `seconds` have passed and
    the workload is at a group boundary. Returns (report, result, tracer)."""
    warm_ups, failures = [], []

    def run_cli(argv, required=False):
        """A set-up call. The model fit is required; a failed warm-up op is
        a failed op."""
        code, _, err = call(cli.main, argv)
        if code != 0 and required:
            raise RuntimeError(f"set-up call {argv} exited with {code}: {err}")
        if not required:
            warm_ups.append(code)
            if code != 0:
                failures.append({"op": "warm-up", "exit_code": code, "check": "exit code",
                                 "stderr": err[-400:]})

    host = HostSpeed()
    setup_wall, setup_s = [], []
    wl = None
    for rep in range(SETUP_REPS):
        if wl is not None:
            wl.close()
            shutil.rmtree(wl.root, ignore_errors=True)
        before = host.kernel_seconds()
        imports = import_seconds()
        start = time.perf_counter()
        wl = workload_cls(os.path.join(run_dir, f"setup{rep}"), seed)
        wl.setup(run_cli)
        setup_wall.append(imports + time.perf_counter() - start)
        setup_s.append(setup_wall[-1] * 2.0 * NOMINAL_KERNEL_S
                       / (before + host.kernel_seconds()))
    wl.prepare()

    tracer = Tracer() if trace else None
    ops = []  # (wall ms, host speed, traced) per op
    min_ops = wl.period * (2 if trace else 1)
    i = 0
    began = time.perf_counter()
    while i < min_ops or i % wl.period or time.perf_counter() - began < seconds:
        argv = wl.argv(i)
        in_trace = trace and (i // wl.period) % 2 == 1
        fn = cli.main
        if in_trace:
            tracer.op = i
            tracer.install()
            fn = tracer.span("cli", cli.main)
        before = host.kernel_seconds()
        try:
            code, elapsed, err = call(fn, argv)
        finally:
            if in_trace:
                tracer.uninstall()
        speed = 2.0 * NOMINAL_KERNEL_S / (before + host.kernel_seconds())
        try:
            problem = wl.check(i, code)
        except Exception as exc:  # a check that cannot read the output fails the op
            problem = f"check raised {exc!r}"
        if problem is not None:
            failures.append({"op": i, "exit_code": code, "check": problem,
                             "stderr": err[-400:]})
        ops.append((1e3 * elapsed, speed, in_trace))
        i += 1
    quality = wl.quality()
    wl.close()
    attempted = i + len(warm_ups)
    wall = [w for w, _, t in ops if not t]
    untraced = [w * s for w, s, t in ops if not t]
    traced = [w * s for w, s, t in ops if t]

    p50 = statistics.median(untraced)
    tail_ms, tail_pct, beyond = tail(untraced)
    report = {
        "trace": int(trace),
        "environment": run_environment(),
        "ops": {"attempted": attempted, "untraced": len(untraced), "traced": len(traced),
                "warm_up": len(warm_ups), "setup_reps": SETUP_REPS},
        "op_ms": [round(t, 2) for t in untraced],
        "op_wall_ms": [round(t, 2) for t in wall], "op_wall_p50_ms": statistics.median(wall),
        "host_speed_p50": statistics.median(s for _, s, _ in ops),
        "op_p50_ms": p50, "op_tail": {"ms": tail_ms, "percentile": tail_pct,
                                      "samples": len(untraced), "beyond": beyond},
        "setup_s_samples": setup_s, "setup_wall_s": setup_wall,
        "failed_frac": len(failures) / attempted, "failures": failures[:20],
        "quality": quality,
    }
    if trace:
        metrics = layer_metrics(tracer, len(traced), {k: s for k, (_, s, _) in enumerate(ops)})
        metrics["trace.overhead_ms"] = statistics.median(traced) - p50
        for q in QUALITY:
            metrics[f"quality.{q}"] = quality.get(q, 0.0)
        traced_mean = statistics.fmean(traced)
        report["layer_share"] = {k[:-3]: v / traced_mean for k, v in
                                 sorted(metrics.items(), key=lambda kv: -kv[1])
                                 if k.endswith(".ms")}
        report["traced_op_p50_ms"] = statistics.median(traced)
        report["trace_targets_missing"] = tracer.missing
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {"op_p50_ms": p50, "op_tail_ms": tail_ms,
                   "ops_per_s": 1e3 * len(untraced) / sum(untraced),
                   "setup_s": statistics.median(setup_s),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = END_TO_END_UNITS
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return report, result, tracer


