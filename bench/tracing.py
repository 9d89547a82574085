"""Spans and counters around the calls into each iwskill module.

The program itself carries no tracing. `Tracer.install` replaces the public
functions and methods listed in `TARGETS` with timing wrappers, at every
import site inside the `iwskill` package (a name imported with
`from .x import f` is a separate binding, so each one is patched), and
`uninstall` restores the originals. Spans are kept in memory as tuples and
written out once, after the run.

A layer's self time is its spans' duration minus the time covered by their
direct child spans; the benchmark reports self time and counts per op.
"""

import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _dtw_cells(args, kwargs, result):
    """Sum of n * m over the (reference, demo) pairs DTW aligns."""
    demos = args[0] if args else kwargs["demos"]
    ref = args[1] if len(args) > 1 else kwargs.get("reference_index")
    if ref is None:
        ref = int(np.argmax([len(d) for d in demos]))
    n = len(demos[ref])
    return {"demos.dtw_cells": sum(n * len(d) for k, d in enumerate(demos) if k != ref)}


def _lm_counts(args, kwargs, result):
    return {"reproduction.lm_iters": result.iterations,
            "reproduction.lm_accepted": len(result.objective_history) - 1}


# (span name, module, attribute, optional "Class.method", counts from the call)
TARGETS = [
    ("config.load_config", "iwskill.config", "load_config", None, None),
    ("demos.load_raw_demo", "iwskill.demos", "load_raw_demo", None, None),
    ("demos.dtw_align", "iwskill.demos", "dtw_align", None, _dtw_cells),
    ("demos.estimate_states", "iwskill.demos", "estimate_states", None, None),
    ("environment.load_environment", "iwskill.environment", "load_environment", None, None),
    ("environment.weight_trajectory", "iwskill.environment", "weight_trajectory", None,
     lambda a, k, r: {"environment.weighted_nodes": len(r)}),
    ("environment.build_sdf", "iwskill.environment", "build_sdf", None,
     lambda a, k, r: {"environment.sdf_cells": r.values.size}),
    ("environment.sdf_query", "iwskill.environment", "SignedDistanceField", "query", None),
    ("environment.sdf_query", "iwskill.environment", "SignedDistanceField", "gradient", None),
    ("batch.learn_batch_weighted", "iwskill.batch", "learn_batch_weighted", None,
     lambda a, k, r: {"batch.intervals": r.n_steps}),
    ("batch.save_model", "iwskill.batch", "save_model", None, None),
    ("batch.load_model", "iwskill.batch", "load_model", None, None),
    ("incremental.new_learner", "iwskill.incremental", "IncrementalLearner", "__init__", None),
    ("incremental.assimilate_demo", "iwskill.incremental", "assimilate_demo", None, None),
    ("incremental.extract_map", "iwskill.incremental", "extract_map", None, None),
    ("incremental.load_checkpoint", "iwskill.incremental", "load_checkpoint", None, None),
    ("incremental.save_checkpoint", "iwskill.incremental", "save_checkpoint", None,
     lambda a, k, r: {"incremental.checkpoint_bytes": os.path.getsize(a[0])}),
    ("prior.build_joint_prior", "iwskill.prior", "GaussianTrajectoryPrior", "__init__", None),
    ("prior.prior_band_csv", "iwskill.prior", "prior_band_csv", None, None),
    ("reproduction.optimize_map", "iwskill.reproduction", "optimize_map", None, _lm_counts),
    ("linalg.cholesky", "iwskill.linalg", "BlockTridiagCholesky", "__init__", None),
    ("linalg.solve", "iwskill.linalg", "BlockTridiagCholesky", "solve", None),
    ("utils.write", "iwskill.utils", "atomic_write_text", None,
     lambda a, k, r: {"utils.bytes_written": len((a[1] if len(a) > 1 else k["text"]).encode())}),
    ("svg.render", "iwskill.svg", "SvgScene", "render", None),
]

# Called too often, and too cheaply, to be worth a span each: counted only.
COUNTED = [("reproduction.objective_evals", "iwskill.reproduction", "negative_log_posterior")]

# Self time of these spans is reported as `<name>.ms`; the root span of an op
# is `cli`, reported as `cli.self.ms`.
SPAN_METRICS = sorted({t[0] for t in TARGETS})


class Patcher:
    """Replaces module attributes and class methods; `restore` undoes it."""

    def __init__(self):
        self._saved = []

    def replace_everywhere(self, original, replacement) -> None:
        """Rebind every name in the iwskill package that refers to `original`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "iwskill" or mod_name.startswith("iwskill.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def replace_method(self, cls, name, replacement) -> None:
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _resolve(module, attr, method):
    """The object to wrap, or None when this version of the program lacks it."""
    mod = sys.modules.get(module)
    owner = getattr(mod, attr, None) if mod is not None else None
    if owner is None or method is None:
        return owner
    return owner if method in owner.__dict__ else None


class Tracer:
    """In-memory spans `(op, id, parent, name, start, end)` plus counters.

    Every span also counts `<name>.calls`, and `<name>_failed` when the call
    raises `LinAlgError` (a failed Cholesky that makes LM raise its damping).
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.op = -1
        self._stack = []
        self._patcher = Patcher()
        self.missing = []

    def span(self, name, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        calls, failed = name + ".calls", name + "_failed"

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            counts[calls] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except np.linalg.LinAlgError:
                counts[failed] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (self.op, sid, parent, name, start, end)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] += value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counting(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        self.missing = []
        for name, module, attr, method, counter in TARGETS:
            target = _resolve(module, attr, method)
            if target is None:
                self.missing.append(f"{module}.{attr}" + (f".{method}" if method else ""))
            elif method is None:
                self._patcher.replace_everywhere(target, self.span(name, target, counter))
            else:
                self._patcher.replace_method(target, method,
                                             self.span(name, target.__dict__[method], counter))
        for name, module, attr in COUNTED:
            target = _resolve(module, attr, None)
            if target is None:
                self.missing.append(f"{module}.{attr}")
            else:
                self._patcher.replace_everywhere(target, self.counting(name, target))

    def uninstall(self) -> None:
        self._patcher.restore()

    def self_times(self, op_scale: dict) -> dict:
        """Total self time (s) per span name, each op's spans multiplied by
        op_scale[op]."""
        child = defaultdict(float)
        for span in self.spans:
            if span[2] >= 0:
                child[span[2]] += span[5] - span[4]
        out = defaultdict(float)
        for span in self.spans:
            out[span[3]] += (span[5] - span[4] - child[span[1]]) * op_scale[span[0]]
        return dict(out)

    def write(self, path: str) -> None:
        """All spans as JSON, times in seconds from the first span's start."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({"fields": ["op", "id", "parent", "name", "start_s", "end_s"],
                       "spans": [[s[0], s[1], s[2], s[3], round(s[4] - t0, 9),
                                  round(s[5] - t0, 9)] for s in self.spans]}, fh)


def layer_metrics(tracer: Tracer, n_ops: int, op_scale: dict) -> dict:
    """Per-op self times (ms, each op's scaled by op_scale[op]) and counts
    for the per-layer metric names."""
    selfs = tracer.self_times(op_scale)
    counts = tracer.counts
    per_op = 1.0 / max(n_ops, 1)
    out = {f"{name}.ms": 1e3 * selfs.get(name, 0.0) * per_op for name in SPAN_METRICS}
    out["cli.self.ms"] = 1e3 * selfs.get("cli", 0.0) * per_op
    for key in ("demos.dtw_cells", "environment.sdf_cells", "environment.sdf_query.calls",
                "environment.weighted_nodes", "batch.intervals", "incremental.checkpoint_bytes",
                "reproduction.lm_iters", "reproduction.objective_evals", "linalg.cholesky.calls",
                "linalg.cholesky_failed", "utils.bytes_written"):
        out[key] = counts.get(key, 0.0) * per_op
    iters = counts.get("reproduction.lm_iters", 0.0)
    out["reproduction.lm_accept_ratio"] = (counts.get("reproduction.lm_accepted", 0.0) / iters
                                           if iters else 0.0)
    out["trace.spans"] = len(tracer.spans) * per_op
    return out
