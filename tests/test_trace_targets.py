"""The benchmark's tracer patches program functions by name; a renamed or
deleted entry point would silently read as zero in its per-layer metrics."""

import os
import sys

import iwskill.cli  # noqa: F401  (imports every module the tracer patches)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench"))
import tracing  # noqa: E402

# Targets of the SDF grid that reproduction no longer builds: obstacle
# distances are exact, so their spans read 0 until the benchmark retargets
# them. Any other unresolved target is a rename the benchmark has missed.
GRID_TARGETS = ["iwskill.environment.build_sdf",
                "iwskill.environment.SignedDistanceField.query",
                "iwskill.environment.SignedDistanceField.gradient"]


def test_every_trace_target_resolves():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == GRID_TARGETS
    finally:
        tracer.uninstall()
