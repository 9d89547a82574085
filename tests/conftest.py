"""Hypothesis profiles. `HYPOTHESIS_PROFILE=ci` derandomizes every property
test, so a failure in CI reproduces from the same examples on any machine;
without it the default profile draws fresh examples each run."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
