"""Hypothesis profiles.  ``ci`` derandomizes the property tests, so a run
fails or passes the same way every time, and prints the blob that replays a
failing example; select it with ``HYPOTHESIS_PROFILE=ci``.  Without the
variable the default (randomized) profile applies."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
