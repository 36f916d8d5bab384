"""Shared pytest setup: one deterministic hypothesis profile for the suite.

Property tests draw the same examples on every run, have no per-example
deadline (timings on a small shared machine are too noisy to gate on) and
keep a bounded example count so the suite stays fast.  A test's own
@settings still override these values.
"""

from hypothesis import settings

settings.register_profile("fplab", derandomize=True, deadline=None, max_examples=100,
                          database=None)
settings.load_profile("fplab")
