"""Shared test configuration.

Property tests run a fixed set of examples derived from each test's name,
with no per-example deadline, so that every run of the suite checks the same
inputs whatever the machine's speed.
"""

from hypothesis import settings

pytest_plugins = ["pytester"]

settings.register_profile("cpnorm", derandomize=True, deadline=None)
settings.load_profile("cpnorm")
