"""Tier membership: each test is marked by its directory under tests/.

``pytest -m lint|perf|obs|faults`` selects a tier; the tier-1 run
(no ``-m``) collects every test, tiers included.

Every hypothesis test runs under one profile without the explain
phase: on a failure that phase re-runs the shrunk example under
tracing, which on a simulation property can take minutes and
gigabytes.  A test that sets ``phases=`` itself keeps its own.
"""

from pathlib import Path

import pytest
from hypothesis import Phase, settings

settings.register_profile(
    "repro", phases=[phase for phase in Phase if phase is not Phase.explain]
)
settings.load_profile("repro")

TESTS_ROOT = Path(__file__).parent
TIERS = ("lint", "perf", "obs", "faults")


@pytest.hookimpl(tryfirst=True)
def pytest_collection_modifyitems(items):
    for item in items:
        parts = item.path.relative_to(TESTS_ROOT).parts
        if len(parts) > 1 and parts[0] in TIERS:
            item.add_marker(parts[0])
