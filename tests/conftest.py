"""Tier membership: each test is marked by its directory under tests/.

``pytest -m lint|perf|obs|faults`` selects a tier; the tier-1 run
(no ``-m``) collects every test, tiers included.
"""

from pathlib import Path

import pytest

TESTS_ROOT = Path(__file__).parent
TIERS = ("lint", "perf", "obs", "faults")


@pytest.hookimpl(tryfirst=True)
def pytest_collection_modifyitems(items):
    for item in items:
        parts = item.path.relative_to(TESTS_ROOT).parts
        if len(parts) > 1 and parts[0] in TIERS:
            item.add_marker(parts[0])
