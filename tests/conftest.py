"""Tier membership: each test is marked by its directory under tests/.

``pytest -m lint|perf|obs|faults`` selects a tier; the tier-1 run
(no ``-m``) collects every test, tiers included.

Every hypothesis test runs under one profile without the explain
phase: on a failure that phase re-runs the shrunk example under
tracing, which on a simulation property can take minutes and
gigabytes.  A test that sets ``phases=`` itself keeps its own.

Every test runs under :func:`time_limit` of ``TEST_TIME_LIMIT_S``, so a
loop that never ends fails its test instead of hanging the suite.
"""

import contextlib
import signal
import time
from pathlib import Path

import pytest
from hypothesis import Phase, settings

settings.register_profile(
    "repro", phases=[phase for phase in Phase if phase is not Phase.explain]
)
settings.load_profile("repro")

TESTS_ROOT = Path(__file__).parent
TIERS = ("lint", "perf", "obs", "faults")

#: Wall-clock limit of one test's call phase, in seconds.
TEST_TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Raised in a test that outlives its time limit.

    A ``BaseException``, so neither an ``except Exception`` in the code
    under test nor hypothesis's shrinker (which re-runs failing
    examples) holds it up.
    """


@contextlib.contextmanager
def time_limit(seconds: float, name: str):
    """Raise :class:`TimeLimitExceeded` naming ``name`` in the main
    thread if the block runs longer than ``seconds``.

    Uses ``SIGALRM`` and the real-time interval timer.  On exit the
    previous handler is restored, and so is a timer that was already
    running (less the time spent in the block).
    """
    def expire(signum, frame):
        raise TimeLimitExceeded(f"{name} ran longer than its {seconds:g} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    started = time.monotonic()
    outer, _interval = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer:
            left = outer - (time.monotonic() - started)
            signal.setitimer(signal.ITIMER_REAL, max(left, 1e-3))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    with time_limit(TEST_TIME_LIMIT_S, item.nodeid):
        yield


@pytest.hookimpl(tryfirst=True)
def pytest_collection_modifyitems(items):
    for item in items:
        parts = item.path.relative_to(TESTS_ROOT).parts
        if len(parts) > 1 and parts[0] in TIERS:
            item.add_marker(parts[0])
