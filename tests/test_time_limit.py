"""The per-test time limit of ``tests/conftest.py``."""

import signal

import pytest

from tests.conftest import TEST_TIME_LIMIT_S, TimeLimitExceeded, time_limit


def test_endless_loop_fails_with_its_name():
    with pytest.raises(TimeLimitExceeded, match="endless-loop ran longer"):
        with time_limit(0.05, "endless-loop"):
            while True:
                pass


def test_except_exception_does_not_swallow_it():
    with pytest.raises(TimeLimitExceeded):
        with time_limit(0.05, "swallowing-loop"):
            while True:
                try:
                    while True:
                        pass
                except Exception:
                    pass


def test_running_test_is_guarded():
    left, _interval = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < left <= TEST_TIME_LIMIT_S


def test_previous_handler_and_timer_come_back():
    handler = signal.getsignal(signal.SIGALRM)
    outer, _interval = signal.getitimer(signal.ITIMER_REAL)
    with time_limit(5, "quick"):
        assert signal.getitimer(signal.ITIMER_REAL)[0] <= 5
    assert signal.getsignal(signal.SIGALRM) is handler
    left, _interval = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < left <= outer
