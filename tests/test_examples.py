"""Smoke tests: every shipped example must run cleanly.

Each example is executed in-process (fast) with stdout captured; the
assertions check for the example's headline output so regressions in
the public API surface here immediately.
"""

import io
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, argv=("prog",)):
    buffer = io.StringIO()
    old_argv = sys.argv
    sys.argv = list(argv)
    try:
        with redirect_stdout(buffer):
            try:
                runpy.run_path(str(EXAMPLES / name), run_name="__main__")
            except SystemExit as exc:
                assert not exc.code, f"{name} exited with {exc.code}"
    finally:
        sys.argv = old_argv
    return buffer.getvalue()


def test_quickstart():
    out = run_example("quickstart.py")
    assert "offline analysis" in out
    assert "deadline misses:  0" in out
    assert "crash-diag response" in out


def test_figure3_schedule():
    out = run_example("figure3_schedule.py")
    assert out.count("[ok]") == 10
    assert "[FAIL]" not in out


def test_interrupt_controller_demo():
    out = run_example("interrupt_controller_demo.py")
    assert "max parallel handlers: 3" in out
    assert "timeouts=1" in out
    assert "cpu2 took an IPI from cpu0" in out


def test_isa_playground():
    out = run_example("isa_playground.py")
    assert "sorted data" in out
    assert "icache" in out


@pytest.mark.slow
def test_automotive_case_study():
    out = run_example("automotive_case_study.py", argv=("prog", "2", "0.4"))
    assert "slowdown real vs simulated" in out
    assert "periodic deadline misses: 0" in out


@pytest.mark.slow
def test_bus_saturation_study():
    out = run_example("bus_saturation_study.py")
    assert "2 processors" in out and "4 processors" in out
    assert "steady-state bus utilization" in out
