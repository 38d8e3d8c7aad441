"""Tests for schedulability analysis and utilization bounds."""

import pytest

from repro.analysis.schedulability import (
    analyse_taskset,
    liu_layland_bound,
)
from repro.core.task import PeriodicTask, TaskSet


def task(name, wcet, period, high=0, cpu=0):
    return PeriodicTask(name=name, wcet=wcet, period=period, high_priority=high, cpu=cpu)


def test_liu_layland_classics():
    assert liu_layland_bound(1) == pytest.approx(1.0)
    assert liu_layland_bound(2) == pytest.approx(0.828427, abs=1e-5)
    assert liu_layland_bound(1000) == pytest.approx(0.6934, abs=1e-3)


def test_liu_layland_invalid():
    with pytest.raises(ValueError):
        liu_layland_bound(0)


def test_analyse_taskset_reports_per_cpu():
    ts = TaskSet([
        task("a", 10, 100, high=2, cpu=0),
        task("b", 20, 100, high=1, cpu=1),
    ])
    report = analyse_taskset(ts, 2)
    assert report.schedulable
    assert set(report.per_cpu) == {0, 1}
    assert report.per_cpu_utilization[0] == pytest.approx(0.1)
    assert report.per_cpu_utilization[1] == pytest.approx(0.2)
    assert report.failing_tasks() == []
    assert "cpu 0" in report.format()


def test_analyse_detects_failure():
    ts = TaskSet([
        task("a", 60, 100, high=2, cpu=0),
        task("b", 50, 100, high=1, cpu=0),
    ])
    report = analyse_taskset(ts, 1)
    assert not report.schedulable
    assert report.failing_tasks() == ["b"]
