"""Tests for WCET sensitivity analysis."""

import pytest

from repro.analysis.sensitivity import (
    sensitivity_report,
    wcet_scaling_factor,
)
from repro.analysis import partition, random_taskset
from repro.core.task import PeriodicTask


def task(name, wcet, period, deadline=None, high=0, cpu=0):
    return PeriodicTask(name=name, wcet=wcet, period=period, deadline=deadline,
                        high_priority=high, cpu=cpu)


def test_single_task_scaling_bounded_by_deadline():
    t = task("a", 100, 1_000)
    factor = wcet_scaling_factor(t, [t])
    # Alone, the task can grow until C = D.
    assert factor == pytest.approx(10.0, rel=0.01)


def test_interference_reduces_headroom():
    alone = wcet_scaling_factor(task("lo", 100, 1_000), [task("lo", 100, 1_000)])
    hp = task("hp", 300, 1_000, high=5)
    lo = task("lo", 100, 1_000, high=1)
    crowded = wcet_scaling_factor(lo, [hp, lo])
    assert crowded < alone


def test_zero_headroom_at_full_utilization():
    # Two tasks that exactly fill the deadline: factor ~ 1.
    a = task("a", 500, 1_000, high=2)
    b = task("b", 500, 1_000, high=1)
    factor = wcet_scaling_factor(b, [a, b])
    assert factor == pytest.approx(1.0, abs=0.01)


def test_unschedulable_group_rejected():
    a = task("a", 600, 1_000, high=2)
    b = task("b", 600, 1_000, high=1)
    with pytest.raises(ValueError):
        wcet_scaling_factor(b, [a, b])


def test_scaling_factor_is_safe():
    """Scaling by the reported factor keeps the group schedulable;
    scaling slightly beyond it breaks it."""
    hp = task("hp", 200, 1_000, high=5)
    lo = task("lo", 150, 900, high=1)
    group = [hp, lo]
    factor = wcet_scaling_factor(lo, group)

    from repro.analysis.response_time import response_time_table

    at_factor = [hp, lo._replace(wcet=int(150 * factor), acet=None)]
    assert all(r.schedulable for r in response_time_table(at_factor))
    beyond = [hp, lo._replace(wcet=int(150 * factor) + 10, acet=None)]
    assert not all(r.schedulable for r in response_time_table(beyond))


def test_sensitivity_report_shape():
    ts = random_taskset(6, 1.0, seed=13)
    ts = partition(ts, 2)
    rows = sensitivity_report(ts, 2)
    assert len(rows) == 6
    for row in rows:
        assert row["scaling_factor"] >= 1.0
        assert row["headroom_cycles"] >= 0


def test_automotive_workload_has_headroom():
    from repro.workloads.automotive import build_automotive_taskset, prepare_taskset

    ts = prepare_taskset(build_automotive_taskset(0.5, 2), 2, tick=5_000_000)
    rows = sensitivity_report(ts, 2)
    # Every task tolerates at least 20 % WCET growth at 50 % utilization.
    assert all(row["scaling_factor"] > 1.2 for row in rows)
