"""Fault-aware response-time analysis and the configuration lint."""

import pytest

from repro.analysis import (
    FaultModel,
    analyse_taskset,
    fault_aware_response_time,
    worst_case_response_time,
)
from repro.analysis.response_time import RecurrenceDivergenceError
from repro.core.task import PeriodicTask
from repro.faults.scenarios import demo_bindings, demo_taskset
from repro.kernel.microkernel import RecoveryConfig, TaskBinding
from repro.lint.tasks import check_fault_config, lint_fault_config


def _pair():
    hi = PeriodicTask(name="hi", wcet=2_000, period=20_000, cpu=0)
    lo = PeriodicTask(name="lo", wcet=5_000, period=50_000, cpu=0)
    return hi, lo


def test_fault_aware_wcrt_at_least_fault_free():
    hi, lo = _pair()
    plain = worst_case_response_time(lo, [hi, lo])
    faulty = fault_aware_response_time(lo, [hi, lo], min_interarrival=100_000)
    assert faulty.value >= plain.value
    # One recovery re-execution of the largest WCET lands on top.
    assert faulty.value >= plain.value + max(hi.wcet, lo.wcet)


def test_shorter_interarrival_is_more_pessimistic():
    hi, lo = _pair()
    rare = fault_aware_response_time(lo, [hi, lo], min_interarrival=1_000_000)
    frequent = fault_aware_response_time(lo, [hi, lo], min_interarrival=15_000)
    assert frequent.value >= rare.value


def test_explicit_recovery_cost_overrides_default():
    hi, lo = _pair()
    small = fault_aware_response_time(
        lo, [hi, lo], min_interarrival=100_000, recovery_cost=100)
    big = fault_aware_response_time(
        lo, [hi, lo], min_interarrival=100_000, recovery_cost=4_000)
    assert big.value > small.value


def test_fault_model_validation():
    with pytest.raises(ValueError):
        FaultModel(min_interarrival=0)
    with pytest.raises(ValueError):
        FaultModel(min_interarrival=1_000, recovery_cost=-1)


def test_analyse_taskset_with_fault_model_adds_columns():
    taskset = demo_taskset()
    report = analyse_taskset(taskset, n_cpus=2,
                             fault_model=FaultModel(min_interarrival=100_000))
    rows = [row for group in report.per_cpu.values() for row in group]
    assert rows
    for row in rows:
        assert row["wcrt_faulty"] >= row["wcrt"]
    assert report.schedulable


def test_unschedulable_under_aggressive_fault_rate():
    # Faults every 5k cycles swamp the tight task's slack.
    taskset = demo_taskset()
    report = analyse_taskset(taskset, n_cpus=2,
                             fault_model=FaultModel(min_interarrival=5_000))
    assert not report.schedulable


# ------------------------------------------------------------ config lint
def test_demo_fault_config_lints_clean():
    report = lint_fault_config(
        demo_taskset(), demo_bindings(), 2,
        recovery=RecoveryConfig(enabled=True, degradation_threshold=4,
                                shed_below_criticality=1),
    )
    assert report.ok, [str(d) for d in report.diagnostics]


def test_task010_rejects_oversized_retry_budget():
    bindings = dict(demo_bindings())
    bindings["tight"] = TaskBinding(criticality=2, retry_budget=50)
    report = lint_fault_config(demo_taskset(), bindings, 2)
    assert not report.ok
    assert any(d.rule == "TASK010" for d in report.diagnostics)
    with pytest.raises(Exception):
        check_fault_config(demo_taskset(), bindings, 2)


def test_task011_warns_on_unknown_task():
    bindings = dict(demo_bindings())
    bindings["ghost"] = TaskBinding()
    report = lint_fault_config(demo_taskset(), bindings, 2)
    assert report.ok  # warning only
    assert any(d.rule == "TASK011" for d in report.diagnostics)


def test_task011_warns_when_nothing_sheddable():
    bindings = {name: TaskBinding(criticality=5)
                for name in ("a", "b", "c", "tight")}
    report = lint_fault_config(
        demo_taskset(), bindings, 2,
        recovery=RecoveryConfig(enabled=True, degradation_threshold=1,
                                shed_below_criticality=1),
    )
    assert report.ok
    assert any(d.rule == "TASK011" for d in report.diagnostics)


def test_task011_errors_when_a_cpu_would_shed_everything():
    bindings = {name: TaskBinding(criticality=0)
                for name in ("a", "b", "c", "tight")}
    report = lint_fault_config(
        demo_taskset(), bindings, 2,
        recovery=RecoveryConfig(enabled=True, degradation_threshold=1,
                                shed_below_criticality=1),
    )
    assert not report.ok
    errors = [d for d in report.diagnostics if d.rule == "TASK011"]
    assert errors
