"""Tests for the partitioning heuristics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import partitioning
from repro.analysis.partitioning import PartitioningError, partition
from repro.analysis.schedulability import analyse_taskset
from repro.analysis.taskgen import random_taskset
from repro.core.task import PeriodicTask, TaskSet


def task(name, wcet, period, high=0):
    return PeriodicTask(name=name, wcet=wcet, period=period, high_priority=high)


def test_partition_assigns_all_tasks():
    ts = random_taskset(8, 1.2, seed=1)
    assigned = partition(ts, 2)
    assert all(0 <= t.cpu < 2 for t in assigned.periodic)
    assert len(assigned.periodic) == 8


def test_partition_result_is_schedulable():
    for heuristic in ("first-fit", "best-fit", "worst-fit"):
        ts = random_taskset(10, 1.5, seed=7)
        assigned = partition(ts, 3, heuristic=heuristic)
        report = analyse_taskset(assigned, 3)
        assert report.schedulable, heuristic


def test_worst_fit_balances_load():
    ts = TaskSet([
        task("a", 30, 100, high=4),
        task("b", 30, 100, high=3),
        task("c", 30, 100, high=2),
        task("d", 30, 100, high=1),
    ])
    assigned = partition(ts, 2, heuristic="worst-fit")
    per_cpu = assigned.utilization_per_cpu(2)
    assert per_cpu[0] == pytest.approx(per_cpu[1])


def test_first_fit_packs_first_cpu():
    ts = TaskSet([
        task("a", 10, 100, high=2),
        task("b", 10, 100, high=1),
    ])
    assigned = partition(ts, 2, heuristic="first-fit")
    assert all(t.cpu == 0 for t in assigned.periodic)


def test_infeasible_set_raises():
    ts = TaskSet([
        task("a", 90, 100, high=3),
        task("b", 90, 100, high=2),
        task("c", 90, 100, high=1),
    ])
    with pytest.raises(PartitioningError):
        partition(ts, 2)


def test_unknown_heuristic_rejected():
    ts = TaskSet([task("a", 10, 100)])
    with pytest.raises(ValueError):
        partition(ts, 2, heuristic="magic")


def test_invalid_cpu_count():
    ts = TaskSet([task("a", 10, 100)])
    with pytest.raises(ValueError):
        partition(ts, 0)


def test_aperiodics_pass_through():
    ts = random_taskset(4, 0.5, seed=3, n_aperiodic=2, aperiodic_wcet=100)
    assigned = partition(ts, 2)
    assert len(assigned.aperiodic) == 2


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n_cpus=st.integers(1, 4))
def test_partition_feasible_property(seed, n_cpus):
    """Whenever a heuristic succeeds, the result passes the exact test."""
    ts = random_taskset(6, 0.45 * n_cpus, seed=seed)
    try:
        assigned = partition(ts, n_cpus)
    except PartitioningError:
        return  # heuristics are allowed to fail; they must not lie
    report = analyse_taskset(assigned, n_cpus)
    assert report.schedulable


# -- evaluate-all reference: test every processor, then compare loads --------
def _evaluate_all_best_fit(task, groups, loads):
    best_cpu, best_load = None, -1.0
    for cpu, group in enumerate(groups):
        if partitioning._fits(task, group) and loads[cpu] > best_load:
            best_cpu, best_load = cpu, loads[cpu]
    return best_cpu


def _evaluate_all_worst_fit(task, groups, loads):
    best_cpu, best_load = None, 2.0
    for cpu, group in enumerate(groups):
        if partitioning._fits(task, group) and loads[cpu] < best_load:
            best_cpu, best_load = cpu, loads[cpu]
    return best_cpu


EVALUATE_ALL = {
    "first-fit": partitioning._choose_first_fit,
    "best-fit": _evaluate_all_best_fit,
    "worst-fit": _evaluate_all_worst_fit,
}


def _placement(taskset, n_cpus, heuristic):
    try:
        assigned = partition(taskset, n_cpus, heuristic=heuristic)
    except PartitioningError as exc:
        return str(exc)
    return {t.name: t.cpu for t in assigned.periodic}


def _counting_tables(monkeypatch):
    calls = []
    table = partitioning.response_time_table

    def counted(tasks):
        calls.append(len(tasks))
        return table(tasks)

    monkeypatch.setattr(partitioning, "response_time_table", counted)
    return calls


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n_cpus=st.integers(1, 4),
       per_cpu=st.floats(0.2, 0.95))
def test_preference_order_picks_what_evaluate_all_picks(seed, n_cpus, per_cpu):
    ts = random_taskset(8, per_cpu * n_cpus, seed=seed).with_deadline_monotonic_priorities()
    for heuristic, reference in EVALUATE_ALL.items():
        chosen = _placement(ts, n_cpus, heuristic)
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(partitioning._HEURISTICS, heuristic, reference)
            expected = _placement(ts, n_cpus, heuristic)
        assert chosen == expected, heuristic


@pytest.mark.parametrize("heuristic", ["best-fit", "worst-fit"])
def test_preference_order_runs_fewer_exact_tests(monkeypatch, heuristic):
    ts = random_taskset(8, 1.6, seed=5).with_deadline_monotonic_priorities()
    calls = _counting_tables(monkeypatch)
    chosen = _placement(ts, 4, heuristic)
    tested = len(calls)
    monkeypatch.setitem(partitioning._HEURISTICS, heuristic,
                        EVALUATE_ALL[heuristic])
    assert _placement(ts, 4, heuristic) == chosen
    # Evaluate-all runs one exact test per processor per task.
    assert len(calls) - tested == 8 * 4
    assert tested < 8 * 4 / 2
