"""Tests for the uniprocessor dual-priority reference simulator."""

import pytest

from repro.analysis import assign_promotions, random_taskset
from tests.simulators.reference_dual_priority import DualPrioritySimulator
from repro.core.task import AperiodicTask, PeriodicTask, TaskSet


def analysed(tasks, aperiodic=()):
    ts = TaskSet(tasks, aperiodic).with_deadline_monotonic_priorities()
    return assign_promotions(ts, 1)


def test_single_task_runs_to_completion():
    ts = analysed([PeriodicTask(name="a", wcet=30, period=100)])
    sim = DualPrioritySimulator(ts)
    finished = sim.run(300)
    assert [j.finish_time for j in finished] == [30, 130, 230]
    assert not sim.deadline_misses()


def test_two_tasks_fixed_priority_after_promotion():
    # With zero laxity both are promoted immediately; DM order applies.
    ts = analysed([
        PeriodicTask(name="fast", wcet=20, period=100, deadline=40),
        PeriodicTask(name="slow", wcet=50, period=200),
    ])
    sim = DualPrioritySimulator(ts)
    sim.run(200)
    fast = [j for j in sim.finished if j.task.name == "fast"]
    assert fast[0].finish_time == 20  # highest DM priority first


def test_aperiodic_served_before_unpromoted_periodic():
    periodic = PeriodicTask(name="p", wcet=40, period=200)
    ts = analysed([periodic], [AperiodicTask(name="a", wcet=30, arrivals=(0,))])
    # Promotion leaves slack (U = D - W = 160), so the aperiodic runs first.
    sim = DualPrioritySimulator(ts)
    sim.run(200)
    aper = next(j for j in sim.finished if j.task.name == "a")
    per = next(j for j in sim.finished if j.task.name == "p")
    assert aper.finish_time == 30
    assert per.finish_time == 70
    assert not sim.deadline_misses()


def test_promotion_preempts_aperiodic():
    # Tight deadline: p must be promoted at U = D - C = 10.
    periodic = PeriodicTask(name="p", wcet=40, period=200, deadline=50)
    ts = analysed([periodic], [AperiodicTask(name="a", wcet=100, arrivals=(0,))])
    sim = DualPrioritySimulator(ts)
    sim.run(200)
    per = next(j for j in sim.finished if j.task.name == "p")
    assert per.finish_time <= 50
    aper = next(j for j in sim.finished if j.task.name == "a")
    assert aper.preemptions >= 1
    assert aper.finish_time == 140  # 10 head start + 40 blocked + 90 rest


def test_no_deadline_misses_on_schedulable_random_sets():
    for seed in range(5):
        ts = random_taskset(5, 0.6, seed=seed, min_period=5_000, max_period=50_000)
        ts = assign_promotions(ts, 1)
        sim = DualPrioritySimulator(ts)
        horizon = min(ts.hyperperiod, 500_000)
        sim.run(horizon)
        assert sim.deadline_misses() == [], f"seed {seed} missed deadlines"


def test_response_times_query():
    ts = analysed([PeriodicTask(name="a", wcet=10, period=100)])
    sim = DualPrioritySimulator(ts)
    sim.run(250)
    assert sim.response_times("a") == [10, 10, 10]


def test_work_conservation_single_cpu():
    """Total executed time equals sum of finished execution times."""
    ts = random_taskset(4, 0.5, seed=11, min_period=10_000, max_period=40_000)
    ts = assign_promotions(ts, 1)
    sim = DualPrioritySimulator(ts)
    sim.run(200_000)
    for job in sim.finished:
        assert job.remaining == 0
        assert job.finish_time - job.release >= job.task.acet
