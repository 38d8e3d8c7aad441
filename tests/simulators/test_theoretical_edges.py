"""Edge-case tests for the theoretical simulator."""

import pytest

from repro.analysis import assign_promotions, partition
from repro.core.task import AperiodicTask, PeriodicTask, TaskSet
from repro.simulators.theoretical import TheoreticalSimulator
from repro.trace.metrics import compute_metrics
from repro.trace.recorder import TraceRecorder

TICK = 10_000


def analysed(periodic, aperiodic=(), n_cpus=2):
    ts = TaskSet(periodic, aperiodic).with_deadline_monotonic_priorities()
    ts = partition(ts, n_cpus)
    return assign_promotions(ts, n_cpus, tick=TICK)


def test_arrival_at_time_zero():
    ts = analysed(
        [PeriodicTask(name="p", wcet=5_000, period=100_000)],
        [AperiodicTask(name="a", wcet=3_000)],
    )
    sim = TheoreticalSimulator(ts, 2, tick=TICK, overhead=0.0,
                               aperiodic_arrivals={"a": [0]})
    sim.run(50_000)
    aper = next(j for j in sim.finished_jobs if j.task.name == "a")
    assert aper.release == 0
    assert aper.finish_time == 3_000


def test_simultaneous_arrivals_fifo():
    ts = analysed(
        [],
        [AperiodicTask(name="x", wcet=2_000), AperiodicTask(name="y", wcet=2_000)],
        n_cpus=1,
    )
    sim = TheoreticalSimulator(ts, 1, tick=TICK, overhead=0.0,
                               aperiodic_arrivals={"x": [500], "y": [500]})
    sim.run(50_000)
    x = next(j for j in sim.finished_jobs if j.task.name == "x")
    y = next(j for j in sim.finished_jobs if j.task.name == "y")
    # Deterministic FIFO among equal arrivals (uid order).
    assert {x.finish_time, y.finish_time} == {2_500, 4_500}


def test_arrival_exactly_on_tick():
    ts = analysed(
        [PeriodicTask(name="p", wcet=5_000, period=100_000)],
        [AperiodicTask(name="a", wcet=1_000)],
    )
    sim = TheoreticalSimulator(ts, 2, tick=TICK, overhead=0.0,
                               aperiodic_arrivals={"a": [TICK * 3]})
    sim.run(100_000)
    aper = next(j for j in sim.finished_jobs if j.task.name == "a")
    assert aper.release == TICK * 3
    assert aper.response_time == 1_000


def test_burst_of_arrivals_all_served():
    ts = analysed(
        [PeriodicTask(name="p", wcet=10_000, period=100_000)],
        [AperiodicTask(name="a", wcet=2_000)],
    )
    arrivals = list(range(5_000, 65_000, 3_000))
    sim = TheoreticalSimulator(ts, 2, tick=TICK, overhead=0.0,
                               aperiodic_arrivals={"a": arrivals})
    sim.run(300_000)
    served = [j for j in sim.finished_jobs if j.task.name == "a"]
    assert len(served) == len(arrivals)
    # FIFO: finish order matches arrival order.
    by_release = sorted(served, key=lambda j: j.release)
    finishes = [j.finish_time for j in by_release]
    assert finishes == sorted(finishes)


def test_aperiodic_arrivals_from_task_definition():
    ts = analysed(
        [PeriodicTask(name="p", wcet=5_000, period=100_000)],
        [AperiodicTask(name="a", wcet=1_500, arrivals=(20_000, 40_000))],
    )
    sim = TheoreticalSimulator(ts, 2, tick=TICK, overhead=0.0)
    sim.run(100_000)
    assert sum(1 for j in sim.finished_jobs if j.task.name == "a") == 2


def test_run_can_be_resumed():
    ts = analysed([PeriodicTask(name="p", wcet=5_000, period=50_000)])
    sim = TheoreticalSimulator(ts, 2, tick=TICK, overhead=0.0)
    sim.run(60_000)
    first = len(sim.finished_jobs)
    sim.run(250_000)
    assert len(sim.finished_jobs) > first
    assert not [j for j in sim.finished_jobs if j.missed_deadline]


def split_run(stops):
    ts = analysed(
        [
            PeriodicTask(name="p", wcet=5_000, period=55_000),
            PeriodicTask(name="q", wcet=12_000, period=80_000),
        ],
        [AperiodicTask(name="a", wcet=7_000)],
    )
    trace = TraceRecorder()
    sim = TheoreticalSimulator(ts, 2, tick=TICK, overhead=0.02,
                               aperiodic_arrivals={"a": [33_000, 121_000]},
                               trace=trace)
    for stop in stops:
        sim.run(stop)
    jobs = [(j.name, j.start_time, j.finish_time) for j in sim.finished_jobs]
    ticks = [event.time for event in trace.of_kind("tick")]
    return jobs, ticks, sim.stats()


@pytest.mark.parametrize("stops", [
    (65_000, 200_000),
    (1, 200_000),
    (33_000, 107_500, 121_001, 200_000),
])
def test_split_runs_keep_the_tick_grid(stops):
    jobs, ticks, stats = split_run(stops)
    assert (jobs, ticks, stats) == split_run((200_000,))
    assert ticks == list(range(0, 200_000, TICK))


def test_single_cpu_serialises_everything():
    ts = analysed(
        [
            PeriodicTask(name="p1", wcet=10_000, period=100_000),
            PeriodicTask(name="p2", wcet=10_000, period=100_000),
        ],
        n_cpus=1,
    )
    sim = TheoreticalSimulator(ts, 1, tick=TICK, overhead=0.0)
    sim.run(100_000)
    finishes = sorted(j.finish_time for j in sim.finished_jobs)
    assert finishes == [10_000, 20_000]


def test_metrics_report_promotions():
    # Zero-laxity task promotes on release.
    ts = analysed(
        [PeriodicTask(name="tight", wcet=40_000, period=100_000, deadline=50_000)],
        n_cpus=1,
    )
    sim = TheoreticalSimulator(ts, 1, tick=TICK, overhead=0.0)
    sim.run(300_000)
    metrics = compute_metrics(sim.finished_jobs, 300_000)
    assert metrics.promotions >= 2
    assert metrics.deadline_misses == 0
