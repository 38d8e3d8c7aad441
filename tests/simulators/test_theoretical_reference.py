"""The incremental theoretical rung against its allocate-every-step oracle.

:class:`TheoreticalSimulator` takes each decision from
``MPDPScheduler.reschedule``, which recomputes the full assignment only
when a job entered a band and otherwise refills freed processors;
:class:`ReferenceTheoreticalSimulator` recomputes the full assignment
at every tick and event.  Both must produce the same jobs,
the same counters and the same trace, record for record.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro import TICK as PAPER_TICK
from repro import CLOCK_HZ
from repro.analysis import assign_promotions, partition
from repro.analysis.partitioning import PartitioningError
from repro.analysis.taskgen import random_taskset
from repro.simulators.theoretical import TheoreticalSimulator
from repro.trace.recorder import TraceRecorder
from repro.workloads.automotive import (
    AUTOMOTIVE_APERIODIC,
    build_automotive_taskset,
    prepare_taskset,
)

from tests.simulators.reference_theoretical import ReferenceTheoreticalSimulator

TICK = 10_000
HORIZON = 1_500_000


def outcome(cls, taskset, n_cpus, tick, overhead, arrivals, until):
    trace = TraceRecorder()
    sim = cls(taskset, n_cpus, tick=tick, overhead=overhead,
              aperiodic_arrivals=arrivals, trace=trace)
    sim.run(until)
    jobs = [
        (job.name, job.start_time, job.finish_time, job.preemptions,
         job.migrations, job.cpu)
        for job in sim.finished_jobs
    ]
    return jobs, sim.stats(), list(trace.events)


def assert_same(taskset, n_cpus, tick, overhead, arrivals, until):
    fast = outcome(TheoreticalSimulator, taskset, n_cpus, tick, overhead,
                   arrivals, until)
    reference = outcome(ReferenceTheoreticalSimulator, taskset, n_cpus, tick,
                        overhead, arrivals, until)
    assert fast[0] == reference[0]
    assert fast[1] == reference[1]
    assert fast[2] == reference[2]
    return fast


arrival_instants = st.one_of(
    st.integers(0, HORIZON),
    # On the tick grid, so an arrival shares its step with a tick.
    st.integers(0, HORIZON // TICK).map(lambda k: k * TICK),
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    seed=st.integers(0, 10_000),
    n_cpus=st.integers(2, 4),
    utilization=st.floats(0.3, 0.8),
    arrivals=st.lists(arrival_instants, min_size=0, max_size=3),
    overhead=st.sampled_from([0.0, 0.02]),
)
def test_incremental_matches_reference(seed, n_cpus, utilization, arrivals,
                                       overhead):
    base = random_taskset(
        6, utilization * n_cpus, seed=seed, n_aperiodic=1,
        aperiodic_wcet=25_000, min_period=30_000, max_period=300_000,
    )
    try:
        taskset = assign_promotions(partition(base, n_cpus), n_cpus, tick=TICK)
    except (PartitioningError, ValueError):
        assume(False)
    assert_same(taskset, n_cpus, TICK, overhead, {"a0": arrivals}, HORIZON)


@pytest.mark.parametrize("n_cpus", [2, 3, 4])
def test_figure4_sets_match_reference(n_cpus):
    taskset = prepare_taskset(build_automotive_taskset(0.6, n_cpus), n_cpus,
                              tick=PAPER_TICK)
    arrival = int(3.55 * CLOCK_HZ)
    jobs, stats, _events = assert_same(
        taskset, n_cpus, PAPER_TICK, 0.02, {AUTOMOTIVE_APERIODIC: [arrival]},
        arrival + 25 * CLOCK_HZ,
    )
    assert any(name.startswith(AUTOMOTIVE_APERIODIC) for name, *_ in jobs)
    assert stats["context_switches"] > 0
