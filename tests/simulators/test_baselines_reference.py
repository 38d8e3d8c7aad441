"""The baseline event loop against its reference copy.

:class:`MultiprocessorSimulator` keeps its pending releases in a heap,
takes the next event without a candidate list and formats nothing for
a disabled recorder; :class:`ReferenceMultiprocessorSimulator` is the
loop it replaced.  On random task sets, under every policy, with and
without a switch penalty, a trace and a split ``run(until)``, both must
finish the same jobs at the same instants and on the same processors,
count the same context switches and record the same trace.
"""

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.analysis import assign_promotions, partition
from repro.analysis.partitioning import PartitioningError
from repro.analysis.taskgen import random_taskset
from repro.core.task import AperiodicTask, PeriodicTask, TaskSet
from repro.simulators.baselines import (
    GlobalEDFPolicy,
    GlobalFixedPriorityPolicy,
    MultiprocessorSimulator,
    PartitionedFixedPriorityPolicy,
)
from repro.trace.recorder import TraceRecorder

from tests.simulators.reference_baselines import ReferenceMultiprocessorSimulator

TICK = 10_000
HORIZON = 1_200_000
POLICIES = (PartitionedFixedPriorityPolicy, GlobalFixedPriorityPolicy,
            GlobalEDFPolicy)


def outcome(cls, taskset, n_cpus, policy, arrivals, penalty, traced, split):
    trace = TraceRecorder(enabled=traced)
    sim = cls(taskset, n_cpus, policy, aperiodic_arrivals=arrivals,
              switch_penalty=penalty, trace=trace)
    sim.run(split)
    sim.run(HORIZON)
    return {
        "finished": [
            (job.name, job.release, job.start_time, job.finish_time, job.cpu,
             job.preemptions, job.migrations)
            for job in sim.finished
        ],
        "running": [None if job is None else (job.name, job.remaining)
                    for job in sim.running],
        "ready": sorted((job.name, job.remaining) for job in sim.ready),
        "now": sim.now,
        "context_switches": sim.context_switches,
        "trace": [(event.time, event.kind, event.job, event.cpu, event.info)
                  for event in trace.events],
    }


def assert_same(taskset, n_cpus, arrivals, penalty, split):
    for policy_cls in POLICIES:
        for traced in (False, True):
            args = (taskset, n_cpus, policy_cls(), arrivals, penalty, traced,
                    split)
            fast = outcome(MultiprocessorSimulator, *args)
            reference = outcome(ReferenceMultiprocessorSimulator, *args)
            assert fast == reference, (policy_cls.name, traced)
            assert bool(fast["trace"]) == traced


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    seed=st.integers(0, 10_000),
    n_cpus=st.integers(2, 4),
    utilization=st.floats(0.3, 0.9),
    arrivals=st.lists(st.integers(0, HORIZON), min_size=0, max_size=2),
    penalty=st.sampled_from([0, 3_000]),
    split=st.integers(1, HORIZON),
)
def test_loop_matches_reference(seed, n_cpus, utilization, arrivals, penalty,
                                split):
    base = random_taskset(
        6, utilization * n_cpus, seed=seed, n_aperiodic=1,
        aperiodic_wcet=25_000, min_period=30_000, max_period=300_000,
    )
    try:
        taskset = assign_promotions(partition(base, n_cpus), n_cpus, tick=TICK)
    except (PartitioningError, ValueError):
        assume(False)
    assert_same(taskset, n_cpus, {"a0": sorted(arrivals)}, penalty, split)


def test_overrun_releases_match_reference():
    """Jobs that finish after their next release re-arm in the past and
    are admitted one step late, on both loops."""
    taskset = TaskSet(
        [PeriodicTask(name="p0", wcet=60_000, period=100_000, high_priority=2),
         PeriodicTask(name="p1", wcet=70_000, period=100_000, high_priority=1),
         PeriodicTask(name="p2", wcet=50_000, period=150_000, high_priority=0,
                      cpu=1)],
        [AperiodicTask(name="a0", wcet=40_000)],
    )
    assert_same(taskset, 2, {"a0": [0, 250_000]}, 3_000, 410_000)


def test_idle_set_stops_where_the_reference_stops():
    """With no periodic task and every arrival served, both loops stop
    at the last completion instead of running on to ``until``."""
    taskset = TaskSet([], [AperiodicTask(name="a0", wcet=40_000)])
    assert_same(taskset, 2, {"a0": [5_000, 5_000, 90_000]}, 0, 60_000)
