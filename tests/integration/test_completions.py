"""Every job finishes once on the prototype, whichever core completes it.

A core can complete its job after another core's scheduling cycle put
that job back in a queue or moved it to a different processor, before
the IPI reached it.  The job must then leave the policy where it is and
count as finished once; a later completion of the same job by the core
it moved to is counted in ``stats()["stale_completions"]`` and changes
nothing.  Before that, 4P/60 % at the 3.55 s phase finished jobs twice,
gave their tasks extra instances and died with ``cannot schedule in the
past``.
"""

from collections import Counter

import pytest

from repro import CLOCK_HZ, TICK
from repro.simulators.ladder import make_simulator
from repro.simulators.prototype import DEFAULT_SCALE
from repro.trace.recorder import TraceRecorder
from repro.workloads.automotive import (
    AUTOMOTIVE_APERIODIC,
    automotive_bindings,
    build_automotive_taskset,
    prepare_taskset,
)


def run_phase(n_cpus, utilization, arrival_s, trace=None):
    """One Figure-4 prototype phase, run to its full horizon."""
    taskset = prepare_taskset(build_automotive_taskset(utilization, n_cpus),
                              n_cpus, tick=TICK)
    arrival = int(arrival_s * CLOCK_HZ)
    sim = make_simulator(
        "prototype", taskset, n_cpus, scale=DEFAULT_SCALE,
        bindings=automotive_bindings(), trace=trace,
        aperiodic_arrivals={AUTOMOTIVE_APERIODIC: [arrival]},
    )
    horizon = arrival + 25 * CLOCK_HZ
    sim.run(horizon)
    return sim, horizon


def test_4p60_at_3_55_s_completes_with_each_job_finished_once():
    sim, horizon = run_phase(4, 0.6, 3.55)
    assert sim.soc.sim.now == horizon // DEFAULT_SCALE
    finished = sim.finished_jobs
    assert len({id(job) for job in finished}) == len(finished)
    names = Counter(job.name for job in finished)
    assert max(names.values()) == 1
    # No periodic task gained an instance: each holds exactly one live
    # job, and its finished jobs are consecutive releases.
    policy = sim.kernel.policy
    live = [job for job in policy.running if job is not None]
    live += list(policy.waiting) + list(policy.periodic_ready)
    for queue in policy.local:
        live += list(queue)
    assert sorted(job.task.name for job in live) == sorted(
        task.name for task in sim.taskset.periodic)
    for task in sim.taskset.periodic:
        releases = [job.release for job in finished if job.task is task]
        assert releases == [task.offset + i * task.period
                            for i in range(len(releases))]


def overlapping_dispatches(events):
    """(time, job, holder cpu, cpu) for every dispatch of a job while
    another cpu, which dispatched it earlier, has not yet preempted or
    finished it.  A cpu lets its job go when it dispatches another."""
    holder, on_cpu, found = {}, {}, []
    for event in events:
        if event.kind == "dispatch":
            previous = on_cpu.get(event.cpu)
            if previous is not None and holder.get(previous) == event.cpu:
                del holder[previous]
            other = holder.get(event.job)
            if other is not None and other != event.cpu:
                found.append((event.time, event.job, other, event.cpu))
            holder[event.job] = event.cpu
            on_cpu[event.cpu] = event.job
        elif event.kind in ("preempt", "finish"):
            if holder.get(event.job) == event.cpu:
                del holder[event.job]
                del on_cpu[event.cpu]
    return found


def test_overlapping_dispatch_detector():
    from repro.trace.recorder import TraceEvent

    def ev(time, kind, job, cpu):
        return TraceEvent(time=time, kind=kind, job=job, cpu=cpu)

    handed_over = [ev(1, "dispatch", "a#0", 0), ev(2, "preempt", "a#0", 0),
                   ev(3, "dispatch", "a#0", 1)]
    assert overlapping_dispatches(handed_over) == []
    replaced = [ev(1, "dispatch", "a#0", 0), ev(2, "dispatch", "b#0", 0),
                ev(3, "dispatch", "a#0", 1)]
    assert overlapping_dispatches(replaced) == []
    loaded_twice = [ev(1, "dispatch", "a#0", 0), ev(3, "dispatch", "a#0", 1),
                    ev(4, "preempt", "a#0", 0)]
    assert overlapping_dispatches(loaded_twice) == [(3, "a#0", 0, 1)]


# KD-3 (docs/FAULTS.md, "Known defects"): a core loads a job's context
# while another core still executes it.  Strict: the marker must go when
# the kernel is fixed.
@pytest.mark.xfail(strict=True, reason="KD-3: a job is dispatched on two "
                   "cpus at once")
def test_no_job_is_dispatched_on_two_cpus_at_once():
    trace = TraceRecorder()
    run_phase(4, 0.6, 1.0, trace=trace)
    assert overlapping_dispatches(trace.events) == []
