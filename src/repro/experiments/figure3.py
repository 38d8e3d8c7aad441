"""Figure 3: the worked dual-MicroBlaze schedule example.

"Figure 3 shows an example of scheduling on a dual processor
architecture with three periodic and two aperiodic tasks. ...
Priorities can be 0 and 1 for periodic tasks in low priority mode and
3 and 4 in high priority.  Aperiodic tasks are thus positioned with
priority 2.  Schedule A shows that without aperiodic tasks, we have an
available slot in timeslice 2 on MicroBlaze 0.  However, ... to
guarantee completion before timeslice 3, task P2 has been promoted to
high priority.  Schedule B adds the two aperiodic tasks, which arrive
at the beginning of timeslices 1 and 2.  Part of task A1 is executed
as soon as it arrives, since P1 in timeslice 1 is in low priority.
However, at timeslice 2, P1 gets promoted to its high priority, A1 is
interrupted and P1 completed.  A2 arrives at timeslice 2 and it is
inserted in the queue after A1.  So it waits for the completion of the
higher priority promoted periodic tasks and the allocation of the
remaining part of A1 before starting."

This module builds a task table realising that narrative, runs it
through the *same* MPDP policy the kernel uses (via the theoretical
simulator with zero overhead -- the figure is an idealised schedule),
and renders both schedules as interval tables and ASCII Gantt charts.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.task import AperiodicTask, PeriodicTask, TaskSet
from repro.simulators.ladder import make_simulator
from repro.simulators.theoretical import TheoreticalSimulator
from repro.trace.recorder import TraceRecorder

#: One timeslice (the scheduling tick of the example) in cycles.
SLICE = 10_000

#: The example spans the interesting timeslices plus slack.
HORIZON_SLICES = 7


def figure3_taskset(with_aperiodics: bool) -> TaskSet:
    """The Figure 3 task table.

    Periodic tasks (times in slices):

    ====  ===  ===  ===  =========  ========  =========  ====
    task  C    T    D    low prio   high prio  promotion  cpu
    ====  ===  ===  ===  =========  ========  =========  ====
    P1    2    8    4    0          4          2          1
    P2    4    8    5    1          3          1          0
    P3    2    8    8    0          3          6          0
    ====  ===  ===  ===  =========  ========  =========  ====

    Aperiodic tasks: A1 (C=2, arrives at slice 1), A2 (C=1, arrives at
    slice 2), middle-band priority, FIFO.
    """
    periodic = [
        PeriodicTask(
            name="P1", wcet=2 * SLICE, period=8 * SLICE, deadline=4 * SLICE,
            low_priority=0, high_priority=4, cpu=1, promotion=2 * SLICE,
        ),
        PeriodicTask(
            name="P2", wcet=4 * SLICE, period=8 * SLICE, deadline=5 * SLICE,
            low_priority=1, high_priority=3, cpu=0, promotion=1 * SLICE,
        ),
        PeriodicTask(
            name="P3", wcet=2 * SLICE, period=8 * SLICE, deadline=8 * SLICE,
            low_priority=0, high_priority=3, cpu=0, promotion=6 * SLICE,
        ),
    ]
    aperiodic = []
    if with_aperiodics:
        aperiodic = [
            AperiodicTask(name="A1", wcet=2 * SLICE, arrivals=(1 * SLICE,)),
            AperiodicTask(name="A2", wcet=1 * SLICE, arrivals=(2 * SLICE,)),
        ]
    return TaskSet(periodic, aperiodic)


def _run(taskset: TaskSet) -> Tuple[TheoreticalSimulator, TraceRecorder]:
    trace = TraceRecorder()
    sim = make_simulator(
        "theoretical", taskset, 2, tick=SLICE, overhead=0.0, trace=trace
    )
    sim.run(HORIZON_SLICES * SLICE)
    return sim, trace


def run_schedule_a():
    """Schedule A: periodic tasks only."""
    return _run(figure3_taskset(with_aperiodics=False))


def run_schedule_b():
    """Schedule B: periodic + the two aperiodic arrivals."""
    return _run(figure3_taskset(with_aperiodics=True))


def schedule_report(label: str, sim: TheoreticalSimulator, trace: TraceRecorder) -> str:
    """Human-readable rendering of one schedule (Gantt + intervals)."""
    from repro.trace.gantt import render_gantt, render_interval_table

    horizon = HORIZON_SLICES * SLICE
    lines = [
        f"Schedule {label}",
        render_gantt(trace, horizon=horizon, slot=SLICE // 4, n_cpus=2),
        "",
        render_interval_table(trace, horizon=horizon, n_cpus=2),
        "",
        "finished: "
        + ", ".join(
            f"{job.name}@{job.finish_time}" for job in sim.finished_jobs
        ),
        "promotions: "
        + ", ".join(e.job for e in trace.of_kind("promote")),
    ]
    return "\n".join(lines)


def narrative_checks_a(sim: TheoreticalSimulator, trace: TraceRecorder) -> Dict[str, bool]:
    """The claims the paper makes about schedule A, as booleans."""
    window = 5 * SLICE
    intervals = trace.busy_intervals(window)

    def busy(cpu: int) -> int:
        return sum(
            min(end, window) - start
            for start, end, _ in intervals.get(cpu, [])
            if start < window
        )

    free_slot = (2 * window - busy(0) - busy(1)) >= SLICE
    p2 = next(j for j in sim.finished_jobs if j.task.name == "P2")
    return {
        "periodic-only schedule leaves a free timeslice": free_slot,
        "P2 was promoted": p2.promoted,
        "P2 completed before its deadline (timeslice 5)": p2.finish_time <= 5 * SLICE,
        "no deadline missed": not any(j.missed_deadline for j in sim.finished_jobs),
    }


def narrative_checks_b(sim: TheoreticalSimulator, trace: TraceRecorder) -> Dict[str, bool]:
    """The claims the paper makes about schedule B."""
    finished = {job.task.name: job for job in sim.finished_jobs}
    a1, a2, p1 = finished["A1"], finished["A2"], finished["P1"]
    a1_started_on_arrival = a1.start_time == 1 * SLICE
    p1_promoted_slice2 = any(
        e.kind == "promote" and e.job.startswith("P1") and e.time == 2 * SLICE
        for e in trace
    )
    a1_preempted = a1.preemptions >= 1
    a2_after_a1 = a2.start_time >= a1.finish_time
    return {
        "A1 starts as soon as it arrives": a1_started_on_arrival,
        "P1 promoted at timeslice 2": p1_promoted_slice2,
        "A1 interrupted by the promotion": a1_preempted,
        "P1 completes before A1 resumes finishing": p1.finish_time <= a1.finish_time,
        "A2 starts only after A1 completes": a2_after_a1,
        "no deadline missed": not any(
            j.missed_deadline for j in sim.finished_jobs if j.is_periodic
        ),
    }


def main() -> int:
    sim_a, trace_a = run_schedule_a()
    print(schedule_report("A (periodic only)", sim_a, trace_a))
    print()
    for claim, holds in narrative_checks_a(sim_a, trace_a).items():
        print(f"  [{'ok' if holds else 'FAIL'}] {claim}")
    print()
    sim_b, trace_b = run_schedule_b()
    print(schedule_report("B (with aperiodics)", sim_b, trace_b))
    print()
    for claim, holds in narrative_checks_b(sim_b, trace_b).items():
        print(f"  [{'ok' if holds else 'FAIL'}] {claim}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
