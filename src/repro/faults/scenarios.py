"""Demo fault scenarios -- the fixtures behind the fault-tier tests,
the engine determinism sentinel and
:func:`repro.experiments.runner.fault_campaign`.

Everything here is a module-level function of plain-data arguments so
campaign cells are picklable for :func:`repro.perf.executor.pmap` and
canonicalisable for :func:`repro.perf.cache.cache_key`.

The workload is four periodic tasks + one CAN-released aperiodic on a
2-cpu SoC with fault-tier bindings: ``tight`` is the high-criticality task with slack for
re-execution (C=9k against D=40k), ``c`` is the low-criticality task
shed first under graceful degradation.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan

#: Default run horizon (cycles) for demo scenarios.
DEMO_HORIZON = 400_000

#: Criticality floor used by the degradation demo: tasks below 1 shed.
DEMO_RECOVERY = {"enabled": True, "degradation_threshold": 0,
                 "shed_below_criticality": 1}


def demo_taskset():
    """The sentinel workload: 4 periodic + 1 aperiodic on 2 cpus."""
    from repro.analysis import assign_promotions, partition
    from repro.core.task import AperiodicTask, PeriodicTask, TaskSet

    tasks = [
        PeriodicTask(name="a", wcet=8_000, period=80_000),
        PeriodicTask(name="b", wcet=12_000, period=120_000),
        PeriodicTask(name="c", wcet=6_000, period=60_000),
        PeriodicTask(name="tight", wcet=9_000, period=100_000,
                     deadline=40_000),
    ]
    taskset = TaskSet(
        tasks, [AperiodicTask(name="evt", wcet=8_000)]
    ).with_deadline_monotonic_priorities()
    taskset = partition(taskset, 2)
    return assign_promotions(taskset, 2, tick=20_000)


def demo_bindings() -> Dict[str, object]:
    """Fault-tier bindings: criticality levels and retry budgets."""
    from repro.kernel.microkernel import TaskBinding

    return {
        "tight": TaskBinding(criticality=2, retry_budget=2),
        "a": TaskBinding(criticality=1, retry_budget=1),
        "b": TaskBinding(criticality=1, retry_budget=1),
        "c": TaskBinding(criticality=0, retry_budget=1),
    }


def crash_plan() -> FaultPlan:
    """Crash faults on ``tight``, one per instance, spaced a period
    apart -- the recovery demo: with re-execution every instance still
    meets its 40k deadline; without it every hit instance misses."""
    return FaultPlan(
        events=tuple(
            FaultEvent(kind="task_crash", time=t, task="tight")
            for t in (30_000, 130_000, 230_000, 330_000)
        ),
        name="crash-tight",
    )


def sustained_plan() -> FaultPlan:
    """A fault burst on the low-criticality task ``c`` -- the
    degradation demo (threshold 4 trips on the fourth consumed fault)."""
    return FaultPlan(
        events=tuple(
            FaultEvent(kind="task_crash", time=t, task="c")
            for t in (25_000, 45_000, 65_000, 85_000, 105_000, 125_000)
        ),
        name="sustained-c",
    )


def run_scenario(
    plan: Optional[FaultPlan] = None,
    recovery: Optional[dict] = None,
    until: int = DEMO_HORIZON,
) -> dict:
    """One kernel-on-SoC run under a fault plan.

    ``recovery`` is a plain dict mirroring
    :class:`repro.kernel.microkernel.RecoveryConfig` (or None for the
    default, recovery-disabled config) so callers can stay fully
    JSON/pickle friendly.  Returns hashable summaries: the finished-job
    tuple, the trace-event tuple, kernel stats, injector stats, and
    the final simulated time -- enough to compare two runs bit for bit.
    """
    from repro.hw.soc import SoC, SoCConfig
    from repro.kernel import DualPriorityMicrokernel
    from repro.kernel.microkernel import RecoveryConfig
    from repro.trace import TraceRecorder

    taskset = demo_taskset()
    soc = SoC(SoCConfig(n_cpus=2, tick_cycles=20_000, chunk_cycles=1_000))
    trace = TraceRecorder()
    kernel = DualPriorityMicrokernel(
        soc,
        taskset,
        bindings=demo_bindings(),
        trace=trace,
        recovery=RecoveryConfig(**recovery) if recovery else None,
    )
    soc.add_can_interface("can0", task_name="evt")
    soc.peripherals["can0"].program_frames([150_000, 260_000])

    injector = FaultInjector(kernel, plan if plan is not None else FaultPlan())
    injector.arm()
    kernel.run(until=until)

    jobs = tuple(
        (j.task.name, j.index, j.release, j.start_time, j.finish_time,
         j.cpu, j.preemptions, j.migrations, j.retries, j.invalid, j.shed)
        for j in kernel.finished_jobs
    )
    return {
        "jobs": jobs,
        "trace": tuple(trace.events),
        "stats": kernel.stats(),
        "injector": injector.stats(),
        "now": soc.sim.now,
    }


def baseline_run(until: int = DEMO_HORIZON) -> dict:
    """The fault-free reference: same workload, no injector at all."""
    from repro.hw.soc import SoC, SoCConfig
    from repro.kernel import DualPriorityMicrokernel
    from repro.trace import TraceRecorder

    taskset = demo_taskset()
    soc = SoC(SoCConfig(n_cpus=2, tick_cycles=20_000, chunk_cycles=1_000))
    trace = TraceRecorder()
    kernel = DualPriorityMicrokernel(
        soc, taskset, bindings=demo_bindings(), trace=trace
    )
    soc.add_can_interface("can0", task_name="evt")
    soc.peripherals["can0"].program_frames([150_000, 260_000])
    kernel.run(until=until)
    jobs = tuple(
        (j.task.name, j.index, j.release, j.start_time, j.finish_time,
         j.cpu, j.preemptions, j.migrations, j.retries, j.invalid, j.shed)
        for j in kernel.finished_jobs
    )
    return {
        "jobs": jobs,
        "trace": tuple(trace.events),
        "stats": kernel.stats(),
        "injector": {"planned": 0, "fired": 0, "by_kind": {}, "benign_upsets": 0},
        "now": soc.sim.now,
    }


def campaign_cell(point: dict) -> dict:
    """One campaign cell: plain-dict in, plain-dict out (picklable,
    cache-keyable).  ``point`` holds a serialized plan plus run knobs."""
    plan = FaultPlan.from_dict(point["plan"])
    result = run_scenario(
        plan=plan,
        recovery=point.get("recovery"),
        until=int(point.get("until", DEMO_HORIZON)),
    )
    stats = result["stats"]
    return {
        "seed": plan.seed,
        "plan": plan.name,
        "deadline_misses": stats["deadline_misses"],
        "faults_injected": stats["faults_injected"],
        "task_retries": stats["task_retries"],
        "crashes_unrecovered": stats["crashes_unrecovered"],
        "jobs_shed": stats["jobs_shed"],
        "degraded": stats["degraded"],
        "faults_fired": result["injector"]["fired"],
        "finished_jobs": len(result["jobs"]),
    }
