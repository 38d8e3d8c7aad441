"""Watchdog, bounded re-execution and graceful degradation."""

import pytest

from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.scenarios import (
    baseline_run,
    crash_plan,
    run_scenario,
    sustained_plan,
)
from repro.obs.metrics import MetricsRegistry


def test_fault_free_run_has_no_misses_or_faults():
    result = baseline_run()
    stats = result["stats"]
    assert stats["deadline_misses"] == 0
    assert stats["faults_injected"] == 0
    assert stats["task_retries"] == 0
    assert not stats["degraded"]


def test_watchdog_counts_unrecovered_crashes_as_misses():
    result = run_scenario(plan=crash_plan(), recovery=None)
    stats = result["stats"]
    assert stats["deadline_misses"] > 0
    assert stats["crashes_unrecovered"] == stats["deadline_misses"]
    assert stats["task_retries"] == 0
    misses = [e for e in result["trace"] if e.kind == "deadline_miss"]
    assert misses and all(e.info == "invalid" for e in misses)


def test_recovery_reexecutes_within_the_deadline():
    result = run_scenario(plan=crash_plan(), recovery={"enabled": True})
    stats = result["stats"]
    assert stats["deadline_misses"] == 0
    assert stats["task_retries"] > 0
    assert stats["crashes_unrecovered"] == 0
    retried = [j for j in result["jobs"] if j[8] > 0]  # retries field
    assert retried


def test_retry_budget_is_bounded():
    # Two crashes of the same instance against a budget of 1: the
    # second re-execution is refused and the instance completes invalid.
    plan = FaultPlan(events=(
        FaultEvent(kind="task_crash", time=30_000, task="tight"),
        FaultEvent(kind="task_crash", time=31_000, task="tight"),
    ))
    result = run_scenario(plan=plan, recovery={"enabled": True})
    stats = result["stats"]
    # demo binding for tight allows 2 retries, so both are absorbed...
    assert stats["task_retries"] == 2
    assert stats["deadline_misses"] == 0

    triple = FaultPlan(events=(
        FaultEvent(kind="task_crash", time=30_000, task="tight"),
        FaultEvent(kind="task_crash", time=31_000, task="tight"),
        FaultEvent(kind="task_crash", time=32_000, task="tight"),
    ))
    result = run_scenario(plan=triple, recovery={"enabled": True})
    stats = result["stats"]
    # ...but a third crash exhausts the budget.
    assert stats["task_retries"] == 2
    assert stats["crashes_unrecovered"] == 1
    assert stats["deadline_misses"] == 1


def test_wcet_overrun_extends_execution():
    plan = FaultPlan(events=(
        FaultEvent(kind="wcet_overrun", time=30_000, task="tight", arg=2_000),
    ))
    faulty = run_scenario(plan=plan)
    clean = baseline_run()
    assert faulty["stats"]["faults_injected"] == 1
    # The overrun instance finishes later than in the clean run.
    finish = lambda r: {
        (j[0], j[1]): j[4] for j in r["jobs"]
    }
    overrun_finishes = finish(faulty)
    clean_finishes = finish(clean)
    later = [
        key for key in clean_finishes
        if key in overrun_finishes
        and key[0] == "tight"
        and overrun_finishes[key] > clean_finishes[key]
    ]
    assert later


def test_degradation_sheds_low_criticality_tasks():
    result = run_scenario(
        plan=sustained_plan(),
        recovery={"enabled": True, "degradation_threshold": 4,
                  "shed_below_criticality": 1},
    )
    stats = result["stats"]
    assert stats["degraded"]
    assert stats["jobs_shed"] > 0
    shed_jobs = [j for j in result["jobs"] if j[10]]  # shed field
    assert shed_jobs and all(j[0] == "c" for j in shed_jobs)
    kinds = [e.kind for e in result["trace"]]
    assert "degrade" in kinds and "shed" in kinds


def test_degradation_never_trips_below_threshold():
    result = run_scenario(
        plan=crash_plan(),
        recovery={"enabled": True, "degradation_threshold": 100,
                  "shed_below_criticality": 1},
    )
    assert not result["stats"]["degraded"]
    assert result["stats"]["jobs_shed"] == 0


def test_deadline_miss_metrics_counter_labelled_by_task_and_cpu():
    # Satellite: deadline_misses_total{task,cpu} increments on misses.
    from repro.faults.injector import FaultInjector
    from repro.faults.scenarios import demo_taskset
    from repro.hw.soc import SoC, SoCConfig
    from repro.kernel import DualPriorityMicrokernel

    registry = MetricsRegistry()
    soc = SoC(SoCConfig(n_cpus=2, tick_cycles=20_000, chunk_cycles=1_000))
    kernel = DualPriorityMicrokernel(soc, demo_taskset(), metrics=registry)
    FaultInjector(kernel, crash_plan()).arm()
    kernel.run(until=400_000)

    assert kernel.deadline_misses > 0
    snap = registry.snapshot()
    assert "deadline_misses_total" in snap
    series = snap["deadline_misses_total"]["series"]
    total = sum(row["value"] for row in series)
    assert total == kernel.deadline_misses
    for row in series:
        assert row["labels"]["task"] == "tight"
        assert "cpu" in row["labels"]


def test_kernel_stats_surface_fault_counters():
    result = run_scenario(plan=crash_plan(), recovery={"enabled": True})
    stats = result["stats"]
    for key in ("deadline_misses", "faults_injected", "task_retries",
                "crashes_unrecovered", "jobs_shed", "degraded"):
        assert key in stats


# Known kernel defects (docs/FAULTS.md, "Known defects").  Each test
# pins a plan that reaches the defect today; strict xfail turns green
# into a failure once the kernel is fixed, so the marker must go then.
def _demo_random_plan(seed, kind):
    from repro.faults.plan import random_plan
    from repro.faults.scenarios import demo_taskset

    wcets = {task.name: task.wcet for task in demo_taskset().periodic}
    return random_plan(seed=seed, horizon=400_000, tasks=wcets, n_faults=3,
                       kinds=[kind])


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="KD-1: _arm_watchdog schedules a watchdog in the past")
def test_timer_glitch_plan_arms_watchdog_in_the_past():
    run_scenario(plan=_demo_random_plan(7, "timer_glitch"))


@pytest.mark.xfail(strict=True, raises=RuntimeError,
                   reason="bus stall leads to a spurious interrupt acknowledge")
def test_bus_stall_plan_acknowledges_a_spurious_interrupt():
    run_scenario(plan=_demo_random_plan(11, "bus_stall"))
