"""Golden identity of two prototype Figure-4 cells and one faulted run.

Pins the exact simulated outcome -- aperiodic response, bus accounting,
kernel context switches and stale completions (KD-3, docs/FAULTS.md) --
of 2P/40 % and 4P/60 % at the 1.0 s arrival phase, recorded before the
bus arbitration and batched transfers were reworked.  4P/60 % was
re-recorded when a completion began to take its job out of whatever
queue or running slot holds it, so a job another core's scheduling
cycle had moved no longer finishes twice.  A speed-up that moves a
single same-instant tie (and with it the whole schedule) fails here,
not only in the benchmark's output digest.

The faulted run drives bus stalls, IRQs and a recovered task crash
through the full kernel on the fault tier's demo workload; its stats
and the digest of its jobs and trace were recorded before bus
transfers became callback-driven tenures.
"""

import hashlib

import pytest

from repro import CLOCK_HZ, TICK, cycles_to_seconds
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.scenarios import run_scenario
from repro.kernel.microkernel import RecoveryConfig
from repro.simulators.prototype import PrototypeConfig, PrototypeSimulator
from repro.trace.metrics import compute_metrics
from repro.workloads.automotive import (
    AUTOMOTIVE_APERIODIC,
    automotive_bindings,
    build_automotive_taskset,
    prepare_taskset,
)

SCALE = 1_000

GOLDEN = {
    (2, 0.40): {
        "real_s": 11.46938,
        "now": 1_300_000,
        "transactions": 28_974,
        "busy": 509_224,
        "waits": {0: 110_211, 1: 108_811},
        "per_master": {0: 14_881, 1: 14_093},
        "per_target": {"ddr": 507_442, "mpic": 1_782},
        "context_switches": 214,
        "stale_completions": 0,
    },
    (4, 0.60): {
        "real_s": 15.42576,
        "now": 1_300_000,
        "transactions": 54_756,
        "busy": 961_890,
        "waits": {0: 188_749, 1: 205_973, 2: 318_248, 3: 440_576},
        "per_master": {0: 14_802, 1: 15_438, 2: 12_045, 3: 12_471},
        "per_target": {"ddr": 958_686, "mpic": 3_204},
        "context_switches": 724,
        "stale_completions": 2,
    },
}


def build_phase(n_cpus: int, utilization: float, arrival_s: float = 1.0,
                recovery=None):
    """One prototype run exactly as ``figure4.run_cell`` makes it, and
    its horizon."""
    taskset = prepare_taskset(
        build_automotive_taskset(utilization, n_cpus), n_cpus, tick=TICK
    )
    arrival = int(arrival_s * CLOCK_HZ)
    horizon = arrival + int(25.0 * CLOCK_HZ)
    proto = PrototypeSimulator(
        taskset,
        PrototypeConfig(n_cpus=n_cpus, tick=TICK, scale=SCALE),
        bindings=automotive_bindings(),
        aperiodic_arrivals={AUTOMOTIVE_APERIODIC: [arrival]},
        recovery=recovery,
    )
    return proto, horizon


def run_phase(n_cpus: int, utilization: float, arrival_s: float = 1.0) -> dict:
    proto, horizon = build_phase(n_cpus, utilization, arrival_s)
    proto.run(horizon)
    metrics = compute_metrics(proto.finished_jobs, horizon // SCALE)
    response = proto.to_full_scale(
        int(metrics.response_of(AUTOMOTIVE_APERIODIC).mean)
    )
    stats = proto.soc.bus.stats
    return {
        "real_s": cycles_to_seconds(response),
        "now": proto.soc.sim.now,
        "transactions": stats.transactions,
        "busy": stats.busy_cycles,
        "waits": stats.wait_cycles,
        "per_master": stats.transactions_by_master,
        "per_target": stats.per_target,
        "context_switches": proto.kernel.context_switches,
        "stale_completions": proto.kernel.stale_completions,
    }


@pytest.mark.parametrize("cell", sorted(GOLDEN), ids=lambda c: f"{c[0]}P{round(c[1] * 100)}")
def test_prototype_cell_is_bit_identical(cell):
    assert run_phase(*cell) == GOLDEN[cell]


#: The first of 4P/60 %'s two stale completions: core 3 finishes
#: ``bitcount-shift-large#9`` at 700,144 (scaled cycles), and core 0
#: completes the same job again at 700,209.  The task's next real
#: completion is ``#10``, at 775,127.
STALE_TASK = "bitcount-shift-large"
CRASH_BEFORE_STALE = 700_150


@pytest.mark.parametrize("enabled", [False, True],
                         ids=["recovery-off", "recovery-on"])
def test_crash_fault_skips_a_stale_completion(enabled):
    """A crash armed between a job's completion and its stale second
    completion stays armed for the task's next real completion: with
    recovery a finished job is not re-executed, and without it a
    validly finished job is not marked invalid."""
    proto, horizon = build_phase(4, 0.60,
                                 recovery=RecoveryConfig(enabled=enabled))
    kernel = proto.kernel
    proto.soc.sim.schedule_at(CRASH_BEFORE_STALE,
                              lambda: kernel.inject_crash(STALE_TASK))
    proto.run(horizon)
    hit = [job.name for job in proto.finished_jobs
           if job.invalid or job.retries]
    assert hit == [f"{STALE_TASK}#10"]
    assert kernel.stale_completions >= 1
    assert kernel.faults_injected == 1
    assert (kernel.task_retries, kernel.crashes_unrecovered) == (
        (1, 0) if enabled else (0, 1))


#: Two bus stalls (one landing mid-transaction at an odd instant) and a
#: task crash that recovery re-executes.
FAULT_PLAN = FaultPlan(
    events=(
        FaultEvent(kind="bus_stall", time=52_000, duration=400),
        FaultEvent(kind="task_crash", time=90_000, task="b"),
        FaultEvent(kind="bus_stall", time=131_007, duration=1_500),
    ),
    name="golden-faulted",
)

FAULTED_STATS = {
    "aperiodic_releases": 2,
    "bus_busy_cycles": 52_712,
    "bus_utilization": 0.13178,
    "context_switches": 22,
    "crashes_unrecovered": 0,
    "deadline_misses": 0,
    "degraded": False,
    "faults_injected": 1,
    "ipis": 8,
    "irqs_serviced": 30,
    "jobs_shed": 0,
    "mpic_delivered": 30,
    "mpic_timeouts": 0,
    "scheduling_cycles": 20,
    "stale_completions": 0,
    "task_retries": 1,
}

FAULTED_DIGEST = "63e27875cd6a2070226652a38d2dfe0a1573ab146d6e1da19f76277c181470ef"


def test_faulted_prototype_run_is_bit_identical():
    result = run_scenario(plan=FAULT_PLAN, recovery={"enabled": True})
    assert result["injector"]["fired"] == 3
    assert result["stats"] == FAULTED_STATS
    digest = hashlib.sha256(
        repr((result["jobs"], result["trace"])).encode()
    ).hexdigest()
    assert digest == FAULTED_DIGEST
