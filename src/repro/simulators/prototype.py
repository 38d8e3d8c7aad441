"""The prototype simulator: microkernel + SoC in one callable package.

Builds the full hardware model (arbitrated OPB, per-core caches and
local memories, MPIC, timer, CAN peripherals), binds the analysed task
set with per-task execution profiles, runs the dual-priority
microkernel, and reports the same metrics as the theoretical
simulator so Figure 4 can put them side by side.

A ``scale`` knob divides all workload times (WCETs, periods,
deadlines, tick, horizon) by a power of two before simulation.  Every
quantity the paper reports is a *ratio* (slowdowns, response time vs
execution time), and those ratios are preserved because the bus
traffic per nominal cycle -- the contention driver -- is
scale-invariant; this keeps full Figure 4 sweeps tractable in pure
Python.  ``scale=1`` runs the full-size system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro import TICK
from repro.core.task import AperiodicTask, PeriodicTask, TaskSet
from repro.hw.soc import SoC, SoCConfig
from repro.kernel.costs import KernelCosts
from repro.kernel.microkernel import DualPriorityMicrokernel, TaskBinding
from repro.trace.recorder import TraceRecorder


#: Execution-chunk stride of the prototype's cores; scaled runs clamp
#: it to a tenth of the scaled tick so a slice never spans a whole
#: scheduling period.
DEFAULT_CHUNK_CYCLES = 2_000

#: Workload scale of the Figure-4 experiments, the TLM calibration and
#: the per-run reports: a full-size cell divided by 1000 runs in
#: seconds of pure Python while keeping every reported ratio.
DEFAULT_SCALE = 1_000


@dataclass(frozen=True)
class PrototypeConfig:
    """Run parameters for the prototype simulator."""

    n_cpus: int = 2
    tick: int = TICK
    scale: int = 1
    costs: KernelCosts = field(default_factory=KernelCosts)

    def __post_init__(self):
        if self.scale < 1:
            raise ValueError("scale must be >= 1")
        if self.tick % self.scale:
            raise ValueError("tick must be divisible by scale")


def scale_taskset(taskset: TaskSet, scale: int) -> TaskSet:
    """Divide every time quantity of the set by ``scale`` (exact)."""
    if scale == 1:
        return taskset

    def div(value: int, what: str) -> int:
        scaled = value // scale
        if scaled <= 0:
            raise ValueError(f"{what}={value} too small for scale {scale}")
        return scaled

    periodic = [
        PeriodicTask(
            name=t.name,
            wcet=div(t.wcet, f"{t.name}.wcet"),
            period=div(t.period, f"{t.name}.period"),
            deadline=div(t.deadline, f"{t.name}.deadline"),
            low_priority=t.low_priority,
            high_priority=t.high_priority,
            cpu=t.cpu,
            promotion=(t.promotion // scale) if t.promotion is not None else None,
            offset=t.offset // scale,
            acet=div(t.acet, f"{t.name}.acet"),
        )
        for t in taskset.periodic
    ]
    aperiodic = [
        AperiodicTask(
            name=t.name,
            wcet=div(t.wcet, f"{t.name}.wcet"),
            arrivals=tuple(a // scale for a in t.arrivals),
            soft_deadline=(t.soft_deadline // scale) if t.soft_deadline else None,
            acet=div(t.acet, f"{t.name}.acet"),
        )
        for t in taskset.aperiodic
    ]
    return TaskSet(periodic, aperiodic)


class PrototypeSimulator:
    """Full-system run of the dual-priority multiprocessor."""

    def __init__(
        self,
        taskset: TaskSet,
        config: PrototypeConfig,
        bindings: Optional[Dict[str, TaskBinding]] = None,
        aperiodic_arrivals: Optional[Dict[str, Sequence[int]]] = None,
        trace: Optional[TraceRecorder] = None,
        metrics=None,
        recovery=None,
    ):
        self.config = config
        self.scale = config.scale
        self.taskset = scale_taskset(taskset, config.scale)

        scaled_tick = config.tick // config.scale
        soc_config = SoCConfig(
            n_cpus=config.n_cpus,
            tick_cycles=scaled_tick,
            chunk_cycles=min(DEFAULT_CHUNK_CYCLES, max(100, scaled_tick // 10)),
        )
        self.metrics = metrics
        self.soc = SoC(soc_config, metrics=metrics)
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)

        # Kernel constants and context footprints must shrink with the
        # workload scale or their per-tick fraction would be inflated.
        source_bindings = dict(bindings or {})
        for task in taskset:
            source_bindings.setdefault(task.name, TaskBinding())
        scaled_bindings = {
            name: TaskBinding(
                profile=binding.profile,
                stack_words=max(1, binding.stack_words // config.scale),
                criticality=binding.criticality,
                retry_budget=binding.retry_budget,
            )
            for name, binding in source_bindings.items()
        }
        self.kernel = DualPriorityMicrokernel(
            self.soc,
            self.taskset,
            bindings=scaled_bindings,
            costs=config.costs.scaled(config.scale),
            trace=self.trace,
            metrics=metrics,
            recovery=recovery,
        )

        merged = self.taskset.arrivals_with({
            name: [t // config.scale for t in times]
            for name, times in (aperiodic_arrivals or {}).items()
        })
        for name, times in merged.items():
            if not times:
                continue
            can = self.soc.add_can_interface(f"can-{name}", task_name=name)
            can.program_frames(sorted(times))

    def run(self, until: int):
        """Simulate to ``until`` (pre-scale cycles); returns finished jobs."""
        self.kernel.run(until // self.scale)
        return self.kernel.finished_jobs

    # ----------------------------------------------------------------- queries
    @property
    def finished_jobs(self):
        return self.kernel.finished_jobs

    def to_full_scale(self, cycles: int) -> int:
        """Convert a scaled measurement back to full-size cycles."""
        return cycles * self.scale

    def stats(self) -> dict:
        return self.kernel.stats()
