"""Schedulability tests for the partitioned periodic load.

MPDP guarantees periodic deadlines iff each per-processor group is
schedulable under fixed-priority preemptive scheduling at the
upper-band priorities -- exactly the classical uniprocessor tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.response_time import (
    fault_aware_response_time,
    response_time_table,
)
from repro.core.task import PeriodicTask, TaskSet


@dataclass(frozen=True)
class FaultModel:
    """Transient-fault arrival assumption for fault-aware RTA.

    ``min_interarrival`` (F) bounds the arrival rate: at most one
    fault per F cycles hits any processor.  ``recovery_cost`` is the
    cycles one recovery costs; None selects the re-execution model
    (the largest WCET among the task under analysis and its
    higher-priority set).  See docs/FAULTS.md for the math and for how
    campaign plans are matched against a model
    (:meth:`repro.faults.plan.FaultPlan.min_interarrival`).
    """

    min_interarrival: int
    recovery_cost: Optional[int] = None

    def __post_init__(self):
        if self.min_interarrival <= 0:
            raise ValueError("min_interarrival must be positive")
        if self.recovery_cost is not None and self.recovery_cost < 0:
            raise ValueError("recovery_cost must be non-negative")


def liu_layland_bound(n: int) -> float:
    """The Liu & Layland utilization bound n(2^{1/n} - 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n * (2 ** (1.0 / n) - 1.0)


@dataclass
class SchedulabilityReport:
    """Verdict for a partitioned task set.

    ``per_cpu`` maps processor -> list of (task, wcrt, schedulable)
    entries; ``schedulable`` is the conjunction over all tasks.
    """

    n_cpus: int
    schedulable: bool
    per_cpu: Dict[int, List[dict]] = field(default_factory=dict)
    total_utilization: float = 0.0
    per_cpu_utilization: List[float] = field(default_factory=list)

    def failing_tasks(self) -> List[str]:
        return [
            row["task"]
            for rows in self.per_cpu.values()
            for row in rows
            if not row["schedulable"]
        ]

    def format(self) -> str:
        lines = [
            f"processors: {self.n_cpus}   total U: {self.total_utilization:.3f}   "
            f"schedulable: {self.schedulable}"
        ]
        for cpu in sorted(self.per_cpu):
            lines.append(
                f"  cpu {cpu} (U={self.per_cpu_utilization[cpu]:.3f}):"
            )
            for row in self.per_cpu[cpu]:
                wcrt = row["wcrt"] if row["wcrt"] is not None else "-"
                lines.append(
                    f"    {row['task']:<14} C={row['wcet']:<10} D={row['deadline']:<10} "
                    f"W={wcrt:<10} ok={row['schedulable']}"
                )
        return "\n".join(lines)


def analyse_taskset(
    taskset: TaskSet,
    n_cpus: int,
    fault_model: Optional[FaultModel] = None,
) -> SchedulabilityReport:
    """Exact (response-time based) schedulability of the partition.

    With a ``fault_model`` each row additionally carries
    ``wcrt_faulty`` -- the worst-case response time including
    re-execution overhead under the model's fault arrival rate -- and
    the verdict is the conjunction of fault-free and fault-aware
    schedulability (the fault-aware term dominates, but both are
    reported so headroom is visible).
    """
    groups: Dict[int, List[PeriodicTask]] = {cpu: [] for cpu in range(n_cpus)}
    for task in taskset.periodic:
        if not 0 <= task.cpu < n_cpus:
            raise ValueError(f"{task.name}: cpu {task.cpu} outside 0..{n_cpus - 1}")
        groups[task.cpu].append(task)

    report = SchedulabilityReport(
        n_cpus=n_cpus,
        schedulable=True,
        total_utilization=taskset.utilization,
        per_cpu_utilization=taskset.utilization_per_cpu(n_cpus),
    )
    for cpu, tasks in groups.items():
        rows = []
        for result, task in zip(response_time_table(tasks), tasks):
            row = {
                "task": task.name,
                "wcet": task.wcet,
                "deadline": task.deadline,
                "wcrt": result.wcrt,
                "schedulable": result.schedulable,
            }
            if fault_model is not None:
                faulty = fault_aware_response_time(
                    task,
                    tasks,
                    min_interarrival=fault_model.min_interarrival,
                    recovery_cost=fault_model.recovery_cost,
                )
                row["wcrt_faulty"] = faulty.wcrt
                row["schedulable"] = row["schedulable"] and faulty.schedulable
            rows.append(row)
            if not row["schedulable"]:
                report.schedulable = False
        report.per_cpu[cpu] = rows
    return report
