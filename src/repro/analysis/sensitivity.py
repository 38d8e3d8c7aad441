"""WCET sensitivity analysis: how much margin does each task have?

For a schedulable partition, the *scaling factor* of a task is the
largest multiplier its WCET budget tolerates before some deadline test
on its processor fails (everything else held fixed).  This quantifies
robustness against the exact failure mode the failure-injection tests
exercise (optimistic WCETs), and gives designers the per-task headroom
the paper's padded budgets ("taking in account an overhead") spend.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.response_time import response_time_table
from repro.core.task import PeriodicTask, TaskSet


def _group_schedulable(tasks: Sequence[PeriodicTask]) -> bool:
    return all(result.schedulable for result in response_time_table(tasks))


def wcet_scaling_factor(
    task: PeriodicTask,
    local_tasks: Sequence[PeriodicTask],
    precision: float = 1e-3,
    upper: float = 64.0,
) -> float:
    """Largest factor f such that scaling ``task.wcet`` by f keeps the
    whole same-processor group schedulable.

    Returns a value >= 1.0 for schedulable groups (1.0 = no headroom);
    raises when the group is not schedulable to begin with.
    """
    if not _group_schedulable(local_tasks):
        raise ValueError("group is not schedulable at the nominal WCETs")

    def feasible(factor: float) -> bool:
        wcet = int(task.wcet * factor)
        if wcet <= 0:
            return True
        if wcet > task.deadline:
            return False
        scaled = [
            t if t.name != task.name else t._replace(wcet=wcet, acet=None)
            for t in local_tasks
        ]
        return _group_schedulable(scaled)

    low, high = 1.0, upper
    if feasible(high):
        return high
    while high - low > precision:
        mid = (low + high) / 2
        if feasible(mid):
            low = mid
        else:
            high = mid
    return low


def sensitivity_report(taskset: TaskSet, n_cpus: int) -> List[Dict]:
    """Per-task scaling factors over the whole partition."""
    groups: Dict[int, List[PeriodicTask]] = {}
    for task in taskset.periodic:
        if not 0 <= task.cpu < n_cpus:
            raise ValueError(f"{task.name}: cpu {task.cpu} outside 0..{n_cpus - 1}")
        groups.setdefault(task.cpu, []).append(task)
    rows: List[Dict] = []
    for task in taskset.periodic:
        factor = wcet_scaling_factor(task, groups[task.cpu])
        rows.append(
            {
                "task": task.name,
                "cpu": task.cpu,
                "wcet": task.wcet,
                "scaling_factor": round(factor, 3),
                "headroom_cycles": int(task.wcet * (factor - 1.0)),
            }
        )
    return rows
