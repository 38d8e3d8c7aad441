"""Static task-to-processor assignment.

MPDP partitions the *periodic* load offline; aperiodic work is global.
The paper does not prescribe a heuristic, so the classical bin-packing
family is provided (first/best/worst-fit on decreasing utilization),
each validated by the exact response-time test so the returned
partition is guaranteed feasible.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.analysis.response_time import response_time_table
from repro.core.task import PeriodicTask, TaskSet


class PartitioningError(ValueError):
    """No feasible assignment was found by the chosen heuristic."""


def _fits(task: PeriodicTask, group: List[PeriodicTask]) -> bool:
    """Exact test: does ``group + [task]`` stay schedulable?"""
    candidate = group + [task]
    return all(result.schedulable for result in response_time_table(candidate))


def _first_that_fits(task, groups, order):
    """The first processor of ``order`` whose group still fits ``task``.

    Each heuristic tries the processors in its own preference order, so
    the exact test runs only until the preferred fitting one is found.
    """
    for cpu in order:
        if _fits(task, groups[cpu]):
            return cpu
    return None


def _choose_first_fit(task, groups, loads):
    return _first_that_fits(task, groups, range(len(groups)))


def _choose_best_fit(task, groups, loads):
    """Most loaded fitting processor; ties go to the lowest id."""
    order = sorted(range(len(groups)), key=lambda cpu: (-loads[cpu], cpu))
    return _first_that_fits(task, groups, order)


def _choose_worst_fit(task, groups, loads):
    """Least loaded fitting processor; ties go to the lowest id."""
    order = sorted(range(len(groups)), key=lambda cpu: (loads[cpu], cpu))
    return _first_that_fits(task, groups, order)


_HEURISTICS: Dict[str, Callable] = {
    "first-fit": _choose_first_fit,
    "best-fit": _choose_best_fit,
    "worst-fit": _choose_worst_fit,
}


def partition(
    taskset: TaskSet,
    n_cpus: int,
    heuristic: str = "worst-fit",
) -> TaskSet:
    """Assign every periodic task a home processor.

    Tasks are considered in decreasing utilization order (the usual
    "-decreasing" variants).  ``worst-fit`` is the default because MPDP
    benefits from balanced per-processor slack: aperiodic jobs run in
    the holes the periodic load leaves in the lower band, and balance
    maximises the worst hole.

    Raises
    ------
    PartitioningError
        When some task fits on no processor.
    """
    if n_cpus < 1:
        raise ValueError("n_cpus must be >= 1")
    try:
        choose = _HEURISTICS[heuristic]
    except KeyError:
        raise ValueError(
            f"unknown heuristic {heuristic!r}; pick one of {sorted(_HEURISTICS)}"
        )

    order = sorted(taskset.periodic, key=lambda t: (-t.utilization, t.name))
    groups: List[List[PeriodicTask]] = [[] for _ in range(n_cpus)]
    loads = [0.0] * n_cpus
    placement: Dict[str, int] = {}
    for task in order:
        cpu = choose(task, groups, loads)
        if cpu is None:
            raise PartitioningError(
                f"{task.name} (U={task.utilization:.3f}) fits on no processor "
                f"with {heuristic}; total U={taskset.utilization:.3f}, n_cpus={n_cpus}"
            )
        groups[cpu].append(task)
        loads[cpu] += task.utilization
        placement[task.name] = cpu

    periodic = [t.with_cpu(placement[t.name]) for t in taskset.periodic]
    return taskset.with_tasks(periodic)
