"""Metrics over finished jobs and traces.

The paper's headline metric is the *mean response time of the
aperiodic task*; supporting metrics (deadline misses, preemptions,
migrations, context switches, per-cpu utilization) explain the
real-vs-theoretical gap.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.task import Job
from repro.trace.recorder import TraceRecorder


@dataclass
class ResponseStats:
    """Response-time summary for one task."""

    task: str
    count: int
    mean: float
    minimum: int
    maximum: int
    stdev: float

    @classmethod
    def from_jobs(cls, task: str, jobs: Sequence[Job]) -> "ResponseStats":
        values = [j.response_time for j in jobs if j.response_time is not None]
        if not values:
            raise ValueError(f"no finished jobs for task {task}")
        mean = statistics.fmean(values)
        # Float population variance: statistics.pstdev promotes int data
        # to exact Fractions, which dominates the metrics fold on large
        # runs; response times are cycle counts, floats lose nothing
        # that the stdev display precision keeps.
        variance = statistics.fmean((v - mean) ** 2 for v in values)
        return cls(
            task=task,
            count=len(values),
            mean=mean,
            minimum=min(values),
            maximum=max(values),
            stdev=math.sqrt(variance) if len(values) > 1 else 0.0,
        )


@dataclass
class ScheduleMetrics:
    """Aggregate outcome of one simulation run."""

    horizon: int
    finished_jobs: int
    deadline_misses: int
    preemptions: int
    migrations: int
    context_switches: int
    promotions: int
    response: Dict[str, ResponseStats] = field(default_factory=dict)
    per_cpu_busy: Dict[int, int] = field(default_factory=dict)

    def response_of(self, task: str) -> ResponseStats:
        try:
            return self.response[task]
        except KeyError:
            raise KeyError(
                f"no response stats for {task!r}; have {sorted(self.response)}"
            ) from None


def compute_metrics(
    finished: Iterable[Job],
    horizon: int,
    trace: Optional[TraceRecorder] = None,
    context_switches: int = 0,
) -> ScheduleMetrics:
    """Fold finished jobs (and optionally a trace) into metrics."""
    jobs = list(finished)
    by_task: Dict[str, List[Job]] = {}
    preemptions = 0
    migrations = 0
    promotions = 0
    misses = 0
    for job in jobs:
        by_task.setdefault(job.task.name, []).append(job)
        preemptions += job.preemptions
        migrations += job.migrations
        if job.is_periodic and job.promoted:
            promotions += 1
        if job.missed_deadline:
            misses += 1

    response = {
        task: ResponseStats.from_jobs(task, task_jobs)
        for task, task_jobs in by_task.items()
    }

    per_cpu_busy: Dict[int, int] = {}
    if trace is not None:
        for cpu, intervals in trace.busy_intervals(horizon).items():
            per_cpu_busy[cpu] = sum(end - start for start, end, _job in intervals)
        if context_switches == 0:
            context_switches = len(trace.of_kind("switch"))

    return ScheduleMetrics(
        horizon=horizon,
        finished_jobs=len(jobs),
        deadline_misses=misses,
        preemptions=preemptions,
        migrations=migrations,
        context_switches=context_switches,
        promotions=promotions,
        response=response,
        per_cpu_busy=per_cpu_busy,
    )
