"""Task and job model for the dual-priority system.

All times are integer clock cycles.  The paper's Figure 3 numbering is
followed for priorities: **larger numeric priority wins**.  Periodic
(hard) tasks own two priorities, one in the lower band and one in the
upper band; aperiodic (soft) tasks live in the middle band.  A band is
always compared before the in-band priority, so a promoted periodic
task beats every aperiodic task, which beats every unpromoted periodic
task.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


class Band(enum.IntEnum):
    """The three dual-priority bands; larger is more urgent."""

    LOWER = 0
    MIDDLE = 1
    UPPER = 2


class JobState(enum.Enum):
    """Lifecycle of a job instance."""

    WAITING = "waiting"      # periodic job parked until its release time
    READY = "ready"          # released, not running
    RUNNING = "running"
    FINISHED = "finished"


# Module-level aliases: the schedulers set and test job states on every
# event, and a global read is cheaper than an enum member lookup.
WAITING = JobState.WAITING
READY = JobState.READY
RUNNING = JobState.RUNNING
FINISHED = JobState.FINISHED


@dataclass(frozen=True)
class PeriodicTask:
    """A hard periodic task.

    Parameters
    ----------
    name:
        Unique identifier.
    wcet:
        Worst-case execution time in cycles (C_i).
    period:
        Release period in cycles (T_i).
    deadline:
        Relative deadline in cycles (D_i); defaults to the period.
    low_priority / high_priority:
        Fixed in-band priorities (larger wins).  By default both are
        derived later from a deadline-monotonic ordering; explicit
        values reproduce the paper's Figure 3 table.
    acet:
        Actual execution time in cycles.  Real jobs execute for
        ``acet`` cycles; the analysis and utilization math use the
        (padded) ``wcet`` budget, mirroring the paper's offline tool
        which determined worst cases "taking in account an overhead for
        the context switching and considering the most complex
        datasets".  Defaults to ``wcet``.
    cpu:
        Home processor index for the post-promotion (local) phase.
        Assigned by :func:`repro.analysis.partitioning.partition`.
    promotion:
        Promotion delay U_i relative to release (0 <= U_i <= D_i).
        Computed offline as ``D_i - W_i``; ``None`` means "not yet
        analysed" and is rejected by the schedulers.
    offset:
        Release offset of the first job.
    """

    name: str
    wcet: int
    period: int
    deadline: Optional[int] = None
    low_priority: int = 0
    high_priority: int = 0
    cpu: int = 0
    promotion: Optional[int] = None
    offset: int = 0
    acet: Optional[int] = None

    def __post_init__(self):
        if self.wcet <= 0:
            raise ValueError(f"{self.name}: wcet must be positive, got {self.wcet}")
        if self.acet is None:
            object.__setattr__(self, "acet", self.wcet)
        if not 0 < self.acet <= self.wcet:
            raise ValueError(
                f"{self.name}: acet must satisfy 0 < acet <= wcet, got {self.acet}"
            )
        if self.period <= 0:
            raise ValueError(f"{self.name}: period must be positive, got {self.period}")
        if self.deadline is None:
            object.__setattr__(self, "deadline", self.period)
        if self.deadline <= 0 or self.deadline > self.period:
            raise ValueError(
                f"{self.name}: deadline must satisfy 0 < D <= T, got D={self.deadline}, T={self.period}"
            )
        if self.wcet > self.deadline:
            raise ValueError(
                f"{self.name}: wcet {self.wcet} exceeds deadline {self.deadline}; trivially unschedulable"
            )
        if self.offset < 0:
            raise ValueError(f"{self.name}: offset must be non-negative")
        if self.promotion is not None and not 0 <= self.promotion <= self.deadline:
            raise ValueError(
                f"{self.name}: promotion must satisfy 0 <= U <= D, got U={self.promotion}"
            )

    @property
    def utilization(self) -> float:
        """C_i / T_i."""
        return self.wcet / self.period

    def with_promotion(self, promotion: int) -> "PeriodicTask":
        """Copy of this task with promotion delay U_i set."""
        return self._replace(promotion=promotion)

    def with_cpu(self, cpu: int) -> "PeriodicTask":
        """Copy of this task pinned to home processor ``cpu``."""
        return self._replace(cpu=cpu)

    def with_priorities(self, low: int, high: int) -> "PeriodicTask":
        """Copy of this task with both band priorities set."""
        return self._replace(low_priority=low, high_priority=high)

    def _replace(self, **changes) -> "PeriodicTask":
        return replace(self, **changes)

    def release_times(self, until: int) -> Iterator[int]:
        """Yield absolute release times strictly below ``until``."""
        time = self.offset
        while time < until:
            yield time
            time += self.period


@dataclass(frozen=True)
class AperiodicTask:
    """A soft aperiodic task, released by an interrupt.

    ``arrivals`` may carry a fixed list of absolute arrival times; the
    simulators can also drive arrivals from a stochastic source or a
    peripheral model, in which case it stays empty.
    """

    name: str
    wcet: int
    arrivals: Tuple[int, ...] = ()
    # Soft deadline used only for reporting (response-time ratio).
    soft_deadline: Optional[int] = None
    acet: Optional[int] = None

    def __post_init__(self):
        if self.wcet <= 0:
            raise ValueError(f"{self.name}: wcet must be positive, got {self.wcet}")
        if self.acet is None:
            object.__setattr__(self, "acet", self.wcet)
        if not 0 < self.acet <= self.wcet:
            raise ValueError(
                f"{self.name}: acet must satisfy 0 < acet <= wcet, got {self.acet}"
            )
        if any(t < 0 for t in self.arrivals):
            raise ValueError(f"{self.name}: arrivals must be non-negative")
        if list(self.arrivals) != sorted(self.arrivals):
            raise ValueError(f"{self.name}: arrivals must be sorted")


class Job:
    """A runtime instance of a task.

    Jobs are mutable: the schedulers decrement ``remaining`` and move
    the job between queues.  ``key()`` gives the effective priority as
    a tuple ordered so that larger compares greater.
    """

    __slots__ = (
        "uid", "task", "release", "index", "is_periodic", "promotion_at",
        "remaining", "state", "promoted", "start_time", "finish_time", "cpu",
        "preemptions", "migrations", "_last_cpu", "retries", "invalid", "shed",
    )

    _uids = itertools.count(1)

    def __init__(self, task, release: int, index: int = 0):
        self.uid = next(Job._uids)
        self.task = task
        self.release = release
        self.index = index
        # Plain attributes, not properties: the task never changes after
        # construction and the schedulers test these in their hot loops.
        self.is_periodic = periodic = isinstance(task, PeriodicTask)
        promotion = task.promotion if periodic else None
        #: Absolute promotion instant (release + U_i), or None for an
        #: aperiodic job or an unanalysed periodic task.
        self.promotion_at = None if promotion is None else release + promotion
        self.remaining = task.acet
        self.state = WAITING
        self.promoted = False
        self.start_time: Optional[int] = None
        self.finish_time: Optional[int] = None
        self.cpu: Optional[int] = None
        self.preemptions = 0
        self.migrations = 0
        self._last_cpu: Optional[int] = None
        # Fault/recovery bookkeeping (repro.faults; see docs/FAULTS.md).
        self.retries = 0
        self.invalid = False
        self.shed = False

    # -- classification -------------------------------------------------------
    @property
    def name(self) -> str:
        return f"{self.task.name}#{self.index}"

    @property
    def absolute_deadline(self) -> Optional[int]:
        if self.is_periodic:
            return self.release + self.task.deadline
        if self.task.soft_deadline is not None:
            return self.release + self.task.soft_deadline
        return None

    @property
    def promotion_time(self) -> Optional[int]:
        """Absolute time at which this job moves to the upper band."""
        if not self.is_periodic:
            return None
        if self.promotion_at is None:
            raise ValueError(f"{self.task.name}: promotion not analysed")
        return self.promotion_at

    @property
    def band(self) -> Band:
        if not self.is_periodic:
            return Band.MIDDLE
        return Band.UPPER if self.promoted else Band.LOWER

    def key(self) -> Tuple[int, int, int]:
        """Effective priority; larger tuple preempts smaller.

        Aperiodic jobs are FIFO within the middle band, encoded by
        negating the release time (earlier arrival = larger key).
        """
        if not self.is_periodic:
            return (Band.MIDDLE, -self.release, -self.uid)
        if self.promoted:
            return (Band.UPPER, self.task.high_priority, -self.uid)
        return (Band.LOWER, self.task.low_priority, -self.uid)

    # -- bookkeeping -------------------------------------------------------------
    def record_dispatch(self, cpu: int, now: int) -> None:
        """Note that the job starts (or resumes) on ``cpu`` at ``now``."""
        if self.start_time is None:
            self.start_time = now
        if self._last_cpu is not None and self._last_cpu != cpu:
            self.migrations += 1
        self._last_cpu = cpu
        self.cpu = cpu
        self.state = RUNNING

    def record_preemption(self) -> None:
        """Note that the job was preempted while it still has work."""
        self.preemptions += 1
        self.state = READY
        self.cpu = None

    def record_finish(self, now: int) -> None:
        """Note completion."""
        self.finish_time = now
        self.state = FINISHED
        self.cpu = None

    @property
    def response_time(self) -> Optional[int]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.release

    @property
    def missed_deadline(self) -> bool:
        deadline = self.absolute_deadline
        if deadline is None or not self.is_periodic:
            return False
        if self.finish_time is None:
            return False
        return self.finish_time > deadline

    def __repr__(self) -> str:
        return (
            f"<Job {self.name} rel={self.release} rem={self.remaining} "
            f"state={self.state.value}{' promoted' if self.promoted else ''}>"
        )


class TaskSet:
    """A validated collection of periodic and aperiodic tasks."""

    def __init__(
        self,
        periodic: Sequence[PeriodicTask] = (),
        aperiodic: Sequence[AperiodicTask] = (),
    ):
        self.periodic: List[PeriodicTask] = list(periodic)
        self.aperiodic: List[AperiodicTask] = list(aperiodic)
        names = [t.name for t in self.periodic] + [t.name for t in self.aperiodic]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ValueError(f"duplicate task names: {sorted(duplicates)}")

    # -- queries ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.periodic) + len(self.aperiodic)

    def __iter__(self):
        yield from self.periodic
        yield from self.aperiodic

    def by_name(self, name: str):
        for task in self:
            if task.name == name:
                return task
        raise KeyError(name)

    @property
    def utilization(self) -> float:
        """Total periodic utilization sum(C_i / T_i)."""
        return sum(t.utilization for t in self.periodic)

    def utilization_per_cpu(self, n_cpus: int) -> List[float]:
        """Periodic utilization grouped by home processor."""
        per = [0.0] * n_cpus
        for task in self.periodic:
            if not 0 <= task.cpu < n_cpus:
                raise ValueError(f"{task.name}: cpu {task.cpu} outside 0..{n_cpus - 1}")
            per[task.cpu] += task.utilization
        return per

    @property
    def hyperperiod(self) -> int:
        """LCM of the periodic periods (1 if there are none)."""
        value = 1
        for task in self.periodic:
            value = math.lcm(value, task.period)
        return value

    def cpus(self) -> List[int]:
        """Sorted list of processor indices used by the partition."""
        return sorted({t.cpu for t in self.periodic})

    def arrivals_with(
        self, extra: Optional[Dict[str, Sequence[int]]] = None
    ) -> Dict[str, List[int]]:
        """Every aperiodic task's arrivals: its own, then ``extra``'s.

        Keys follow ``self.aperiodic`` order and times are left as
        given (callers order them).  An ``extra`` name that is not in
        the set raises ``KeyError``; a periodic one ``TypeError``.
        """
        merged = {task.name: list(task.arrivals) for task in self.aperiodic}
        for name, times in (extra or {}).items():
            if name not in merged:
                self.by_name(name)  # KeyError for an unknown name
                raise TypeError(f"{name} is not an aperiodic task")
            merged[name].extend(times)
        return merged

    # -- transforms ---------------------------------------------------------------
    def with_deadline_monotonic_priorities(self) -> "TaskSet":
        """Assign both band priorities deadline-monotonically.

        The shortest deadline gets the largest priority number (largest
        wins throughout the package).  Ties break by name for
        determinism.
        """
        ordering = sorted(self.periodic, key=lambda t: (-t.deadline, t.name))
        ranked = {task.name: rank for rank, task in enumerate(ordering)}
        periodic = [
            t.with_priorities(low=ranked[t.name], high=ranked[t.name])
            for t in self.periodic
        ]
        return TaskSet(periodic, self.aperiodic)

    def with_tasks(self, periodic: Sequence[PeriodicTask]) -> "TaskSet":
        """Copy with the periodic tasks replaced (analysis pipelines)."""
        return TaskSet(list(periodic), self.aperiodic)

    def require_analysed(self) -> None:
        """Raise unless every periodic task carries a promotion time."""
        missing = [t.name for t in self.periodic if t.promotion is None]
        if missing:
            raise ValueError(
                f"tasks missing offline promotion analysis: {missing}; "
                "run repro.analysis.promotion.assign_promotions first"
            )

    def scale(self, factor: float) -> "TaskSet":
        """Scale every period/deadline by ``factor`` (utilization knob).

        Every other field carries over, except the promotion delay,
        which must be re-analysed.
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        periodic = []
        for t in self.periodic:
            period = max(t.wcet, int(round(t.period * factor)))
            deadline = max(t.wcet, min(period, int(round(t.deadline * factor))))
            periodic.append(
                t._replace(period=period, deadline=deadline, promotion=None)
            )
        return TaskSet(periodic, self.aperiodic)

    def summary(self) -> str:
        """Human-readable table of the set (used by examples)."""
        lines = [
            f"{'task':<14}{'C':>12}{'T':>12}{'D':>12}{'U_i':>8}{'cpu':>5}{'prom':>12}"
        ]
        for t in self.periodic:
            prom = "-" if t.promotion is None else str(t.promotion)
            lines.append(
                f"{t.name:<14}{t.wcet:>12}{t.period:>12}{t.deadline:>12}"
                f"{t.utilization:>8.3f}{t.cpu:>5}{prom:>12}"
            )
        for t in self.aperiodic:
            lines.append(f"{t.name:<14}{t.wcet:>12}{'aperiodic':>12}")
        lines.append(f"total periodic utilization: {self.utilization:.3f}")
        return "\n".join(lines)
