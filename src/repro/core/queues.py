"""The queue structures of the paper's microkernel (Section 4.2).

The paper departs from the original MPDP single Global Ready Queue by
splitting it into a *Periodic Ready Queue* (unpromoted periodic jobs,
sorted by lower-band priority) and an *Aperiodic Ready Queue* (FIFO),
plus a *Waiting Periodic Queue* that parks completed periodic tasks
until their next release, ordered by proximity to release.  Each
processor additionally owns a *High Priority Local Ready Queue* holding
its promoted jobs ordered by upper-band priority.

These classes are deliberately substrate-free: both the theoretical
simulator and the full-system microkernel reuse them unchanged.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from typing import Deque, Iterator, List, Optional, Tuple

from repro.core.task import READY, WAITING, Job


class _SortedJobQueue:
    """Base: a list kept sorted by a job key, highest priority first.

    ``_key`` is the *negated* priority, so the parallel list of cached
    keys ascends and :func:`bisect.bisect_right` finds each insertion
    point.  Caching avoids recomputing the key of every resident job on
    each insertion -- the fold-back in
    :meth:`repro.core.mpdp.MPDPScheduler.allocate` pushes every running
    job back at each full allocation, and a key never changes while a
    job sits in a queue (promotion removes before re-inserting).
    """

    def __init__(self):
        self._jobs: List[Job] = []
        self._keys: List[tuple] = []

    def _key(self, job: Job):
        raise NotImplementedError

    def push(self, job: Job) -> None:
        """Insert maintaining order (stable for equal keys)."""
        key = self._key(job)
        index = bisect_right(self._keys, key)
        self._jobs.insert(index, job)
        self._keys.insert(index, key)

    def pop(self) -> Job:
        """Remove and return the highest-priority job."""
        if not self._jobs:
            raise IndexError(f"pop from empty {self.__class__.__name__}")
        del self._keys[0]
        return self._jobs.pop(0)

    def peek(self) -> Optional[Job]:
        """The highest-priority job, or None."""
        return self._jobs[0] if self._jobs else None

    def remove(self, job: Job) -> None:
        """Remove a specific job (promotion pulls jobs mid-queue)."""
        index = self._jobs.index(job)
        del self._jobs[index]
        del self._keys[index]

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(list(self._jobs))

    def __contains__(self, job: Job) -> bool:
        return job in self._jobs


class PeriodicReadyQueue(_SortedJobQueue):
    """Released, unpromoted periodic jobs, by lower-band priority."""

    def _key(self, job: Job):
        if not job.is_periodic:
            raise TypeError("PeriodicReadyQueue only holds periodic jobs")
        if job.promoted:
            raise ValueError(f"{job.name} is promoted; belongs in a local queue")
        return (-job.task.low_priority, job.release, job.uid)

    def pop_promoted(self, now: int) -> List[Job]:
        """Remove and return, in queue order, every job whose promotion
        instant has passed."""
        jobs = self._jobs
        for job in jobs:
            if job.promotion_at <= now:
                break
        else:
            return []
        due: List[Job] = []
        kept: List[Job] = []
        kept_keys: List[tuple] = []
        for job, key in zip(jobs, self._keys):
            if job.promotion_at <= now:
                due.append(job)
            else:
                kept.append(job)
                kept_keys.append(key)
        self._jobs = kept
        self._keys = kept_keys
        return due


class HighPriorityLocalQueue(_SortedJobQueue):
    """Promoted periodic jobs of one processor, by upper-band priority."""

    def __init__(self, cpu: int):
        super().__init__()
        self.cpu = cpu

    def push(self, job: Job) -> None:
        if not job.is_periodic:
            raise TypeError("local queues only hold periodic jobs")
        if not job.promoted:
            raise ValueError(f"{job.name} not promoted; belongs in the PRQ")
        if job.task.cpu != self.cpu:
            raise ValueError(
                f"{job.name} homed on cpu {job.task.cpu}, not {self.cpu}"
            )
        super().push(job)

    def _key(self, job: Job):
        return (-job.task.high_priority, job.release, job.uid)


class AperiodicReadyQueue:
    """FIFO of released aperiodic jobs (middle band)."""

    def __init__(self):
        self._jobs: Deque[Job] = deque()

    def push(self, job: Job) -> None:
        if job.is_periodic:
            raise TypeError("AperiodicReadyQueue only holds aperiodic jobs")
        self._jobs.append(job)

    def pop(self) -> Job:
        if not self._jobs:
            raise IndexError("pop from empty AperiodicReadyQueue")
        return self._jobs.popleft()

    def peek(self) -> Optional[Job]:
        return self._jobs[0] if self._jobs else None

    def requeue_front(self, job: Job) -> None:
        """Put a preempted aperiodic job back at the head (it keeps its
        FIFO position: the paper resumes A1 before starting A2)."""
        self._jobs.appendleft(job)

    def remove(self, job: Job) -> None:
        self._jobs.remove(job)

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(list(self._jobs))

    def __contains__(self, job: Job) -> bool:
        return job in self._jobs


class WaitingPeriodicQueue:
    """Parked periodic jobs ordered by proximity to their release time.

    The paper: "we need to park periodic tasks while they have completed
    their execution and are waiting for the next release ... inserted
    ordered by proximity to release time".
    """

    def __init__(self):
        self._jobs: List[Job] = []
        self._keys: List[Tuple[int, int]] = []

    def push(self, job: Job) -> None:
        if not job.is_periodic:
            raise TypeError("WaitingPeriodicQueue only holds periodic jobs")
        job.state = WAITING
        key = (job.release, job.uid)
        index = bisect_left(self._keys, key)
        self._keys.insert(index, key)
        self._jobs.insert(index, job)

    def pop_released(self, now: int) -> List[Job]:
        """Remove and return every job whose release time has passed."""
        jobs = self._jobs
        count = 0
        for job in jobs:
            if job.release > now:
                break
            job.state = READY
            count += 1
        if not count:
            return []
        released = jobs[:count]
        del jobs[:count]
        del self._keys[:count]
        return released

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(list(self._jobs))

    def __contains__(self, job: Job) -> bool:
        return job in self._jobs
