"""Baseline multiprocessor schedulers for comparison with MPDP.

The related-work section of the paper frames MPDP against two families:

- *partitioned fixed priority* with aperiodic tasks served in the
  background of the processor they land on (the common commercial-RTOS
  approach);
- *global* schedulers (fixed priority, EDF) that allocate all tasks on
  all processors but "do not deal with aperiodic tasks" -- here
  aperiodics also run in the background.

These run on a shared event-exact engine
(:class:`MultiprocessorSimulator`) so the ablation benchmarks can put
aperiodic response times side by side under identical workloads.
"""

from __future__ import annotations

import heapq
import itertools
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.task import AperiodicTask, Job, TaskSet
from repro.trace.recorder import TraceRecorder


class BaselinePolicy:
    """Priority/affinity rules for :class:`MultiprocessorSimulator`.

    ``job_key`` orders ready jobs (larger runs first); ``eligible_cpu``
    returns the only processor a job may use, or None for any.
    """

    name = "abstract"

    def job_key(self, job: Job, now: int) -> Tuple:
        raise NotImplementedError

    def eligible_cpu(self, job: Job) -> Optional[int]:
        raise NotImplementedError


class PartitionedFixedPriorityPolicy(BaselinePolicy):
    """Periodic tasks pinned to their partition at fixed priority;
    aperiodic jobs execute in the background (below every periodic) on
    any processor, FIFO among themselves."""

    name = "partitioned-fp"

    def job_key(self, job: Job, now: int) -> Tuple:
        if job.is_periodic:
            return (1, job.task.high_priority, -job.uid)
        return (0, -job.release, -job.uid)

    def eligible_cpu(self, job: Job) -> Optional[int]:
        return job.task.cpu if job.is_periodic else None


class GlobalFixedPriorityPolicy(BaselinePolicy):
    """Periodic tasks run anywhere at fixed priority; background
    aperiodics."""

    name = "global-fp"

    def job_key(self, job: Job, now: int) -> Tuple:
        if job.is_periodic:
            return (1, job.task.high_priority, -job.uid)
        return (0, -job.release, -job.uid)

    def eligible_cpu(self, job: Job) -> Optional[int]:
        return None


class GlobalEDFPolicy(BaselinePolicy):
    """Earliest absolute deadline first across all processors;
    background aperiodics."""

    name = "global-edf"

    def job_key(self, job: Job, now: int) -> Tuple:
        if job.is_periodic:
            return (1, -(job.release + job.task.deadline), -job.uid)
        return (0, -job.release, -job.uid)

    def eligible_cpu(self, job: Job) -> Optional[int]:
        return None


class MultiprocessorSimulator:
    """Event-exact preemptive N-processor simulator.

    Scheduling points: every release, arrival and completion (no tick
    quantisation -- baselines are given their best case).  An optional
    ``switch_penalty`` charges cycles whenever a job is (re)dispatched
    after not running, approximating context-switch costs.

    Pending periodic releases wait in a heap ordered by release time,
    then by the order they were queued in, so releases due together are
    admitted (and traced) in that order.
    ``tests/simulators/reference_baselines.py`` keeps the list-scanning
    loop this must reproduce exactly.
    """

    def __init__(
        self,
        taskset: TaskSet,
        n_cpus: int,
        policy: BaselinePolicy,
        aperiodic_arrivals: Optional[Dict[str, Sequence[int]]] = None,
        switch_penalty: int = 0,
        trace: Optional[TraceRecorder] = None,
    ):
        if n_cpus < 1:
            raise ValueError("n_cpus must be >= 1")
        if switch_penalty < 0:
            raise ValueError("switch_penalty must be non-negative")
        self.taskset = taskset
        self.n_cpus = n_cpus
        self.policy = policy
        self.switch_penalty = switch_penalty
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)

        self.now = 0
        self.running: List[Optional[Job]] = [None] * n_cpus
        self.ready: List[Job] = []
        self.finished: List[Job] = []
        self.context_switches = 0

        #: ``(release, queue order, job)`` heap of parked periodic jobs.
        self._pending_releases: List[Tuple[int, int, Job]] = []
        self._queued = itertools.count()
        for task in taskset.periodic:
            self._park(Job(task, task.offset, index=0))
        arrivals: List[Tuple[int, AperiodicTask]] = []
        for name, times in taskset.arrivals_with(aperiodic_arrivals).items():
            task = taskset.by_name(name)
            arrivals.extend((time, task) for time in times)
        arrivals.sort(key=lambda item: item[0])
        self._arrivals = arrivals
        self._aper_index: Dict[str, int] = {}

    # ----------------------------------------------------------------- stepping
    def _park(self, job: Job) -> None:
        heapq.heappush(self._pending_releases,
                       (job.release, next(self._queued), job))

    def _admit_due(self) -> bool:
        now = self.now
        pending = self._pending_releases
        arrivals = self._arrivals
        if not (pending and pending[0][0] <= now
                or arrivals and arrivals[0][0] <= now):
            return False
        trace = self.trace if self.trace.enabled else None
        due = []
        while pending and pending[0][0] <= now:
            due.append(heapq.heappop(pending))
        due.sort(key=itemgetter(1))
        for _release, _order, job in due:
            self.ready.append(job)
            if trace is not None:
                trace.record(now, "release", job=job.name)
        while arrivals and arrivals[0][0] <= now:
            _t, task = arrivals.pop(0)
            index = self._aper_index.get(task.name, 0)
            self._aper_index[task.name] = index + 1
            job = Job(task, release=now, index=index)
            self.ready.append(job)
            if trace is not None:
                trace.record(now, "release", job=job.name, info="aperiodic")
        return True

    def _complete_due(self) -> bool:
        dirty = False
        running = self.running
        for cpu, job in enumerate(running):
            if job is not None and job.remaining == 0:
                running[cpu] = None
                job.record_finish(self.now)
                self.finished.append(job)
                if self.trace.enabled:
                    self.trace.record(self.now, "finish", job=job.name, cpu=cpu)
                if job.is_periodic:
                    task = job.task
                    self._park(Job(task, job.release + task.period,
                                   index=job.index + 1))
                dirty = True
        return dirty

    def _schedule(self) -> None:
        """Recompute the assignment greedily by policy key.

        With no job ready, every running job keeps its processor (a
        pinned job already runs on its pin, a global one takes its
        previous processor back), so nothing changes.
        """
        ready = self.ready
        if not ready:
            return
        now = self.now
        previous = self.running
        pool = ready + [job for job in previous if job is not None]
        job_key = self.policy.job_key
        pool.sort(key=lambda job: job_key(job, now), reverse=True)

        eligible_cpu = self.policy.eligible_cpu
        assignment: List[Optional[Job]] = [None] * self.n_cpus
        free = set(range(self.n_cpus))
        deferred: List[Job] = []
        for job in pool:
            if not free:
                break
            pinned = eligible_cpu(job)
            if pinned is not None:
                if pinned in free:
                    assignment[pinned] = job
                    free.remove(pinned)
                continue
            deferred.append(job)

        # Global jobs: prefer their previous cpu, then any free one.
        rest: List[Job] = []
        for job in deferred:
            prev_cpu = previous.index(job) if job in previous else None
            if prev_cpu in free:
                assignment[prev_cpu] = job
                free.remove(prev_cpu)
            else:
                rest.append(job)
        for job in rest:
            if not free:
                break
            assignment[free.pop()] = job

        # Apply the diff.
        trace = self.trace if self.trace.enabled else None
        for cpu, job in enumerate(previous):
            if job is not None and job.remaining > 0 and job not in assignment:
                job.record_preemption()
                if trace is not None:
                    trace.record(now, "preempt", job=job.name, cpu=cpu)
                if job not in ready:
                    ready.append(job)
        for cpu, job in enumerate(assignment):
            if job is None or previous[cpu] is job:
                continue
            if job in ready:
                ready.remove(job)
            self.context_switches += 1
            if self.switch_penalty and job.remaining > 0:
                job.remaining += self.switch_penalty
            job.record_dispatch(cpu, now)
            if trace is not None:
                trace.record(now, "dispatch", job=job.name, cpu=cpu)
        self.running = assignment

    def _next_event(self) -> Optional[int]:
        """The earliest release, arrival or completion after ``now``."""
        now = self.now
        next_time = None
        pending = self._pending_releases
        if pending:
            next_time = pending[0][0]
            if next_time <= now:
                # A job that finished past its next release re-armed in
                # the past; it is admitted at the next step.
                next_time = min(
                    (release for release, _order, _job in pending
                     if release > now),
                    default=None,
                )
        if self._arrivals:
            arrival = self._arrivals[0][0]
            if next_time is None or arrival < next_time:
                next_time = arrival
        for job in self.running:
            if job is not None:
                finish = now + job.remaining
                if next_time is None or finish < next_time:
                    next_time = finish
        return next_time

    # --------------------------------------------------------------------- run
    def run(self, until: int) -> List[Job]:
        """Simulate up to ``until``; returns finished jobs."""
        while self.now < until:
            dirty = self._admit_due()
            if self._complete_due() or dirty:
                self._schedule()
            next_time = self._next_event()
            if next_time is None:
                break
            if next_time > until:
                next_time = until
            if next_time <= self.now:
                break
            delta = next_time - self.now
            for job in self.running:
                if job is not None:
                    job.remaining -= delta
            self.now = next_time
        return self.finished

    def deadline_misses(self) -> List[Job]:
        return [job for job in self.finished if job.missed_deadline]
