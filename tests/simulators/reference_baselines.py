"""Reference loop for the baseline schedulers (test oracle).

:class:`ReferenceMultiprocessorSimulator` is the event loop
:class:`repro.simulators.baselines.MultiprocessorSimulator` had before
its per-step costs were cut: it re-scans every pending release twice
per step, builds a candidate list for the next event, formats job
names for a disabled recorder and re-reads the policy's key function
for every job it sorts.  It takes the same policies and must yield the
same finished jobs, context switches and trace events
(``tests/simulators/test_baselines_reference.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.task import AperiodicTask, Job, TaskSet
from repro.simulators.baselines import BaselinePolicy
from repro.trace.recorder import TraceRecorder


class ReferenceMultiprocessorSimulator:
    """Event-exact preemptive N-processor simulator (reference loop).

    Scheduling points: every release, arrival and completion (no tick
    quantisation -- baselines are given their best case).  An optional
    ``switch_penalty`` charges cycles whenever a job is (re)dispatched
    after not running, approximating context-switch costs.
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

        self._pending_releases: List[Job] = [
            Job(task, task.offset, index=0) for task in taskset.periodic
        ]
        arrivals: List[Tuple[int, AperiodicTask]] = []
        for name, times in taskset.arrivals_with(aperiodic_arrivals).items():
            task = taskset.by_name(name)
            arrivals.extend((time, task) for time in times)
        arrivals.sort(key=lambda item: item[0])
        self._arrivals = arrivals
        self._aper_index: Dict[str, int] = {}

    # ----------------------------------------------------------------- stepping
    def _admit_due(self) -> bool:
        dirty = False
        still: List[Job] = []
        for job in self._pending_releases:
            if job.release <= self.now:
                self.ready.append(job)
                self.trace.record(self.now, "release", job=job.name)
                dirty = True
            else:
                still.append(job)
        self._pending_releases = still
        while self._arrivals and self._arrivals[0][0] <= self.now:
            _t, task = self._arrivals.pop(0)
            index = self._aper_index.get(task.name, 0)
            self._aper_index[task.name] = index + 1
            job = Job(task, release=self.now, index=index)
            self.ready.append(job)
            self.trace.record(self.now, "release", job=job.name, info="aperiodic")
            dirty = True
        return dirty

    def _complete_due(self) -> bool:
        dirty = False
        for cpu, job in enumerate(self.running):
            if job is not None and job.remaining == 0:
                self.running[cpu] = None
                job.record_finish(self.now)
                self.finished.append(job)
                self.trace.record(self.now, "finish", job=job.name, cpu=cpu)
                if job.is_periodic:
                    self._pending_releases.append(
                        Job(job.task, job.release + job.task.period, index=job.index + 1)
                    )
                dirty = True
        return dirty

    def _schedule(self) -> None:
        """Recompute the assignment greedily by policy key."""
        pool = list(self.ready)
        previous = list(self.running)
        for job in previous:
            if job is not None:
                pool.append(job)
        pool.sort(key=lambda job: self.policy.job_key(job, self.now), reverse=True)

        assignment: List[Optional[Job]] = [None] * self.n_cpus
        free = set(range(self.n_cpus))
        deferred: List[Tuple[Job, Optional[int]]] = []
        for job in pool:
            if not free:
                break
            pinned = self.policy.eligible_cpu(job)
            if pinned is not None:
                if pinned in free:
                    assignment[pinned] = job
                    free.remove(pinned)
                continue
            deferred.append((job, self._cpu_of(job, previous)))

        # Global jobs: prefer their previous cpu, then any free one.
        rest: List[Job] = []
        for job, prev_cpu in deferred:
            if prev_cpu is not None and prev_cpu in free:
                assignment[prev_cpu] = job
                free.remove(prev_cpu)
            else:
                rest.append(job)
        for job in rest:
            if not free:
                break
            assignment[free.pop()] = job

        # Apply the diff.
        placed = {id(j) for j in assignment if j is not None}
        for cpu, job in enumerate(previous):
            if job is not None and id(job) not in placed and job.remaining > 0:
                job.record_preemption()
                self.trace.record(self.now, "preempt", job=job.name, cpu=cpu)
                if job not in self.ready:
                    self.ready.append(job)
        for cpu, job in enumerate(assignment):
            if job is None:
                continue
            if job in self.ready:
                self.ready.remove(job)
            if previous[cpu] is not job:
                self.context_switches += 1
                if self.switch_penalty and job.remaining > 0:
                    job.remaining += self.switch_penalty
                job.record_dispatch(cpu, self.now)
                self.trace.record(self.now, "dispatch", job=job.name, cpu=cpu)
        self.running = assignment

    def _cpu_of(self, job: Job, previous: Sequence[Optional[Job]]) -> Optional[int]:
        for cpu, prev in enumerate(previous):
            if prev is job:
                return cpu
        return None

    # --------------------------------------------------------------------- run
    def run(self, until: int) -> List[Job]:
        """Simulate up to ``until``; returns finished jobs."""
        while self.now < until:
            dirty = self._admit_due()
            dirty |= self._complete_due()
            if dirty:
                self._schedule()

            candidates: List[int] = []
            candidates.extend(
                job.release for job in self._pending_releases if job.release > self.now
            )
            if self._arrivals:
                candidates.append(self._arrivals[0][0])
            for job in self.running:
                if job is not None:
                    candidates.append(self.now + job.remaining)
            if not candidates:
                break
            next_time = min(min(candidates), until)
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
