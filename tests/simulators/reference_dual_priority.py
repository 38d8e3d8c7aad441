"""Test oracle: uniprocessor dual-priority scheduling (Davis & Wellings, RTSS 1995).

The dual-priority model MPDP generalises: three priority bands, hard
periodic tasks released in the lower band and promoted to the upper
band at ``release + U_i``, soft aperiodic tasks served FIFO in the
middle band.  :class:`DualPrioritySimulator` is an exact event-driven
uniprocessor simulator.  Tests use it to validate the band semantics
in isolation and as the reference that the multiprocessor model must
degenerate to when ``n_cpus == 1``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.task import AperiodicTask, Job, JobState, PeriodicTask, TaskSet


class DualPrioritySimulator:
    """Exact simulation of uniprocessor dual-priority scheduling.

    The simulation advances between scheduling events (releases,
    promotions, completions, aperiodic arrivals) and always runs the
    highest effective-priority ready job, preemptively.

    Parameters
    ----------
    taskset:
        Analysed task set; every periodic task must carry a promotion
        time.  Home cpu values are ignored (single processor).
    """

    def __init__(self, taskset: TaskSet):
        taskset.require_analysed()
        self.taskset = taskset
        self.now = 0
        self.ready: List[Job] = []
        self.running: Optional[Job] = None
        self.finished: List[Job] = []
        self._pending_releases: List[Job] = []
        self._aperiodic_arrivals: List[Tuple[int, AperiodicTask]] = []
        for task in taskset.periodic:
            self._pending_releases.append(Job(task, task.offset, index=0))
        for task in taskset.aperiodic:
            for arrival in task.arrivals:
                self._aperiodic_arrivals.append((arrival, task))
        self._aperiodic_arrivals.sort(key=lambda item: item[0])
        self._aperiodic_index: Dict[str, int] = {}

    # ------------------------------------------------------------------ events
    def _next_event_time(self) -> Optional[int]:
        """Earliest future scheduling event after ``self.now``."""
        times: List[int] = []
        for job in self._pending_releases:
            times.append(job.release)
        if self._aperiodic_arrivals:
            times.append(self._aperiodic_arrivals[0][0])
        candidates = self.ready + ([self.running] if self.running else [])
        for job in candidates:
            if job.is_periodic and not job.promoted:
                times.append(job.promotion_time)
        if self.running is not None:
            times.append(self.now + self.running.remaining)
        future = [t for t in times if t > self.now]
        return min(future) if future else None

    def _process_instant(self) -> None:
        """Apply all releases/arrivals/promotions due at ``self.now``."""
        still_pending: List[Job] = []
        for job in self._pending_releases:
            if job.release <= self.now:
                job.state = JobState.READY
                self.ready.append(job)
            else:
                still_pending.append(job)
        self._pending_releases = still_pending

        while self._aperiodic_arrivals and self._aperiodic_arrivals[0][0] <= self.now:
            arrival, task = self._aperiodic_arrivals.pop(0)
            index = self._aperiodic_index.get(task.name, 0)
            self._aperiodic_index[task.name] = index + 1
            self.ready.append(Job(task, arrival, index=index))

        candidates = self.ready + ([self.running] if self.running else [])
        for job in candidates:
            if job.is_periodic and not job.promoted and job.promotion_time <= self.now:
                job.promoted = True

    def _dispatch(self) -> None:
        """Ensure the highest-key ready job is the one running."""
        pool = list(self.ready)
        if self.running is not None:
            pool.append(self.running)
        if not pool:
            self.running = None
            return
        best = max(pool, key=lambda job: job.key())
        if best is self.running:
            return
        if self.running is not None:
            self.running.record_preemption()
            self.ready.append(self.running)
        self.ready.remove(best)
        best.record_dispatch(0, self.now)
        self.running = best

    # -------------------------------------------------------------------- run
    def run(self, until: int) -> List[Job]:
        """Simulate up to ``until`` cycles; returns finished jobs."""
        self._process_instant()
        self._dispatch()
        while self.now < until:
            next_time = self._next_event_time()
            if next_time is None or next_time > until:
                next_time = until
            delta = next_time - self.now
            if self.running is not None:
                self.running.remaining -= delta
            self.now = next_time
            if self.running is not None and self.running.remaining == 0:
                job = self.running
                self.running = None
                job.record_finish(self.now)
                self.finished.append(job)
                if job.is_periodic:
                    self._pending_releases.append(
                        Job(job.task, job.release + job.task.period, index=job.index + 1)
                    )
            self._process_instant()
            self._dispatch()
        return self.finished

    # ---------------------------------------------------------------- queries
    def response_times(self, task_name: str) -> List[int]:
        """Response times of all finished jobs of ``task_name``."""
        return [
            job.response_time
            for job in self.finished
            if job.task.name == task_name and job.response_time is not None
        ]

    def deadline_misses(self) -> List[Job]:
        """Finished periodic jobs that overran their deadline."""
        return [job for job in self.finished if job.missed_deadline]
