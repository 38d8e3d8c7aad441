"""The theoretical MPDP simulator (the paper's comparison baseline).

"The theoretical data for 2, 3, 4 processors architectures are
calculated with a simulator that adopts the same approach of the
scheduling kernel of the target architecture, considering a small
overhead (2%) for context switching and contentions.  Scheduling phase
is triggered each 0.1 seconds by the system timer."

So this simulator makes *exactly the same decisions* as the prototype
kernel -- it drives the identical :class:`~repro.core.mpdp.MPDPScheduler`
at the same tick granularity -- but replaces all physical effects
(arbitrated bus, context traffic, interrupt latency) with a uniform
inflation of execution times by ``overhead`` (2 % by default).

At each event instant the loop reports the tick's releases and
promotions, the aperiodic arrivals and the completions to the policy,
then takes its decision from
:meth:`~repro.core.mpdp.MPDPScheduler.reschedule`, which recomputes the
full assignment only when a job entered a band and otherwise lets the
freed processors self-serve the queues.  Every tick still counts as a
scheduling cycle.  ``tests/simulators/reference_theoretical.py`` keeps
the allocate-every-step loop as the oracle this must reproduce exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.mpdp import MPDPScheduler
from repro.core.task import AperiodicTask, Job, TaskSet
from repro.trace.recorder import TraceRecorder


class TheoreticalSimulator:
    """Event-driven MPDP with idealised hardware.

    Parameters
    ----------
    taskset:
        Analysed task set (promotions + partition assigned).
    n_cpus:
        Number of processors.
    tick:
        Scheduling period in cycles (the paper: 0.1 s = 5 M cycles).
    overhead:
        Fractional execution-time inflation standing in for context
        switches and contention (paper: 0.02).
    aperiodic_arrivals:
        Mapping task name -> list of absolute arrival cycles, merged
        with the arrivals on the task objects
        (:meth:`~repro.core.task.TaskSet.arrivals_with`).
    """

    #: Structural scale: idealised hardware has no per-cycle work to
    #: amortise, so the workload always runs full-size.
    scale = 1

    def __init__(
        self,
        taskset: TaskSet,
        n_cpus: int,
        tick: int,
        overhead: float = 0.02,
        aperiodic_arrivals: Optional[Dict[str, Sequence[int]]] = None,
        trace: Optional[TraceRecorder] = None,
    ):
        if tick <= 0:
            raise ValueError("tick must be positive")
        if overhead < 0:
            raise ValueError("overhead must be non-negative")
        self.taskset = taskset
        self.n_cpus = n_cpus
        self.tick = tick
        self.overhead = overhead
        self.policy = MPDPScheduler(taskset, n_cpus)
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.now = 0
        # The tick grid is state, not restarted by each run() call.
        self._next_tick = 0
        self.context_switches = 0
        self.scheduling_cycles = 0
        self._inflated: set = set()

        arrivals: List[Tuple[int, AperiodicTask]] = []
        for name, times in taskset.arrivals_with(aperiodic_arrivals).items():
            task = taskset.by_name(name)
            arrivals.extend((time, task) for time in times)
        arrivals.sort(key=lambda item: item[0])
        self._arrivals = arrivals
        self._aper_index: Dict[str, int] = {}

    # -------------------------------------------------------------- inflation
    def _inflate(self, job: Job) -> None:
        """Apply the uniform overhead to a job exactly once."""
        if job.uid in self._inflated:
            return
        self._inflated.add(job.uid)
        job.remaining = int(round(job.remaining * (1.0 + self.overhead)))

    # ------------------------------------------------------------------- events
    def _process_tick(self) -> None:
        """One scheduling cycle: release and promote due jobs."""
        now = self.now
        released = self.policy.release_due(now)
        for job in released:
            self._inflate(job)
        promoted = self.policy.promote_due(now)
        if self.trace.enabled:
            for job in released:
                self.trace.record(now, "release", job=job.name)
            for job in promoted:
                self.trace.record(now, "promote", job=job.name)
        self.scheduling_cycles += 1
        self.trace.record(now, "tick")

    def _process_arrivals(self) -> None:
        while self._arrivals and self._arrivals[0][0] <= self.now:
            _time, task = self._arrivals.pop(0)
            index = self._aper_index.get(task.name, 0)
            self._aper_index[task.name] = index + 1
            job = Job(task, release=self.now, index=index)
            self._inflate(job)
            self.policy.add_aperiodic(job)
            if self.trace.enabled:
                self.trace.record(self.now, "release", job=job.name, info="aperiodic")

    def _process_completions(self) -> None:
        """Retire finished jobs."""
        for cpu, job in enumerate(list(self.policy.running)):
            if job is not None and job.remaining == 0:
                self.policy.job_finished(job, self.now)
                if self.trace.enabled:
                    self.trace.record(self.now, "finish", job=job.name, cpu=cpu)

    def _reschedule(self) -> None:
        previous = list(self.policy.running) if self.trace.enabled else None
        allocation = self.policy.reschedule(self.now)
        self.context_switches += len(allocation.switches)
        if previous is None:
            return
        for cpu in allocation.switches:
            job = allocation.assignment[cpu]
            old = previous[cpu]
            if old is not None and old.remaining > 0 and old is not job:
                self.trace.record(self.now, "preempt", job=old.name, cpu=cpu)
            if job is not None:
                self.trace.record(self.now, "dispatch", job=job.name, cpu=cpu)
            else:
                self.trace.record(self.now, "idle", cpu=cpu)

    # --------------------------------------------------------------------- run
    def run(self, until: int) -> List[Job]:
        """Simulate to ``until``; returns the finished jobs."""
        while self.now < until:
            if self.now == self._next_tick:
                self._process_tick()
                self._next_tick += self.tick
            self._process_arrivals()
            self._process_completions()
            self._reschedule()

            # Next event: tick, arrival, or earliest completion.  The
            # tick always lies ahead, so the step is never empty.
            running = self.policy.running  # allocate() rebinds the list
            next_time = self._next_tick
            if self._arrivals and self._arrivals[0][0] < next_time:
                next_time = self._arrivals[0][0]
            for job in running:
                if job is not None and self.now + job.remaining < next_time:
                    next_time = self.now + job.remaining
            if next_time > until:
                next_time = until
            delta = next_time - self.now
            if delta <= 0:  # pragma: no cover - defensive
                raise RuntimeError("missed a completion event")
            for job in running:
                if job is not None:
                    job.remaining -= delta
            self.now = next_time
        return self.policy.finished_jobs

    # ----------------------------------------------------------------- queries
    @property
    def finished_jobs(self) -> List[Job]:
        return self.policy.finished_jobs

    def to_full_scale(self, cycles):
        """Already full-scale (see :attr:`scale`)."""
        return cycles

    def stats(self) -> dict:
        return {
            "context_switches": self.context_switches,
            "scheduling_cycles": self.scheduling_cycles,
            "promotions": self.policy.promotion_count,
        }
