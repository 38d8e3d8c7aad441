"""The Multiprocessor Dual Priority (MPDP) scheduling policy.

This module implements the decision procedure of Banús et al. with the
paper's implementation variations (Section 4.2):

- unpromoted periodic jobs and aperiodic jobs live in two separate
  global queues (Periodic Ready Queue sorted by lower-band priority,
  Aperiodic Ready Queue in FIFO order);
- completed periodic jobs are parked in a Waiting Periodic Queue until
  their next release;
- at promotion time U_i a periodic job moves to the High Priority Local
  Ready Queue of its *home* processor and from then on may only execute
  there (local phase);
- allocation: processors with a non-empty local queue take its head;
  remaining processors take aperiodic jobs oldest-first; remaining
  processors take unpromoted periodic jobs by lower-band priority;
- a job already running on a processor that is assigned the same job
  again is not context-switched.

The policy is substrate-free: callers (the theoretical simulator, the
TLM and the full-system microkernel) own time.  At a scheduling point
they report what happened -- :meth:`~MPDPScheduler.release_due`,
:meth:`~MPDPScheduler.promote_due`, :meth:`~MPDPScheduler.add_aperiodic`,
:meth:`~MPDPScheduler.job_finished` -- and then ask for the decision
with :meth:`~MPDPScheduler.reschedule`.  The scheduler alone chooses
how to decide: the full :meth:`~MPDPScheduler.allocate` when a job
entered a band, the paper's self-service of the queues by an idle
processor (:meth:`~MPDPScheduler.refill`) when completions only freed
processors, and nothing when nothing changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.queues import (
    AperiodicReadyQueue,
    HighPriorityLocalQueue,
    PeriodicReadyQueue,
    WaitingPeriodicQueue,
)
from repro.core.task import Job, JobState, TaskSet


@dataclass
class Allocation:
    """Result of one scheduling decision.

    ``assignment[cpu]`` is the job that must run on ``cpu`` (None =
    idle).  ``switches`` lists the processors whose running job changed
    and therefore need an inter-processor interrupt and a context
    switch.
    """

    assignment: List[Optional[Job]]
    switches: List[int] = field(default_factory=list)


class MPDPScheduler:
    """State machine for MPDP scheduling decisions.

    Parameters
    ----------
    taskset:
        Analysed task set (every periodic task needs ``promotion`` and
        ``cpu`` assigned).
    n_cpus:
        Number of processors.
    """

    def __init__(self, taskset: TaskSet, n_cpus: int):
        if n_cpus < 1:
            raise ValueError("n_cpus must be >= 1")
        taskset.require_analysed()
        for task in taskset.periodic:
            if not 0 <= task.cpu < n_cpus:
                raise ValueError(
                    f"{task.name}: home cpu {task.cpu} outside 0..{n_cpus - 1}"
                )
        self.taskset = taskset
        self.n_cpus = n_cpus

        self.waiting = WaitingPeriodicQueue()
        self.periodic_ready = PeriodicReadyQueue()
        self.aperiodic_ready = AperiodicReadyQueue()
        self.local = [HighPriorityLocalQueue(cpu) for cpu in range(n_cpus)]
        self.running: List[Optional[Job]] = [None] * n_cpus

        # What changed since the last decision (see reschedule): a job
        # was released, promoted or arrived; completions freed these
        # processors.
        self._entered = False
        self._freed: List[int] = []

        self.finished_jobs: List[Job] = []
        self.released_count = 0
        self.promotion_count = 0
        self._job_index: Dict[str, int] = {}

        for task in taskset.periodic:
            job = Job(task, task.offset, index=0)
            self._job_index[task.name] = 0
            self.waiting.push(job)

    # ------------------------------------------------------------------ events
    def release_due(self, now: int) -> List[Job]:
        """Move periodic jobs whose release time passed into the PRQ."""
        released = self.waiting.pop_released(now)
        for job in released:
            self.periodic_ready.push(job)
            self.released_count += 1
        if released:
            self._entered = True
        return released

    def add_aperiodic(self, job: Job) -> None:
        """Enqueue a newly arrived aperiodic job (interrupt handler)."""
        if job.is_periodic:
            raise TypeError("add_aperiodic requires an aperiodic job")
        job.state = JobState.READY
        self.aperiodic_ready.push(job)
        self._entered = True

    def promote_due(self, now: int) -> List[Job]:
        """Promote every unpromoted periodic job whose U_i has passed.

        Promotion is tick-granular: every rung calls this only at its
        scheduling ticks, so a job is promoted at the first tick that
        observes release + U_i passed, as on the prototype where the
        system timer triggers the scheduling phase.

        Covers both queued jobs (PRQ) and jobs currently running in the
        lower band; the latter stay in ``running`` but flip to the upper
        band, which may force a migration at the next allocation.
        """
        promoted: List[Job] = []
        # ``release + task.promotion`` inlined from Job.promotion_time:
        # require_analysed() guaranteed promotion is set, and this scan
        # runs every scheduling cycle.
        for job in list(self.periodic_ready):
            if job.release + job.task.promotion <= now:
                self.periodic_ready.remove(job)
                job.promoted = True
                self.local[job.task.cpu].push(job)
                promoted.append(job)
        for cpu, job in enumerate(self.running):
            if (
                job is not None
                and job.is_periodic
                and not job.promoted
                and job.release + job.task.promotion <= now
            ):
                job.promoted = True
                promoted.append(job)
        if promoted:
            self.promotion_count += len(promoted)
            self._entered = True
        return promoted

    def job_finished(self, job: Job, now: int) -> Optional[Job]:
        """Handle a completed job; re-arm periodic tasks.

        The job leaves whatever holds it: a running slot of any
        processor, the PRQ, the ARQ or its home local queue.  On the
        prototype a core can complete a job that another core's
        scheduling cycle has already put back in a queue or moved to a
        different processor before the IPI reached it.  Completing a
        job that already finished changes nothing.

        Returns the next job instance for periodic tasks (already parked
        in the WPQ), or None for aperiodic jobs and repeated completions.
        """
        if job.state is JobState.FINISHED:
            return None
        if job.remaining > 0:
            raise ValueError(f"{job.name} finished with {job.remaining} cycles left")
        for cpu, running in enumerate(self.running):
            if running is job:
                self.running[cpu] = None
                self._freed.append(cpu)
                break
        else:  # not running: take it out of its ready queue
            if not job.is_periodic:
                queue = self.aperiodic_ready
            elif job.promoted:
                queue = self.local[job.task.cpu]
            else:
                queue = self.periodic_ready
            if job in queue:
                queue.remove(job)
        job.record_finish(now)
        self.finished_jobs.append(job)
        if not job.is_periodic:
            return None
        index = self._job_index[job.task.name] + 1
        self._job_index[job.task.name] = index
        next_job = Job(job.task, job.release + job.task.period, index=index)
        self.waiting.push(next_job)
        return next_job

    # -------------------------------------------------------------- allocation
    def reschedule(self, now: int) -> Allocation:
        """The MPDP decision at a scheduling point.

        Every rung reports the instant's events first and then calls
        this.  When a job was released, promoted or arrived since the
        last decision, the assignment is recomputed with
        :meth:`allocate`.  Otherwise each processor a completion freed
        is handed the head of the queues with :meth:`refill`, in
        ascending order -- the placement ``allocate`` would make, since
        it binds local queues first and gives the global heads to free
        processors lowest id first, and no queued job has affinity to a
        processor.  With neither, the assignment stands and the result
        has no switches.
        """
        if self._entered:
            return self.allocate(now)
        freed = self._freed
        switches: List[int] = []
        if freed:
            self._freed = []
            freed.sort()
            for cpu in freed:
                if self.refill(cpu, now) is not None:
                    switches.append(cpu)
        return Allocation(list(self.running), switches)

    def allocate(self, now: int) -> Allocation:
        """Compute the MPDP assignment of ready jobs to processors.

        Running jobs are folded back into the candidate pool, the
        assignment is recomputed from scratch following the MPDP rules,
        and the diff against the previous assignment yields the set of
        context switches.  Jobs keep their processor when possible to
        avoid gratuitous migrations.  The building block of
        :meth:`reschedule`, and the oracle the incremental decisions
        are tested against.
        """
        self._entered = False
        self._freed = []
        previous = list(self.running)

        # Fold running jobs back into their logical queues.
        for cpu, job in enumerate(self.running):
            if job is None:
                continue
            if job.is_periodic and job.promoted:
                self.local[job.task.cpu].push(job)
            elif job.is_periodic:
                self.periodic_ready.push(job)
            else:
                self.aperiodic_ready.requeue_front(job)
            self.running[cpu] = None

        assignment: List[Optional[Job]] = [None] * self.n_cpus

        # Rule 1: local queues bind their processor.
        for cpu in range(self.n_cpus):
            if len(self.local[cpu]):
                assignment[cpu] = self.local[cpu].pop()

        slots = sum(1 for cpu in range(self.n_cpus) if assignment[cpu] is None)

        # Rule 2: aperiodic jobs, oldest first, onto free processors.
        chosen: List[Job] = []
        for job in self.aperiodic_ready:
            if slots == 0:
                break
            chosen.append(job)
            slots -= 1

        # Rule 3: unpromoted periodic jobs by lower-band priority.
        for job in self.periodic_ready:
            if slots == 0:
                break
            chosen.append(job)
            slots -= 1

        # Place chosen global jobs, honouring affinity with the previous
        # assignment to minimise context switches/migrations.
        free = [cpu for cpu in range(self.n_cpus) if assignment[cpu] is None]
        remaining: List[Job] = []
        for job in chosen:
            prev_cpu = self._previous_cpu(job, previous)
            if prev_cpu is not None and prev_cpu in free:
                assignment[prev_cpu] = job
                free.remove(prev_cpu)
            else:
                remaining.append(job)
        for job in remaining:
            assignment[free.pop(0)] = job

        # Remove placed jobs from the global queues.
        for cpu, job in enumerate(assignment):
            if job is None:
                continue
            if job.is_periodic and not job.promoted and job in self.periodic_ready:
                self.periodic_ready.remove(job)
            elif not job.is_periodic and job in self.aperiodic_ready:
                self.aperiodic_ready.remove(job)

        # Diff with the previous assignment.
        switches: List[int] = []
        for cpu in range(self.n_cpus):
            if assignment[cpu] is not previous[cpu]:
                switches.append(cpu)
        placed = set(id(j) for j in assignment if j is not None)
        for job in previous:
            if job is not None and id(job) not in placed and job.remaining > 0:
                job.record_preemption()

        self.running = list(assignment)
        for cpu, job in enumerate(assignment):
            if job is not None:
                job.record_dispatch(cpu, now)
        return Allocation(assignment=assignment, switches=switches)

    def refill(self, cpu: int, now: int) -> Optional[Job]:
        """Incremental allocation after ``cpu`` alone went free.

        Equivalent to :meth:`allocate` when the only state change since
        the last allocation is that ``running[cpu]`` became ``None``
        (a completion): every other processor keeps its job through the
        affinity rule, and the freed slot takes the highest-standing
        queued job -- the local queue binds its processor (rule 1),
        otherwise the middle band goes before the lower band (rules
        2/3).  The queued candidates are strictly below every running
        job in the MPDP order (otherwise the previous allocation would
        already have chosen them), so handing the single head over is
        the same fixpoint ``allocate`` would recompute from scratch.

        Returns the dispatched job, or ``None`` when the processor goes
        idle.  Callers must have detached the finished job first (see
        :meth:`job_finished`).
        """
        if self.running[cpu] is not None:
            raise ValueError(f"cpu {cpu} is not free")
        if cpu in self._freed:
            self._freed.remove(cpu)
        if len(self.local[cpu]):
            job = self.local[cpu].pop()
        elif len(self.aperiodic_ready):
            job = self.aperiodic_ready.pop()
        elif len(self.periodic_ready):
            job = self.periodic_ready.pop()
        else:
            return None
        self.running[cpu] = job
        job.record_dispatch(cpu, now)
        return job

    def _previous_cpu(self, job: Job, previous: Sequence[Optional[Job]]) -> Optional[int]:
        for cpu, prev in enumerate(previous):
            if prev is job:
                return cpu
        return None

    # ---------------------------------------------------------------- queries
    def check_invariants(self) -> None:
        """Assert structural invariants (used by property tests).

        - no job appears in two places at once;
        - promoted jobs only run on (or queue for) their home cpu;
        - a processor with a non-empty local queue never runs a
          lower/middle band job.
        """
        seen: Dict[int, str] = {}

        def note(job: Job, where: str) -> None:
            if job.uid in seen:
                raise AssertionError(
                    f"{job.name} present in both {seen[job.uid]} and {where}"
                )
            seen[job.uid] = where

        for job in self.waiting:
            note(job, "WPQ")
        for job in self.periodic_ready:
            note(job, "PRQ")
            if job.promoted:
                raise AssertionError(f"promoted job {job.name} in PRQ")
        for job in self.aperiodic_ready:
            note(job, "ARQ")
        for cpu, queue in enumerate(self.local):
            for job in queue:
                note(job, f"HPLRQ{cpu}")
                if job.task.cpu != cpu:
                    raise AssertionError(f"{job.name} in wrong local queue {cpu}")
        for cpu, job in enumerate(self.running):
            if job is None:
                continue
            note(job, f"cpu{cpu}")
            if job.is_periodic and job.promoted and job.task.cpu != cpu:
                raise AssertionError(
                    f"promoted {job.name} running on cpu {cpu}, home {job.task.cpu}"
                )
            if len(self.local[cpu]) and (
                not job.is_periodic or not job.promoted
            ):
                head = self.local[cpu].peek()
                raise AssertionError(
                    f"cpu {cpu} runs {job.name} while {head.name} is promoted locally"
                )
