"""Stateful property test of the MPDP policy (hypothesis state machine).

Drives the scheduler through arbitrary interleavings of its six
operations -- time advance + release, promotion, aperiodic arrival,
allocation, completion of running work, and completion of a job an
allocation took off its processor -- and checks the structural
invariants plus job conservation after every step.  After any mix of
them, :meth:`MPDPScheduler.reschedule` must land where a full
:meth:`MPDPScheduler.allocate` on a deep copy would.
"""

import copy

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.core.mpdp import MPDPScheduler
from repro.core.task import AperiodicTask, Job, PeriodicTask, TaskSet


def _taskset():
    periodic = [
        PeriodicTask(name="fast", wcet=50, period=400, deadline=300,
                     low_priority=2, high_priority=2, cpu=0, promotion=100),
        PeriodicTask(name="mid", wcet=80, period=600,
                     low_priority=1, high_priority=1, cpu=1, promotion=200),
        PeriodicTask(name="slow", wcet=120, period=900,
                     low_priority=0, high_priority=0, cpu=0, promotion=400),
    ]
    aperiodic = [AperiodicTask(name="evt", wcet=60)]
    return TaskSet(periodic, aperiodic)


def _snapshot(scheduler):
    """Placement of every job, by uid (comparable across deep copies)."""

    def uids(jobs):
        return [None if job is None else job.uid for job in jobs]

    jobs = [job for job in scheduler.running if job is not None]
    jobs += list(scheduler.periodic_ready) + list(scheduler.aperiodic_ready)
    for queue in scheduler.local:
        jobs += list(queue)
    return {
        "running": uids(scheduler.running),
        "periodic_ready": uids(scheduler.periodic_ready),
        "aperiodic_ready": uids(scheduler.aperiodic_ready),
        "local": [uids(queue) for queue in scheduler.local],
        "waiting": sorted(uids(scheduler.waiting)),
        "jobs": sorted(
            (job.uid, job.cpu, job.state, job.start_time, job.preemptions,
             job.migrations)
            for job in jobs
        ),
    }


class MPDPMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.taskset = _taskset()
        self.scheduler = MPDPScheduler(self.taskset, n_cpus=2)
        self.now = 0
        self.aper_index = 0
        self.total_aperiodic = 0

    @rule(delta=st.integers(1, 250))
    def advance_and_release(self, delta):
        self.now += delta
        self.scheduler.release_due(self.now)

    @rule()
    def scheduling_cycle(self):
        # In the kernel, promotion is always followed by a decision in
        # the same (interrupt-disabled) scheduling cycle; the structural
        # invariants are only required to hold at cycle boundaries.
        self.scheduler.release_due(self.now)
        self.scheduler.promote_due(self.now)
        self.reschedule()

    @rule()
    def arrive_aperiodic(self):
        if self.total_aperiodic >= 20:
            return
        job = Job(self.taskset.aperiodic[0], release=self.now, index=self.aper_index)
        self.aper_index += 1
        self.total_aperiodic += 1
        self.scheduler.add_aperiodic(job)

    @rule()
    def allocate(self):
        self.scheduler.allocate(self.now)

    @rule(work=st.integers(1, 100))
    def execute_running(self, work):
        for job in list(self.scheduler.running):
            if job is None:
                continue
            job.remaining = max(0, job.remaining - work)
            if job.remaining == 0:
                self.scheduler.job_finished(job, self.now)

    @rule(pick=st.integers(0, 20))
    def finish_a_moved_job(self, pick):
        # On the prototype a core can complete its job after another
        # core's scheduling cycle preempted it, before the IPI landed;
        # the core that resumes it later completes it a second time.
        sched = self.scheduler
        moved = list(sched.periodic_ready) + list(sched.aperiodic_ready)
        for queue in sched.local:
            moved += list(queue)
        moved = [job for job in moved if job.start_time is not None]
        if not moved:
            return
        job = moved[pick % len(moved)]
        job.remaining = 0
        finished = list(sched.finished_jobs)
        sched.job_finished(job, self.now)
        assert sched.job_finished(job, self.now) is None
        assert sched.finished_jobs == finished + [job]

    @rule()
    def reschedule(self):
        allocated = copy.deepcopy(self.scheduler)
        expected = allocated.allocate(self.now)
        decision = self.scheduler.reschedule(self.now)
        assert decision.switches == expected.switches
        assert _snapshot(self.scheduler) == _snapshot(allocated)
        assert self.scheduler.reschedule(self.now).switches == []

    @invariant()
    def structural_invariants_hold(self):
        if not hasattr(self, "scheduler"):
            return
        self.scheduler.check_invariants()

    @invariant()
    def periodic_population_conserved(self):
        if not hasattr(self, "scheduler"):
            return
        # Each periodic task has exactly one live (non-finished) job.
        live = {}
        sched = self.scheduler
        for job in list(sched.waiting) + list(sched.periodic_ready):
            if job.is_periodic:
                live[job.task.name] = live.get(job.task.name, 0) + 1
        for queue in sched.local:
            for job in queue:
                live[job.task.name] = live.get(job.task.name, 0) + 1
        for job in sched.running:
            if job is not None and job.is_periodic:
                live[job.task.name] = live.get(job.task.name, 0) + 1
        for task in self.taskset.periodic:
            assert live.get(task.name, 0) == 1, (task.name, live)

    @invariant()
    def no_finished_job_is_queued_or_running(self):
        if not hasattr(self, "scheduler"):
            return
        sched = self.scheduler
        held = [job for job in sched.running if job is not None]
        held += list(sched.waiting) + list(sched.periodic_ready)
        held += list(sched.aperiodic_ready)
        for queue in sched.local:
            held += list(queue)
        assert all(job.finish_time is None for job in held)
        uids = [job.uid for job in sched.finished_jobs]
        assert len(set(uids)) == len(uids)

    @invariant()
    def finished_jobs_are_complete(self):
        if not hasattr(self, "scheduler"):
            return
        for job in self.scheduler.finished_jobs:
            assert job.remaining == 0
            assert job.finish_time is not None


MPDPStatefulTest = MPDPMachine.TestCase
MPDPStatefulTest.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None
)
