"""Unit tests for the MPDP policy engine."""

import pytest

from repro.core.mpdp import MPDPScheduler
from repro.core.task import AperiodicTask, Job, PeriodicTask, TaskSet


def task(name, wcet=100, period=1000, deadline=None, low=0, high=0, cpu=0, promotion=0):
    return PeriodicTask(
        name=name, wcet=wcet, period=period, deadline=deadline,
        low_priority=low, high_priority=high, cpu=cpu, promotion=promotion,
    )


def scheduler(tasks, n_cpus=2, aperiodic=()):
    return MPDPScheduler(TaskSet(tasks, aperiodic), n_cpus)


class TestConstruction:
    def test_requires_analysed_tasks(self):
        ts = TaskSet([PeriodicTask(name="x", wcet=10, period=100)])
        with pytest.raises(ValueError):
            MPDPScheduler(ts, 1)

    def test_rejects_out_of_range_cpu(self):
        with pytest.raises(ValueError):
            scheduler([task("x", cpu=5)], n_cpus=2)

    def test_initial_jobs_parked(self):
        s = scheduler([task("a"), task("b")])
        assert len(s.waiting) == 2
        assert s.running == [None, None]
        assert not (len(s.periodic_ready) or len(s.aperiodic_ready))


class TestReleaseAndPromotion:
    def test_release_due_moves_to_prq(self):
        s = scheduler([task("a", promotion=500)])
        released = s.release_due(0)
        assert [j.task.name for j in released] == ["a"]
        assert len(s.periodic_ready) == 1

    def test_release_respects_offsets(self):
        s = scheduler([task("a", promotion=0)._replace(offset=300)])
        assert s.release_due(0) == []
        assert len(s.release_due(300)) == 1

    def test_promote_due_moves_to_local_queue(self):
        s = scheduler([task("a", cpu=1, promotion=200)])
        s.release_due(0)
        assert s.promote_due(100) == []
        promoted = s.promote_due(200)
        assert len(promoted) == 1
        assert len(s.local[1]) == 1
        assert len(s.periodic_ready) == 0

    def test_promote_running_job_in_place(self):
        s = scheduler([task("a", cpu=1, promotion=200)])
        s.release_due(0)
        s.allocate(0)
        running = [j for j in s.running if j is not None]
        assert len(running) == 1
        promoted = s.promote_due(200)
        assert promoted == running
        assert running[0].promoted


class TestAllocation:
    def test_promoted_job_runs_on_home_cpu(self):
        s = scheduler([task("a", cpu=1, promotion=0)])
        s.release_due(0)
        s.promote_due(0)
        alloc = s.allocate(0)
        assert alloc.assignment[1] is not None
        assert alloc.assignment[0] is None

    def test_aperiodic_preferred_over_unpromoted_periodic(self):
        s = scheduler([task("p", promotion=1000, deadline=1000, low=5)], n_cpus=1)
        s.release_due(0)
        aper = Job(AperiodicTask(name="a", wcet=50), release=0)
        s.add_aperiodic(aper)
        alloc = s.allocate(0)
        assert alloc.assignment[0] is aper

    def test_promoted_periodic_preempts_aperiodic(self):
        s = scheduler([task("p", cpu=0, promotion=0)], n_cpus=1)
        aper = Job(AperiodicTask(name="a", wcet=50), release=0)
        s.add_aperiodic(aper)
        alloc = s.allocate(0)
        assert alloc.assignment[0] is aper
        s.release_due(0)
        s.promote_due(0)
        alloc = s.allocate(0)
        assert alloc.assignment[0].task.name == "p"
        assert aper.preemptions == 1
        assert list(s.aperiodic_ready) == [aper]

    def test_affinity_avoids_gratuitous_switches(self):
        s = scheduler([task("a", low=2, promotion=1000, deadline=1000),
                       task("b", low=1, promotion=1000, deadline=1000)])
        s.release_due(0)
        first = s.allocate(0)
        second = s.allocate(10)
        assert second.assignment == first.assignment
        assert second.switches == []

    def test_aperiodics_fifo_order(self):
        s = scheduler([], n_cpus=1)
        first = Job(AperiodicTask(name="a1", wcet=10), release=0)
        second = Job(AperiodicTask(name="a2", wcet=10), release=5)
        s.add_aperiodic(first)
        s.add_aperiodic(second)
        alloc = s.allocate(5)
        assert alloc.assignment[0] is first

    def test_low_band_priority_order(self):
        s = scheduler(
            [task("weak", low=1, promotion=1000, deadline=1000),
             task("strong", low=9, promotion=1000, deadline=1000)],
            n_cpus=1,
        )
        s.release_due(0)
        alloc = s.allocate(0)
        assert alloc.assignment[0].task.name == "strong"

    def test_preempted_job_counted(self):
        s = scheduler(
            [task("weak", low=1, promotion=1000, deadline=1000),
             task("strong", low=9, promotion=1000, deadline=1000)],
            n_cpus=1,
        )
        s.release_due(0)  # both ready; strong wins
        alloc1 = s.allocate(0)
        weak = next(j for j in s.periodic_ready)
        # force: complete strong, then release a fresh strong ahead of weak
        strong = alloc1.assignment[0]
        strong.remaining = 0
        s.job_finished(strong, 10)
        alloc2 = s.allocate(10)
        assert alloc2.assignment[0] is weak

    def test_two_promoted_same_home_cpu_serialise(self):
        s = scheduler(
            [task("a", cpu=0, high=2, promotion=0),
             task("b", cpu=0, high=1, promotion=0)],
            n_cpus=2,
        )
        s.release_due(0)
        s.promote_due(0)
        alloc = s.allocate(0)
        assert alloc.assignment[0].task.name == "a"
        # b must wait for cpu0 even though cpu1 is idle (local phase).
        assert alloc.assignment[1] is None
        assert len(s.local[0]) == 1


class TestCompletion:
    def test_job_finished_rearms_periodic(self):
        s = scheduler([task("a", period=500, promotion=0)], n_cpus=1)
        s.release_due(0)
        alloc = s.allocate(0)
        job = alloc.assignment[0]
        job.remaining = 0
        next_job = s.job_finished(job, 100)
        assert next_job.release == 500
        assert next_job in s.waiting

    def test_job_finished_with_remaining_raises(self):
        s = scheduler([task("a", promotion=0)], n_cpus=1)
        s.release_due(0)
        alloc = s.allocate(0)
        with pytest.raises(ValueError):
            s.job_finished(alloc.assignment[0], 100)

    def test_preempted_job_finishes_once_and_is_never_dispatched_again(self):
        # On the prototype a core can complete its job after another
        # core's scheduling cycle put that job back in a queue, before
        # the IPI reached it.
        s = scheduler([task("p", low=1, promotion=1000, deadline=1000,
                            period=5000)], n_cpus=1)
        s.release_due(0)
        job = s.allocate(0).assignment[0]
        aper = Job(AperiodicTask(name="a", wcet=10), release=5)
        s.add_aperiodic(aper)
        assert s.allocate(5).assignment[0] is aper
        assert job in s.periodic_ready
        job.remaining = 0
        next_job = s.job_finished(job, 6)
        assert job not in s.periodic_ready
        assert next_job.release == 5000
        assert s.job_finished(job, 8) is None
        assert s.finished_jobs == [job] and job.finish_time == 6
        assert list(s.waiting) == [next_job]
        aper.remaining = 0
        s.job_finished(aper, 9)
        assert s.allocate(9).assignment == [None]
        assert s.finished_jobs == [job, aper]

    def test_job_finished_takes_a_moved_job_off_its_new_cpu(self):
        s = scheduler([task("p", promotion=1000, deadline=1000)], n_cpus=2)
        s.release_due(0)
        s.allocate(0)
        job = next(j for j in s.running if j is not None)
        # Another core's cycle migrated the job; its old core finishes it.
        s.running = list(reversed(s.running))
        job.remaining = 0
        s.job_finished(job, 10)
        assert s.running == [None, None]
        s.check_invariants()

    def test_aperiodic_finish_not_rearmed(self):
        s = scheduler([], n_cpus=1)
        job = Job(AperiodicTask(name="a", wcet=10), release=0)
        s.add_aperiodic(job)
        s.allocate(0)
        job.remaining = 0
        assert s.job_finished(job, 10) is None
        assert len(s.finished_jobs) == 1


class TestReschedule:
    def test_decides_by_what_changed(self):
        s = scheduler([task("a", low=2, promotion=1000, deadline=1000),
                       task("b", low=1, promotion=1000, deadline=1000)],
                      n_cpus=1)
        assert s.reschedule(0).switches == []
        s.release_due(0)
        first = s.reschedule(0)
        assert first.switches == [0] and first.assignment[0].task.name == "a"
        assert s.reschedule(5).switches == []
        done = first.assignment[0]
        done.remaining = 0
        s.job_finished(done, 10)
        refilled = s.reschedule(10)
        assert refilled.switches == [0]
        assert refilled.assignment[0].task.name == "b"

    def test_a_direct_refill_settles_its_processor(self):
        s = scheduler([task("a", low=2, promotion=1000, deadline=1000),
                       task("b", low=1, promotion=1000, deadline=1000)],
                      n_cpus=1)
        s.release_due(0)
        job = s.reschedule(0).assignment[0]
        job.remaining = 0
        s.job_finished(job, 10)
        assert s.refill(0, 10).task.name == "b"
        assert s.reschedule(10).switches == []


class TestInvariants:
    def test_check_invariants_on_fresh_scheduler(self):
        s = scheduler([task("a"), task("b", cpu=1)])
        s.check_invariants()

    def test_invariants_after_busy_sequence(self):
        s = scheduler(
            [task("a", cpu=0, low=3, high=3, promotion=100, period=400, wcet=50),
             task("b", cpu=1, low=2, high=2, promotion=200, period=600, wcet=80),
             task("c", cpu=0, low=1, high=1, promotion=300, period=800, wcet=60)],
            n_cpus=2,
        )
        now = 0
        for step in range(40):
            now += 50
            s.release_due(now)
            s.promote_due(now)
            for job in list(s.running):
                if job is not None:
                    job.remaining = max(0, job.remaining - 50)
                    if job.remaining == 0:
                        s.job_finished(job, now)
            s.allocate(now)
            s.check_invariants()

    def test_detects_promoted_on_wrong_cpu(self):
        s = scheduler([task("a", cpu=1, promotion=0)])
        s.release_due(0)
        s.promote_due(0)
        s.allocate(0)
        job = s.running[1]
        s.running[1] = None
        s.running[0] = job
        with pytest.raises(AssertionError):
            s.check_invariants()
