"""Integration tests: the microkernel on the full SoC model."""

import pytest

from repro.analysis import assign_promotions, partition, random_taskset
from repro.core.task import AperiodicTask, PeriodicTask, TaskSet
from repro.hw.soc import SoC, SoCConfig
from repro.kernel import DualPriorityMicrokernel, TaskBinding
from repro.sim import Simulator
from repro.sim.engine import push_only
from repro.trace import TraceRecorder, compute_metrics
from tests.sim.queued_engine import QueuedSimulator

TICK = 20_000


def build(tasks, aperiodic=(), n_cpus=2, tick=TICK, bindings=None, sim=None):
    ts = TaskSet(tasks, aperiodic).with_deadline_monotonic_priorities()
    ts = partition(ts, n_cpus)
    ts = assign_promotions(ts, n_cpus, tick=tick)
    soc = SoC(SoCConfig(n_cpus=n_cpus, tick_cycles=tick, chunk_cycles=1_000),
              sim=sim)
    trace = TraceRecorder()
    kernel = DualPriorityMicrokernel(soc, ts, bindings=bindings, trace=trace)
    return soc, kernel, trace


def ptask(name, wcet, period, deadline=None):
    return PeriodicTask(name=name, wcet=wcet, period=period, deadline=deadline)


class TestPeriodicExecution:
    def test_single_task_meets_every_deadline(self):
        soc, kernel, trace = build([ptask("a", 5_000, 100_000)])
        kernel.run(until=1_000_000)
        finished = kernel.finished_jobs
        assert len(finished) == 10
        assert not any(j.missed_deadline for j in finished)

    def test_full_load_two_cpus_no_misses(self):
        tasks = [
            ptask("a", 8_000, 80_000),
            ptask("b", 12_000, 120_000),
            ptask("c", 6_000, 60_000),
            ptask("d", 10_000, 100_000),
        ]
        soc, kernel, trace = build(tasks)
        kernel.run(until=1_200_000)
        metrics = compute_metrics(kernel.finished_jobs, 1_200_000, trace)
        assert metrics.finished_jobs >= 40
        assert metrics.deadline_misses == 0
        kernel.policy.check_invariants()

    def test_scheduling_cycles_follow_timer(self):
        soc, kernel, trace = build([ptask("a", 1_000, 200_000)])
        kernel.run(until=400_000)
        # 0.4 M cycles / 20 k tick = 20 ticks (first at t=0).
        assert 18 <= kernel.scheduling_cycles <= 21

    def test_promotions_recorded_under_pressure(self):
        # Tight deadline forces promotion through the tick-rounded U.
        tasks = [
            ptask("tight", 15_000, 100_000, deadline=40_000),
            ptask("bulk", 30_000, 100_000),
        ]
        soc, kernel, trace = build(tasks, n_cpus=1)
        kernel.run(until=500_000)
        assert not any(j.missed_deadline for j in kernel.finished_jobs)


class TestAperiodicPath:
    def test_interrupt_releases_aperiodic(self):
        aper = AperiodicTask(name="evt", wcet=10_000)
        soc, kernel, trace = build([ptask("a", 5_000, 100_000)], aperiodic=[aper])
        soc.add_can_interface("can0", task_name="evt")
        soc.peripherals["can0"].program_frames([150_000])
        kernel.run(until=400_000)
        evt_jobs = [j for j in kernel.finished_jobs if j.task.name == "evt"]
        assert len(evt_jobs) == 1
        job = evt_jobs[0]
        assert job.release >= 150_000
        assert job.response_time < 50_000
        assert kernel.aperiodic_releases == 1

    def test_multiple_aperiodic_arrivals_fifo(self):
        aper = AperiodicTask(name="evt", wcet=30_000)
        soc, kernel, trace = build([ptask("a", 5_000, 100_000)], aperiodic=[aper], n_cpus=1)
        soc.add_can_interface("can0", task_name="evt")
        soc.peripherals["can0"].program_frames([100_000, 110_000])
        kernel.run(until=600_000)
        evt_jobs = sorted(
            (j for j in kernel.finished_jobs if j.task.name == "evt"),
            key=lambda j: j.release,
        )
        assert len(evt_jobs) == 2
        assert evt_jobs[0].finish_time <= evt_jobs[1].finish_time

    def test_aperiodic_preempted_by_promoted_periodic(self):
        # Single cpu: periodic with a tight deadline must win mid-flight.
        periodic = ptask("p", 20_000, 100_000, deadline=60_000)
        aper = AperiodicTask(name="evt", wcet=80_000)
        soc, kernel, trace = build([periodic], aperiodic=[aper], n_cpus=1)
        soc.add_can_interface("can0", task_name="evt")
        soc.peripherals["can0"].program_frames([5_000])
        kernel.run(until=800_000)
        assert not any(
            j.missed_deadline for j in kernel.finished_jobs if j.is_periodic
        )
        evt = [j for j in kernel.finished_jobs if j.task.name == "evt"]
        assert evt and evt[0].preemptions >= 1


class TestKernelMechanics:
    def test_context_switches_counted(self):
        soc, kernel, trace = build(
            [ptask("a", 10_000, 60_000), ptask("b", 10_000, 80_000)], n_cpus=1
        )
        kernel.run(until=500_000)
        assert kernel.context_switches > 0
        assert kernel.context_switches == len(trace.of_kind("switch"))

    def test_ipis_sent_for_remote_switches(self):
        tasks = [ptask(f"t{i}", 8_000, 90_000 + 10_000 * i) for i in range(4)]
        soc, kernel, trace = build(tasks, n_cpus=2)
        kernel.run(until=600_000)
        assert kernel.stats()["ipis"] > 0

    def test_bus_traffic_generated(self):
        soc, kernel, trace = build([ptask("a", 20_000, 100_000)])
        kernel.run(until=300_000)
        assert soc.bus.stats.busy_cycles > 0
        assert soc.bus.stats.utilization(soc.sim.now) < 1.0

    def test_kernel_lock_released_after_run(self):
        soc, kernel, trace = build([ptask("a", 5_000, 100_000)])
        kernel.run(until=300_000)
        assert soc.sync_engine.owner(0) is None

    def test_double_start_rejected(self):
        soc, kernel, trace = build([ptask("a", 5_000, 100_000)])
        kernel.start()
        with pytest.raises(RuntimeError):
            kernel.start()

    def test_stats_shape(self):
        soc, kernel, trace = build([ptask("a", 5_000, 100_000)])
        kernel.run(until=100_000)
        stats = kernel.stats()
        for key in (
            "context_switches",
            "scheduling_cycles",
            "irqs_serviced",
            "bus_utilization",
            "mpic_delivered",
        ):
            assert key in stats

    def test_custom_bindings_affect_traffic(self):
        from repro.hw.microblaze import ExecutionProfile

        heavy = {"a": TaskBinding(profile=ExecutionProfile(access_period=30, access_words=4))}
        light = {"a": TaskBinding(profile=ExecutionProfile(access_period=3_000, access_words=4))}
        results = {}
        for label, bindings in (("heavy", heavy), ("light", light)):
            soc, kernel, _ = build([ptask("a", 50_000, 200_000)], bindings=bindings)
            kernel.run(until=400_000)
            results[label] = soc.bus.stats.busy_cycles
        assert results["heavy"] > 4 * results["light"]


class TestRandomWorkloads:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_misses_on_schedulable_random_sets(self, seed):
        ts = random_taskset(
            6, 0.9, seed=seed, min_period=60_000, max_period=400_000
        )
        ts = partition(ts, 2)
        ts = assign_promotions(ts, 2, tick=TICK)
        soc = SoC(SoCConfig(n_cpus=2, tick_cycles=TICK, chunk_cycles=1_000))
        kernel = DualPriorityMicrokernel(soc, ts)
        kernel.run(until=2_000_000)
        assert len(kernel.finished_jobs) > 10
        misses = [j for j in kernel.finished_jobs if j.missed_deadline]
        assert misses == []
        kernel.policy.check_invariants()


class TestKernelLockInPlace:
    """A free kernel lock with nothing else due at ``now`` is taken in
    place; otherwise its grant is queued.  Either way the log, lock
    trace and insertion-id count are the queued engine's."""

    @staticmethod
    def lock_twice(engine, foreign, held):
        soc, kernel, _trace = build([ptask("a", 1_000, 100_000)],
                                    sim=engine())
        sim = soc.sim
        log = []
        if held:
            soc.sync_engine.try_acquire(0, 1)
            sim.schedule(7, lambda: soc.sync_engine.release(0, 1))

        def proc():
            if foreign:
                sim.schedule(0, lambda: log.append(("foreign", sim.now)))
            yield from kernel._lock_kernel(0)
            log.append(("locked", sim.now, sim._eid))
            kernel._unlock_kernel(0)
            yield from kernel._lock_kernel(0)
            log.append(("locked", sim.now, sim._eid))

        process = sim.process(proc())
        sim.run()
        return log, soc.sync_engine.acquisitions, sim._eid, process.processed

    @pytest.mark.parametrize("foreign, held", [(False, False), (True, False),
                                               (False, True)],
                             ids=["free", "entry-due-now", "held"])
    def test_lock_matches_queued_engine(self, foreign, held):
        got = self.lock_twice(Simulator, foreign, held)
        assert got == self.lock_twice(QueuedSimulator, foreign, held)
        assert got[0][-1][0] == "locked" and got[3]

    def test_lock_taken_in_place_past_a_push_only_entry(self):
        """A bus grant (push-only) due at ``now`` runs first; then the free
        lock is taken in place, with the queued engine's log and ids."""

        def lock(engine):
            soc, kernel, _trace = build([ptask("a", 1_000, 100_000)],
                                        sim=engine())
            sim = soc.sim
            log, waits = [], []

            class Grant:
                @push_only
                def arm(self):
                    sim.schedule(3, lambda: log.append(("hold", sim.now)))

            def proc():
                yield sim.timeout(5)
                sim.schedule(0, Grant().arm)
                for event in kernel._lock_kernel(0):
                    waits.append(sim.now)
                    yield event
                log.append(("locked", sim.now, sim._eid))

            sim.process(proc())
            sim.run()
            return log, sim._eid, waits

        log, eid, waits = lock(Simulator)
        queued_log, queued_eid, queued_waits = lock(QueuedSimulator)
        assert (log, eid) == (queued_log, queued_eid)
        assert log[0][0] == "locked" and log[1] == ("hold", 8)
        assert waits == [] and queued_waits == [5]


class TestWatchdog:
    """A valid completion by the deadline withdraws the job's watchdog
    entry; a late or invalid job keeps it, and it records the miss."""

    DEADLINE = 40_000

    def run(self, inject):
        soc, kernel, trace = build(
            [ptask("a", 5_000, 100_000, deadline=self.DEADLINE)])
        withdrawn = []
        withdraw = soc.sim.withdraw

        def recording(time, callback):
            withdrawn.append(time)
            withdraw(time, callback)

        soc.sim.withdraw = recording
        inject(kernel)
        kernel.run(until=99_999)
        misses = [e.info for e in trace.events if e.kind == "deadline_miss"]
        return withdrawn, misses, kernel.finished_jobs[0], kernel

    def test_on_time_completion_withdraws_the_entry(self):
        withdrawn, misses, job, kernel = self.run(lambda kernel: None)
        assert job.finish_time <= self.DEADLINE and not job.invalid
        assert withdrawn.count(self.DEADLINE + 1) == 1
        assert all(entry[0] != self.DEADLINE + 1
                   for entry in kernel.sim._heap)
        assert misses == [] and kernel.deadline_misses == 0
        assert kernel._watchdogs == {}

    def test_late_job_keeps_the_entry_and_misses(self):
        withdrawn, misses, job, kernel = self.run(
            lambda kernel: kernel.inject_overrun("a", 50_000))
        assert job.finish_time > self.DEADLINE
        assert self.DEADLINE + 1 not in withdrawn
        assert misses == ["late"] and kernel.deadline_misses == 1

    def test_invalid_job_keeps_the_entry_and_misses(self):
        withdrawn, misses, job, kernel = self.run(
            lambda kernel: kernel.inject_crash("a"))
        assert job.finish_time <= self.DEADLINE and job.invalid
        assert self.DEADLINE + 1 not in withdrawn
        assert misses == ["invalid"] and kernel.deadline_misses == 1
        assert kernel._watchdogs == {}
