"""Unit tests for the task/job model."""

import pytest

from repro.core.task import (
    AperiodicTask,
    Band,
    Job,
    PeriodicTask,
    TaskSet,
)


def make_task(**kwargs):
    base = dict(name="t", wcet=100, period=1000)
    base.update(kwargs)
    return PeriodicTask(**base)


class TestPeriodicTask:
    def test_deadline_defaults_to_period(self):
        assert make_task().deadline == 1000

    def test_acet_defaults_to_wcet(self):
        assert make_task().acet == 100

    def test_acet_above_wcet_rejected(self):
        with pytest.raises(ValueError):
            make_task(acet=101)

    def test_wcet_must_be_positive(self):
        with pytest.raises(ValueError):
            make_task(wcet=0)

    def test_deadline_beyond_period_rejected(self):
        with pytest.raises(ValueError):
            make_task(deadline=1001)

    def test_wcet_beyond_deadline_rejected(self):
        with pytest.raises(ValueError):
            make_task(wcet=600, deadline=500)

    def test_promotion_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_task(promotion=1001)

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            make_task(offset=-1)

    def test_utilization(self):
        assert make_task(wcet=250, period=1000).utilization == 0.25

    def test_with_promotion_preserves_other_fields(self):
        task = make_task(cpu=3, low_priority=7).with_promotion(500)
        assert task.promotion == 500
        assert task.cpu == 3
        assert task.low_priority == 7

    def test_release_times(self):
        task = make_task(period=300, offset=50)
        assert list(task.release_times(1000)) == [50, 350, 650, 950]


class TestAperiodicTask:
    def test_arrivals_must_be_sorted(self):
        with pytest.raises(ValueError):
            AperiodicTask(name="a", wcet=10, arrivals=(5, 3))

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            AperiodicTask(name="a", wcet=10, arrivals=(-1,))

    def test_acet_default(self):
        assert AperiodicTask(name="a", wcet=10).acet == 10


class TestJob:
    def test_remaining_uses_acet(self):
        job = Job(make_task(acet=60), release=0)
        assert job.remaining == 60

    def test_band_transitions(self):
        job = Job(make_task(promotion=100), release=0)
        assert job.band is Band.LOWER
        job.promoted = True
        assert job.band is Band.UPPER

    def test_aperiodic_band_is_middle(self):
        job = Job(AperiodicTask(name="a", wcet=10), release=0)
        assert job.band is Band.MIDDLE

    def test_promoted_periodic_beats_aperiodic_beats_unpromoted(self):
        periodic = Job(make_task(promotion=0), release=0)
        aperiodic = Job(AperiodicTask(name="a", wcet=10), release=0)
        assert aperiodic.key() > periodic.key()
        periodic.promoted = True
        assert periodic.key() > aperiodic.key()

    def test_aperiodic_fifo_key(self):
        early = Job(AperiodicTask(name="a", wcet=10, arrivals=()), release=5)
        late = Job(AperiodicTask(name="b", wcet=10, arrivals=()), release=9)
        assert early.key() > late.key()

    def test_promotion_time(self):
        job = Job(make_task(promotion=400), release=100)
        assert job.promotion_time == 500

    def test_promotion_unanalysed_raises(self):
        job = Job(make_task(), release=0)
        with pytest.raises(ValueError):
            _ = job.promotion_time

    def test_response_time_and_deadline_miss(self):
        job = Job(make_task(deadline=500), release=100)
        job.record_finish(700)
        assert job.response_time == 600
        assert job.missed_deadline

    def test_migration_counting(self):
        job = Job(make_task(), release=0)
        job.record_dispatch(0, 0)
        job.record_preemption()
        job.record_dispatch(1, 10)
        job.record_dispatch(1, 20)
        assert job.migrations == 1
        assert job.preemptions == 1
        assert job.start_time == 0


class TestTaskSet:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            TaskSet([make_task(name="x"), make_task(name="x")])

    def test_utilization_sums(self):
        ts = TaskSet([make_task(name="a", wcet=100), make_task(name="b", wcet=300)])
        assert ts.utilization == pytest.approx(0.4)

    def test_hyperperiod(self):
        ts = TaskSet([
            make_task(name="a", period=300, wcet=10),
            make_task(name="b", period=400, wcet=10),
        ])
        assert ts.hyperperiod == 1200

    def test_by_name(self):
        ts = TaskSet([make_task(name="a")], [AperiodicTask(name="z", wcet=1)])
        assert ts.by_name("z").wcet == 1
        with pytest.raises(KeyError):
            ts.by_name("missing")

    def test_deadline_monotonic_priorities(self):
        ts = TaskSet([
            make_task(name="slow", deadline=900),
            make_task(name="fast", deadline=100),
            make_task(name="mid", deadline=500),
        ]).with_deadline_monotonic_priorities()
        prio = {t.name: t.high_priority for t in ts.periodic}
        assert prio["fast"] > prio["mid"] > prio["slow"]

    def test_require_analysed(self):
        ts = TaskSet([make_task()])
        with pytest.raises(ValueError):
            ts.require_analysed()
        ts2 = ts.with_tasks([make_task(promotion=10)])
        ts2.require_analysed()  # no raise

    def test_utilization_per_cpu_validates_range(self):
        ts = TaskSet([make_task(cpu=5)])
        with pytest.raises(ValueError):
            ts.utilization_per_cpu(2)

    def test_scale_clears_promotions(self):
        ts = TaskSet([make_task(promotion=10)]).scale(2.0)
        assert ts.periodic[0].promotion is None
        assert ts.periodic[0].period == 2000

    def test_scale_keeps_every_other_field(self):
        task = make_task(acet=60, offset=7, low_priority=1, high_priority=4,
                         cpu=1, promotion=10)
        scaled = TaskSet([task]).scale(2.0).periodic[0]
        assert scaled == task._replace(period=2000, deadline=2000,
                                       promotion=None)
        assert scaled.acet == 60

    def test_scale_keeps_automotive_acets(self):
        from repro.workloads.automotive import build_automotive_taskset

        taskset = build_automotive_taskset(0.5, 2)
        scaled = {t.name: t for t in taskset.scale(2.0).periodic}
        assert len(scaled) == 18
        for task in taskset.periodic:
            assert scaled[task.name].acet == task.acet
        assert scaled["basicmath-sqrt-small"].acet == 3_000_000

    def test_arrivals_with_merges_own_then_extra(self):
        ts = TaskSet([make_task(name="p")], [
            AperiodicTask(name="y", wcet=1, arrivals=(10, 50)),
            AperiodicTask(name="x", wcet=1),
        ])
        merged = ts.arrivals_with({"y": [5], "x": [7, 3]})
        assert merged == {"y": [10, 50, 5], "x": [7, 3]}
        assert list(merged) == ["y", "x"]  # task-set order, times as given
        assert ts.arrivals_with() == {"y": [10, 50], "x": []}
        assert ts.aperiodic[0].arrivals == (10, 50)

    def test_arrivals_with_rejects_unknown_and_periodic_names(self):
        ts = TaskSet([make_task(name="p")], [AperiodicTask(name="x", wcet=1)])
        with pytest.raises(KeyError):
            ts.arrivals_with({"nope": [1]})
        with pytest.raises(TypeError, match="p is not an aperiodic task"):
            ts.arrivals_with({"p": [1]})

    def test_summary_contains_tasks(self):
        ts = TaskSet([make_task(name="abc")], [AperiodicTask(name="xyz", wcet=5)])
        text = ts.summary()
        assert "abc" in text and "xyz" in text
