"""Unit tests for the microkernel queue structures."""

import pytest

from repro.core.queues import (
    AperiodicReadyQueue,
    HighPriorityLocalQueue,
    PeriodicReadyQueue,
    WaitingPeriodicQueue,
)
from repro.core.task import AperiodicTask, Job, JobState, PeriodicTask


def pjob(name="p", low=0, high=0, release=0, cpu=0, promotion=0):
    task = PeriodicTask(
        name=name, wcet=10, period=1000, low_priority=low,
        high_priority=high, cpu=cpu, promotion=promotion,
    )
    return Job(task, release=release)


def ajob(name="a", release=0):
    return Job(AperiodicTask(name=name, wcet=10), release=release)


class TestPeriodicReadyQueue:
    def test_orders_by_low_priority(self):
        q = PeriodicReadyQueue()
        low = pjob("low", low=1)
        high = pjob("high", low=5)
        q.push(low)
        q.push(high)
        assert q.pop() is high
        assert q.pop() is low

    def test_fifo_for_equal_priority(self):
        q = PeriodicReadyQueue()
        first = pjob("first", low=3)
        second = pjob("second", low=3)
        q.push(first)
        q.push(second)
        assert q.pop() is first

    def test_rejects_aperiodic(self):
        with pytest.raises(TypeError):
            PeriodicReadyQueue().push(ajob())

    def test_rejects_promoted(self):
        job = pjob()
        job.promoted = True
        with pytest.raises(ValueError):
            PeriodicReadyQueue().push(job)

    def test_remove_mid_queue(self):
        q = PeriodicReadyQueue()
        a, b, c = pjob("a", low=3), pjob("b", low=2), pjob("c", low=1)
        for j in (a, b, c):
            q.push(j)
        q.remove(b)
        assert list(q) == [a, c]

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            PeriodicReadyQueue().pop()

    def test_peek_does_not_remove(self):
        q = PeriodicReadyQueue()
        job = pjob()
        q.push(job)
        assert q.peek() is job
        assert len(q) == 1


class TestHighPriorityLocalQueue:
    def test_home_cpu_enforced(self):
        q = HighPriorityLocalQueue(cpu=1)
        job = pjob(cpu=0)
        job.promoted = True
        with pytest.raises(ValueError):
            q.push(job)

    def test_unpromoted_rejected(self):
        q = HighPriorityLocalQueue(cpu=0)
        with pytest.raises(ValueError):
            q.push(pjob(cpu=0))

    def test_orders_by_high_priority(self):
        q = HighPriorityLocalQueue(cpu=0)
        weak = pjob("weak", high=1)
        strong = pjob("strong", high=9)
        for j in (weak, strong):
            j.promoted = True
            q.push(j)
        assert q.pop() is strong


class TestAperiodicReadyQueue:
    def test_fifo(self):
        q = AperiodicReadyQueue()
        a, b = ajob("a"), ajob("b")
        q.push(a)
        q.push(b)
        assert q.pop() is a
        assert q.pop() is b

    def test_requeue_front_preserves_position(self):
        q = AperiodicReadyQueue()
        a, b = ajob("a"), ajob("b")
        q.push(a)
        q.push(b)
        first = q.pop()
        q.requeue_front(first)
        assert q.pop() is a

    def test_rejects_periodic(self):
        with pytest.raises(TypeError):
            AperiodicReadyQueue().push(pjob())

    def test_pop_empty(self):
        with pytest.raises(IndexError):
            AperiodicReadyQueue().pop()


class TestWaitingPeriodicQueue:
    def test_orders_by_release_time(self):
        q = WaitingPeriodicQueue()
        late = pjob("late", release=500)
        early = pjob("early", release=100)
        q.push(late)
        q.push(early)
        assert list(q) == [early, late]

    def test_pop_released_returns_due_jobs(self):
        q = WaitingPeriodicQueue()
        a = pjob("a", release=100)
        b = pjob("b", release=200)
        c = pjob("c", release=300)
        for j in (a, b, c):
            q.push(j)
        released = q.pop_released(now=200)
        assert released == [a, b]
        assert all(j.state is JobState.READY for j in released)
        assert len(q) == 1

    def test_pop_released_empty_when_none_due(self):
        q = WaitingPeriodicQueue()
        q.push(pjob(release=100))
        assert q.pop_released(now=50) == []

    def test_rejects_aperiodic(self):
        with pytest.raises(TypeError):
            WaitingPeriodicQueue().push(ajob())
