"""Tests for trace recording, metrics and Gantt rendering."""

import pytest

from repro.core.task import AperiodicTask, Job, PeriodicTask
from repro.trace.gantt import render_gantt, render_interval_table, render_legend
from repro.trace.metrics import ResponseStats, compute_metrics
from repro.trace.recorder import TraceEvent, TraceRecorder


def task(name="t", wcet=10, period=100):
    return PeriodicTask(name=name, wcet=wcet, period=period, promotion=0)


class TestRecorder:
    def test_record_and_query(self):
        trace = TraceRecorder()
        trace.record(10, "release", job="a#0")
        trace.record(20, "dispatch", job="a#0", cpu=0)
        trace.record(30, "finish", job="a#0", cpu=0)
        assert len(trace) == 3
        assert [e.kind for e in trace.of_job("a#0")] == ["release", "dispatch", "finish"]
        assert len(trace.of_kind("dispatch")) == 1
        assert len(trace.between(15, 25)) == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TraceRecorder().record(0, "explode")

    def test_disabled_recorder_drops_events(self):
        trace = TraceRecorder(enabled=False)
        trace.record(0, "release", job="a")
        assert len(trace) == 0

    def test_busy_intervals_reconstruction(self):
        trace = TraceRecorder()
        trace.record(0, "dispatch", job="a#0", cpu=0)
        trace.record(10, "preempt", job="a#0", cpu=0)
        trace.record(10, "dispatch", job="b#0", cpu=0)
        trace.record(25, "finish", job="b#0", cpu=0)
        intervals = trace.busy_intervals(30)
        assert intervals[0] == [(0, 10, "a#0"), (10, 25, "b#0")]

    def test_open_interval_closed_at_horizon(self):
        trace = TraceRecorder()
        trace.record(5, "dispatch", job="a#0", cpu=1)
        intervals = trace.busy_intervals(50)
        assert intervals[1] == [(5, 50, "a#0")]

    def test_event_str(self):
        event = TraceEvent(time=42, kind="irq", cpu=1, info="timer")
        text = str(event)
        assert "42" in text and "irq" in text and "timer" in text

    def test_dump_limit(self):
        trace = TraceRecorder()
        for i in range(10):
            trace.record(i, "tick")
        assert len(trace.dump(limit=3).splitlines()) == 3


class TestMetrics:
    def _finished_job(self, name, release, finish, wcet=10, period=1000):
        job = Job(task(name, wcet=wcet, period=period), release=release)
        job.remaining = 0
        job.record_finish(finish)
        return job

    def test_response_stats(self):
        jobs = [
            self._finished_job("a", 0, 30),
            self._finished_job("a", 100, 120),
        ]
        stats = ResponseStats.from_jobs("a", jobs)
        assert stats.mean == 25
        assert stats.minimum == 20
        assert stats.maximum == 30
        assert stats.count == 2

    def test_response_stats_empty_raises(self):
        with pytest.raises(ValueError):
            ResponseStats.from_jobs("a", [])

    def test_compute_metrics_counts(self):
        miss = self._finished_job("late", 0, 2_000)
        ok = self._finished_job("ok", 0, 10)
        metrics = compute_metrics([miss, ok], horizon=5_000)
        assert metrics.finished_jobs == 2
        assert metrics.deadline_misses == 1
        assert set(metrics.response) == {"late", "ok"}

    def test_response_of_unknown_task(self):
        metrics = compute_metrics([], horizon=100)
        with pytest.raises(KeyError):
            metrics.response_of("ghost")

    def test_per_cpu_busy_from_trace(self):
        trace = TraceRecorder()
        trace.record(0, "dispatch", job="a#0", cpu=0)
        trace.record(40, "finish", job="a#0", cpu=0)
        metrics = compute_metrics([], horizon=100, trace=trace)
        assert metrics.per_cpu_busy[0] == 40


class TestGantt:
    def _trace(self):
        trace = TraceRecorder()
        trace.record(0, "dispatch", job="alpha#0", cpu=0)
        trace.record(50, "finish", job="alpha#0", cpu=0)
        trace.record(0, "dispatch", job="beta#0", cpu=1)
        trace.record(100, "finish", job="beta#0", cpu=1)
        return trace

    def test_render_gantt_shape(self):
        text = render_gantt(self._trace(), horizon=100, slot=10, n_cpus=2)
        lines = text.splitlines()
        assert lines[0].startswith("cpu0")
        assert lines[1].startswith("cpu1")
        assert "A" in lines[0]
        assert "B" in lines[1]
        # cpu0 idle in the second half.
        assert "." in lines[0]

    def test_render_gantt_validation(self):
        with pytest.raises(ValueError):
            render_gantt(self._trace(), horizon=100, slot=0, n_cpus=2)
        with pytest.raises(ValueError):
            render_gantt(self._trace(), horizon=0, slot=10, n_cpus=2)

    def test_interval_table(self):
        text = render_interval_table(self._trace(), horizon=100, n_cpus=2)
        assert "alpha#0" in text and "beta#0" in text

    def test_legend(self):
        text = render_legend(self._trace())
        assert "A = alpha" in text
        assert "B = beta" in text
