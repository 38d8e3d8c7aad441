"""Pluggable trace sinks: list, ring buffer, streaming JSONL."""

import json

import pytest

from repro.obs.sinks import (
    JsonlFileSink,
    RingBufferSink,
    trace_from_jsonl,
)
from repro.trace.recorder import ListSink, TraceEvent, TraceRecorder


class TestListSink:
    def test_is_the_default(self):
        trace = TraceRecorder()
        assert isinstance(trace.sink, ListSink)

    def test_events_property_is_the_backing_list(self):
        # Deserialisers append to ``trace.events`` directly; both the
        # recorder and the sink must see those events.
        trace = TraceRecorder()
        trace.events.append(TraceEvent(0, "tick", cpu=0))
        assert len(trace) == 1
        assert trace.of_kind("tick")

    def test_record_counts_emitted(self):
        trace = TraceRecorder()
        trace.record(0, "tick", cpu=0)
        assert trace.sink.emitted == 1 and len(trace) == 1


class TestRingBufferSink:
    def test_keeps_the_tail(self):
        trace = TraceRecorder(sink=RingBufferSink(capacity=3))
        for time in range(10):
            trace.record(time, "tick", cpu=0)
        assert [e.time for e in trace] == [7, 8, 9]
        assert trace.sink.emitted == 10
        assert trace.sink.dropped == 7
        assert len(trace) == 3

    def test_under_capacity_drops_nothing(self):
        sink = RingBufferSink(capacity=8)
        trace = TraceRecorder(sink=sink)
        trace.record(0, "tick", cpu=0)
        assert sink.dropped == 0 and len(trace) == 1

    def test_queries_work_on_the_retained_window(self):
        trace = TraceRecorder(sink=RingBufferSink(capacity=2))
        trace.record(0, "dispatch", job="a#0", cpu=0)
        trace.record(5, "finish", job="a#0", cpu=0)
        trace.record(6, "dispatch", job="b#0", cpu=0)
        assert [e.kind for e in trace] == ["finish", "dispatch"]
        assert trace.of_job("b#0")

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)


class TestJsonlFileSink:
    def test_streams_and_reloads(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        trace = TraceRecorder(sink=JsonlFileSink(path))
        trace.record(0, "release", job="a#0")
        trace.record(5, "dispatch", job="a#0", cpu=1)
        trace.record(9, "finish", job="a#0", cpu=1, info="ok")
        trace.close()

        lines = path.read_text().strip().split("\n")
        assert len(lines) == 3
        assert json.loads(lines[0]) == {
            "time": 0, "kind": "release", "job": "a#0", "cpu": None, "info": None
        }

        reloaded = trace_from_jsonl(path)
        assert [(e.time, e.kind, e.job, e.cpu, e.info) for e in reloaded] == [
            (0, "release", "a#0", None, None),
            (5, "dispatch", "a#0", 1, None),
            (9, "finish", "a#0", 1, "ok"),
        ]

    def test_retains_nothing(self, tmp_path):
        trace = TraceRecorder(sink=JsonlFileSink(tmp_path / "t.jsonl"))
        trace.record(0, "tick", cpu=0)
        assert trace.events == []
        assert trace.sink.emitted == 1
        trace.close()

    def test_close_is_idempotent_and_emit_after_close_raises(self, tmp_path):
        sink = JsonlFileSink(tmp_path / "t.jsonl")
        trace = TraceRecorder(sink=sink)
        trace.close()
        trace.close()
        with pytest.raises(RuntimeError):
            trace.record(0, "tick", cpu=0)

    def test_context_manager(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlFileSink(path) as sink:
            TraceRecorder(sink=sink).record(0, "tick", cpu=0)
        assert len(trace_from_jsonl(path)) == 1


class TestDisabledRecorder:
    """satellite: TraceRecorder(enabled=False) must short-circuit."""

    def test_record_is_a_no_op_for_every_sink(self, tmp_path):
        sinks = (ListSink(), RingBufferSink(capacity=4),
                 JsonlFileSink(tmp_path / "t.jsonl"))
        for sink in sinks:
            trace = TraceRecorder(enabled=False, sink=sink)
            trace.record(0, "tick", cpu=0)
            assert sink.emitted == 0
            assert len(trace) == 0
            trace.close()

    def test_disabled_skips_kind_validation(self):
        # The short-circuit returns before any bookkeeping, including
        # the unknown-kind check -- by design: the disabled path must
        # do as close to nothing as possible.
        trace = TraceRecorder(enabled=False)
        trace.record(0, "not-a-kind")
        assert len(trace) == 0

    def test_enabled_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            TraceRecorder().record(0, "not-a-kind")


class TestEventDicts:
    def test_round_trip(self):
        event = TraceEvent(7, "acquire", cpu=1, info="lock=3")
        assert TraceEvent.from_dict(event.to_dict()) == event

    def test_key_order_is_stable(self):
        event = TraceEvent(7, "acquire", cpu=1, info="lock=3")
        assert list(event.to_dict()) == ["time", "kind", "job", "cpu", "info"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown trace kind 'bogus'"):
            TraceEvent.from_dict({"time": 0, "kind": "bogus"})

    def test_jsonl_reload_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"time":0,"kind":"bogus"}\n')
        with pytest.raises(ValueError, match="bogus"):
            trace_from_jsonl(path)
