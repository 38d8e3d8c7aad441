"""Tests for trace export."""

import json

import pytest

from repro.trace.export import (
    trace_from_csv,
    trace_from_json,
    trace_to_csv,
    trace_to_dicts,
    trace_to_json,
)
from repro.trace.recorder import TraceRecorder


def sample_trace():
    trace = TraceRecorder()
    trace.record(0, "release", job="a#0")
    trace.record(5, "dispatch", job="a#0", cpu=1)
    trace.record(20, "finish", job="a#0", cpu=1, info="done")
    return trace


def test_json_roundtrip():
    trace = sample_trace()
    rebuilt = trace_from_json(trace_to_json(trace))
    assert trace_to_dicts(rebuilt) == trace_to_dicts(trace)


def test_json_is_valid_and_ordered():
    data = json.loads(trace_to_json(sample_trace(), indent=2))
    assert [row["time"] for row in data] == [0, 5, 20]
    assert data[1]["cpu"] == 1


def test_csv_has_header_and_rows():
    text = trace_to_csv(sample_trace())
    lines = text.strip().splitlines()
    assert lines[0] == "time,kind,job,cpu,info"
    assert len(lines) == 4
    assert "finish" in lines[3]


def test_csv_roundtrip():
    trace = sample_trace()
    rebuilt = trace_from_csv(trace_to_csv(trace))
    assert trace_to_dicts(rebuilt) == trace_to_dicts(trace)


def test_csv_roundtrip_matches_json_roundtrip():
    # Empty cells must map back to None, exactly as JSON null does.
    trace = TraceRecorder()
    trace.record(0, "tick", cpu=0)          # no job, no info
    trace.record(3, "release", job="a#0")   # no cpu
    trace.record(7, "irq", cpu=1, info="timer")
    via_csv = trace_from_csv(trace_to_csv(trace))
    via_json = trace_from_json(trace_to_json(trace))
    assert trace_to_dicts(via_csv) == trace_to_dicts(via_json)
    assert via_csv.events[0].job is None
    assert via_csv.events[1].cpu is None


def test_csv_rejects_foreign_header():
    with pytest.raises(ValueError):
        trace_from_csv("a,b,c\n1,2,3\n")


@pytest.mark.parametrize("load,text", [
    (trace_from_json, '[{"time": 0, "kind": "bogus"}]'),
    (trace_from_csv, "time,kind,job,cpu,info\n0,bogus,,,\n"),
])
def test_unknown_kind_rejected(load, text):
    with pytest.raises(ValueError, match="unknown trace kind 'bogus'"):
        load(text)
