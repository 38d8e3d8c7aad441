"""Trace recording, metrics extraction and ASCII Gantt rendering."""

from repro.trace.recorder import ListSink, TraceEvent, TraceRecorder, TraceSink
from repro.trace.metrics import ResponseStats, ScheduleMetrics, compute_metrics
from repro.trace.export import (
    trace_from_csv,
    trace_from_json,
    trace_to_csv,
    trace_to_json,
)
from repro.trace.gantt import render_gantt

__all__ = [
    "TraceRecorder",
    "TraceEvent",
    "TraceSink",
    "ListSink",
    "ScheduleMetrics",
    "ResponseStats",
    "compute_metrics",
    "render_gantt",
    "trace_to_json",
    "trace_from_json",
    "trace_to_csv",
    "trace_from_csv",
]
