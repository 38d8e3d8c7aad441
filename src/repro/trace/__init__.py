"""Trace recording, metrics extraction and ASCII Gantt rendering."""

from repro.trace.recorder import ListSink, TraceEvent, TraceRecorder, TraceSink
from repro.trace.metrics import ResponseStats, ScheduleMetrics, compute_metrics

__all__ = [
    "TraceRecorder",
    "TraceEvent",
    "TraceSink",
    "ListSink",
    "ScheduleMetrics",
    "ResponseStats",
    "compute_metrics",
]
