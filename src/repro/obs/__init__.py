"""Unified observability: metrics, spans, sinks, Perfetto, ledger, reports.

Six pieces, one import surface:

- :mod:`repro.obs.metrics` -- a Prometheus-flavoured
  :class:`MetricsRegistry` (counters, gauges, fixed-bucket
  histograms, labelled series) with deterministic JSON and
  exposition-text snapshots, cross-process :meth:`MetricsRegistry.merge`
  and a strict scrape-side :func:`parse_prometheus_text`;
- :mod:`repro.obs.spans` -- deterministic span tracing of the
  host-side experiment pipeline (``sweep`` -> ``cell`` -> ``measure``
  -> ``simulate``) with monotonic ids, explicit parent links, and
  cross-process grafting;
- :mod:`repro.obs.sinks` -- pluggable trace sinks behind the
  existing :class:`~repro.trace.recorder.TraceRecorder` API: the
  default in-memory list, a bounded ring buffer and a streaming
  JSONL file sink;
- :mod:`repro.obs.perfetto` -- Chrome trace-event export of recorded
  schedules and pipeline spans (per-worker process tracks), loadable
  in ``ui.perfetto.dev``;
- :mod:`repro.obs.ledger` -- the persistent append-only run history
  (``.repro/ledger.jsonl``) behind ``repro-obs history`` / ``diff``;
- :mod:`repro.obs.report` -- per-run :class:`RunReport` artefacts
  folding kernel, interconnect, cache and bus telemetry into one
  JSON document.

Every hook is off by default (``metrics=None``, no ambient telemetry)
and costs one attribute check when disabled; the ``fig4-proto``
workload of the benchmark in ``bench/`` times the uninstrumented path
on every change.  The ``repro-obs`` CLI (:mod:`repro.obs.cli`) fronts
all of it.
"""

from repro.obs.ledger import (
    DEFAULT_LEDGER_PATH,
    LEDGER_ENV,
    Ledger,
    LedgerEntry,
    diff_numeric,
    flatten_numeric,
    format_diff,
    format_history,
)
from repro.obs.metrics import (
    DEFAULT_CYCLE_BUCKETS,
    DEFAULT_DEPTH_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus_text,
)
from repro.obs.perfetto import (
    chrome_trace_json,
    spans_to_events,
    trace_to_chrome,
    write_chrome_trace,
)
from repro.obs.report import (
    RunReport,
    fold_bus_monitor,
    fold_icaches,
    fold_run_cache,
)
from repro.obs.sinks import (
    JsonlFileSink,
    ListSink,
    RingBufferSink,
    trace_from_jsonl,
)
from repro.obs.spans import Span, SpanEvent, SpanRecorder, spans_from_jsonl

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_CYCLE_BUCKETS",
    "DEFAULT_DEPTH_BUCKETS",
    "parse_prometheus_text",
    "Span",
    "SpanEvent",
    "SpanRecorder",
    "spans_from_jsonl",
    "ListSink",
    "RingBufferSink",
    "JsonlFileSink",
    "trace_from_jsonl",
    "trace_to_chrome",
    "chrome_trace_json",
    "write_chrome_trace",
    "spans_to_events",
    "Ledger",
    "LedgerEntry",
    "DEFAULT_LEDGER_PATH",
    "LEDGER_ENV",
    "flatten_numeric",
    "diff_numeric",
    "format_history",
    "format_diff",
    "RunReport",
    "fold_bus_monitor",
    "fold_icaches",
    "fold_run_cache",
]
