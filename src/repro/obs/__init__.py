"""Unified observability: metrics, spans, sinks, Perfetto, ledger, reports.

Six pieces:

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

The package re-exports only what the experiment pipeline runs (metrics,
spans, ledger); import sinks, Perfetto export and reports from their
submodules, so that a Figure-4 run does not load them.

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
    "Ledger",
    "LedgerEntry",
    "DEFAULT_LEDGER_PATH",
    "LEDGER_ENV",
    "flatten_numeric",
    "diff_numeric",
    "format_history",
    "format_diff",
]
