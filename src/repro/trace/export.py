"""Trace export (JSON / CSV).

The experiments print human-readable tables; downstream users often
want machine-readable artefacts instead, so traces can be dumped and
reloaded losslessly.
"""

from __future__ import annotations

import csv
import io
import json
from typing import List, Optional

from repro.trace.recorder import TraceEvent, TraceRecorder


def trace_to_dicts(trace: TraceRecorder) -> List[dict]:
    """Events as plain dictionaries (stable key order)."""
    return [e.to_dict() for e in trace]


def trace_to_json(trace: TraceRecorder, indent: Optional[int] = None) -> str:
    """Serialise a trace to JSON."""
    return json.dumps(trace_to_dicts(trace), indent=indent)


def trace_from_json(text: str) -> TraceRecorder:
    """Rebuild a trace from :func:`trace_to_json` output."""
    trace = TraceRecorder()
    for row in json.loads(text):
        trace.events.append(TraceEvent.from_dict(row))
    return trace


def trace_to_csv(trace: TraceRecorder) -> str:
    """Serialise a trace to CSV (header + one row per event)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["time", "kind", "job", "cpu", "info"])
    for e in trace:
        writer.writerow([e.time, e.kind, e.job or "", e.cpu if e.cpu is not None else "", e.info or ""])
    return buffer.getvalue()


def trace_from_csv(text: str) -> TraceRecorder:
    """Rebuild a trace from :func:`trace_to_csv` output.

    Empty cells map back to ``None`` (the writer encodes absent
    job/cpu/info as empty strings), so a JSON round-trip and a CSV
    round-trip of the same trace are indistinguishable.
    """
    trace = TraceRecorder()
    reader = csv.DictReader(io.StringIO(text))
    expected = ["time", "kind", "job", "cpu", "info"]
    if reader.fieldnames != expected:
        raise ValueError(
            f"not a trace CSV: header {reader.fieldnames} != {expected}"
        )
    for row in reader:
        trace.events.append(TraceEvent.from_dict({
            "time": int(row["time"]),
            "kind": row["kind"],
            "job": row["job"] or None,
            "cpu": int(row["cpu"]) if row["cpu"] else None,
            "info": row["info"] or None,
        }))
    return trace
