"""Deterministic span tracing for the experiment pipeline.

Where :mod:`repro.trace.recorder` records what happens *inside* a
simulated SoC (cycle-timestamped schedule events), this module records
what happens *around* it: the host-side experiment pipeline.  A
:class:`Span` covers one pipeline stage -- ``sweep`` -> ``cell`` ->
``measure`` -> ``simulate`` -- with wall-clock bounds, free-form
attributes, point-in-time :class:`SpanEvent` annotations (run-cache
hits and misses land here), and an explicit parent link.

Design constraints, mirroring the metrics registry:

- **Deterministic identity.**  Span ids are small monotonic integers
  assigned in ``begin()`` order, never random: two identical runs
  produce identical id sequences, and :meth:`SpanRecorder.structure`
  strips the remaining wall-clock noise so serial and parallel runs of
  the same sweep can be compared structurally bit for bit.
- **Cross-process capture.**  A worker process records into its own
  recorder and ships the rows home (they are plain dicts);
  :meth:`SpanRecorder.graft` re-ids them into the parent recorder in
  chunk order -- deterministic again -- re-parenting the worker's root
  spans under the parent's current span and tagging every grafted span
  with the worker's process label.
- **JSONL-serialisable.**  One span per line via
  :meth:`SpanRecorder.write_jsonl` / :func:`spans_from_jsonl`, the
  same shape :mod:`repro.obs.perfetto` renders as per-worker process
  tracks.

Spans are **off by default** everywhere: pipeline code only records
when a recorder was explicitly passed in (through
:class:`repro.perf.executor.Telemetry`), so the uninstrumented hot
path pays nothing beyond one ``is None`` check per *cell*, not per
event.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

__all__ = [
    "Span",
    "SpanEvent",
    "SpanRecorder",
    "spans_from_jsonl",
]


@dataclass
class SpanEvent:
    """A point-in-time annotation attached to a span (e.g. a cache hit)."""

    time_s: float
    name: str
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"time_s": self.time_s, "name": self.name, "attrs": self.attrs}

    @classmethod
    def from_dict(cls, row: Dict[str, Any]) -> "SpanEvent":
        return cls(time_s=row["time_s"], name=row["name"],
                   attrs=dict(row.get("attrs") or {}))


@dataclass
class Span:
    """One pipeline stage: id, explicit parent link, bounds, attributes."""

    span_id: int
    name: str
    parent_id: Optional[int] = None
    start_s: float = 0.0
    end_s: Optional[float] = None
    #: Which process recorded the span ("main", or a worker label).
    process: str = "main"
    attrs: Dict[str, Any] = field(default_factory=dict)
    events: List[SpanEvent] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "process": self.process,
            "attrs": self.attrs,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, row: Dict[str, Any]) -> "Span":
        return cls(
            span_id=row["span_id"],
            name=row["name"],
            parent_id=row.get("parent_id"),
            start_s=row.get("start_s", 0.0),
            end_s=row.get("end_s"),
            process=row.get("process", "main"),
            attrs=dict(row.get("attrs") or {}),
            events=[SpanEvent.from_dict(e) for e in row.get("events") or []],
        )


class SpanRecorder:
    """Append-only span log with a current-span stack for implicit parenting."""

    def __init__(self, process: Optional[str] = None):
        #: Default process label stamped on spans begun by this recorder.
        self.process = process if process is not None else "main"
        self.spans: List[Span] = []
        self._by_id: Dict[int, Span] = {}
        self._stack: List[Span] = []
        self._next_id = 1

    # --------------------------------------------------------------- recording
    def begin(self, name: str, parent_id: Optional[int] = None,
              **attrs: Any) -> Span:
        """Open a span; the parent defaults to the innermost open span."""
        if parent_id is None and self._stack:
            parent_id = self._stack[-1].span_id
        span = Span(
            span_id=self._next_id,
            name=name,
            parent_id=parent_id,
            start_s=time.time(),
            process=self.process,
            attrs=attrs,
        )
        self._next_id += 1
        self.spans.append(span)
        self._by_id[span.span_id] = span
        self._stack.append(span)
        return span

    def end(self, span: Span) -> Span:
        """Close ``span`` (and any unclosed children, innermost first)."""
        while self._stack:
            top = self._stack.pop()
            if top.end_s is None:
                top.end_s = time.time()
            if top is span:
                break
        else:
            if span.end_s is None:
                span.end_s = time.time()
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """``with recorder.span("cell", x=3):`` -- begin/end as a block."""
        opened = self.begin(name, **attrs)
        try:
            yield opened
        finally:
            self.end(opened)

    def event(self, name: str, **attrs: Any) -> Optional[SpanEvent]:
        """Annotate the innermost open span (no-op when none is open)."""
        if not self._stack:
            return None
        event = SpanEvent(time_s=time.time(), name=name, attrs=attrs)
        self._stack[-1].events.append(event)
        return event

    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    # ----------------------------------------------------------- cross-process
    def graft(
        self,
        rows: Iterable[Union[Span, Dict[str, Any]]],
        process: str,
        parent_id: Optional[int] = None,
    ) -> List[Span]:
        """Adopt spans recorded in another process.

        Every grafted span gets a fresh monotonic id from *this*
        recorder (so ids stay unique and deterministic given call
        order), parent links *within* the grafted batch are remapped,
        the batch's root spans are re-parented under ``parent_id``
        (default: this recorder's innermost open span), and every span
        is stamped with the worker's ``process`` label.
        """
        if parent_id is None and self._stack:
            parent_id = self._stack[-1].span_id
        batch = [row if isinstance(row, Span) else Span.from_dict(row)
                 for row in rows]
        id_map: Dict[int, int] = {}
        grafted: List[Span] = []
        for span in batch:
            id_map[span.span_id] = self._next_id
            self._next_id += 1
        for span in batch:
            span.span_id = id_map[span.span_id]
            span.parent_id = (
                id_map[span.parent_id]
                if span.parent_id in id_map
                else parent_id
            )
            span.process = process
            self.spans.append(span)
            self._by_id[span.span_id] = span
            grafted.append(span)
        return grafted

    # ------------------------------------------------------------------ export
    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def get(self, span_id: int) -> Optional[Span]:
        return self._by_id.get(span_id)

    def to_rows(self) -> List[Dict[str, Any]]:
        """Plain-dict rows in id order (the cross-process wire format)."""
        return [span.to_dict() for span in self.spans]

    def structure(self) -> List[Tuple]:
        """Wall-clock- and worker-free view for determinism comparisons.

        Each span reduces to ``(name, parent_position, sorted_attrs,
        event_structure)`` where ``parent_position`` is the parent's
        index in the span list (None for roots) -- so a serial run and
        a parallel run of the same pipeline compare equal even though
        their ids, timestamps and process labels differ.
        """
        positions = {span.span_id: index
                     for index, span in enumerate(self.spans)}

        def attr_items(attrs: Dict[str, Any]) -> Tuple:
            return tuple(sorted((str(k), str(v)) for k, v in attrs.items()))

        return [
            (
                span.name,
                positions.get(span.parent_id),
                attr_items(span.attrs),
                tuple((event.name, attr_items(event.attrs))
                      for event in span.events),
            )
            for span in self.spans
        ]

    def write_jsonl(self, path: Union[str, os.PathLike]) -> None:
        """One span per line, id order."""
        with open(path, "w") as handle:
            for span in self.spans:
                json.dump(span.to_dict(), handle, separators=(",", ":"),
                          sort_keys=True)
                handle.write("\n")


def spans_from_jsonl(path: Union[str, os.PathLike]) -> List[Span]:
    """Reload spans written by :meth:`SpanRecorder.write_jsonl`."""
    spans: List[Span] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(Span.from_dict(json.loads(line)))
    return spans
