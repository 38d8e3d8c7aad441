"""Trace sinks beyond the in-memory list.

The :class:`~repro.trace.recorder.TraceRecorder` API stays the single
entry point for emitting events; these sinks change where the events
go:

- :class:`RingBufferSink` -- bounded memory, keeps the *last* N events
  (flight-recorder style: when something goes wrong at the end of a
  long run, the tail is what you want);
- :class:`JsonlFileSink` -- streams one JSON object per line to a
  file, so a full-horizon sweep can trace every event without O(events)
  memory; reload with :func:`trace_from_jsonl`.

``ListSink`` (the historical default) is re-exported for symmetry.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import IO, List, Optional, Union

from repro.trace.recorder import ListSink, TraceEvent, TraceRecorder, TraceSink

__all__ = [
    "ListSink",
    "RingBufferSink",
    "JsonlFileSink",
    "trace_from_jsonl",
]


class RingBufferSink(TraceSink):
    """Keeps the most recent ``capacity`` events; older ones drop."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        super().__init__()
        self.capacity = capacity
        self._ring: "deque[TraceEvent]" = deque(maxlen=capacity)

    @property
    def dropped(self) -> int:
        """Events pushed out of the ring so far."""
        return self.emitted - len(self._ring)

    def emit(self, event: TraceEvent) -> None:
        self.emitted += 1
        self._ring.append(event)

    def retained(self) -> List[TraceEvent]:
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)


class JsonlFileSink(TraceSink):
    """Streams events to a JSON-lines file, one object per line.

    Usable as a context manager; :meth:`close` is idempotent and also
    reachable through ``TraceRecorder.close()``.  Memory use is O(1)
    in the number of events -- :meth:`retained` is always empty, so
    recorder *queries* on a streaming trace see nothing; reload the
    file with :func:`trace_from_jsonl` to analyse it.
    """

    def __init__(self, path: Union[str, os.PathLike]):
        super().__init__()
        self.path = os.fspath(path)
        #: Bytes written so far (events + newlines) -- lets RunReport
        #: surface the stream's size without a stat call on a handle
        #: that may still be buffered.
        self.bytes_written = 0
        self._handle: Optional[IO[str]] = open(self.path, "w")

    def emit(self, event: TraceEvent) -> None:
        if self._handle is None:
            raise RuntimeError(f"sink for {self.path} is closed")
        self.emitted += 1
        line = json.dumps(event.to_dict(), separators=(",", ":")) + "\n"
        self._handle.write(line)
        self.bytes_written += len(line)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlFileSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def trace_from_jsonl(path: Union[str, os.PathLike]) -> TraceRecorder:
    """Rebuild an in-memory trace from a :class:`JsonlFileSink` file."""
    trace = TraceRecorder()
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                trace.events.append(TraceEvent.from_dict(json.loads(line)))
    return trace
