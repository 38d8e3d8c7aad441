"""Structured schedule traces.

Every simulator (theoretical, prototype, baselines) emits the same
event vocabulary so metrics and Gantt rendering are shared:

==============  =============================================
kind            meaning
==============  =============================================
``release``     periodic job released / aperiodic job arrived
``dispatch``    job starts or resumes on a cpu
``preempt``     job loses its cpu with work remaining
``finish``      job completes
``promote``     job moves to the upper band
``migrate``     job resumes on a different cpu than before
``tick``        scheduling cycle ran (cpu = scheduler cpu)
``irq``         interrupt delivered to a cpu
``switch``      context switch performed on a cpu
``idle``        cpu went idle
``acquire``     sync-engine lock granted (info ``lock=N``)
``unlock``      sync-engine lock released (info ``lock=N``)
``barrier``     barrier arrival (info ``barrier=N width=W``)
``access``      shared-memory access (info ``addr=0x.. op=read|write``)
``tlm_block``   TLM timed block closed (info ``start=.. nominal=.. stretch=..``)
``fault_injected``  injector fired a plan event (info = fault kind)
``fault``       kernel consumed a crash/overrun fault
``deadline_miss``  watchdog: no valid completion by the deadline
``retry``       recovery re-executed a crashed job
``shed``        degraded mode dropped a released low-criticality job
``degrade``     kernel entered degraded mode (info = shed tasks)
==============  =============================================

``release`` is exclusively the scheduler's job-release event;
sync-engine lock releases are ``unlock`` (historically both were
spelled ``release``, which made the two ambiguous in mixed traces).
The last four kinds form the concurrency vocabulary consumed by the
race/deadlock checker in :mod:`repro.lint.concurrency`.

Where events go is pluggable: a :class:`TraceRecorder` writes through
a *sink*.  The default :class:`ListSink` keeps the historical
in-memory list; :mod:`repro.obs.sinks` adds a bounded ring buffer and
a streaming JSONL file sink for full-horizon runs that must not hold
O(events) memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One schedule event."""

    time: int
    kind: str
    job: Optional[str] = None
    cpu: Optional[int] = None
    info: Optional[str] = None

    def __str__(self) -> str:
        cpu = f" cpu{self.cpu}" if self.cpu is not None else ""
        job = f" {self.job}" if self.job else ""
        info = f" ({self.info})" if self.info else ""
        return f"[{self.time:>12}]{cpu} {self.kind}{job}{info}"

    def to_dict(self) -> Dict[str, Any]:
        """Plain dictionary in the stable key order of every export."""
        return {"time": self.time, "kind": self.kind, "job": self.job,
                "cpu": self.cpu, "info": self.info}

    @classmethod
    def from_dict(cls, row: Dict[str, Any]) -> "TraceEvent":
        """Inverse of :meth:`to_dict`; rejects an unknown ``kind`` the
        way :meth:`TraceRecorder.record` does."""
        if row["kind"] not in KINDS:
            raise ValueError(f"unknown trace kind {row['kind']!r}")
        return cls(time=row["time"], kind=row["kind"], job=row.get("job"),
                   cpu=row.get("cpu"), info=row.get("info"))


KINDS = {
    "release",
    "dispatch",
    "preempt",
    "finish",
    "promote",
    "migrate",
    "tick",
    "irq",
    "switch",
    "idle",
    "acquire",
    "unlock",
    "barrier",
    "access",
    # TLM tier (repro.simulators.tlm): one event per closed timed
    # block, carrying its nominal progress and stretch factor.
    "tlm_block",
    # Fault tier (repro.faults, docs/FAULTS.md): injection instants,
    # kernel-consumed faults and every recovery action.
    "fault_injected",
    "fault",
    "deadline_miss",
    "retry",
    "shed",
    "degrade",
}


class TraceSink:
    """Destination for recorded events.

    Subclasses override :meth:`emit`; sinks that retain events for
    querying also override :meth:`retained`.  Streaming sinks retain
    nothing and report their write count through ``emitted``.
    """

    def __init__(self):
        self.emitted = 0

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def retained(self) -> List[TraceEvent]:
        """Events still available for queries (may be a subset)."""
        return []

    def close(self) -> None:
        """Release any underlying resource (no-op for memory sinks)."""

    def __len__(self) -> int:
        return self.emitted


class ListSink(TraceSink):
    """The historical unbounded in-memory event list."""

    def __init__(self):
        super().__init__()
        self.events: List[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.emitted += 1
        self.events.append(event)

    def retained(self) -> List[TraceEvent]:
        return self.events

    def __len__(self) -> int:
        # Count the list, not ``emitted``: deserialisers append to
        # ``recorder.events`` directly and both views must agree.
        return len(self.events)


class TraceRecorder:
    """Append-only event log writing through a pluggable sink."""

    def __init__(self, enabled: bool = True, sink: Optional[TraceSink] = None):
        self.enabled = enabled
        self.sink = sink if sink is not None else ListSink()

    @property
    def events(self) -> List[TraceEvent]:
        """Queryable events (the sink's retained view).

        For the default :class:`ListSink` this is the backing list
        itself, so existing ``trace.events.append(...)`` callers keep
        working; bounded/streaming sinks return what they retain.
        """
        return self.sink.retained()

    def record(
        self,
        time: int,
        kind: str,
        job: Optional[str] = None,
        cpu: Optional[int] = None,
        info: Optional[str] = None,
    ) -> None:
        if not self.enabled:
            return
        if kind not in KINDS:
            raise ValueError(f"unknown trace kind {kind!r}")
        self.sink.emit(TraceEvent(time=time, kind=kind, job=job, cpu=cpu, info=info))

    def close(self) -> None:
        """Flush/close the sink (needed for file-backed sinks)."""
        self.sink.close()

    # ------------------------------------------------------------------ queries
    def __len__(self) -> int:
        return len(self.sink)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def of_job(self, job_name: str) -> List[TraceEvent]:
        return [e for e in self.events if e.job == job_name]

    def between(self, start: int, end: int) -> List[TraceEvent]:
        return [e for e in self.events if start <= e.time < end]

    def busy_intervals(self, horizon: Optional[int] = None) -> Dict[int, List[tuple]]:
        """Per-cpu list of (start, end, job) execution intervals.

        Reconstructed from dispatch/preempt/finish events; an open
        interval at the end of the trace is closed at ``horizon`` (or
        the last event time).
        """
        events = self.events
        last = max((e.time for e in events), default=0)
        horizon = horizon if horizon is not None else last
        open_run: Dict[int, tuple] = {}
        intervals: Dict[int, List[tuple]] = {}
        for event in events:
            if event.kind == "dispatch" and event.cpu is not None:
                if event.cpu in open_run:
                    start, job = open_run.pop(event.cpu)
                    intervals.setdefault(event.cpu, []).append((start, event.time, job))
                open_run[event.cpu] = (event.time, event.job)
            elif event.kind in ("preempt", "finish", "idle"):
                cpu = event.cpu
                if cpu is not None and cpu in open_run:
                    start, job = open_run.pop(cpu)
                    if event.time > start:
                        intervals.setdefault(cpu, []).append((start, event.time, job))
        for cpu, (start, job) in open_run.items():
            if horizon > start:
                intervals.setdefault(cpu, []).append((start, horizon, job))
        return intervals

    def dump(self, limit: Optional[int] = None) -> str:
        """Readable log (used by examples and debugging)."""
        events = self.events if limit is None else self.events[:limit]
        return "\n".join(str(e) for e in events)
