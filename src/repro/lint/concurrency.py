"""Trace-based race and deadlock detection for the sync engine.

Consumes :class:`~repro.trace.recorder.TraceRecorder` events of the
concurrency vocabulary (``acquire``/``unlock``/``barrier``/``access``,
emitted by :class:`~repro.hw.sync_engine.SynchronizationEngine` and
:class:`~repro.hw.isa.ISAExecutor` when given a recorder, or built
synthetically) and runs two classical dynamic analyses *statically over
the recorded history*:

- **Lockset (Eraser-style) race detection**: every shared address keeps
  the intersection of locksets held over its accesses; an address
  touched by two or more cpus with at least one write and an empty
  candidate lockset is a data race (``RACE001``).
- **Lock-order-graph deadlock detection**: acquiring lock B while
  holding lock A adds edge A -> B; a cycle in the resulting graph is a
  potential deadlock even if this particular schedule got lucky
  (``DEAD001``).

Event payloads ride in the ``info`` field as ``key=value`` pairs::

    acquire   info="lock=3"
    unlock    info="lock=3"
    barrier   info="barrier=1 width=2"
    access    info="addr=0x40010000 op=write"

(Older traces spelled lock releases ``release`` with a ``lock=``
payload; those are still accepted for backward compatibility, while
payload-less ``release`` events remain the scheduler's job-release
marker and are ignored here.)

Rule codes ``RACE001``-``RACE003`` and ``DEAD001``/``DEAD002`` are
catalogued in ``docs/LINT.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.lint.diagnostics import LintReport, Severity
from repro.trace.recorder import TraceEvent


def _parse_info(info: Optional[str]) -> Dict[str, str]:
    pairs: Dict[str, str] = {}
    for token in (info or "").split():
        if "=" in token:
            key, value = token.split("=", 1)
            pairs[key] = value
    return pairs


@dataclass
class _AddressState:
    """Eraser bookkeeping for one shared address."""

    lockset: Optional[FrozenSet[int]] = None  # None until first access
    readers: Set[int] = field(default_factory=set)
    writers: Set[int] = field(default_factory=set)
    first_time: int = 0
    reported: bool = False


class ConcurrencyChecker:
    """Replays a trace's concurrency events and accumulates diagnostics."""

    def __init__(self):
        self.report = LintReport()
        self.held: Dict[int, Set[int]] = {}  # cpu -> locks held
        self.acquired_at: Dict[Tuple[int, int], int] = {}  # (cpu, lock) -> time
        self.order_edges: Dict[int, Set[int]] = {}  # lock -> locks taken under it
        self.edge_witness: Dict[Tuple[int, int], str] = {}
        self.addresses: Dict[str, _AddressState] = {}
        self.barrier_width: Dict[int, int] = {}
        self.barrier_arrived: Dict[int, int] = {}
        self.barrier_last_time: Dict[int, int] = {}
        self.last_time = 0

    # ---------------------------------------------------------------- events
    def feed(self, event: TraceEvent) -> None:
        if event.kind not in ("acquire", "unlock", "release", "barrier", "access"):
            return
        payload = _parse_info(event.info)
        if event.kind == "release" and "lock" not in payload:
            # ``release`` is the scheduler's job-release event; only
            # legacy traces that spelled lock releases ``release``
            # carry a ``lock=`` payload (the current emitter uses
            # ``unlock``).
            return
        self.last_time = max(self.last_time, event.time)
        cpu = event.cpu if event.cpu is not None else -1
        if event.kind == "acquire":
            self._on_acquire(event, cpu, payload)
        elif event.kind in ("unlock", "release"):
            self._on_release(event, cpu, payload)
        elif event.kind == "barrier":
            self._on_barrier(event, cpu, payload)
        elif event.kind == "access":
            self._on_access(event, cpu, payload)

    def _lock_id(self, event: TraceEvent, payload: Dict[str, str]) -> Optional[int]:
        try:
            return int(payload["lock"], 0)
        except (KeyError, ValueError):
            self.report.add(
                "RACE003",
                Severity.ERROR,
                f"{event.kind} event carries no parsable lock id (info={event.info!r})",
                location=f"t={event.time}",
                hint='record lock events with info="lock=<id>"',
            )
            return None

    def _on_acquire(self, event: TraceEvent, cpu: int, payload: Dict[str, str]) -> None:
        lock = self._lock_id(event, payload)
        if lock is None:
            return
        held = self.held.setdefault(cpu, set())
        if lock in held:
            self.report.add(
                "RACE003",
                Severity.ERROR,
                f"cpu {cpu} acquires lock {lock} which it already holds",
                location=f"t={event.time}",
                hint="the sync engine is non-reentrant; release before re-acquiring",
            )
            return
        for other in held:
            self.order_edges.setdefault(other, set()).add(lock)
            self.edge_witness.setdefault(
                (other, lock), f"cpu {cpu} at t={event.time}"
            )
        held.add(lock)
        self.acquired_at[(cpu, lock)] = event.time

    def _on_release(self, event: TraceEvent, cpu: int, payload: Dict[str, str]) -> None:
        lock = self._lock_id(event, payload)
        if lock is None:
            return
        held = self.held.setdefault(cpu, set())
        if lock not in held:
            self.report.add(
                "RACE003",
                Severity.ERROR,
                f"cpu {cpu} releases lock {lock} it does not hold",
                location=f"t={event.time}",
                hint="every release must pair with an acquire on the same cpu",
            )
            return
        held.discard(lock)
        self.acquired_at.pop((cpu, lock), None)

    def _on_barrier(self, event: TraceEvent, cpu: int, payload: Dict[str, str]) -> None:
        try:
            barrier = int(payload["barrier"], 0)
        except (KeyError, ValueError):
            self.report.add(
                "RACE003",
                Severity.ERROR,
                f"barrier event carries no parsable barrier id (info={event.info!r})",
                location=f"t={event.time}",
                hint='record barrier events with info="barrier=<id> width=<n>"',
            )
            return
        width = payload.get("width")
        if width is not None:
            self.barrier_width[barrier] = int(width, 0)
        self.barrier_arrived[barrier] = self.barrier_arrived.get(barrier, 0) + 1
        self.barrier_last_time[barrier] = event.time
        expected = self.barrier_width.get(barrier)
        if expected is not None and self.barrier_arrived[barrier] >= expected:
            self.barrier_arrived[barrier] = 0  # released; next round starts

    def _on_access(self, event: TraceEvent, cpu: int, payload: Dict[str, str]) -> None:
        addr = payload.get("addr")
        operation = payload.get("op", "read")
        if addr is None:
            self.report.add(
                "RACE003",
                Severity.ERROR,
                f"access event carries no address (info={event.info!r})",
                location=f"t={event.time}",
                hint='record accesses with info="addr=<hex> op=read|write"',
            )
            return
        state = self.addresses.setdefault(addr, _AddressState(first_time=event.time))
        held = frozenset(self.held.get(cpu, set()))
        state.lockset = held if state.lockset is None else state.lockset & held
        (state.writers if operation == "write" else state.readers).add(cpu)
        cpus = state.readers | state.writers
        if (
            not state.reported
            and len(cpus) >= 2
            and state.writers
            and not state.lockset
        ):
            state.reported = True
            self.report.add(
                "RACE001",
                Severity.ERROR,
                f"data race on {addr}: cpus {sorted(cpus)} access it "
                f"({len(state.writers)} writer(s)) with no common lock",
                location=f"t={event.time} ({addr})",
                hint="guard the address with one sync-engine lock on every access",
            )

    # ----------------------------------------------------------------- finish
    def finish(self) -> LintReport:
        """End-of-trace checks: leaked locks, lock-order cycles, stuck barriers."""
        for (cpu, lock), time in sorted(self.acquired_at.items()):
            self.report.add(
                "RACE002",
                Severity.WARNING,
                f"cpu {cpu} still holds lock {lock} at the end of the trace "
                f"(acquired at t={time})",
                location=f"t={self.last_time}",
                hint="release every lock; a held lock blocks all other cpus forever",
            )
        cycle = _find_cycle(self.order_edges)
        if cycle:
            arc = " -> ".join(str(lock) for lock in cycle)
            witnesses = "; ".join(
                f"{a}->{b} by {self.edge_witness[(a, b)]}"
                for a, b in zip(cycle, cycle[1:])
                if (a, b) in self.edge_witness
            )
            self.report.add(
                "DEAD001",
                Severity.ERROR,
                f"lock-order cycle {arc}: a different interleaving deadlocks "
                f"({witnesses})",
                location=f"locks {sorted(set(cycle))}",
                hint="acquire locks in one global order on every cpu",
            )
        for barrier, arrived in sorted(self.barrier_arrived.items()):
            width = self.barrier_width.get(barrier)
            if arrived and width is not None and arrived < width:
                self.report.add(
                    "DEAD002",
                    Severity.ERROR,
                    f"barrier {barrier} still waiting at the end of the trace: "
                    f"{arrived} of {width} cpus arrived",
                    location=f"t={self.barrier_last_time.get(barrier, self.last_time)}",
                    hint="every configured cpu must reach the barrier (or lower its width)",
                )
        return self.report


def _find_cycle(edges: Dict[int, Set[int]]) -> Optional[List[int]]:
    """First cycle in the lock-order graph, as [a, ..., a]; None if acyclic."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour: Dict[int, int] = {}
    nodes = set(edges) | {lock for outs in edges.values() for lock in outs}

    def visit(node: int, path: List[int]) -> Optional[List[int]]:
        colour[node] = GREY
        path.append(node)
        for succ in sorted(edges.get(node, ())):
            if colour.get(succ, WHITE) == GREY:
                return path[path.index(succ):] + [succ]
            if colour.get(succ, WHITE) == WHITE:
                found = visit(succ, path)
                if found:
                    return found
        path.pop()
        colour[node] = BLACK
        return None

    for start in sorted(nodes):
        if colour.get(start, WHITE) == WHITE:
            found = visit(start, [])
            if found:
                return found
    return None


def lint_trace(trace: Iterable[TraceEvent]) -> LintReport:
    """Race/deadlock lint of a recorded (or synthetic) trace.

    Accepts a :class:`~repro.trace.recorder.TraceRecorder` or any
    iterable of :class:`~repro.trace.recorder.TraceEvent`; events of
    other kinds (dispatch, finish, ...) are ignored, so full schedule
    traces can be linted as-is.
    """
    checker = ConcurrencyChecker()
    events = list(trace)
    events.sort(key=lambda e: e.time)
    for event in events:
        checker.feed(event)
    return checker.finish()
