"""The MicroBlaze soft-core model.

A core executes *nominal* work cycles -- the standalone, uncontended
execution time of a task -- while reproducing the shared-bus traffic
that execution implies.  The paper's measured slowdown comes from two
physical effects that this model carries:

1. every shared-memory transaction (instruction-cache refills and
   shared-data accesses, both served by the DDR behind the OPB) must
   win arbitration against the other cores, so waiting cycles stretch
   real time beyond nominal time;
2. context switches move register files and stacks through shared
   memory (see :mod:`repro.kernel.context`), adding both latency and
   more bus traffic.

The core also exposes the single MicroBlaze interrupt input wired to
the MPIC, with the enable/disable semantics the controller's
fixed-priority-timeout scheme relies on.

Execution comes in two flavours:

- :meth:`execute` -- profile-driven nominal-cycle segments used by the
  microkernel (interruptible, chunked; the bus loop drives the chunks);
- :meth:`run_program` -- instruction-accurate execution of
  :mod:`repro.hw.isa` programs, used by the substrate tests and the
  calibration microbenchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.hw.bus import OPBBus, _Tenure
from repro.hw.cache import DirectMappedICache
from repro.hw.memory import DDRMemory, LocalBRAM
from repro.sim.engine import Simulator
from repro.sim.events import PENDING, Event


@dataclass(frozen=True)
class ExecutionProfile:
    """Shared-memory traffic characterisation of a task.

    ``access_period``: one shared (DDR) transaction every this many
    nominal cycles.  ``access_words``: words moved per transaction
    (cache-line refills and shared-data bursts folded together).  The
    nominal bus occupancy a core imposes is therefore
    ``latency(access_words) / access_period``.
    """

    access_period: int = 100
    access_words: int = 4

    def __post_init__(self):
        if self.access_period <= 0:
            raise ValueError("access_period must be positive")
        if self.access_words <= 0:
            raise ValueError("access_words must be positive")


#: Default profile for code that was not characterised.
DEFAULT_PROFILE = ExecutionProfile(access_period=120, access_words=4)

#: Adaptive chunking expands an execution slice at most this many times
#: past ``chunk_cycles``.  A slice issues its shared-memory traffic in
#: one burst, so an unbounded slice (up to a whole 5M-cycle tick) would
#: serialise bus contention into long quiet stretches punctuated by
#: bursts and distort the slowdown the model exists to measure; 8x
#: keeps the contention granularity close to the fixed stride while
#: cutting per-tick wake-ups by the same factor.
ADAPTIVE_CAP_MULT = 8


class SegmentResult:
    """Progress report for an (possibly interrupted) execute() call."""

    def __init__(self):
        self.nominal_done = 0
        self.real_cycles = 0
        self.wait_cycles = 0
        self.completed = False


class MicroBlaze:
    """One soft core: interrupt input, caches, private memory, bus port."""

    def __init__(
        self,
        sim: Simulator,
        cpu_id: int,
        bus: OPBBus,
        ddr: DDRMemory,
        local_mem: Optional[LocalBRAM] = None,
        icache: Optional[DirectMappedICache] = None,
        chunk_cycles: int = 2_000,
    ):
        if chunk_cycles <= 0:
            raise ValueError("chunk_cycles must be positive")
        self.sim = sim
        self.cpu_id = cpu_id
        self.bus = bus
        self.ddr = ddr
        self.local_mem = local_mem or LocalBRAM(cpu_id)
        self.icache = icache or DirectMappedICache(cpu_id)
        self.chunk_cycles = chunk_cycles
        #: Optional callable returning the absolute cycle of the next
        #: known preemption point (the SoC wires it to the system
        #: timer's ``next_tick``).  When set, :meth:`execute` expands
        #: its slice up to that boundary instead of stepping in fixed
        #: ``chunk_cycles`` strides -- promotions are tick-granular and
        #: asynchronous IRQs interrupt a slice mid-flight anyway, so
        #: the coarser stride only removes wake-ups, never preemption
        #: opportunities.
        self.preemption_hint: Optional[Callable[[], Optional[int]]] = None

        # Interrupt input (single line, like the real MicroBlaze).
        self.interrupts_enabled = True
        self.line_asserted = False
        self._irq_waiters: List[Event] = []
        self._enable_listeners: List[Callable[[bool], None]] = []

        # Statistics.
        self.busy_cycles = 0
        self.idle_cycles = 0
        self.nominal_cycles = 0
        self.stall_cycles = 0
        self._access_residue = 0.0
        # The last finished execution segment, re-armed by the next
        # execute() call.
        self._spare_segment: Optional[_Segment] = None
        self.register_upsets = 0
        # Fault observers: notified after each register upset so a
        # temporally decoupled ISA interpreter can invalidate the
        # basic-block window the upset landed inside.
        self._upset_listeners: List[Callable[[], None]] = []

    def add_upset_listener(self, listener: Callable[[], None]) -> None:
        """Register a callable invoked on every :meth:`register_upset`."""
        self._upset_listeners.append(listener)

    def remove_upset_listener(self, listener: Callable[[], None]) -> None:
        """Detach a listener registered with :meth:`add_upset_listener`."""
        if listener in self._upset_listeners:
            self._upset_listeners.remove(listener)

    def register_upset(self) -> int:
        """Transient-fault surface: record a register-file bit-flip.

        At the scheduling abstraction there is no architectural
        register file to corrupt, so the upset is accounted here and
        its *effect* -- silently corrupted task output, detected at
        completion -- is mapped by the injector onto the job currently
        running on this core (see :mod:`repro.faults.injector`).
        Returns the running total.
        """
        self.register_upsets += 1
        for listener in list(self._upset_listeners):
            listener()
        return self.register_upsets

    # -------------------------------------------------------------- interrupts
    def on_interrupt_line(self, asserted: bool) -> None:
        """Wired to the MPIC: the controller drives the line."""
        self.line_asserted = asserted
        if asserted and self.interrupts_enabled:
            self._wake_irq_waiters()

    def enable_interrupts(self) -> None:
        self.interrupts_enabled = True
        for listener in self._enable_listeners:
            listener(True)
        if self.line_asserted:
            self._wake_irq_waiters()

    def disable_interrupts(self) -> None:
        self.interrupts_enabled = False
        for listener in self._enable_listeners:
            listener(False)

    def add_enable_listener(self, listener: Callable[[bool], None]) -> None:
        """The MPIC mirrors the core's IE bit through this hook."""
        self._enable_listeners.append(listener)

    def irq_event(self) -> Event:
        """Event that fires when an interrupt is deliverable.

        Fires immediately if the line is already asserted with
        interrupts enabled.
        """
        event = Event(self.sim, name=f"cpu{self.cpu_id}.irq")
        if self.line_asserted and self.interrupts_enabled:
            event.succeed()
        else:
            self._irq_waiters.append(event)
        return event

    def _wake_irq_waiters(self) -> None:
        waiters, self._irq_waiters = self._irq_waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed()

    # ---------------------------------------------------------------- execution
    def _chunk_size(self, remaining: int) -> int:
        """Nominal cycles of the next execution chunk, at ``now``.

        The fixed stride ``chunk_cycles``, or, while a preemption hint
        is set and the interrupt line is quiet, up to the hinted
        boundary, capped at ``ADAPTIVE_CAP_MULT`` strides (adaptive
        chunking: no scheduler event can land before the boundary, and
        an asserted line or an asynchronous IRQ still preempts the chunk
        mid-flight).  Never more than ``remaining``.
        """
        chunk = self.chunk_cycles if self.chunk_cycles < remaining else remaining
        hint = self.preemption_hint
        if hint is not None and not self.line_asserted:
            boundary = hint()
            if boundary is not None:
                headroom = boundary - self.sim.now
                cap = self.chunk_cycles * ADAPTIVE_CAP_MULT
                if headroom > cap:
                    headroom = cap
                if headroom > chunk:
                    chunk = headroom if headroom < remaining else remaining
        return chunk

    def execute(
        self,
        nominal_cycles: int,
        profile: ExecutionProfile = DEFAULT_PROFILE,
        result: Optional[SegmentResult] = None,
    ):
        """Generator: execute ``nominal_cycles`` of task work.

        The work runs in chunks (:meth:`_chunk_size`).  Each chunk
        spends its local-compute portion as a lead-in, then issues its
        shared-memory transactions as one batch through the arbitrated
        bus.  The chunks are one :class:`_Segment` that the bus loop
        drives from chunk to chunk, so the calling process yields once,
        and resumes when the last chunk ends.  Progress lands in
        ``result`` (and the core's counters) after every chunk.  An
        interrupt mid-chunk credits the cycles the chunk has run so far
        as nominal progress (at most the chunk's length; the rest counts
        as wait) before re-raising, so the caller sees how much work was
        done.
        """
        if nominal_cycles < 0:
            raise ValueError("nominal_cycles must be non-negative")
        if result is None:
            result = SegmentResult()
        if nominal_cycles:
            segment = self._spare_segment
            if segment is None:
                segment = _Segment(self)
            else:
                self._spare_segment = None
            segment._begin(profile, nominal_cycles, result)
            try:
                yield segment.tenure.done
            except BaseException:
                # Its stale entries may still be queued: never re-armed.
                segment._abandon()
                raise
            segment._finish()
            self._spare_segment = segment
        result.completed = True
        return result

    def idle(self, cycles: int):
        """Generator: sit idle (accounted separately from busy time)."""
        start = self.sim.now
        yield self.sim.timeout(cycles)
        self.idle_cycles += self.sim.now - start

    # ----------------------------------------------------------------- queries
    @property
    def utilization_stats(self) -> dict:
        """Busy/idle/stall split of this core so far."""
        return {
            "cpu": self.cpu_id,
            "busy": self.busy_cycles,
            "idle": self.idle_cycles,
            "nominal": self.nominal_cycles,
            "stall": self.stall_cycles,
        }

    def __repr__(self) -> str:
        return f"<MicroBlaze cpu{self.cpu_id}>"


class _Segment:
    """One :meth:`MicroBlaze.execute` call: its chunks, carried by one
    re-armed bus tenure.

    A chunk is a lead-in (its local compute) followed by a batch of
    ``txns`` transactions.  The tenure's entries are those the per-chunk
    model queued: the lead-in end (``_lead_cb``, or ``done`` for a
    final chunk without transactions), the grants and holds, and the
    last hold (``_last_cb``, or ``done`` for the final chunk).  Played by
    the bus loop (:meth:`OPBBus._run_ahead`), a chunk end credits the
    chunk and starts the next (:meth:`_next`) in place, where the
    per-chunk model resumed the calling process.  Only ``done`` resumes
    it.
    """

    __slots__ = ("core", "result", "period", "remaining", "chunk", "txns",
                 "chunk_start", "tenure")

    def __init__(self, core: MicroBlaze):
        self.core = core
        self.tenure = _Tenure(core.bus, core.cpu_id, core.ddr, 0, 0, self)

    def _credit(self, now: int) -> None:
        """Credit the current chunk as run up to ``now``."""
        chunk = self.chunk
        elapsed = now - self.chunk_start
        done = chunk if chunk < elapsed else elapsed
        result = self.result
        result.nominal_done += done
        result.real_cycles += elapsed
        result.wait_cycles += elapsed - done
        core = self.core
        core.busy_cycles += elapsed
        core.nominal_cycles += done
        core.stall_cycles += elapsed - done

    def _next(self, now: int) -> int:
        """Credit the chunk that ended at ``now`` (if any) and size the
        next one; returns its lead-in cycles."""
        if self.chunk:
            self._credit(now)
            self.remaining -= self.chunk
        core = self.core
        chunk = core._chunk_size(self.remaining)
        exact = chunk / self.period + core._access_residue
        txns = int(exact)
        core._access_residue = exact - txns
        self.chunk = chunk
        self.txns = txns
        self.chunk_start = now
        tenure = self.tenure
        tenure.left = txns
        tenure.last = tenure.done if chunk == self.remaining else tenure._last_cb
        local = chunk - txns * tenure.latency
        return local if local > 0 else 0

    def _begin(self, profile: ExecutionProfile, nominal_cycles: int,
               result: SegmentResult) -> None:
        """Arm for one execute() call and start its first chunk, from
        the calling process."""
        self.result = result
        self.period = profile.access_period
        self.remaining = nominal_cycles
        self.chunk = 0
        tenure = self.tenure
        tenure.latency = self.core.ddr.access_latency(profile.access_words)
        tenure.spent = 0
        tenure.done._state = PENDING
        sim = tenure.bus.sim
        local = self._next(sim.now)
        if not local:
            tenure._request()
        elif self.txns or tenure.last is not tenure.done:
            sim._push(sim.now + local, tenure._lead_cb)
        else:
            sim._push(sim.now + local, tenure.done)

    def _finish(self) -> None:
        """``done`` has fired: end the final chunk, from the process."""
        tenure = self.tenure
        if self.txns:
            tenure._close()
        self._credit(tenure.bus.sim.now)

    def _abandon(self) -> None:
        """Interrupted: leave the bus (or its queue), credit the progress
        the chunk's elapsed time represents (a real core loses only the
        in-flight instruction, not the whole chunk)."""
        tenure = self.tenure
        tenure.cancelled = True
        bus = tenure.bus
        if bus._holder is tenure or any(entry[2] is tenure
                                        for entry in bus._waiting):
            bus._release(tenure)
        self._credit(bus.sim.now)
