"""The multiprocessor interrupt controller (MPIC).

Reproduces the controller of Tumeo et al. (SAMOS 2007) that the paper
builds the microkernel on.  Features, quoting Section 3.2:

- *distribution*: an interrupt from a peripheral is offered to a free
  processor so several service routines can run in parallel;
- *fixed priority with timeout*: the offer goes to processors in fixed
  priority order; if the target does not acknowledge within the
  timeout (its interrupt reception is disabled while it handles
  another interrupt), the offer moves to the next processor;
- *booking*: a peripheral can be bound to one processor which is then
  the only one to receive its interrupts;
- *multicast/broadcast*: one signal propagated to several processors
  (e.g. a global timer);
- *inter-processor interrupts* (IPIs): any processor can interrupt any
  other (used to start context switches).

Processors interact with the controller through bus register accesses
(acknowledge, end-of-interrupt); the controller itself is sequential
("controller management is sequential, but the execution of the
interrupt handlers is parallel"), modelled by routing those register
accesses over the shared OPB.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.hw.bus import RegisterTarget
from repro.sim.engine import Simulator


class InterruptMode(enum.Enum):
    """Delivery policy for one interrupt source."""

    DISTRIBUTE = "distribute"
    BOOKED = "booked"
    MULTICAST = "multicast"
    BROADCAST = "broadcast"


@dataclass
class InterruptSource:
    """Configuration of one interrupt input line."""

    source_id: int
    name: str
    mode: InterruptMode = InterruptMode.DISTRIBUTE
    booked_cpu: Optional[int] = None
    multicast_cpus: Set[int] = field(default_factory=set)

    def __post_init__(self):
        if self.mode is InterruptMode.BOOKED and self.booked_cpu is None:
            raise ValueError(f"{self.name}: booked source needs booked_cpu")
        if self.mode is InterruptMode.MULTICAST and not self.multicast_cpus:
            raise ValueError(f"{self.name}: multicast source needs target cpus")


@dataclass
class PendingInterrupt:
    """One raised interrupt travelling through the controller."""

    source: InterruptSource
    payload: Any
    raised_at: int
    offered_to: Optional[int] = None
    attempts: int = 0
    delivered_at: Optional[int] = None
    #: ``(instant, callback)`` of the armed ack-timeout entry, if any.
    timeout_entry: Optional[Tuple[int, Callable[[], None]]] = field(
        default=None, compare=False, repr=False)


class MultiprocessorInterruptController:
    """The MPIC state machine.

    Parameters
    ----------
    sim:
        Simulator.
    n_cpus:
        Number of MicroBlaze cores attached.
    ack_timeout:
        Cycles a distributed offer waits for an acknowledge before
        moving to the next processor in the priority list.
    """

    #: Bus register block (acks/EOIs/configuration go through the OPB).
    REGISTERS = RegisterTarget(name="mpic", latency=3)

    def __init__(self, sim: Simulator, n_cpus: int, ack_timeout: int = 500,
                 metrics=None):
        if n_cpus < 1:
            raise ValueError("n_cpus must be >= 1")
        if ack_timeout <= 0:
            raise ValueError("ack_timeout must be positive")
        self.sim = sim
        self.n_cpus = n_cpus
        self.ack_timeout = ack_timeout
        # Observability: delivery-latency histograms (IPIs tracked
        # separately -- their raise->acknowledge path is the context
        # switch trigger the paper cares about) and per-source
        # distribution counters.  ``metrics=None`` keeps every hot
        # path at a single attribute check.
        self.metrics = metrics
        self._m_latency = self._m_ipi_latency = self._m_timeouts = None
        if metrics is not None:
            self._m_latency = metrics.histogram(
                "mpic_delivery_cycles",
                help="cycles between interrupt raise and acknowledge",
            )
            self._m_ipi_latency = metrics.histogram(
                "ipi_delivery_cycles",
                help="cycles between IPI send and acknowledge",
            )
            self._m_timeouts = metrics.counter(
                "mpic_timeouts_total",
                help="distributed offers re-routed after ack timeout",
            )

        self.sources: Dict[int, InterruptSource] = {}
        self._next_source_id = 0
        # Per-cpu offers awaiting acknowledge, FIFO.
        self._offers: List[Deque[PendingInterrupt]] = [deque() for _ in range(n_cpus)]
        # Interrupt currently being serviced by each cpu (None = free).
        self._in_service: List[Optional[PendingInterrupt]] = [None] * n_cpus
        # Per-cpu "reception enabled" flag (MicroBlaze IE bit).
        self._enabled: List[bool] = [True] * n_cpus
        # Distributed interrupts that found no free processor yet.
        self._parked: Deque[PendingInterrupt] = deque()
        # Line-change callbacks into the cores.
        self._line_callbacks: List[Optional[Callable[[bool], None]]] = [None] * n_cpus

        # Statistics.
        self.delivered = 0
        self.timeouts = 0
        self.ipis_sent = 0
        self.max_parallel_handlers = 0

        # Transient-fault surface (armed by repro.faults).  ``None`` on
        # the fault-free path, so delivery pays one attribute check.
        self._ipi_fault: Optional[tuple] = None  # (mode, until, arg)
        self.ipis_dropped = 0
        self.ipis_duplicated = 0
        self.ipis_delayed = 0

    # ----------------------------------------------------------- configuration
    def connect_cpu(self, cpu: int, line_callback: Callable[[bool], None]) -> None:
        """Attach a core's interrupt line (called with True/False)."""
        self._line_callbacks[cpu] = line_callback

    def add_source(
        self,
        name: str,
        mode: InterruptMode = InterruptMode.DISTRIBUTE,
        booked_cpu: Optional[int] = None,
        multicast_cpus: Optional[Set[int]] = None,
    ) -> InterruptSource:
        """Register a peripheral interrupt input."""
        source = InterruptSource(
            source_id=self._next_source_id,
            name=name,
            mode=mode,
            booked_cpu=booked_cpu,
            multicast_cpus=set(multicast_cpus or ()),
        )
        self.sources[source.source_id] = source
        self._next_source_id += 1
        return source

    def book(self, source: InterruptSource, cpu: int) -> None:
        """Book a source so only ``cpu`` receives it from now on."""
        if not 0 <= cpu < self.n_cpus:
            raise ValueError(f"cpu {cpu} out of range")
        source.mode = InterruptMode.BOOKED
        source.booked_cpu = cpu

    def unbook(self, source: InterruptSource) -> None:
        """Return a booked source to distributed delivery."""
        source.mode = InterruptMode.DISTRIBUTE
        source.booked_cpu = None

    # -------------------------------------------------------------- interrupts
    def raise_interrupt(self, source: InterruptSource, payload: Any = None) -> None:
        """A peripheral asserts its interrupt line."""
        if source.source_id not in self.sources:
            raise ValueError(f"unknown source {source.name}")
        if source.mode is InterruptMode.BROADCAST:
            targets = range(self.n_cpus)
        elif source.mode is InterruptMode.MULTICAST:
            targets = sorted(source.multicast_cpus)
        elif source.mode is InterruptMode.BOOKED:
            targets = [source.booked_cpu]
        else:
            targets = None

        if targets is None:
            pending = PendingInterrupt(source, payload, raised_at=self.sim.now)
            self._distribute(pending, first_cpu=0)
        else:
            # Multicast/broadcast/booked: one pending entry per target,
            # no timeout re-routing (the target is fixed by design).
            for cpu in targets:
                pending = PendingInterrupt(
                    source, payload, raised_at=self.sim.now, offered_to=cpu
                )
                self._offers[cpu].append(pending)
                self._update_line(cpu)

    def send_ipi(self, from_cpu: int, to_cpu: int, payload: Any = None) -> None:
        """Inter-processor interrupt: fixed target, no re-routing."""
        if not 0 <= to_cpu < self.n_cpus:
            raise ValueError(f"ipi target {to_cpu} out of range")
        self.ipis_sent += 1
        source = self._ipi_source(from_cpu)
        pending = PendingInterrupt(source, payload, raised_at=self.sim.now, offered_to=to_cpu)
        if self._ipi_fault is not None and not self._apply_ipi_fault(pending, to_cpu):
            return
        self._offers[to_cpu].append(pending)
        self._update_line(to_cpu)

    # -------------------------------------------------------- fault injection
    def inject_ipi_fault(self, mode: str, until: int, arg: int = 0) -> None:
        """Arm an IPI delivery-fault window (transient-fault surface).

        Every IPI sent while ``sim.now <= until`` is affected:
        ``"drop"`` loses it, ``"duplicate"`` delivers it twice,
        ``"delay"`` defers delivery by ``arg`` cycles.  The window
        disarms itself on the first send past ``until``; only one
        window can be active at a time (last call wins).
        """
        if mode not in ("drop", "duplicate", "delay"):
            raise ValueError(f"unknown ipi fault mode {mode!r}")
        if mode == "delay" and arg <= 0:
            raise ValueError("delay faults need arg > 0 cycles")
        self._ipi_fault = (mode, until, arg)

    def _apply_ipi_fault(self, pending: PendingInterrupt, to_cpu: int) -> bool:
        """Apply the armed fault; returns True when normal delivery
        should still happen (window expired, or duplicate mode)."""
        mode, until, arg = self._ipi_fault
        if self.sim.now > until:
            self._ipi_fault = None
            return True
        if mode == "drop":
            self.ipis_dropped += 1
            return False
        if mode == "duplicate":
            self.ipis_duplicated += 1
            dup = PendingInterrupt(
                pending.source, pending.payload,
                raised_at=self.sim.now, offered_to=to_cpu,
            )
            self._offers[to_cpu].append(dup)
            return True
        # delay: enqueue after ``arg`` cycles instead of now.
        self.ipis_delayed += 1

        def deliver(pending=pending, to_cpu=to_cpu):
            self._offers[to_cpu].append(pending)
            self._update_line(to_cpu)

        self.sim.schedule(arg, deliver)
        return False

    _ipi_sources: Dict[int, InterruptSource] = None  # set lazily per instance

    def _ipi_source(self, from_cpu: int) -> InterruptSource:
        if self._ipi_sources is None:
            self._ipi_sources = {}
        if from_cpu not in self._ipi_sources:
            self._ipi_sources[from_cpu] = self.add_source(
                f"ipi-from-cpu{from_cpu}", mode=InterruptMode.BOOKED, booked_cpu=from_cpu
            )
        return self._ipi_sources[from_cpu]

    # -------------------------------------------------------- core-side access
    def set_enabled(self, cpu: int, enabled: bool) -> None:
        """Mirror of the core's interrupt-enable bit."""
        self._enabled[cpu] = enabled
        self._update_line(cpu)
        if enabled:
            self._retry_parked()

    def cpu_is_free(self, cpu: int) -> bool:
        """Free = reception enabled and not servicing an interrupt."""
        return self._enabled[cpu] and self._in_service[cpu] is None

    def acknowledge(self, cpu: int) -> Tuple[InterruptSource, Any]:
        """The core's handler claims the highest-pending offer.

        Models the OPB register read; returns (source, payload).
        Raises if nothing is pending (spurious interrupt).
        """
        if not self._offers[cpu]:
            raise RuntimeError(f"cpu {cpu}: spurious interrupt acknowledge")
        pending = self._offers[cpu].popleft()
        if pending.timeout_entry is not None:
            # Claimed: its ack timeout can no longer re-route it, so the
            # entry leaves the queue instead of running as a no-op.
            self.sim.withdraw(*pending.timeout_entry)
            pending.timeout_entry = None
        pending.delivered_at = self.sim.now
        self._in_service[cpu] = pending
        self.delivered += 1
        busy = sum(1 for entry in self._in_service if entry is not None)
        self.max_parallel_handlers = max(self.max_parallel_handlers, busy)
        if self.metrics is not None:
            latency = self.sim.now - pending.raised_at
            is_ipi = pending.source.name.startswith("ipi-from-cpu")
            (self._m_ipi_latency if is_ipi else self._m_latency).observe(latency)
            self.metrics.counter(
                "mpic_delivered_total",
                labels={"source": pending.source.name},
                help="interrupts delivered, by source",
            ).inc()
        self._update_line(cpu)
        return pending.source, pending.payload

    def complete(self, cpu: int) -> None:
        """End-of-interrupt: the cpu becomes free again."""
        if self._in_service[cpu] is None:
            raise RuntimeError(f"cpu {cpu}: EOI without in-service interrupt")
        self._in_service[cpu] = None
        self._update_line(cpu)
        self._retry_parked()

    def pending_for(self, cpu: int) -> int:
        """Offers currently asserted towards ``cpu`` (diagnostic)."""
        return len(self._offers[cpu])

    # ---------------------------------------------------------------- internals
    def _distribute(self, pending: PendingInterrupt, first_cpu: int) -> None:
        """Offer a distributed interrupt to the first free processor at
        or after ``first_cpu`` in the fixed priority order."""
        for cpu in list(range(first_cpu, self.n_cpus)) + list(range(0, first_cpu)):
            if self.cpu_is_free(cpu) and not self._offers[cpu]:
                pending.offered_to = cpu
                pending.attempts += 1
                self._offers[cpu].append(pending)
                self._update_line(cpu)
                self._arm_timeout(pending, cpu)
                return
        # Nobody free: park until a cpu completes.
        pending.offered_to = None
        self._parked.append(pending)

    def _arm_timeout(self, pending: PendingInterrupt, cpu: int) -> None:
        def on_timeout() -> None:
            pending.timeout_entry = None
            # Still sitting unclaimed in this cpu's offer queue?
            if pending.delivered_at is None and pending in self._offers[cpu]:
                self._offers[cpu].remove(pending)
                self._update_line(cpu)
                self.timeouts += 1
                if self._m_timeouts is not None:
                    self._m_timeouts.inc()
                self._distribute(pending, first_cpu=(cpu + 1) % self.n_cpus)

        at = self.sim.now + self.ack_timeout
        self.sim.schedule_at(at, on_timeout)
        pending.timeout_entry = (at, on_timeout)

    def _retry_parked(self) -> None:
        parked, self._parked = self._parked, deque()
        for pending in parked:
            self._distribute(pending, first_cpu=0)

    def _update_line(self, cpu: int) -> None:
        callback = self._line_callbacks[cpu]
        if callback is None:
            return
        asserted = bool(self._offers[cpu]) and self._enabled[cpu]
        callback(asserted)
