"""The shared On-chip Peripheral Bus (OPB) with fixed-priority arbitration.

Single-master-at-a-time: every shared-memory access, peripheral
register access and MPIC configuration access serialises here, which is
exactly the contention the paper measures against the theoretical
simulator.  Masters are granted in fixed priority order (lower cpu id
wins), FIFO among equal priorities.

Two usage styles:

- ``yield from bus.transfer(master, target, words, count)`` inside a
  :class:`~repro.sim.engine.Process` -- fine-grained, arbitrated;
  ``count`` back-to-back transactions form one tenure that advances as
  engine queue callbacks, so the caller resumes once per batch, or
  plays in place on a quiet bus (see :meth:`OPBBus.transfer`).  An
  execution segment of :meth:`repro.hw.microblaze.MicroBlaze.execute`
  re-arms one tenure chunk after chunk, and its caller resumes once.
- ``bus.credit(master, target, starts)`` for the transactions its
  master played in place on a quiet bus, before anything else can run
  (the block ISA interpreter's DDR accesses, settled once per window):
  stats only, no queue entries.
- ``bus.stats`` exposes the utilization counters that the closed-form
  wait model :func:`analytic_txn_wait` of the transaction-level rung
  (:mod:`repro.simulators.tlm`) is calibrated against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import itemgetter
from types import MethodType
from typing import Dict, List, Optional, Protocol, Tuple, Union

from repro.sim.engine import Simulator, push_only
from repro.sim.events import PENDING, TRIGGERED, Event


class BusTarget(Protocol):
    """Anything reachable over the bus: memories, device registers."""

    name: str

    def access_latency(self, words: int = 1) -> int:
        """Cycles the bus is held for a ``words``-beat transaction."""
        ...


@dataclass
class BusStats:
    """Aggregate bus accounting (per master and total)."""

    busy_cycles: int = 0
    transactions: int = 0
    wait_cycles: Dict[int, int] = field(default_factory=dict)
    transactions_by_master: Dict[int, int] = field(default_factory=dict)
    per_target: Dict[str, int] = field(default_factory=dict)
    stalls_injected: int = 0
    stall_cycles: int = 0

    def utilization(self, elapsed: int) -> float:
        """Fraction of elapsed cycles the bus was occupied."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / elapsed)

    def mean_wait(self, master: int) -> float:
        """Average grant delay in cycles seen by ``master``."""
        waits = self.wait_cycles.get(master, 0)
        count = self.transactions_by_master.get(master, 0)
        return waits / count if count else 0.0


#: Kinds of the entries the bus loop plays in place (see
#: :meth:`OPBBus._run_ahead`): a grant, an intermediate hold end, the
#: last hold end of a carried chunk, a carried chunk's lead-in end, and
#: an entry the loop stops at (an ``Event`` a process or stall waits on).
_ARM, _HOLD, _LAST, _LEAD, _STOP = range(5)


class _Tenure:
    """One batch of back-to-back transactions of one master.

    A batch advances as engine queue entries, not generator resumes: a
    grant entry :meth:`_arm` (which pushes the hold), an intermediate
    hold entry :meth:`_complete` (hand-over, stats, next request) and
    the last hold entry ``last``.  For :meth:`OPBBus.transfer`, ``last``
    is ``done``, the one event the calling process waits on, and the
    process credits that transaction itself (:meth:`_close`).  Each
    entry sits at the instant, and in the insertion order, where the
    per-transaction generator loop it replaces pushed its grant and
    hold, so schedules are unchanged.  Hold entries run the bus loop
    :meth:`OPBBus._run_ahead`, which plays the following entries in
    place (grants included) while nothing else can come first; a grant
    entry only pushes its hold, as running ahead from it measured no
    faster.  ``cancelled``
    turns a stale entry of an interrupted batch into a no-op.

    A tenure with an ``owner`` is re-armed chunk after chunk: it is the
    bus side of an execution segment of
    :meth:`repro.hw.microblaze.MicroBlaze.execute`.  It adds a lead-in
    entry (``_lead_cb``), its ``last`` is its chunk-end entry
    (``_last_cb``) until the final chunk, and ``owner._next(now)``
    credits the chunk that ended and sizes the next one, setting
    ``left`` and ``last`` and returning the lead-in length.  One class
    serves both, so the bus loop's attribute accesses stay monomorphic.
    """

    __slots__ = ("bus", "master", "target", "latency", "left", "start",
                 "spent", "done", "last", "cancelled", "owner", "_arm_cb",
                 "_complete_cb", "_lead_cb", "_last_cb")

    def __init__(self, bus: "OPBBus", master: int, target: BusTarget,
                 latency: int, count: int, owner=None):
        self.bus = bus
        self.master = master
        self.target = target
        self.latency = latency
        self.left = count
        self.start = 0
        self.spent = 0
        self.done = Event(bus.sim)
        self.last = self.done
        self.cancelled = False
        self.owner = owner
        # Bound once: pushed into the queue once per transaction, and
        # recognised by identity when the bus loop takes one back out.
        self._arm_cb = self._arm
        self._complete_cb = self._complete
        if owner is None:
            self._lead_cb = self._last_cb = None
        else:
            self._lead_cb = self._lead_in
            self._last_cb = self._chunk_end

    def _request(self) -> None:
        """Queue for the bus; on a free bus the grant is an ``_arm`` entry
        at ``now``, never elided (see :meth:`OPBBus._request`)."""
        bus = self.bus
        sim = bus.sim
        self.start = sim.now
        if bus._holder is None:
            bus._holder = self
            sim._push(sim.now, self._arm_cb)
        else:
            bus._seq += 1
            heapq.heappush(bus._waiting, (self.master, bus._seq, self))

    @push_only
    def _arm(self) -> None:
        """Grant entry: hold the bus for one transaction's latency."""
        if self.cancelled:
            return
        self.left -= 1
        sim = self.bus.sim
        sim._push(sim.now + self.latency,
                  self._complete_cb if self.left else self.last)

    def _complete(self) -> None:
        """Intermediate hold entry: end the transaction, then run ahead."""
        if not self.cancelled:
            self.bus._run_ahead(_HOLD, self)

    def _lead_in(self) -> None:
        """Lead-in entry: the chunk's local compute has run."""
        if not self.cancelled:
            self.bus._run_ahead(_LEAD, self)

    def _chunk_end(self) -> None:
        """Chunk-end entry: the last hold of a chunk that is not final."""
        if not self.cancelled:
            self.bus._run_ahead(_LAST, self)

    def _close(self) -> None:
        """The batch's last hold end, run by the process that waited on
        ``done``: hand the bus over and credit the transaction (the bus
        loop's pass, without running ahead)."""
        bus = self.bus
        bus._hand_over()
        stats = bus.stats
        latency = self.latency
        master = self.master
        elapsed = bus.sim.now - self.start
        stats.busy_cycles += latency
        stats.transactions += 1
        waits = stats.wait_cycles
        waits[master] = waits.get(master, 0) + elapsed - latency
        counts = stats.transactions_by_master
        counts[master] = counts.get(master, 0) + 1
        name = self.target.name
        stats.per_target[name] = stats.per_target.get(name, 0) + latency
        self.spent += elapsed


class OPBBus:
    """Fixed-priority arbitrated shared bus.

    The arbiter is a holder slot plus a heap of ``(priority, seq,
    waiter)`` entries.  A waiter is either a transfer's tenure, granted
    by pushing its arm callback, or a plain
    :class:`~repro.sim.events.Event` (``stall`` and the
    :meth:`_request`/:meth:`_release` primitives), granted by
    succeeding it.  Either way a grant is one queue entry at the grant
    instant -- pushed inside the request when the bus is free, inside
    the holder's hand-over otherwise -- and every transaction is two
    queue entries (grant, hold); an execution chunk adds its lead-in
    end.  The bus loop :meth:`_run_ahead`, run from those entries,
    stands in for the entries that follow: it plays them out in place,
    in ``(time, insertion id)`` order, across every core it carries from
    chunk to chunk, each entry still taking its insertion id, and queues
    what is pending when it stops.  A stretch in which one tenure
    re-takes a free bus, or two tenures ahead of every other waiter
    alternate, is settled in one step that adds the same integers to
    ``stats`` and the same counts to the insertion ids and ``_seq`` as
    its transactions would (bus epochs).

    Parameters
    ----------
    sim:
        The discrete-event simulator.
    name:
        Label for traces.
    """

    def __init__(self, sim: Simulator, name: str = "opb"):
        self.sim = sim
        self.name = name
        self._holder: Optional[Union[Event, _Tenure]] = None
        self._waiting: List[Tuple[int, int, Union[Event, _Tenure]]] = []
        self._seq = 0
        self.stats = BusStats()
        # Tenures of finished transfers, re-armed by later ones: nothing
        # refers to a tenure once its ``done`` has run and it is closed.
        self._spare: List[_Tenure] = []

    def _run_ahead(self, kind: int, tenure: _Tenure) -> None:
        """The bus loop, run from one dispatched entry of ours: play
        ``kind`` of ``tenure`` at ``now``, then every entry that comes
        next in ``(time, insertion id)`` order while that entry is ours.

        Entries stood in for are kept in ``pend`` as ``(time, eid, kind,
        tenure)``: each took its insertion id when the per-transaction,
        per-chunk model would have pushed it.  The next entry is the
        earlier of ``pend``'s first and the engine's queued head
        (:meth:`Simulator._head`); a queued entry wins a tie, because
        everything in ``pend`` was pushed after it.  A queued grant, hold,
        chunk-end or lead-in entry of this bus is taken out of the queue
        and played too; any other queued entry, a ``_STOP`` entry (the
        ``Event`` a process or stall waits on) or the run limit ends the
        loop.  Nothing is pushed into the queue while the loop runs, so
        no process, and no entry that is not ours, can run in between.
        On stopping, ``pend`` goes into the queue in insertion-id order,
        each entry under the id it took, behind every entry already
        queued (all older): the queue is the per-chunk model's.

        Playing an entry is what its callback did at ``now``:

        - a hold end (``_HOLD``, or ``_LAST`` for a segment's chunk)
          hands the bus to the head waiter (or frees it), credits the
          transaction to ``BusStats``, and re-requests if transactions
          are left;
        - a segment's chunk end (``_LAST``, or a ``_LEAD`` of a chunk
          without transactions) credits the chunk and starts the next
          one (``tenure.owner._next``): its lead-in entry, or its
          request;
        - a lead-in end (``_LEAD``) requests the bus;
        - a grant (``_ARM``) holds the bus for one latency.

        That leaves at most one grant due at ``now``.  It runs at once
        if nothing else is due at ``now`` (``now < bound``, the earliest
        pending or queued instant), and so does its hold end, as the
        next pass, if it ends before ``bound``.  Before the grant runs,
        a steady stretch is settled in one step (bus epochs): a tenure
        that re-took a free bus repeats wait-free transactions, and two
        tenures that lead every other waiter alternate, each waiting
        for the other's hold.  The step adds what its passes would have
        added, stops before ``bound`` and before either batch's last
        transaction, and leaves the state the last pass would have left.

        The pass is written out in full, with no calls, because calls per
        transaction were what the arbitration cost; and a loop that stops
        with only the entry it just took an id for pending queues it at
        once, as most loops end that way.
        """
        sim = self.sim
        stats = self.stats
        waits = stats.wait_cycles
        counts = stats.transactions_by_master
        per_target = stats.per_target
        waiting = self._waiting
        heappush = heapq.heappush
        pend: List[tuple] = []
        rt, ritem = sim._head()
        bound = rt
        now = sim.now
        while True:
            granted = None
            if tenure.cancelled:
                pass
            elif kind == _ARM:
                granted = tenure
            else:
                request = kind == _HOLD
                if kind != _LEAD:
                    if waiting:
                        waiter = heapq.heappop(waiting)[2]
                        self._holder = waiter
                        sim._eid += 1
                        if isinstance(waiter, Event):
                            # A stall's grant: its process runs next.
                            waiter._ok = True
                            waiter._state = TRIGGERED
                            heappush(pend, (now, sim._eid, _STOP, waiter))
                            bound = now
                        else:
                            granted = waiter
                            grant_eid = sim._eid
                    else:
                        self._holder = None
                    latency = tenure.latency
                    master = tenure.master
                    elapsed = now - tenure.start
                    stats.busy_cycles += latency
                    stats.transactions += 1
                    waits[master] = waits.get(master, 0) + elapsed - latency
                    counts[master] = counts.get(master, 0) + 1
                    name = tenure.target.name
                    per_target[name] = per_target.get(name, 0) + latency
                    tenure.spent += elapsed
                elif tenure.left:
                    request = True
                if kind != _HOLD and not request:
                    # The chunk ends: credit it, start the next one.
                    local = tenure.owner._next(now)
                    if local:
                        sim._eid += 1
                        at = now + local
                        if tenure.left or tenure.last is not tenure.done:
                            heappush(pend, (at, sim._eid, _LEAD, tenure))
                        else:  # a final chunk without transactions
                            heappush(pend, (at, sim._eid, _STOP, tenure.done))
                        if at < bound:
                            bound = at
                    else:
                        request = True
                if request:
                    tenure.start = now
                    if self._holder is None:
                        self._holder = granted = tenure
                        sim._eid += 1
                        grant_eid = sim._eid
                    else:
                        self._seq += 1
                        heappush(waiting, (tenure.master, self._seq, tenure))
                if granted is not None:
                    if now >= bound:
                        if not pend and (type(ritem) is not MethodType
                                         or not isinstance(ritem.__self__,
                                                           _Tenure)):
                            # The loop stops with this grant its only
                            # entry, the newest: queue it as such.
                            sim._eid -= 1
                            sim._push(now, granted._arm_cb)
                            return
                        heappush(pend, (now, grant_eid, _ARM, granted))
                        bound = now
                        granted = None
                    elif kind == _LEAD:
                        pass
                    elif granted is tenure:
                        # Alone on the bus: every transaction whose hold
                        # ends before the bound and is not the batch's last.
                        steps = tenure.left - 1
                        if now + steps * latency >= bound:
                            steps = (bound - now - 1) // latency
                        if steps > 0:
                            cycles = steps * latency
                            stats.busy_cycles += cycles
                            stats.transactions += steps
                            counts[master] += steps
                            per_target[name] += cycles
                            tenure.spent += cycles
                            tenure.left -= steps
                            sim._eid += 2 * steps
                            now += cycles
                            sim.now = tenure.start = now
                    else:
                        # Alternation: the tenure heads the heap and every
                        # other waiter has a greater master id than the
                        # granted one, so each of the two is granted
                        # whenever the other's hold ends; a round is one
                        # transaction of each.
                        rounds = min(tenure.left, granted.left) - 1
                        if (rounds > 0 and waiting and waiting[0][2] is tenure
                                and (len(waiting) < 2
                                     or waiting[1][0] > granted.master)
                                and (len(waiting) < 3
                                     or waiting[2][0] > granted.master)):
                            other = granted.latency
                            period = latency + other
                            if now + rounds * period >= bound:
                                rounds = (bound - now - 1) // period
                            if rounds > 0:
                                # The granted tenure's first wait runs from
                                # its request, every later one over a hold
                                # of ours.
                                wait = now - granted.start + (rounds - 1) * latency
                                stats.busy_cycles += rounds * period
                                stats.transactions += 2 * rounds
                                other_master = granted.master
                                waits[other_master] = (waits.get(other_master, 0)
                                                       + wait)
                                counts[other_master] = (
                                    counts.get(other_master, 0) + rounds)
                                other_name = granted.target.name
                                per_target[other_name] = (
                                    per_target.get(other_name, 0)
                                    + rounds * other)
                                waits[master] += rounds * other
                                counts[master] += rounds
                                per_target[name] += rounds * latency
                                granted.spent += wait + rounds * other
                                tenure.spent += rounds * period
                                granted.left -= rounds
                                tenure.left -= rounds
                                sim._eid += 4 * rounds
                                self._seq += 2 * rounds
                                waiting[0] = (master, self._seq, tenure)
                                now += rounds * period
                                sim.now = tenure.start = now
                                granted.start = now - latency
            if granted is not None:
                # The grant runs here: hold the bus for one transaction.
                left = granted.left - 1
                granted.left = left
                end = now + granted.latency
                if left:
                    kind = _HOLD
                elif granted.last is granted.done:
                    kind = _STOP
                else:
                    kind = _LAST
                if end < bound and kind != _STOP:
                    sim._eid += 1
                    sim.now = now = end
                    tenure = granted
                    continue
                if not pend and (end < rt or type(ritem) is not MethodType
                                 or not isinstance(ritem.__self__, _Tenure)):
                    # The loop stops with this hold its only entry.
                    sim._push(end, granted._complete_cb if kind == _HOLD
                              else granted.last)
                    return
                sim._eid += 1
                heappush(pend, (end, sim._eid, kind,
                                granted.done if kind == _STOP else granted))
                if end < bound:
                    bound = end
            # The next entry: a pending one, or a queued one of ours.
            if pend:
                entry = pend[0]
                if entry[0] < rt:
                    if entry[2] == _STOP:
                        break
                    heapq.heappop(pend)
                    now, _eid, kind, tenure = entry
                    sim.now = now
                    bound = pend[0][0] if pend and pend[0][0] < rt else rt
                    continue
            if ritem is None or type(ritem) is not MethodType:
                break
            tenure = ritem.__self__
            if not isinstance(tenure, _Tenure) or tenure.bus is not self:
                break
            if ritem is tenure._arm_cb:
                kind = _ARM
            elif ritem is tenure._complete_cb:
                kind = _HOLD
            elif ritem is tenure._last_cb:
                kind = _LAST
            else:
                kind = _LEAD
            sim.now = now = rt
            sim._pop_head()
            rt, ritem = sim._head()
            bound = pend[0][0] if pend and pend[0][0] < rt else rt
        if pend:
            # Back into the queue, each under the id it took (``_push``
            # takes ``_eid + 1``), in id order.
            if len(pend) > 1:
                pend.sort(key=itemgetter(1))
            taken = sim._eid
            push = sim._push
            for time, eid, kind, obj in pend:
                sim._eid = eid - 1
                if kind == _ARM:
                    push(time, obj._arm_cb)
                elif kind == _HOLD:
                    push(time, obj._complete_cb)
                elif kind == _LAST:
                    push(time, obj._last_cb)
                elif kind == _LEAD:
                    push(time, obj._lead_cb)
                else:
                    push(time, obj)
            sim._eid = taken

    def _request(self, priority: int) -> Event:
        """Grant event for one tenure, queued in (priority, arrival) order.

        The grant is never elided on a free bus: its queue entry at
        ``now`` keeps the hold timeout behind every entry already due at
        the grant instant, exactly where a queued master's grant lands.
        """
        grant = Event(self.sim)
        if self._holder is None:
            self._holder = grant
            grant.succeed()
        else:
            self._seq += 1
            heapq.heappush(self._waiting, (priority, self._seq, grant))
        return grant

    def _hand_over(self) -> None:
        """Grant the bus to the head waiter, or free it."""
        waiting = self._waiting
        if waiting:
            waiter = heapq.heappop(waiting)[2]
            self._holder = waiter
            if isinstance(waiter, Event):
                waiter.succeed()
            else:
                sim = self.sim
                sim._push(sim.now, waiter._arm_cb)
        else:
            self._holder = None

    def _release(self, grant: Union[Event, _Tenure]) -> None:
        """End a tenure (or cancel a queued one) and grant the next waiter."""
        if self._holder is grant:
            self._hand_over()
            return
        waiting = self._waiting
        for index, entry in enumerate(waiting):
            if entry[2] is grant:
                del waiting[index]
                heapq.heapify(waiting)
                return
        raise RuntimeError("release of a grant this bus never issued")

    def credit(self, master: int, target: BusTarget, starts: List[int],
               words: int = 1) -> int:
        """Account the transactions its master played in place, one per
        request instant in ``starts``.

        The caller found the bus quiet (no holder, no waiter) and each
        transaction over before anything else can run
        (:meth:`repro.sim.engine.Simulator.horizon`), so each is granted
        at its request and the stats gain what :meth:`transfer` would
        credit, with no wait.  ``starts`` is not empty.  Returns the hold
        latency of one transaction.
        """
        latency = target.access_latency(words)
        count = len(starts)
        spent = count * latency
        stats = self.stats
        stats.busy_cycles += spent
        stats.transactions += count
        waits = stats.wait_cycles
        waits[master] = waits.get(master, 0)
        counts = stats.transactions_by_master
        counts[master] = counts.get(master, 0) + count
        name = target.name
        stats.per_target[name] = stats.per_target.get(name, 0) + spent
        return latency

    def transfer(self, master: int, target: BusTarget, words: int = 1,
                 count: int = 1):
        """Generator: ``count`` back-to-back arbitrated transactions.

        Each transaction requests the bus, holds it for the target's
        ``words``-beat latency and releases it, exactly as ``count``
        separate calls would.  The transactions run as queue callbacks
        of one tenure, so the calling process waits on a single event
        and resumes once per batch, when the last hold ends.  Yields
        inside a Process and returns the total cycles spent (waiting +
        transferring); ``count <= 0`` returns 0 without yielding.

        An interrupt thrown into the caller mid-batch releases the bus
        (or leaves the queue); the abandoned cycles are charged to the
        interrupt latency, and only completed transactions reach the
        stats.  A batch that completed leaves its tenure to be re-armed
        by a later call.

        On a quiet bus, in a process that may play in place (see
        :meth:`repro.sim.engine.Simulator.sleep`), a batch that ends
        strictly before anything else could be dispatched plays in
        place: it is credited with no wait, takes the ``2 * count``
        insertion ids of its grants and holds, and returns without
        yielding.
        """
        if count <= 0:
            return 0
        sim = self.sim
        latency = target.access_latency(words)
        grant_eid = 0
        if (sim._inplace and not sim._stopped and self._holder is None
                and not self._waiting):
            # The first grant's id comes before what push-only entries
            # due at ``now`` push.
            sim._eid += 1
            grant_eid = sim._eid
            spent = count * latency
            if sim.now + spent < sim._head_past_push_only():
                stats = self.stats
                stats.busy_cycles += spent
                stats.transactions += count
                waits = stats.wait_cycles
                waits[master] = waits.get(master, 0)
                counts = stats.transactions_by_master
                counts[master] = counts.get(master, 0) + count
                name = target.name
                stats.per_target[name] = stats.per_target.get(name, 0) + spent
                sim._eid += 2 * count - 1
                sim.now += spent
                return spent
        spare = self._spare
        if spare:
            tenure = spare.pop()
            tenure.master = master
            tenure.target = target
            tenure.latency = latency
            tenure.left = count
            tenure.spent = 0
            tenure.done._state = PENDING
        else:
            tenure = _Tenure(self, master, target, latency, count)
        if grant_eid:
            sim._push_as(grant_eid, tenure._request)
        else:
            tenure._request()
        try:
            yield tenure.done
        except BaseException:
            # Its stale entries may still be queued: never re-armed.
            tenure.cancelled = True
            self._release(tenure)
            raise
        tenure._close()
        spare.append(tenure)
        return tenure.spent

    def stream(self, master: int, target: BusTarget, words: int, burst: int):
        """Generator: move ``words`` words as full ``burst``-word
        transactions plus one remainder; returns the cycles spent."""
        full, rest = divmod(max(0, words), burst)
        spent = 0
        if full:
            spent += yield from self.transfer(master, target, burst, full)
        if rest:
            spent += yield from self.transfer(master, target, rest)
        return spent

    #: Arbitration priority of injected stalls: beats every real master
    #: (lower wins), modelling a glitching device that hogs grant.
    STALL_PRIORITY = -1

    def stall(self, cycles: int):
        """Generator: transient-fault surface -- occupy the bus.

        Run inside a ``sim.process``; grabs the arbiter at a priority
        above every master and holds it for ``cycles``, so real
        transfers queue behind the burst exactly as behind a misbehaving
        peripheral.  Accounted separately from useful traffic in
        ``stats.stall_cycles``.
        """
        if cycles <= 0:
            raise ValueError("stall cycles must be positive")
        grant = self._request(self.STALL_PRIORITY)
        try:
            yield grant
            yield self.sim.timeout(cycles)
        finally:
            self._release(grant)
        self.stats.busy_cycles += cycles
        self.stats.stalls_injected += 1
        self.stats.stall_cycles += cycles

    @property
    def queue_length(self) -> int:
        """Masters currently waiting for grant (diagnostic)."""
        return len(self._waiting)

    @property
    def busy(self) -> bool:
        return self._holder is not None


def analytic_txn_wait(
    shares: List[float],
    latencies: List[float],
    master: int,
    gain: float = 1.0,
    skew: float = 0.0,
) -> float:
    """Expected arbitration wait per transaction, in cycles.

    Closed-form stand-in for the arbiter above, used by the
    transaction-level simulator (:mod:`repro.simulators.tlm`) where
    individual transfers are folded into timed blocks:

        wait = gain * R * (1 + R) * mean(other latencies),

    where ``R`` is the combined duty cycle (``latency/period`` share)
    of the *other* masters.  The linear term is the classic
    mean-residual collision cost -- the chance some other master
    occupies the bus on arrival times its mean remaining service; the
    quadratic term models queue buildup as the bus approaches and
    passes saturation.  Unlike an M/G/1 ``R/(1-R)`` pole this stays
    finite for R >= 1, which matters here: the automotive profiles
    carry per-core duty cycles of 0.2-0.75, so three concurrent cores
    routinely push combined demand past 1 and the observed effect is a
    graceful slide into bus-limited progress (per-core stretch 1.1-1.8
    in prototype measurements), not a divergence.  ``gain`` is the
    calibration knob fitted against prototype runs
    (``repro-perf calibrate-tlm``); it absorbs burst clustering (cores
    issue their chunk's transactions back to back).

    ``skew`` models the fixed-priority order of the real arbiter
    (lower cpu id wins): the wait is tilted linearly across the active
    masters, ``(1 - skew)`` at the highest-priority one through
    ``(1 + skew)`` at the lowest, keeping the mean wait unchanged.
    Prototype measurements show the effect is strong -- per-core
    stretch spans 1.16 to 1.80 on a loaded 4-cpu cell -- and it shapes
    per-task response times directly because promoted tasks execute
    pinned to their home processor.

    ``shares``/``latencies`` carry one entry per master (0.0 for idle
    processors); entries are order-aligned with cpu ids.
    """
    if gain < 0:
        raise ValueError("gain must be non-negative")
    if not 0.0 <= skew <= 1.0:
        raise ValueError("skew must be in [0, 1]")
    others = [
        (share, latency)
        for cpu, (share, latency) in enumerate(zip(shares, latencies))
        if cpu != master and share > 0.0
    ]
    if not others:
        return 0.0
    load = sum(share for share, _ in others)
    mean_latency = sum(latency for _, latency in others) / len(others)
    wait = gain * load * (1.0 + load) * mean_latency
    if skew:
        active = sorted(
            cpu for cpu, share in enumerate(shares)
            if share > 0.0 or cpu == master
        )
        if len(active) > 1:
            rank = active.index(master)
            wait *= 1.0 + skew * (2.0 * rank / (len(active) - 1) - 1.0)
    return wait


def analytic_txn_waits(
    shares: List[float],
    latencies: List[float],
    gain: float = 1.0,
    skew: float = 0.0,
) -> List[float]:
    """Per-master analytic waits for every master in one pass.

    Semantically :func:`analytic_txn_wait` evaluated at each master,
    but the shared sums are computed once -- this is the TLM hot path
    (one call per distinct running set).  The per-master loads are
    derived by subtracting the master's own contribution from the
    totals, which can differ from the scalar function's direct
    summation by a final-ulp rounding; the calibration is run against
    this function, so the fitted residual covers it.
    """
    if gain < 0:
        raise ValueError("gain must be non-negative")
    if not 0.0 <= skew <= 1.0:
        raise ValueError("skew must be in [0, 1]")
    n = len(shares)
    active = []
    total_share = 0.0
    total_latency = 0.0
    for cpu in range(n):
        share = shares[cpu]
        if share > 0.0:
            active.append(cpu)
            total_share += share
            total_latency += latencies[cpu]
    waits = [0.0] * n
    for master in range(n):
        if shares[master] > 0.0:
            k_others = len(active) - 1
            load = total_share - shares[master]
            latency_sum = total_latency - latencies[master]
        else:
            k_others = len(active)
            load = total_share
            latency_sum = total_latency
        if k_others <= 0 or load <= 0.0:
            continue
        wait = gain * load * (1.0 + load) * (latency_sum / k_others)
        if skew:
            group = active if shares[master] > 0.0 else sorted(active + [master])
            if len(group) > 1:
                rank = group.index(master)
                wait *= 1.0 + skew * (2.0 * rank / (len(group) - 1) - 1.0)
        waits[master] = wait
    return waits


@dataclass
class RegisterTarget:
    """A simple device register block on the bus (e.g. MPIC registers).

    Register accesses on the OPB cost a few cycles; the paper's MPIC is
    configured and acknowledged through such accesses under mutual
    exclusion ("controller management is sequential").
    """

    name: str
    latency: int = 3

    def access_latency(self, words: int = 1) -> int:
        return self.latency * words
