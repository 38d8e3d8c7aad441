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
  engine queue callbacks, so the caller resumes once per batch.
- ``bus.stats`` exposes the utilization counters that the closed-form
  wait model :func:`analytic_txn_wait` of the transaction-level rung
  (:mod:`repro.simulators.tlm`) is calibrated against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Tuple, Union

from repro.sim.engine import Simulator
from repro.sim.events import Event


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


class _Tenure:
    """One :meth:`OPBBus.transfer` batch moving through the arbiter.

    The batch's transactions advance as engine queue callbacks instead
    of generator resumes: the grant entry is :meth:`_arm` (which pushes
    the hold), every intermediate hold entry is :meth:`_complete`
    (hand-over, stats, next request) and the last hold entry is
    ``done``, the one event the calling process waits on.  Each entry
    sits at the instant, and in the insertion order, where the
    generator loop it replaces pushed its grant and hold, so schedules
    are unchanged.  Between other queue entries, :meth:`_complete`
    plays out the following grants and holds of every contending
    tenure itself and stands in for their entries (bus run-ahead); a
    lone tenure's or two alternating tenures' steady stretch it settles
    in one arithmetic step (bus epochs).  ``cancelled`` turns a stale
    grant or hold entry of an interrupted batch into a no-op.
    """

    __slots__ = ("bus", "master", "target", "latency", "left", "start",
                 "spent", "done", "cancelled", "_arm_cb", "_complete_cb")

    def __init__(self, bus: "OPBBus", master: int, target: BusTarget,
                 latency: int, count: int):
        self.bus = bus
        self.master = master
        self.target = target
        self.latency = latency
        self.left = count
        self.start = 0
        self.spent = 0
        self.done = Event(bus.sim)
        self.cancelled = False
        # Bound once: pushed into the queue once per transaction.
        self._arm_cb = self._arm
        self._complete_cb = self._complete

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

    def _arm(self) -> None:
        """Grant entry: hold the bus for one transaction's latency."""
        if self.cancelled:
            return
        self.left -= 1
        sim = self.bus.sim
        sim._push(sim.now + self.latency,
                  self._complete_cb if self.left else self.done)

    def _complete(self) -> None:
        """Intermediate hold entry: end the transaction, then run ahead."""
        if self.cancelled:
            return
        self._hold_end(self.bus.sim.horizon())

    def _hold_end(self, horizon: float) -> None:
        """End this tenure's transaction at ``now``; run ahead up to
        ``horizon``.

        Each pass is what the per-transaction model's hold entry did at
        ``now``: hand the bus to the head waiter (or free it), credit the
        transaction to ``BusStats``, and re-request if transactions are
        left.  That leaves at most one tenure's grant due at ``now`` (a
        ``stall`` handed the bus has its ``Event`` succeeded, as before,
        and ends the loop).  While ``now`` is before the horizon, that
        grant runs here, and while its hold also ends strictly before
        the horizon, so does the hold, as the next pass.  Nothing can
        interleave: every other entry lies at or past the horizon, and
        only processes and other entries push new ones.  Each entry
        stood in for still takes its insertion id, so the one real
        entry pushed on stopping (the grant, the next hold or the
        batch's ``done``) keeps the per-transaction model's tie order.

        Before the grant runs, a steady stretch is settled in one step
        (bus epochs): a tenure that re-took a free bus repeats
        wait-free transactions, and two tenures that lead every other
        waiter alternate, each waiting for the other's hold.  The step
        adds what its passes would have added and leaves the state the
        last of them would have left; the pass then carries on.

        The hold entry passes :meth:`Simulator.horizon`; the calling
        process, ending its batch, passes ``now``: no run-ahead.  The
        pass is written out in full, with no calls, because calls per
        transaction were what the arbitration cost.
        """
        bus = self.bus
        sim = bus.sim
        stats = bus.stats
        waits = stats.wait_cycles
        counts = stats.transactions_by_master
        per_target = stats.per_target
        waiting = bus._waiting
        tenure = self
        now = sim.now
        while True:
            granted = None
            if waiting:
                waiter = heapq.heappop(waiting)[2]
                bus._holder = waiter
                if isinstance(waiter, Event):
                    waiter.succeed()
                else:
                    granted = waiter
            else:
                bus._holder = None
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
            if tenure.left:
                tenure.start = now
                if bus._holder is None:
                    bus._holder = granted = tenure
                else:
                    bus._seq += 1
                    heapq.heappush(waiting, (master, bus._seq, tenure))
            if granted is None:
                return
            if now >= horizon:
                sim._push(now, granted._arm_cb)
                return
            if granted is tenure:
                # Alone on the bus: every transaction whose hold ends
                # before the horizon and is not the batch's last.
                steps = tenure.left - 1
                if now + steps * latency >= horizon:
                    steps = (horizon - now - 1) // latency
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
                # Alternation: the tenure heads the heap and every other
                # waiter has a greater master id than the granted one,
                # so each of the two is granted whenever the other's
                # hold ends; a round is one transaction of each.
                rounds = min(tenure.left, granted.left) - 1
                if (rounds > 0 and waiting[0][2] is tenure
                        and (len(waiting) < 2
                             or waiting[1][0] > granted.master)
                        and (len(waiting) < 3
                             or waiting[2][0] > granted.master)):
                    other = granted.latency
                    period = latency + other
                    if now + rounds * period >= horizon:
                        rounds = (horizon - now - 1) // period
                    if rounds > 0:
                        # The granted tenure's first wait runs from its
                        # request, every later one over a hold of ours.
                        wait = now - granted.start + (rounds - 1) * latency
                        stats.busy_cycles += rounds * period
                        stats.transactions += 2 * rounds
                        other_master = granted.master
                        waits[other_master] = waits.get(other_master, 0) + wait
                        counts[other_master] = (counts.get(other_master, 0)
                                                + rounds)
                        other_name = granted.target.name
                        per_target[other_name] = (per_target.get(other_name, 0)
                                                  + rounds * other)
                        waits[master] += rounds * other
                        counts[master] += rounds
                        per_target[name] += rounds * latency
                        granted.spent += wait + rounds * other
                        tenure.spent += rounds * period
                        granted.left -= rounds
                        tenure.left -= rounds
                        sim._eid += 4 * rounds
                        bus._seq += 2 * rounds
                        waiting[0] = (master, bus._seq, tenure)
                        now += rounds * period
                        sim.now = tenure.start = now
                        granted.start = now - latency
            sim._eid += 1  # the grant entry, run here
            end = now + granted.latency
            if granted.left == 1 or end >= horizon:
                granted._arm()
                return
            granted.left -= 1
            sim._eid += 1  # the hold entry, run here
            sim.now = now = end
            tenure = granted


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
    queue entries (grant, hold).  During bus run-ahead
    (:meth:`_Tenure._complete`) those entries are stood in for: played
    out in place, in order, each still taking its insertion id.  A
    stretch in which one tenure re-takes a free bus, or two tenures
    ahead of every other waiter alternate, is settled in one step that
    adds the same integers to ``stats`` and the same counts to the
    insertion ids and ``_seq`` as its transactions would (bus epochs).

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
        stats.
        """
        if count <= 0:
            return 0
        tenure = _Tenure(self, master, target, target.access_latency(words),
                         count)
        tenure._request()
        try:
            yield tenure.done
        except BaseException:
            tenure.cancelled = True
            self._release(tenure)
            raise
        tenure._hold_end(self.sim.now)
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

    def read_word(self, master: int, target, addr: int):
        """Generator: arbitrated single-word read returning the value."""
        yield from self.transfer(master, target, words=1)
        return target.read_word(addr)

    def write_word(self, master: int, target, addr: int, value: int):
        """Generator: arbitrated single-word write."""
        yield from self.transfer(master, target, words=1)
        target.write_word(addr, value)

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
