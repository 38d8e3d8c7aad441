"""Tests for OPB bus arbitration and accounting."""

from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.bus import BusStats, OPBBus, RegisterTarget
from repro.hw.memory import DDRMemory
from repro.sim import Interrupt, Simulator
from repro.sim.engine import Process
from tests.hw.reference_bus import ReferenceBus


def setup():
    sim = Simulator()
    bus = OPBBus(sim)
    ddr = DDRMemory()
    return sim, bus, ddr


def test_single_transfer_takes_target_latency():
    sim, bus, ddr = setup()
    done = []

    def master():
        spent = yield from bus.transfer(0, ddr, words=1)
        done.append((sim.now, spent))

    sim.process(master())
    sim.run()
    assert done == [(12, 12)]


def test_transfers_serialise():
    sim, bus, ddr = setup()
    times = []

    def master(mid):
        yield from bus.transfer(mid, ddr, words=1)
        times.append((mid, sim.now))

    sim.process(master(0))
    sim.process(master(1))
    sim.run()
    assert times == [(0, 12), (1, 24)]


def test_fixed_priority_lower_master_wins():
    sim, bus, ddr = setup()
    order = []

    def hold_then_spawn():
        # Occupy the bus, then let two masters contend.
        req_gen = bus.transfer(9, ddr, words=1)
        yield from req_gen
        order.append("held")

    def master(mid):
        yield sim.timeout(1)  # both request while bus is held
        yield from bus.transfer(mid, ddr, words=1)
        order.append(mid)

    sim.process(hold_then_spawn())
    sim.process(master(3))
    sim.process(master(1))
    sim.run()
    assert order == ["held", 1, 3]


def test_stats_accounting():
    sim, bus, ddr = setup()

    def master(mid):
        yield from bus.transfer(mid, ddr, words=2)

    sim.process(master(0))
    sim.process(master(1))
    sim.run()
    assert bus.stats.transactions == 2
    assert bus.stats.busy_cycles == 2 * 14
    assert bus.stats.utilization(sim.now) == 1.0
    assert bus.stats.wait_cycles[1] == 14
    assert bus.stats.mean_wait(1) == 14
    assert bus.stats.mean_wait(5) == 0.0
    assert bus.stats.per_target["ddr"] == 28


@pytest.mark.parametrize("words", [1, 2, 8])
def test_credit_accounts_as_a_transfer_on_a_quiet_bus(words):
    """Transactions played in place credit the stats exactly as the same
    transfers, one after another on a free bus, do, and queue nothing."""
    sim, bus, ddr = setup()

    def master():
        for _ in range(3):
            yield from bus.transfer(3, ddr, words=words)

    sim.process(master())
    sim.run()
    played = OPBBus(Simulator())
    eid = played.sim._eid
    latency = ddr.access_latency(words)
    starts = [40, 40 + latency, 40 + 2 * latency]
    assert played.credit(3, ddr, starts, words=words) == latency
    assert asdict(played.stats) == asdict(bus.stats)
    assert played.sim._eid == eid and played._holder is None


_CREDITS = st.lists(st.tuples(
    st.integers(0, 3), st.sampled_from(["ddr", "regs"]), st.integers(1, 8),
    st.lists(st.integers(0, 10_000), min_size=1, max_size=6)), max_size=8)


@settings(max_examples=100, deadline=None)
@given(credits=_CREDITS)
def test_batched_credit_adds_what_single_credits_add(credits):
    """One ``credit`` of a batch of request instants adds to the stats
    what one ``credit`` per instant adds."""
    targets = {"ddr": DDRMemory(), "regs": RegisterTarget("regs", 3)}
    single, batched = OPBBus(Simulator()), OPBBus(Simulator())
    for master, name, words, starts in credits:
        target = targets[name]
        latency = target.access_latency(words)
        for start in starts:
            assert single.credit(master, target, [start], words) == latency
        assert batched.credit(master, target, starts, words) == latency
    assert asdict(batched.stats) == asdict(single.stats)


def test_interrupted_holder_releases_bus():
    """The regression behind the first kernel deadlock."""
    sim, bus, ddr = setup()
    completions = []

    def victim():
        try:
            yield from bus.transfer(0, ddr, words=8)
        except Interrupt:
            pass
        # do not touch the bus again

    def bystander():
        yield sim.timeout(2)
        yield from bus.transfer(1, ddr, words=1)
        completions.append(sim.now)

    proc = sim.process(victim())
    sim.process(bystander())
    sim.schedule(5, lambda: proc.interrupt("irq"))
    sim.run()
    assert completions and completions[0] < 30
    assert not bus.busy


def test_register_target_latency():
    reg = RegisterTarget(name="dev", latency=3)
    assert reg.access_latency(1) == 3
    assert reg.access_latency(2) == 6


# -- arbitration ------------------------------------------------------------
def hold_then(sim, bus, ddr, spawn):
    """Process: take the free bus as master 0 for an 8-word transaction;
    the contenders ``spawn`` creates start, and queue, after the grant."""

    def holder():
        tenure = bus.transfer(0, ddr, words=8)
        spawn()
        yield from tenure

    return sim.process(holder())


def test_free_bus_grants_at_request_instant():
    sim, bus, ddr = setup()
    granted = []

    def master():
        yield sim.timeout(7)
        yield from bus.transfer(2, ddr, words=1)
        granted.append(sim.now)

    sim.process(master())
    sim.run()
    assert granted == [7 + ddr.access_latency(1)]
    assert bus.stats.wait_cycles[2] == 0


def test_arbiter_grants_in_priority_order():
    sim, bus, ddr = setup()
    order = []

    def user(mid):
        yield from bus.transfer(mid, ddr, words=1)
        order.append(mid)

    hold_then(sim, bus, ddr, lambda: [sim.process(user(m)) for m in (5, 1, 3)])
    sim.run()
    assert order == [1, 3, 5]


def test_arbiter_fifo_among_equal_priorities():
    sim, bus, ddr = setup()
    order = []

    def user(tag):
        yield from bus.transfer(1, ddr, words=1)
        order.append((tag, sim.now))

    hold_then(sim, bus, ddr, lambda: [sim.process(user(t)) for t in "abc"])
    sim.run()
    hold, one = ddr.access_latency(8), ddr.access_latency(1)
    assert order == [("a", hold + one), ("b", hold + 2 * one), ("c", hold + 3 * one)]
    assert bus.stats.wait_cycles[1] == hold * 3 + one * 3


def test_cancel_while_waiting_leaves_queue():
    sim, bus, ddr = setup()
    order = []

    def waiter(mid):
        try:
            yield from bus.transfer(mid, ddr, words=1)
            order.append(mid)
        except Interrupt:
            order.append(("cancelled", mid, bus.queue_length))

    procs = {}
    hold_then(sim, bus, ddr,
              lambda: procs.update({m: sim.process(waiter(m)) for m in (1, 2)}))
    sim.schedule(3, lambda: procs[1].interrupt("irq"))
    sim.run()
    # Master 1 left the queue (only master 2 still waits); master 2 is
    # granted right after the holder and the cancelled tenure is never
    # counted.
    assert order == [("cancelled", 1, 1), 2]
    assert bus.stats.transactions == 2
    assert 1 not in bus.stats.transactions_by_master
    assert not bus.busy and bus.queue_length == 0


def test_release_of_unknown_grant_raises():
    sim, bus, _ddr = setup()
    other = OPBBus(sim)
    with pytest.raises(RuntimeError):
        bus._release(other._request(0))


def test_stall_beats_queued_masters():
    sim, bus, ddr = setup()
    order = []

    def user(mid):
        yield from bus.transfer(mid, ddr, words=1)
        order.append(mid)

    def stall():
        yield from bus.stall(5)
        order.append("stall")

    def spawn():
        sim.process(user(0))
        sim.process(user(1))
        sim.process(stall())

    hold_then(sim, bus, ddr, spawn)
    sim.run()
    assert order == ["stall", 0, 1]
    assert bus.stats.stalls_injected == 1
    assert bus.stats.busy_cycles == ddr.access_latency(8) + 5 + 2 * ddr.access_latency(1)


# -- batched transfers ------------------------------------------------------
def test_batched_transfer_returns_total_cycles():
    sim, bus, ddr = setup()
    spent = []

    def master():
        spent.append((yield from bus.transfer(0, ddr, words=4, count=3)))

    sim.process(master())
    sim.run()
    assert spent == [3 * ddr.access_latency(4)] == [sim.now]
    assert bus.stats.transactions == 3
    assert bus.stats.transactions_by_master[0] == 3


def count_resumes(monkeypatch, sim):
    """The instants at which any process resumes, from now on."""
    resumes = []
    resume = Process._resume

    def counting(self, event, throw=None):
        resumes.append(sim.now)
        return resume(self, event, throw)

    monkeypatch.setattr(Process, "_resume", counting)
    return resumes


@pytest.mark.parametrize("foreign", [False, True], ids=["quiet", "foreign"])
def test_batch_resumes_caller_once(monkeypatch, foreign):
    """On a quiet bus a batch that ends before anything else is due plays
    in place: the caller never yields.  With a foreign entry due mid-batch
    its transactions run as queue callbacks and the caller wakes once,
    when the last hold ends, not per grant and hold."""
    sim, bus, ddr = setup()
    resumes = count_resumes(monkeypatch, sim)
    end = 50 * ddr.access_latency(1)
    if foreign:
        sim.schedule(end // 2, lambda: None)

    def master():
        spent = yield from bus.transfer(0, ddr, words=1, count=50)
        assert spent == sim.now

    sim.process(master())
    sim.run()
    # The process start, then (behind a foreign entry) the single wake-up.
    assert resumes == ([0, end] if foreign else [0])
    assert bus.stats.transactions == 50
    # The start, two entries per transaction, the process's finish.
    assert sim._eid == 2 + 2 * 50 + foreign


def run_cancelled_before_grant(bus_cls, queued):
    """Interrupt master 1 at its grant instant, before its grant entry
    runs: on an idle bus at its request (``queued=False``), or when
    master 0's release hands it the bus while master 2 waits behind it
    (``queued=True``).  Returns (sim, bus, log)."""
    sim = Simulator()
    bus = bus_cls(sim)
    ddr = DDRMemory()
    latency = ddr.access_latency(1)
    grant_at = latency if queued else 5
    log = []

    def master(mid, delay, count):
        try:
            yield sim.timeout(delay)
            yield from bus.transfer(mid, ddr, words=1, count=count)
            log.append((mid, sim.now))
        except Interrupt:
            log.append((mid, sim.now, "irq", bus.busy, bus.queue_length))

    # Scheduled first, so its delivery entry at ``grant_at`` is queued
    # before the grant entry the request (or hand-over) pushes.
    sim.schedule_at(grant_at, lambda: victim.interrupt("irq"))
    if queued:
        sim.process(master(0, 0, 1))
        victim = sim.process(master(1, 1, 4))
        sim.process(master(2, 2, 1))
    else:
        victim = sim.process(master(1, grant_at, 4))
    sim.run()
    return sim, bus, log


@pytest.mark.parametrize("queued", [False, True], ids=["idle", "handed-over"])
def test_interrupt_before_grant_entry_cancels_tenure(queued):
    sim, bus, log = run_cancelled_before_grant(OPBBus, queued)
    ref_sim, ref, ref_log = run_cancelled_before_grant(ReferenceBus, queued)
    latency = DDRMemory().access_latency(1)
    if queued:
        # The bus went straight on to master 2 at the cancelled grant.
        assert log == [(0, latency), (1, latency, "irq", True, 0),
                       (2, 2 * latency)]
        assert 1 not in bus.stats.transactions_by_master
    else:
        assert log == [(1, 5, "irq", False, 0)]
        assert asdict(bus.stats) == asdict(BusStats())
    # No hold entry was pushed for the cancelled grant.
    assert log == ref_log
    assert sim._eid == ref_sim._eid
    assert asdict(bus.stats) == asdict(ref.stats)
    assert not bus.busy and bus.queue_length == 0


def test_zero_count_transfer_is_free():
    """``count=0`` returns 0 without yielding or touching the queue."""
    sim, bus, ddr = setup()
    with pytest.raises(StopIteration) as stop:
        next(bus.transfer(0, ddr, count=0))
    assert stop.value.value == 0
    assert sim._eid == 0
    assert bus.stats.transactions == 0 and not bus.busy


@pytest.mark.parametrize("words, shape", [
    (0, []), (5, [5]), (8, [8]), (21, [8, 8, 5]), (32, [8, 8, 8, 8]),
])
def test_stream_full_bursts_then_remainder(words, shape):
    sim, bus, ddr = setup()

    def master():
        spent = yield from bus.stream(0, ddr, words, 8)
        assert spent == sim.now

    sim.process(master())
    sim.run()
    assert bus.stats.transactions == len(shape)
    assert bus.stats.busy_cycles == sum(ddr.access_latency(w) for w in shape)


def test_free_bus_grant_is_a_queue_entry():
    """A grant on a free bus still passes through the event queue.

    Master 1 takes the free bus at t=0; master 0, started just after it,
    sleeps exactly one transaction latency before requesting.  Because
    master 1's hold timeout is only armed once its grant entry is
    processed, master 0's wake-up is queued first at the release
    instant, so master 0 is waiting when master 1 releases and beats
    master 1's next transaction.  Arming the hold timeout on the spot
    would let master 1 release and re-grab the bus first.
    """
    sim, bus, ddr = setup()
    latency = ddr.access_latency(1)

    def batch():
        yield from bus.transfer(1, ddr, words=1, count=2)

    def late():
        yield sim.timeout(latency)
        yield from bus.transfer(0, ddr, words=1)

    sim.process(batch())
    sim.process(late())
    sim.run()
    assert bus.stats.wait_cycles == {1: latency, 0: 0}
    assert sim.now == 3 * latency
