"""Property-based invariants of the OPB arbitration (hypothesis)."""

from dataclasses import asdict

from hypothesis import given, settings, strategies as st

from repro.hw.bus import OPBBus
from repro.hw.memory import DDRMemory
from repro.sim import Interrupt, Simulator
from tests.hw.reference_bus import ReferenceBus


@settings(max_examples=40, deadline=None)
@given(
    plan=st.lists(
        st.tuples(
            st.integers(0, 3),     # master id
            st.integers(0, 200),   # start delay
            st.integers(1, 8),     # words
            st.integers(1, 5),     # transactions
        ),
        min_size=1,
        max_size=6,
    )
)
def test_bus_work_conservation(plan):
    """Whatever the request pattern: every transaction completes, the
    busy time equals the sum of transaction latencies, and the bus is
    idle at the end."""
    sim = Simulator()
    bus = OPBBus(sim)
    ddr = DDRMemory()
    expected_busy = 0
    expected_txn = 0
    completions = []

    def master(mid, delay, words, count):
        yield sim.timeout(delay)
        for _ in range(count):
            yield from bus.transfer(mid, ddr, words=words)
        completions.append(mid)

    for mid, delay, words, count in plan:
        expected_busy += ddr.access_latency(words) * count
        expected_txn += count
        sim.process(master(mid, delay, words, count))
    sim.run()

    assert len(completions) == len(plan)
    assert bus.stats.transactions == expected_txn
    assert bus.stats.busy_cycles == expected_busy
    assert not bus.busy
    assert bus.queue_length == 0
    # Total elapsed covers at least the serialised busy time.
    assert sim.now >= expected_busy


@settings(max_examples=40, deadline=None)
@given(
    delays=st.lists(st.integers(0, 500), min_size=2, max_size=20),
)
def test_event_time_monotonicity(delays):
    """Observed callback times never decrease, whatever the schedule."""
    sim = Simulator()
    observed = []
    for delay in delays:
        sim.schedule(delay, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)
    assert sim.now == max(delays)


@settings(max_examples=30, deadline=None)
@given(
    holds=st.lists(st.integers(1, 50), min_size=2, max_size=8),
)
def test_fixed_priority_never_inverts_simultaneous_requests(holds):
    """When all masters request at t=0, grants follow master id order."""
    sim = Simulator()
    bus = OPBBus(sim)
    ddr = DDRMemory()
    order = []

    def master(mid, words):
        yield from bus.transfer(mid, ddr, words=words)
        order.append(mid)

    for mid, words in enumerate(holds):
        sim.process(master(mid, min(8, words)))
    sim.run()
    assert order == sorted(order)


#: One plan entry: (master, start delay, transactions, interrupt instant).
PLAN = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 200),
        st.integers(1, 6),
        st.one_of(st.none(), st.integers(0, 500)),
    ),
    min_size=1,
    max_size=7,
)
#: Burst length per master id, so a tenure's latency follows from its
#: priority alone.
WORDS = st.lists(st.integers(1, 8), min_size=4, max_size=4)
#: Injected bus stalls: (start instant, cycles).
STALLS = st.lists(st.tuples(st.integers(0, 300), st.integers(1, 40)), max_size=2)


def run_plan(bus_cls, plan, words, stalls=()):
    """Run ``plan`` (and ``stalls``) on a fresh ``bus_cls``; returns
    (sim, bus, finishes), finishes in the order they happened."""
    sim = Simulator()
    bus = bus_cls(sim)
    ddr = DDRMemory()
    finishes = []

    def master(index, mid, delay, count):
        try:
            yield sim.timeout(delay)
            spent = yield from bus.transfer(mid, ddr, words=words[mid], count=count)
            finishes.append((index, sim.now, spent))
        except Interrupt:
            finishes.append((index, sim.now, "irq"))

    def stall(index, start, cycles):
        yield sim.timeout(start)
        yield from bus.stall(cycles)
        finishes.append((len(plan) + index, sim.now, "stall"))

    for index, (start, cycles) in enumerate(stalls):
        sim.process(stall(index, start, cycles))
    for index, (mid, delay, count, irq_at) in enumerate(plan):
        proc = sim.process(master(index, mid, delay, count))
        if irq_at is not None:
            sim.schedule_at(irq_at, lambda proc=proc: proc.is_alive
                            and proc.interrupt("irq"))
    sim.run()
    return sim, bus, finishes


@settings(max_examples=80, deadline=None)
@given(plan=PLAN, words=WORDS, stalls=STALLS)
def test_batched_bus_matches_reference_arbiter(plan, words, stalls):
    """Random masters, start instants, bursts, batch sizes, interrupt
    instants and injected stalls: ``OPBBus`` finishes every process at
    the same instant, in the same same-instant order, with the same
    return value and BusStats, and after pushing the same number of
    queue entries, as the reference arbiter serving each batch as
    single transactions.  On that same schedule
    the reference shows one holder at a time (it asserts so on every
    grant), every grant to the lowest (priority, arrival) waiter, busy
    time equal to the completed latencies, and a free bus at the end."""
    sim, bus, finishes = run_plan(OPBBus, plan, words, stalls)
    ref_sim, ref, ref_finishes = run_plan(ReferenceBus, plan, words, stalls)
    assert finishes == ref_finishes
    assert sim._eid == ref_sim._eid
    assert len(finishes) == len(plan) + len(stalls)
    assert asdict(bus.stats) == asdict(ref.stats)
    assert sim.now == ref_sim.now
    assert not bus.busy and bus.queue_length == 0
    assert not ref.busy and ref.queue_length == 0

    tenures = sorted(ref.tenures, key=lambda tenure: tenure[2])
    for before, after in zip(tenures, tenures[1:]):
        assert before[3] <= after[2], "overlapping tenures"
    latency = [DDRMemory().access_latency(w) for w in words]
    # An interrupt always cuts a tenure short: the hold timeout was
    # queued before the interrupt's delivery at the same instant.
    completed = [t for t in tenures
                 if t[0] != OPBBus.STALL_PRIORITY and t[3] - t[2] == latency[t[0]]]
    assert bus.stats.transactions == len(completed)
    assert bus.stats.busy_cycles == (sum(latency[t[0]] for t in completed)
                                     + sum(cycles for _start, cycles in stalls))
    waits, counts = {}, {}
    for priority, requested, granted, _released in completed:
        waits[priority] = waits.get(priority, 0) + granted - requested
        counts[priority] = counts.get(priority, 0) + 1
    assert bus.stats.wait_cycles == waits
    assert bus.stats.transfer_cycles == counts
