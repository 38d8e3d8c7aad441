"""Property-based invariants of the OPB arbitration (hypothesis)."""

from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.bus import BusStats, OPBBus, _Tenure
from repro.hw.memory import DDRMemory
from repro.hw.microblaze import ExecutionProfile, MicroBlaze, SegmentResult
from repro.sim import Interrupt, Simulator
from tests.hw.reference_bus import ReferenceBus
from tests.hw.reference_core import ReferenceCore

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
#: Long batches make solo and two-way stretches the bus settles in one
#: step; the wide instants cut them mid-way.
PLAN = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 200),
        st.one_of(st.integers(1, 6), st.integers(20, 80)),
        st.one_of(st.none(), st.integers(0, 500), st.integers(0, 8000)),
    ),
    min_size=1,
    max_size=7,
)
#: Burst length per master id, so a tenure's latency follows from its
#: priority alone.
WORDS = st.lists(st.integers(1, 8), min_size=4, max_size=4)
#: Injected bus stalls: (start instant, cycles).
STALLS = st.lists(st.tuples(st.one_of(st.integers(0, 300), st.integers(0, 5000)),
                            st.integers(1, 40)), max_size=2)


#: Foreign entries: (on_bus, pick, lead).  ``pick`` chooses an
#: instant at which the reference run granted or released the bus (if
#: ``on_bus``) or any instant up to 10000; ``lead`` is how many cycles
#: before it the entry is pushed -- at t=0 it is older than the bus
#: entries there, pushed late it is newer.  The entry only records the
#: bus state it sees.
FOREIGN = st.lists(st.tuples(st.booleans(), st.integers(0, 10**6),
                             st.integers(0, 3000)), max_size=6)
#: ``sim.run(until)`` slice lengths before the final ``sim.run()``.
SLICES = st.lists(st.one_of(st.integers(1, 300), st.integers(300, 3000)),
                  max_size=4)


def run_plan(bus_cls, plan, words, stalls=(), foreign=(), slices=()):
    """Run ``plan`` (and ``stalls``) on a fresh ``bus_cls``; returns
    (sim, bus, finishes, seen), finishes in the order they happened.

    ``foreign`` lists (instant, lead) entries, each pushed at
    ``instant - lead`` (or t=0), that record in ``seen`` the bus state
    at their instant; the run goes through ``run(until)`` calls
    ``slices`` cycles apart before running to the end, and ``seen`` also
    records the clock, ``BusStats`` and insertion-id count after each."""
    sim = Simulator()
    bus = bus_cls(sim)
    ddr = DDRMemory()
    finishes = []
    seen = []

    def look():
        stats = bus.stats
        seen.append((sim.now, stats.transactions, stats.busy_cycles,
                     bus.busy, bus.queue_length))

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

    for instant, lead in foreign:
        sim.schedule_at(max(0, instant - lead),
                        lambda instant=instant: sim.schedule_at(instant, look))
    for index, (start, cycles) in enumerate(stalls):
        sim.process(stall(index, start, cycles))
    for index, (mid, delay, count, irq_at) in enumerate(plan):
        proc = sim.process(master(index, mid, delay, count))
        if irq_at is not None:
            sim.schedule_at(irq_at, lambda proc=proc: proc.is_alive
                            and proc.interrupt("irq"))
    until = 0
    for length in slices:
        until += length
        sim.run(until=until)
        seen.append((sim.now, asdict(bus.stats), sim._eid))
    sim.run()
    return sim, bus, finishes, seen


def bus_instants(plan, words, stalls):
    """Every instant the reference arbiter granted or released the bus
    on this plan, in order."""
    ref = run_plan(ReferenceBus, plan, words, stalls)[1]
    return sorted({instant for tenure in ref.tenures for instant in tenure[1:]})


@settings(max_examples=80, deadline=None)
@given(plan=PLAN, words=WORDS, stalls=STALLS, picks=FOREIGN, slices=SLICES)
def test_batched_bus_matches_reference_arbiter(plan, words, stalls, picks,
                                               slices):
    """Random masters, start instants, bursts, batch sizes, interrupt
    instants, injected stalls, foreign entries on grant and hold-end
    instants, ``run(until)`` slices: ``OPBBus``
    (running ahead between the foreign entries) shows every foreign
    entry the same bus state, finishes every process at
    the same instant, in the same same-instant order, with the same
    return value and BusStats, and after pushing the same number of
    queue entries, as the reference arbiter serving each batch as
    single transactions.  On that same schedule
    the reference shows one holder at a time (it asserts so on every
    grant), every grant to the lowest (priority, arrival) waiter, busy
    time equal to the completed latencies, and a free bus at the end."""
    instants = bus_instants(plan, words, stalls)
    foreign = [(instants[pick % len(instants)] if on_bus and instants
                else pick % 10000, lead)
               for on_bus, pick, lead in picks]
    sim, bus, finishes, seen = run_plan(OPBBus, plan, words, stalls,
                                        foreign, slices)
    ref_sim, ref, ref_finishes, ref_seen = run_plan(
        ReferenceBus, plan, words, stalls, foreign, slices)
    assert seen == ref_seen
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
    assert bus.stats.transactions_by_master == counts


def test_run_ahead_elides_contended_queue_entries(monkeypatch):
    """Four masters, each with one 50-transaction batch, and nothing
    else in the queue: the arbitration runs ahead through the contended
    stretches, so fewer than one grant or hold callback per ten
    transactions is dispatched from the queue -- with the reference
    arbiter's schedule, stats and insertion-id count."""
    dispatched = []
    depth = [0]

    def counting(method):
        def wrapper(self):
            if not depth[0]:
                dispatched.append(method.__name__)
            depth[0] += 1
            try:
                return method(self)
            finally:
                depth[0] -= 1
        return wrapper

    plan = [(mid, 0, 50, None) for mid in range(4)]
    words = [1, 2, 4, 8]
    ref_sim, ref, ref_finishes, _ = run_plan(ReferenceBus, plan, words)
    monkeypatch.setattr(_Tenure, "_arm", counting(_Tenure._arm))
    monkeypatch.setattr(_Tenure, "_complete", counting(_Tenure._complete))
    sim, bus, finishes, _ = run_plan(OPBBus, plan, words)
    assert bus.stats.transactions == 200
    assert 0 < len(dispatched) < 200 // 10
    assert finishes == ref_finishes
    assert sim._eid == ref_sim._eid
    assert asdict(bus.stats) == asdict(ref.stats)


def test_run_ahead_across_a_full_ring_lap():
    """Two masters alternate 16-cycle transactions from t=16 on.  The
    run-ahead from the first hold end stops at master 0's last grant
    (the 65th transaction, at t=1024) and pushes its ``done`` for
    t=1040: 1024 cycles after the instant whose entry is still being
    run.  The entry must wait for t=1040."""
    plan = [(0, 0, 33, None), (1, 0, 40, None)]
    words = [3, 3, 3, 3]
    sim, bus, finishes, _ = run_plan(OPBBus, plan, words)
    ref_sim, ref, ref_finishes, _ = run_plan(ReferenceBus, plan, words)
    assert finishes[0] == (0, 65 * 16, 65 * 16)
    assert finishes == ref_finishes
    assert sim._eid == ref_sim._eid
    assert asdict(bus.stats) == asdict(ref.stats)


class CountingStats(BusStats):
    """``BusStats`` that counts its writes of ``transactions``: one per
    arbitration pass and one per steady stretch settled in one step."""

    def __setattr__(self, name, value):
        if name == "transactions":
            self.__dict__["writes"] = self.__dict__.get("writes", 0) + 1
        super().__setattr__(name, value)


class CountingBus(OPBBus):
    def __init__(self, sim, name="opb"):
        super().__init__(sim, name)
        self.stats = CountingStats()


def arbitration_writes(plan, words, slices=()):
    """Run ``plan`` on ``OPBBus`` and on the reference arbiter, require
    the same finishes, slice-end states, insertion ids and ``BusStats``,
    and return how often ``OPBBus`` wrote ``BusStats.transactions``."""
    sim, bus, finishes, seen = run_plan(CountingBus, plan, words,
                                        slices=slices)
    ref_sim, ref, ref_finishes, ref_seen = run_plan(ReferenceBus, plan, words,
                                                    slices=slices)
    assert finishes == ref_finishes
    assert seen == ref_seen
    assert sim._eid == ref_sim._eid
    assert asdict(bus.stats) == asdict(ref.stats)
    return bus.stats.writes


#: Bursts per master id: DDR latencies 12, 14 and 18 cycles.
EPOCH_WORDS = [1, 2, 4, 4]


def solo_plan(count):
    return [(0, 0, count, None)]


def two_way_plan(count):
    """Masters 0 and 1 alternate from t=12; master 2 waits behind them
    until a batch of theirs ends."""
    return [(mid, 0, count, None) for mid in range(3)]


@pytest.mark.parametrize("plan, count", [(solo_plan, 300), (two_way_plan, 200)],
                         ids=["solo", "two-way"])
def test_steady_stretches_cost_the_same_at_any_length(plan, count):
    """One master alone for 300 transactions, or two contending for 200
    each with a third behind them: the arbitration does as much work as
    for a tenth of the batch, on the reference arbiter's schedule."""
    long = arbitration_writes(plan(count), EPOCH_WORDS)
    assert long == arbitration_writes(plan(count // 10), EPOCH_WORDS)
    assert long < 20


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("plan, boundary", [
    (solo_plan(300), 100 * 12),
    (two_way_plan(200), 12 + 50 * (12 + 14)),
], ids=["solo", "two-way"])
def test_run_until_cuts_a_steady_stretch_at_its_round_boundary(plan, boundary,
                                                               offset):
    """``run(until)`` ending one cycle before, exactly at or one cycle
    after the end of a transaction (solo) or of a round (two-way):
    the step stops where the per-transaction passes would have, and
    the stretch is still settled in steps on both sides of the cut."""
    cut = arbitration_writes(plan, EPOCH_WORDS, slices=[boundary + offset])
    assert cut < arbitration_writes(plan, EPOCH_WORDS) + 10


def test_two_way_step_waits_for_a_same_master_waiter():
    """Master 0 holds the bus while master 3, then two master-1 batches,
    queue behind it, so the heap holds master 3 in its first child slot
    and the second master-1 batch in its second.  Masters 0 and 1
    alternate for one round only: at master 0's next hold end the bus
    goes to that batch, whose request is older than the re-request of
    the master-1 batch just served."""
    plan = [(0, 0, 50, None), (3, 1, 5, None), (1, 2, 50, None),
            (1, 3, 5, None)]
    arbitration_writes(plan, EPOCH_WORDS)


#: One core's plan: (stride, access period, words, segments, interrupt
#: instants).  Each segment is ``execute(k * stride + offset)`` after an
#: idle gap, so its last chunk is often a cycle or two longer or shorter
#: than a stride, or the segment is empty; a wide offset gives any
#: length.  An interrupt asserts the core's line, throws into the
#: segment it lands in, and the core carries on with the next one after
#: a short handler that clears the line.  Short and long strides, and
#: sparse and dense traffic.
CORE = st.tuples(
    st.one_of(st.integers(50, 400), st.integers(400, 3000)),
    st.one_of(st.integers(5, 40), st.integers(40, 300)),
    st.integers(1, 8),
    st.lists(st.tuples(st.integers(0, 300), st.integers(0, 10),
                       st.one_of(st.integers(-2, 2), st.integers(0, 3000))),
             min_size=1, max_size=3),
    st.lists(st.one_of(st.integers(0, 2000), st.integers(0, 20000)),
             max_size=2),
)
#: Preemption-hint period (a tick every so many cycles, as the system
#: timer's), or None for the fixed stride.
HINT = st.one_of(st.none(), st.integers(300, 6000))


def run_cores(core_cls, bus_cls, cores, hint_period, stalls=(), foreign=(),
              slices=()):
    """Run ``cores`` on ``core_cls`` cores over a ``bus_cls`` bus; returns
    (sim, bus, the cores, finishes, seen).

    ``finishes`` lists each segment's end: (core, segment, instant, its
    ``SegmentResult``).  ``seen`` records the state -- every core's
    utilization stats, access residue and current ``SegmentResult``, and
    the ``BusStats`` -- at each ``foreign`` instant (an entry pushed
    ``lead`` cycles before it, as in :func:`run_plan`) and after each
    ``run(until)`` slice, with the clock and insertion-id count."""
    sim = Simulator()
    bus = bus_cls(sim)
    ddr = DDRMemory()
    finishes, seen, current = [], [], {}
    ticker = {"next": None}
    machines = [core_cls(sim, cpu, bus, ddr, chunk_cycles=stride)
                for cpu, (stride, *_rest) in enumerate(cores)]

    def state():
        return ([(m.utilization_stats, m._access_residue) for m in machines],
                sorted((cpu, dict(vars(result)))
                       for cpu, result in current.items()),
                asdict(bus.stats))

    if hint_period is not None:
        def tick():
            ticker["next"] = sim.now + hint_period
            if sim.now < 40_000:
                sim.schedule(hint_period, tick)
            else:
                ticker["next"] = None

        ticker["next"] = 0
        sim.schedule_at(0, tick)
        for machine in machines:
            machine.preemption_hint = lambda: ticker["next"]

    def run(cpu, period, words, segments):
        machine = machines[cpu]
        profile = ExecutionProfile(period, words)
        for index, (gap, strides, offset) in enumerate(segments):
            cycles = max(0, strides * machine.chunk_cycles + offset)
            if gap:
                yield from machine.idle(gap)
            result = current[cpu] = SegmentResult()
            try:
                yield from machine.execute(cycles, profile, result)
                finishes.append((cpu, index, sim.now, dict(vars(result))))
            except Interrupt:
                finishes.append((cpu, index, sim.now, "irq",
                                 dict(vars(result))))
                yield sim.timeout(7)
                machine.on_interrupt_line(False)

    def stall(start, cycles):
        yield sim.timeout(start)
        yield from bus.stall(cycles)

    def irq(cpu, proc):
        machines[cpu].on_interrupt_line(True)
        if proc.is_alive:
            proc.interrupt("irq")

    for instant, lead in foreign:
        sim.schedule_at(max(0, instant - lead), lambda instant=instant:
                        sim.schedule_at(instant, lambda: seen.append(
                            (sim.now, state()))))
    for start, cycles in stalls:
        sim.process(stall(start, cycles))
    for cpu, (_stride, period, words, segments, irqs) in enumerate(cores):
        proc = sim.process(run(cpu, period, words, segments))
        for instant in irqs:
            sim.schedule_at(instant, lambda cpu=cpu, proc=proc: irq(cpu, proc))
    until = 0
    for length in slices:
        until += length
        sim.run(until=until)
        seen.append((sim.now, sim._eid, state()))
    sim.run()
    return sim, bus, machines, finishes, seen


@settings(max_examples=80, deadline=None)
@given(cores=st.lists(CORE, min_size=1, max_size=4), hint=HINT,
       stalls=STALLS, foreign=FOREIGN, slices=SLICES)
def test_lead_in_run_ahead_matches_per_chunk_oracle(cores, hint, stalls,
                                                    foreign, slices):
    """Random cores -- strides, traffic profiles, segments, interrupt
    instants, adaptive hints -- with injected stalls, foreign entries
    and ``run(until)`` slices: the cores running their
    chunks through the bus loop finish every segment at the same
    instant, in the same order and with the same ``SegmentResult`` as
    the per-chunk oracle on the reference arbiter.  Every foreign entry
    and every slice end sees the same utilization stats, access
    residues, segment results and ``BusStats``, and the run pushes the
    same number of queue entries."""
    foreign = [(pick % 30_000, lead) for _on_bus, pick, lead in foreign]
    sim, bus, machines, finishes, seen = run_cores(
        MicroBlaze, OPBBus, cores, hint, stalls, foreign, slices)
    ref_sim, ref_bus, ref_machines, ref_finishes, ref_seen = run_cores(
        ReferenceCore, ReferenceBus, cores, hint, stalls, foreign, slices)
    assert finishes == ref_finishes
    assert seen == ref_seen
    assert sim._eid == ref_sim._eid and sim.now == ref_sim.now
    assert asdict(bus.stats) == asdict(ref_bus.stats)
    for got, want in zip(machines, ref_machines):
        assert got.utilization_stats == want.utilization_stats
        assert got._access_residue == want._access_residue
    assert not bus.busy and bus.queue_length == 0
