"""Event-queue invariants of the engine.

These pin the contracts of the one queue, a heap ordered by ``(time,
insertion id)``: clock composition of ``run(until=...)``, idle
fast-forward, the horizon seen from inside callbacks, insertion-order
ties (also between entries pushed long before their instant and
entries pushed just before it), same-cycle interrupt-vs-timeout
ordering, withdrawing a queued entry, and the head a callback reads and
pops to run the next entry in place.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Interrupt, Simulator

#: A delay far beyond the short ones the tests mix it with.
LONG = 1024


@pytest.fixture
def sim():
    return Simulator()


# ------------------------------------------------------- run(until) clock
def test_run_until_composes_back_to_back(sim):
    """Consecutive run(until=...) calls behave like one longer run."""
    fired = []
    for delay in (5, 250, 2_500, 10_000):
        sim.schedule(delay, lambda d=delay: fired.append((sim.now, d)))
    sim.run(until=250)
    assert sim.now == 250
    assert fired == [(5, 5), (250, 250)]
    sim.run(until=3_000)
    assert sim.now == 3_000
    sim.run(until=20_000)
    assert fired == [(5, 5), (250, 250), (2_500, 2_500), (10_000, 10_000)]
    assert sim.now == 20_000


def test_run_until_exact_event_time_includes_event(sim):
    fired = []
    sim.schedule(100, lambda: fired.append(sim.now))
    sim.run(until=100)
    assert fired == [100]
    assert sim.now == 100


def test_run_until_rejects_fractional_cycle(sim):
    """``until`` counts whole cycles: a fractional one is refused before
    anything runs, and the clock and queue are left as they were."""
    fired = []
    sim.schedule(100, lambda: fired.append(sim.now))
    with pytest.raises(ValueError, match="whole cycle"):
        sim.run(until=100.5)
    assert sim.now == 0 and fired == [] and sim.pending_count == 1
    assert sim.horizon() == 100
    sim.run(until=200.0)
    assert fired == [100]
    assert sim.now == 200 and type(sim.now) is int


def test_run_until_idle_gap_fast_forwards(sim):
    """An empty stretch costs nothing and leaves the clock at until."""
    sim.run(until=7 * LONG)
    assert sim.now == 7 * LONG
    assert sim.pending_count == 0


def test_schedule_after_fast_forward(sim):
    """New events schedule correctly after the clock jumped far ahead."""
    fired = []
    sim.run(until=5 * LONG + 3)
    sim.schedule(2, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [5 * LONG + 5]


def test_horizon_reports_earliest(sim):
    assert sim.horizon() == float("inf")
    sim.schedule(3 * LONG, lambda: None)
    assert sim.horizon() == 3 * LONG
    sim.schedule(9, lambda: None)
    assert sim.horizon() == 9
    sim.run()
    assert sim.horizon() == float("inf")


def horizons_seen(sim, delays, probes):
    """Schedule a no-op at each of ``delays``; the callbacks numbered in
    ``probes`` record ``sim.horizon()`` instead.  Returns the records."""
    seen = []
    for index, delay in enumerate(delays):
        if index in probes:
            sim.schedule(delay, lambda: seen.append((sim.now, sim.horizon())))
        else:
            sim.schedule(delay, lambda: None)
    return seen


def test_horizon_mid_drain(sim):
    """Called while an instant's entries run: the entry still due at
    that instant, then, after the last one, the next instant -- not the
    instant being run."""
    seen = horizons_seen(sim, [5, 5, 9, 3000], probes={0, 1})
    sim.run()
    assert seen == [(5, 5), (5, 9)]


def test_horizon_sees_far_heap_entry(sim):
    """An entry pushed long before its instant and earlier than every
    entry pushed since is the horizon, also from inside a callback."""
    sim.schedule(LONG + 100, lambda: None)
    sim.run(until=LONG)
    seen = horizons_seen(sim, [0, 150], probes={0})
    assert sim.horizon() == LONG
    sim.run()
    assert seen == [(LONG, LONG + 100)]


def test_horizon_after_ring_wraps(sim):
    """Far from t=0, with the next instant almost ``LONG`` cycles past
    the one being run."""
    sim.run(until=3 * LONG + 1000)
    seen = horizons_seen(sim, [5, 5, LONG - 1], probes={1})
    sim.run()
    assert seen == [(3 * LONG + 1005, 4 * LONG + 999)]


def test_horizon_caps_at_run_limit(sim):
    """Inside ``run(until)`` nothing past ``until`` is dispatched; once
    it returns, no limit applies."""
    seen = horizons_seen(sim, [5, 9], probes={0})
    sim.run(until=7)
    assert seen == [(5, 8)]
    assert sim.horizon() == 9
    sim.run(until=20)
    assert sim.horizon() == float("inf")


def test_stop_then_resume_preserves_remaining_events(sim):
    fired = []
    sim.schedule(1, lambda: (fired.append(1), sim.stop()))
    sim.schedule(2_000, lambda: fired.append(2))
    sim.run()  # halts at the stop() without touching later entries
    assert fired == [1]
    assert sim.now == 1
    sim.run(until=10_000)
    assert fired == [1, 2]
    assert sim.now == 10_000


# -------------------------------------------------------------- tie order
def test_ties_between_early_and_late_pushes_preserve_insertion_order(sim):
    """Entries pushed long before their instant and entries pushed just
    before it, landing on the same cycle, run in insertion order."""
    order = []
    target = LONG + 50
    sim.schedule(target, lambda: order.append("early-1"))
    sim.schedule(target, lambda: order.append("early-2"))

    def late_pushes():
        sim.schedule_at(target, lambda: order.append("late-1"))
        sim.schedule_at(target, lambda: order.append("late-2"))

    sim.schedule(target - 10, late_pushes)
    sim.run()
    assert order == ["early-1", "early-2", "late-1", "late-2"]


def test_same_cycle_interrupt_vs_timeout_tie_ordering(sim):
    """A timeout expiring at the same cycle an interrupt is delivered:
    queue insertion order decides.

    The timeout's queue entry is pushed at schedule time (t=0), the
    interrupt's deliver callback at t=10 -- so the timeout entry is
    older and the process completes the wait before the (now-dropped)
    interrupt can land.
    """
    log = []

    def worker():
        while True:
            try:
                yield sim.timeout(10)
                log.append((sim.now, "tick"))
                if sim.now >= 20:
                    return
            except Interrupt as interrupt:
                log.append((sim.now, interrupt.cause))

    proc = sim.process(worker())
    sim.schedule(10, lambda: proc.interrupt("same-cycle"))
    sim.run()
    # The t=10 tick precedes the interrupt: its entry was pushed first.
    assert log[0] == (10, "tick")
    assert (10, "same-cycle") in log


def test_interrupt_delivered_before_later_timeout_entry(sim):
    """Flip of the above: interrupt pushed before the timeout entry at
    the same cycle wins."""
    log = []

    def worker():
        try:
            yield sim.timeout(30)
            log.append((sim.now, "tick"))
        except Interrupt as interrupt:
            log.append((sim.now, interrupt.cause))

    proc = sim.process(worker())

    def schedule_pair():
        # At t=5: interrupt entry pushed first, then a same-cycle
        # callback; the interrupt must land first.
        proc.interrupt("first")
        log.append((sim.now, "callback"))

    sim.schedule(5, schedule_pair)
    sim.run()
    assert log == [(5, "callback"), (5, "first")]


def test_many_same_cycle_entries_run_in_push_order(sim):
    order = []
    for i in range(200):
        sim.schedule(17, lambda i=i: order.append(i))
    sim.run()
    assert order == list(range(200))


#: The entries one callback pushes: (delay, re-queued).  A re-queued
#: entry takes its insertion id when it is drawn and is pushed under it
#: at the end of the callback (``_eid`` set one below, as the bus
#: run-ahead re-queues the entries it stood in for), newest id first.
PUSHES = st.lists(st.tuples(st.one_of(st.integers(0, 3),
                                      st.integers(0, 3 * LONG)),
                            st.booleans()), max_size=3)


@settings(max_examples=200, deadline=None)
@given(program=st.lists(PUSHES, min_size=1, max_size=40),
       slices=st.lists(st.integers(0, 2 * LONG), max_size=3))
def test_dispatch_order_is_time_then_push_order(program, slices):
    """Entries pushed at set-up and from inside callbacks -- at the
    instant being run, a few cycles or several ``LONG`` ahead, fresh or
    re-queued under an id taken earlier -- run in the order of ``(time,
    insertion id)``, each at its time, across ``run(until)`` slices."""
    sim = Simulator()
    steps = iter(program)
    pushed, dispatched = [], []

    def push(time, eid):
        key = (time, eid)
        pushed.append(key)

        def fire():
            assert sim.now == time
            dispatched.append(key)
            act()

        taken = sim._eid
        sim._eid = eid - 1
        sim._push(time, fire)
        sim._eid = max(taken, eid)

    def act():
        requeued = []
        for delay, requeue in next(steps, ()):
            sim._eid += 1
            if requeue:
                requeued.append((sim.now + delay, sim._eid))
            else:
                push(sim.now + delay, sim._eid)
        for time, eid in reversed(requeued):
            push(time, eid)

    act()
    until = 0
    for length in slices:
        until += length
        sim.run(until=until)
        assert sim.now == until
    sim.run()
    assert dispatched == sorted(pushed)
    assert sim.pending_count == 0


def test_pending_count_counts_every_entry(sim):
    sim.schedule(5, lambda: None)
    sim.schedule(2 * LONG, lambda: None)
    assert sim.pending_count == 2
    sim.run()
    assert sim.pending_count == 0


# ------------------------------------------------------------ withdraw
def logged(sim, log, tag):
    return lambda: log.append((sim.now, tag))


def test_withdraw_mid_drain_keeps_order_and_ids(sim):
    """A callback withdraws an entry of the instant being run: it
    never runs, the rest of the instant runs in insertion order, the
    insertion-id count is unchanged and the next instant follows."""
    log = []
    victim = logged(sim, log, "c")
    sim.schedule(5, lambda: (log.append((sim.now, "a")),
                             sim.withdraw(5, victim)))
    sim.schedule(5, logged(sim, log, "b"))
    sim.schedule(5, victim)
    sim.schedule(5, logged(sim, log, "d"))
    sim.schedule(9, logged(sim, log, "e"))
    eid = sim._eid
    sim.run()
    assert log == [(5, "a"), (5, "b"), (5, "d"), (9, "e")]
    assert sim._eid == eid and sim.pending_count == 0


def test_withdraw_last_entry_of_the_drained_instant(sim):
    """Withdrawing the only other entry of the instant being run: the
    horizon moves on to the next instant."""
    log = []
    victim = logged(sim, log, "b")
    sim.schedule(5, lambda: (sim.withdraw(5, victim),
                             log.append((sim.now, sim.horizon()))))
    sim.schedule(5, victim)
    sim.schedule(700, logged(sim, log, "c"))
    sim.run()
    assert log == [(5, 700), (700, "c")]


def test_withdraw_across_a_ring_lap(sim):
    """Far from t=0: withdrawing one of two entries at the earliest
    instant leaves the horizon there, and the others still run in
    order."""
    sim.run(until=3 * LONG + 1000)
    now = sim.now
    log = []
    victim = logged(sim, log, "x")
    sim.schedule(100, victim)
    sim.schedule(100, logged(sim, log, "y"))
    sim.schedule(300, logged(sim, log, "z"))
    sim.withdraw(now + 100, victim)
    assert sim.horizon() == now + 100 and sim.pending_count == 2
    sim.run()
    assert log == [(now + 100, "y"), (now + 300, "z")]


def test_withdraw_sole_earliest_entry_after_ring_lap(sim):
    """Far from t=0: withdrawing the sole earliest entry moves the
    horizon to the next one."""
    sim.run(until=3 * LONG + 1000)
    now = sim.now
    log = []
    victim = logged(sim, log, "x")
    sim.schedule(100, victim)
    sim.schedule(300, logged(sim, log, "z"))
    sim.withdraw(now + 100, victim)
    assert sim.horizon() == now + 300
    sim.run()
    assert log == [(now + 300, "z")]


def test_withdraw_from_the_far_heap(sim):
    """An entry several ``LONG`` ahead leaves the queue; the remaining
    far and near entries keep their order."""
    log = []
    victim = logged(sim, log, "far-victim")
    sim.schedule(3 * LONG, victim)
    sim.schedule(3 * LONG, logged(sim, log, "far"))
    sim.schedule(2 * LONG, logged(sim, log, "far-earlier"))
    sim.schedule(7, logged(sim, log, "near"))
    eid = sim._eid
    sim.withdraw(3 * LONG, victim)
    assert sim.pending_count == 3
    sim.run()
    assert log == [(7, "near"), (2 * LONG, "far-earlier"),
                   (3 * LONG, "far")]
    assert sim._eid == eid


def test_withdraw_a_far_entry_once_inside_the_window(sim):
    """Pushed ``2 * LONG`` ahead, the entry is withdrawn once the clock
    has come within a few cycles of it."""
    log = []
    victim = logged(sim, log, "x")
    sim.schedule(2 * LONG, victim)
    sim.run(until=2 * LONG - 10)
    sim.withdraw(2 * LONG, victim)
    sim.run()
    assert log == [] and sim.pending_count == 0


def test_withdraw_refuses_an_entry_not_queued(sim):
    callback = lambda: None  # noqa: E731
    sim.schedule(5, callback)
    with pytest.raises(ValueError):
        sim.withdraw(6, callback)
    with pytest.raises(ValueError):
        sim.withdraw(5, lambda: None)
    sim.withdraw(5, callback)
    with pytest.raises(ValueError):
        sim.withdraw(5, callback)


# ------------------------------------------------------- head and in-place
def test_head_of_an_empty_queue_is_the_run_limit(sim):
    assert sim._head() == (float("inf"), None)
    seen = []
    sim.schedule(10, lambda: seen.append(sim._head()))
    sim.run(until=50)
    assert seen == [(51, None)]
    assert sim._head() == (float("inf"), None)


def test_head_reports_the_next_entry_and_its_item(sim):
    callback = lambda: None  # noqa: E731
    sim.schedule(8, callback)
    timeout = sim.timeout(3)
    assert sim._head() == (3, timeout)
    sim.run(until=3)
    assert sim._head() == (8, callback)


@pytest.mark.parametrize("until, head", [(7, 8), (8, 9), (9, 9)])
def test_head_inside_run_until_stops_at_the_limit(sim, until, head):
    """From a callback, an entry at 9 is the head only when ``run(until)``
    will dispatch it; otherwise the head is the limit ``until + 1``."""
    seen = []

    def entry():
        pass

    sim.schedule(5, lambda: seen.append(sim._head()))
    sim.schedule(9, entry)
    sim.run(until=until)
    assert seen == [(head, entry if until >= 9 else None)]


def test_pop_head_lets_a_callback_run_the_next_entry_in_place(sim):
    """The run-ahead pattern: a callback moves ``now`` to the head's
    time, pops it and runs it itself; the queue then carries on as if
    the engine had dispatched that entry."""
    log = []

    def later():
        log.append(("later", sim.now))

    def ahead():
        log.append(("ahead", sim.now))
        time, item = sim._head()
        assert item is later
        sim.now = time
        sim._pop_head()
        item()

    sim.schedule(5, ahead)
    sim.schedule(9, later)
    sim.schedule(12, lambda: log.append(("last", sim.now)))
    sim.run()
    assert log == [("ahead", 5), ("later", 9), ("last", 12)]
    assert sim.pending_count == 0


def test_run_ahead_in_place_matches_engine_dispatch(sim):
    """Playing the same-instant successors of an entry in place gives
    the log and insertion-id count of letting the engine run them."""

    def build(simulator, in_place):
        log = []

        def tagged(tag):
            def run():
                log.append((simulator.now, tag))
                if tag == "a" and in_place:
                    while simulator._head()[0] == simulator.now:
                        _time, item = simulator._head()
                        simulator._pop_head()
                        item()
            return run

        for tag in "abc":
            simulator.schedule(4, tagged(tag))
        simulator.schedule(6, tagged("d"))
        simulator.run()
        return log, simulator._eid

    assert build(sim, True) == build(Simulator(), False)


def test_withdrawing_the_head_moves_it_to_the_next_entry(sim):
    first = lambda: None  # noqa: E731
    second = lambda: None  # noqa: E731
    sim.schedule(4, first)
    sim.schedule(4, second)
    sim.schedule(6, lambda: None)
    sim.withdraw(4, first)
    assert sim._head() == (4, second)
    sim.withdraw(4, second)
    assert sim._head()[0] == 6
