"""Queue-implementation invariants: bucket vs reference heap.

These pin the contracts the bucketed timer queue must preserve --
clock composition of ``run(until=...)``, insertion-order ties (also
across the bucket/far-heap boundary), already-triggered condition
children, and same-cycle interrupt-vs-timeout ordering.  Most tests
are parametrized over both implementations; several additionally
require the two to produce identical observable schedules.
"""

import pytest

from repro.sim import Interrupt, Simulator
from repro.sim.engine import BUCKET_HORIZON

QUEUES = ("bucket", "heap")


@pytest.fixture(params=QUEUES)
def sim(request):
    return Simulator(queue=request.param)


def test_unknown_queue_kind_rejected():
    with pytest.raises(ValueError):
        Simulator(queue="fibonacci")


def test_default_queue_is_bucket():
    assert Simulator().queue_kind == Simulator.DEFAULT_QUEUE == "bucket"


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
    sim.run(until=7 * BUCKET_HORIZON)
    assert sim.now == 7 * BUCKET_HORIZON
    assert sim.pending_count == 0


def test_schedule_after_fast_forward(sim):
    """New events schedule correctly after the clock jumped far ahead."""
    fired = []
    sim.run(until=5 * BUCKET_HORIZON + 3)
    sim.schedule(2, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [5 * BUCKET_HORIZON + 5]


def test_horizon_reports_earliest(sim):
    assert sim.horizon() == float("inf")
    sim.schedule(3 * BUCKET_HORIZON, lambda: None)  # far
    assert sim.horizon() == 3 * BUCKET_HORIZON
    sim.schedule(9, lambda: None)  # near
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
    """Called while an instant's bucket drains: the entry still due at
    that instant, then, after the last one, the next instant -- not the
    instant being drained."""
    seen = horizons_seen(sim, [5, 5, 9, 3000], probes={0, 1})
    sim.run()
    assert seen == [(5, 5), (5, 9)]


def test_horizon_sees_far_heap_entry(sim):
    """A far-heap entry earlier than every bucketed one is the horizon,
    also mid-drain."""
    sim.schedule(BUCKET_HORIZON + 100, lambda: None)  # far
    sim.run(until=BUCKET_HORIZON)
    seen = horizons_seen(sim, [0, 150], probes={0})
    assert sim.horizon() == BUCKET_HORIZON
    sim.run()
    assert seen == [(BUCKET_HORIZON, BUCKET_HORIZON + 100)]


def test_horizon_after_ring_wraps(sim):
    """The next instant sits at a lower ring slot than the one being
    drained."""
    sim.run(until=3 * BUCKET_HORIZON + 1000)
    seen = horizons_seen(sim, [5, 5, BUCKET_HORIZON - 1], probes={1})
    sim.run()
    assert seen == [(3 * BUCKET_HORIZON + 1005, 4 * BUCKET_HORIZON + 999)]


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
def test_ties_across_bucket_far_boundary_preserve_insertion_order():
    """Entries pushed far (heap) and near (bucket) landing on the same
    cycle must still run in global insertion order -- on both queues."""

    def trace(kind):
        sim = Simulator(queue=kind)
        order = []
        target = BUCKET_HORIZON + 50
        # Pushed while target is beyond the horizon: far heap.
        sim.schedule(target, lambda: order.append("far-1"))
        sim.schedule(target, lambda: order.append("far-2"))

        def late_pushes():
            # Runs inside the horizon: bucket path, same instant.
            sim.schedule_at(target, lambda: order.append("near-1"))
            sim.schedule_at(target, lambda: order.append("near-2"))

        sim.schedule(target - 10, late_pushes)
        sim.run()
        return order

    expected = ["far-1", "far-2", "near-1", "near-2"]
    assert trace("bucket") == expected
    assert trace("heap") == expected


def test_same_cycle_interrupt_vs_timeout_tie_ordering():
    """A timeout expiring at the same cycle an interrupt is delivered:
    queue insertion order decides, identically on both queues.

    The timeout's queue entry is pushed at schedule time (t=0), the
    interrupt's deliver callback at t=10 -- so the timeout entry is
    older and the process completes the wait before the (now-dropped)
    interrupt can land.
    """

    def trace(kind):
        sim = Simulator(queue=kind)
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
        return log

    assert trace("bucket") == trace("heap")
    # The t=10 tick precedes the interrupt: its entry was pushed first.
    assert trace("bucket")[0] == (10, "tick")
    assert (10, "same-cycle") in trace("bucket")


def test_interrupt_delivered_before_later_timeout_entry():
    """Flip of the above: interrupt pushed before the timeout entry at
    the same cycle wins on both queues."""

    def trace(kind):
        sim = Simulator(queue=kind)
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
        return log

    assert trace("bucket") == trace("heap") == [
        (5, "callback"), (5, "first")
    ]


def test_many_same_cycle_entries_fifo_within_bucket(sim):
    order = []
    for i in range(200):
        sim.schedule(17, lambda i=i: order.append(i))
    sim.run()
    assert order == list(range(200))


# ------------------------------------------------- condition events
def test_any_of_with_already_triggered_child(sim):
    log = []
    done = sim.event()
    done.succeed("early")

    def worker():
        result = yield sim.any_of([done, sim.timeout(50)])
        log.append((sim.now, result[done]))

    sim.process(worker())
    sim.run()
    assert log == [(0, "early")]


def test_all_of_with_already_triggered_children(sim):
    log = []
    first, second = sim.event(), sim.event()
    first.succeed(1)
    second.succeed(2)

    def worker():
        result = yield sim.all_of([first, second, sim.timeout(5)])
        log.append((sim.now, sorted(result.values(), key=str)))

    sim.process(worker())
    sim.run()
    assert log == [(5, [1, 2, None])]


def test_all_of_mixed_triggered_and_failed_child(sim):
    caught = []
    done = sim.event()
    done.succeed()
    failing = sim.event()

    def worker():
        try:
            yield sim.all_of([done, failing])
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(worker())
    sim.schedule(3, lambda: failing.fail(ValueError("child failed")))
    sim.run()
    assert caught == ["child failed"]


def test_any_of_empty_is_immediately_satisfied(sim):
    log = []

    def worker():
        yield sim.any_of([])
        log.append(sim.now)

    sim.process(worker())
    sim.run()
    assert log == [0]


# ----------------------------------------------- cross-queue equivalence
def test_bucket_and_heap_schedules_identical_under_churn():
    def run_once(kind):
        sim = Simulator(queue=kind)
        log = []

        def worker(tag, period):
            while True:
                try:
                    yield sim.timeout(period)
                    log.append((sim.now, tag, "tick"))
                except Interrupt:
                    log.append((sim.now, tag, "irq"))

        victims = [
            sim.process(worker(t, 2 + i * 3))
            for i, t in enumerate("abcd")
        ]

        def hammer():
            while True:
                yield sim.timeout(BUCKET_HORIZON + 13)  # far-heap period
                for victim in victims:
                    if victim.is_alive:
                        victim.interrupt("far")

        sim.process(hammer())
        sim.run(until=10 * BUCKET_HORIZON)
        return log

    bucket, heap = run_once("bucket"), run_once("heap")
    assert bucket == heap
    assert len(bucket) > 1_000


def test_pending_count_tracks_both_tiers():
    sim = Simulator(queue="bucket")
    sim.schedule(5, lambda: None)
    sim.schedule(2 * BUCKET_HORIZON, lambda: None)
    assert sim.pending_count == 2
    sim.run()
    assert sim.pending_count == 0


# ------------------------------------------------------------ withdraw
def logged(sim, log, tag):
    return lambda: log.append((sim.now, tag))


def test_withdraw_mid_drain_keeps_order_and_ids(sim):
    """A callback withdraws an entry of the instant being drained: it
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
    """Withdrawing the only other entry of the instant being drained
    empties its slot: the horizon moves on to the next instant."""
    log = []
    victim = logged(sim, log, "b")
    sim.schedule(5, lambda: (sim.withdraw(5, victim),
                             log.append((sim.now, sim.horizon()))))
    sim.schedule(5, victim)
    sim.schedule(700, logged(sim, log, "c"))
    sim.run()
    assert log == [(5, 700), (700, "c")]


def test_withdraw_across_a_ring_lap(sim):
    """The entry sits at a lower ring slot than ``now``'s: withdrawing
    the earliest entry moves the horizon to the next one, past the
    wrap, and the others still run in order."""
    sim.run(until=3 * BUCKET_HORIZON + 1000)
    now = sim.now
    log = []
    victim = logged(sim, log, "x")
    sim.schedule(100, victim)  # slot (now + 100) & 1023 < now & 1023
    sim.schedule(100, logged(sim, log, "y"))
    sim.schedule(300, logged(sim, log, "z"))
    sim.withdraw(now + 100, victim)
    assert sim.horizon() == now + 100 and sim.pending_count == 2
    sim.run()
    assert log == [(now + 100, "y"), (now + 300, "z")]


def test_withdraw_sole_earliest_entry_after_ring_lap(sim):
    sim.run(until=3 * BUCKET_HORIZON + 1000)
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
    """An entry a full window or more ahead leaves the far heap; the
    remaining far and near entries keep their order."""
    log = []
    victim = logged(sim, log, "far-victim")
    sim.schedule(3 * BUCKET_HORIZON, victim)
    sim.schedule(3 * BUCKET_HORIZON, logged(sim, log, "far"))
    sim.schedule(2 * BUCKET_HORIZON, logged(sim, log, "far-earlier"))
    sim.schedule(7, logged(sim, log, "near"))
    eid = sim._eid
    sim.withdraw(3 * BUCKET_HORIZON, victim)
    assert sim.pending_count == 3
    sim.run()
    assert log == [(7, "near"), (2 * BUCKET_HORIZON, "far-earlier"),
                   (3 * BUCKET_HORIZON, "far")]
    assert sim._eid == eid


def test_withdraw_a_far_entry_once_inside_the_window(sim):
    """Pushed a window ahead, the entry stays in the far heap after the
    clock has come within a window of it."""
    log = []
    victim = logged(sim, log, "x")
    sim.schedule(2 * BUCKET_HORIZON, victim)
    sim.run(until=2 * BUCKET_HORIZON - 10)
    sim.withdraw(2 * BUCKET_HORIZON, victim)
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
