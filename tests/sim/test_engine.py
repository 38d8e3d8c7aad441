"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import Event, Interrupt, Simulator, Timeout


def test_empty_run_leaves_clock_at_until():
    sim = Simulator()
    sim.run(until=100)
    assert sim.now == 100


def test_run_without_until_drains_queue():
    sim = Simulator()
    fired = []
    sim.schedule(5, lambda: fired.append(sim.now))
    sim.schedule(2, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [2, 5]


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(42, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [42]


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.run(until=10)
    with pytest.raises(ValueError):
        sim.schedule_at(5, lambda: None)


def test_ties_break_in_insertion_order():
    sim = Simulator()
    order = []
    for tag in ("a", "b", "c"):
        sim.schedule(7, lambda t=tag: order.append(t))
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(10, lambda: fired.append("early"))
    sim.schedule(100, lambda: fired.append("late"))
    sim.run(until=50)
    assert fired == ["early"]
    assert sim.now == 50
    sim.run(until=200)
    assert fired == ["early", "late"]


def test_event_succeed_runs_callbacks():
    sim = Simulator()
    event = sim.event()
    got = []
    event.callbacks.append(lambda e: got.append(e.value))
    event.succeed(99)
    sim.run()
    assert got == [99]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed()
    with pytest.raises(RuntimeError):
        event.succeed()


def test_event_value_before_trigger_raises():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(RuntimeError):
        _ = event.value


def test_event_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_timeout_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Timeout(sim, -1)


def test_process_advances_through_timeouts():
    sim = Simulator()
    log = []

    def worker():
        yield sim.timeout(3)
        log.append(sim.now)
        yield sim.timeout(4)
        log.append(sim.now)

    sim.process(worker())
    sim.run()
    assert log == [3, 7]


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)


def test_process_return_value_becomes_event_value():
    sim = Simulator()

    def worker():
        yield sim.timeout(1)
        return "done"

    proc = sim.process(worker())
    sim.run()
    assert proc.triggered
    assert proc.value == "done"


def test_process_can_wait_on_process():
    sim = Simulator()
    log = []

    def child():
        yield sim.timeout(5)
        return 21

    def parent():
        value = yield sim.process(child())
        log.append((sim.now, value))

    sim.process(parent())
    sim.run()
    assert log == [(5, 21)]


def test_yielding_non_event_raises():
    sim = Simulator()

    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(TypeError):
        sim.run()


def test_interrupt_lands_in_waiting_process():
    sim = Simulator()
    log = []

    def worker():
        try:
            yield sim.timeout(100)
        except Interrupt as interrupt:
            log.append((sim.now, interrupt.cause))

    proc = sim.process(worker())
    sim.schedule(10, lambda: proc.interrupt("stop"))
    sim.run()
    assert log == [(10, "stop")]


def test_interrupt_guard_false_drops_interrupt():
    sim = Simulator()
    log = []

    def worker():
        try:
            yield sim.timeout(20)
            log.append("completed")
        except Interrupt:
            log.append("interrupted")

    proc = sim.process(worker())
    sim.schedule(10, lambda: proc.interrupt("x", guard=lambda: False))
    sim.run()
    assert log == ["completed"]


def test_interrupt_finished_process_raises():
    sim = Simulator()

    def worker():
        yield sim.timeout(1)

    proc = sim.process(worker())
    sim.run()
    with pytest.raises(RuntimeError):
        proc.interrupt()


def test_interrupted_timeout_does_not_resume_later():
    """After an interrupt, the abandoned timeout must not re-wake."""
    sim = Simulator()
    wakes = []

    def worker():
        try:
            yield sim.timeout(50)
            wakes.append("timeout")
        except Interrupt:
            yield sim.timeout(100)
            wakes.append("after-interrupt")

    proc = sim.process(worker())
    sim.schedule(10, lambda: proc.interrupt())
    sim.run()
    assert wakes == ["after-interrupt"]
    assert sim.now == 110


def test_stop_halts_loop():
    sim = Simulator()
    fired = []
    sim.schedule(1, lambda: (fired.append(1), sim.stop()))
    sim.schedule(2, lambda: fired.append(2))
    sim.run()
    assert fired == [1]
    sim.run()
    assert fired == [1, 2]


def test_process_failure_propagates_to_waiter():
    sim = Simulator()
    caught = []

    def child():
        yield sim.timeout(1)
        raise ValueError("boom")

    def parent():
        try:
            yield sim.process(child())
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(parent())
    sim.run()
    assert caught == ["boom"]


def test_unwaited_process_failure_raises_out_of_run():
    sim = Simulator()

    def child():
        yield sim.timeout(1)
        raise ValueError("unhandled")

    sim.process(child())
    with pytest.raises(ValueError):
        sim.run()


def test_heavy_interrupt_churn_detaches_correctly():
    """Tombstone detach: repeated interrupts must not corrupt the
    abandoned events' callback lists or re-wake the process."""
    sim = Simulator()
    log = []

    def worker():
        while True:
            try:
                yield sim.timeout(50)
                log.append((sim.now, "tick"))
                return
            except Interrupt as interrupt:
                log.append((sim.now, interrupt.cause))

    proc = sim.process(worker())
    for i in range(1, 11):
        sim.schedule(i * 3, lambda i=i: proc.interrupt(i) if proc.is_alive else None)
    sim.run()
    assert log == [(i * 3, i) for i in range(1, 11)] + [(80, "tick")]


def test_interrupt_churn_deterministic_across_runs():
    def run_once():
        sim = Simulator()
        log = []

        def worker(tag):
            for _ in range(5):
                try:
                    yield sim.timeout(10)
                    log.append((sim.now, tag, "tick"))
                except Interrupt:
                    log.append((sim.now, tag, "irq"))

        victims = [sim.process(worker(t)) for t in "abc"]

        def hammer():
            while any(v.is_alive for v in victims):
                yield sim.timeout(7)
                for victim in victims:
                    if victim.is_alive:
                        victim.interrupt()

        sim.process(hammer())
        sim.run(until=1_000)
        return log

    assert run_once() == run_once()


def test_events_have_no_instance_dict():
    """Event/Timeout/Process are slotted; allocation-heavy runs rely
    on it."""
    sim = Simulator()

    def worker():
        yield sim.timeout(1)

    proc = sim.process(worker())
    for obj in (sim.event(), sim.timeout(5), proc):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    sim.run()


def test_interrupt_then_wait_on_processed_event():
    """The direct-push wake path for already-processed targets."""
    sim = Simulator()
    log = []
    done = sim.event()
    done.succeed("ready")

    def worker():
        try:
            yield sim.timeout(100)
        except Interrupt:
            value = yield done  # already processed: wake via queue push
            log.append((sim.now, value))

    proc = sim.process(worker())
    sim.schedule(10, lambda: proc.interrupt())
    sim.run()
    assert log == [(10, "ready")]


# --------------------------------------------------------------- advance
def test_advance_recycles_a_consumed_sleeper():
    sim = Simulator()
    log = []

    def worker():
        sleeper = sim.advance(4)
        yield sleeper
        again = sim.advance(6, sleeper)
        log.append(again is sleeper)
        value = yield again
        log.append((sim.now, value, again.delay))

    sim.process(worker())
    sim.run()
    assert log == [True, (10, None, 6)]


def test_advance_without_a_sleeper_gives_a_fresh_timeout():
    sim = Simulator()
    sleeper = sim.advance(3)
    assert type(sleeper) is Timeout and sleeper.delay == 3
    assert not sleeper.triggered
    sim.run()
    assert sleeper.processed and sim.now == 3


def test_advance_rejects_a_negative_delay():
    sim = Simulator()
    with pytest.raises(ValueError, match="negative"):
        sim.advance(-1)
    assert sim.pending_count == 0


def test_advance_keeps_a_pending_sleeper():
    """A sleeper whose entry has not run yet is not re-armed: the caller
    gets a fresh timeout and the old one still fires at its instant."""
    sim = Simulator()
    old = sim.timeout(10)
    new = sim.advance(3, old)
    assert new is not old
    fired = []
    old.callbacks.append(lambda e: fired.append(("old", sim.now)))
    new.callbacks.append(lambda e: fired.append(("new", sim.now)))
    sim.run()
    assert fired == [("new", 3), ("old", 10)]


def test_advance_keeps_a_sleeper_succeeded_before_its_instant():
    """A timeout succeeded early still has its own entry queued at its
    instant; re-arming the object would wake the process there."""
    sim = Simulator()
    sleeper = sim.timeout(10)
    woke = []

    def worker():
        yield sleeper
        woke.append(sim.now)
        again = sim.advance(20, sleeper)
        woke.append(again is sleeper)
        yield again
        woke.append(sim.now)

    sim.process(worker())
    sim.schedule(2, sleeper.succeed)
    sim.run()
    assert woke == [2, False, 22]


def test_advance_keeps_a_sleeper_that_still_has_callbacks():
    sim = Simulator()
    sleeper = sim.timeout(2)
    sim.run()
    sleeper.callbacks.append(lambda e: None)
    assert sim.advance(5, sleeper) is not sleeper


def test_advance_reuses_one_timeout_across_windows():
    """The block-mode interpreter's pattern: one process, one sleeper,
    many windows."""
    sim = Simulator()
    sleepers = set()

    def worker():
        sleeper = None
        for window in range(1, 51):
            sleeper = sim.advance(window, sleeper)
            sleepers.add(id(sleeper))
            yield sleeper

    sim.process(worker())
    sim.run()
    assert len(sleepers) == 1
    assert sim.now == sum(range(1, 51))


@pytest.mark.parametrize("delay", [0, 1, 7, 1024])
def test_advance_ties_like_a_fresh_timeout(delay):
    """A re-armed sleeper takes its insertion id when it is re-armed, as
    a fresh ``timeout(delay)`` would: against callbacks queued before
    and after it at the same instants, the schedule is the same."""

    def run(sleep):
        sim = Simulator()
        log = []

        def worker():
            sleeper = None
            for window in range(4):
                sim.schedule(delay, lambda w=window: log.append(
                    (sim.now, "before", w)))
                sleeper = sleep(sim, sleeper)
                sim.schedule(delay, lambda w=window: log.append(
                    (sim.now, "after", w)))
                yield sleeper
                log.append((sim.now, "wake", window))

        sim.process(worker())
        sim.run()
        return log, sim._eid

    recycled = run(lambda sim, sleeper: sim.advance(delay, sleeper))
    fresh = run(lambda sim, sleeper: sim.timeout(delay))
    assert recycled == fresh
    assert [entry[1] for entry in recycled[0][:3]] == [
        "before", "wake", "after"]


# ---------------------------------------------------------- event states
def test_event_flags_through_its_lifecycle():
    sim = Simulator()
    event = sim.event("ready")
    assert (event.triggered, event.processed) == (False, False)
    event.succeed(5)
    assert (event.triggered, event.processed, event.ok) == (True, False, True)
    assert event.value == 5 and sim.pending_count == 1
    sim.run()
    assert (event.triggered, event.processed) == (True, True)
    assert "ready" in repr(event) and "processed" in repr(event)


def test_failed_event_is_thrown_into_its_waiter():
    sim = Simulator()
    event = sim.event()
    caught = []

    def worker():
        try:
            yield event
        except KeyError as exc:
            caught.append((sim.now, exc))

    sim.process(worker())
    error = KeyError("gone")
    sim.schedule(4, lambda: event.fail(error))
    sim.run()
    assert not event.ok and event.value is error
    assert caught == [(4, error)]


def test_timeout_delivers_its_value():
    sim = Simulator()
    got = []

    def worker():
        got.append((yield sim.timeout(6, value="tick")))
        got.append(sim.now)

    sim.process(worker())
    sim.run()
    assert got == ["tick", 6]


def test_zero_timeout_runs_after_entries_already_at_the_instant():
    sim = Simulator()
    order = []
    sim.schedule(0, lambda: order.append("queued"))
    sim.timeout(0).callbacks.append(lambda e: order.append("timeout"))
    sim.run()
    assert order == ["queued", "timeout"] and sim.now == 0


# -------------------------------------------------------------- run loop
@pytest.mark.parametrize("until", [None, 100])
def test_callback_exception_escapes_run_and_lifts_the_limit(until):
    """A raising callback ends ``run`` at its instant; the run limit is
    gone afterwards and a later ``run`` carries on with the queue."""
    sim = Simulator()
    fired = []

    def boom():
        raise RuntimeError("boom")

    sim.schedule(10, boom)
    sim.schedule(200, lambda: fired.append(sim.now))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run(until=until)
    assert sim.now == 10
    assert sim.horizon() == 200
    sim.run()
    assert fired == [200]


def test_stop_before_run_does_not_halt_it():
    sim = Simulator()
    fired = []
    sim.schedule(3, lambda: fired.append(sim.now))
    sim.stop()
    sim.run()
    assert fired == [3]


def test_stop_from_a_process_resumes_where_it_left_off():
    sim = Simulator()
    log = []

    def worker():
        for _ in range(3):
            yield sim.timeout(5)
            log.append(sim.now)
            sim.stop()

    sim.process(worker())
    for expected in ([5], [5, 10], [5, 10, 15]):
        sim.run()
        assert log == expected and sim.now == expected[-1]


def test_schedule_takes_whole_cycles():
    sim = Simulator()
    seen = []
    sim.schedule_at(7.0, lambda: seen.append(sim.now))
    sim.schedule(3.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [3, 7]
    assert all(type(time) is int for time in seen)


def test_schedule_at_now_joins_the_running_instant():
    """From inside a callback, an entry for the current instant runs in
    that instant, after the entries already queued there."""
    sim = Simulator()
    order = []
    sim.schedule(5, lambda: sim.schedule_at(
        sim.now, lambda: order.append(("joined", sim.now))))
    sim.schedule(5, lambda: order.append(("queued", sim.now)))
    sim.schedule(6, lambda: order.append(("next", sim.now)))
    sim.run()
    assert order == [("queued", 5), ("joined", 5), ("next", 6)]


# ------------------------------------------------------------- processes
def test_processes_start_in_construction_order():
    sim = Simulator()
    order = []

    def worker(tag):
        order.append((sim.now, tag))
        yield sim.timeout(0)

    sim.schedule(4, lambda: [sim.process(worker(t)) for t in "xyz"])
    for tag in "abc":
        sim.process(worker(tag))
    sim.run()
    assert order == [(0, "a"), (0, "b"), (0, "c"),
                     (4, "x"), (4, "y"), (4, "z")]


def test_process_name_defaults_to_the_generator_name():
    sim = Simulator()

    def sensor_poll():
        yield sim.timeout(1)

    assert sim.process(sensor_poll()).name == "sensor_poll"
    assert sim.process(sensor_poll(), name="poll-0").name == "poll-0"


def test_is_alive_until_the_generator_returns():
    sim = Simulator()

    def worker():
        yield sim.timeout(5)

    proc = sim.process(worker())
    sim.run(until=4)
    assert proc.is_alive and not proc.triggered
    sim.run()
    assert not proc.is_alive and proc.processed


def test_escaped_interrupt_ends_the_process_with_none():
    sim = Simulator()
    log = []

    def victim():
        yield sim.timeout(100)
        log.append("not reached")

    def parent(proc):
        value = yield proc
        log.append((sim.now, value))

    proc = sim.process(victim())
    sim.process(parent(proc))
    sim.schedule(8, lambda: proc.interrupt("kill"))
    sim.run()
    assert log == [(8, None)]
    assert not proc.is_alive and proc.ok


def test_interrupt_guard_is_read_at_delivery():
    """The guard is evaluated when the throw would land, not when the
    interrupt is raised: closed right after ``interrupt()`` returns, it
    drops the interrupt."""
    sim = Simulator()
    log = []
    state = {"open": True}

    def worker():
        try:
            yield sim.timeout(20)
            log.append("completed")
        except Interrupt:
            log.append("interrupted")

    proc = sim.process(worker())

    def raise_then_close():
        proc.interrupt("x", guard=lambda: state["open"])
        state["open"] = False

    sim.schedule(10, raise_then_close)
    sim.run()
    assert log == ["completed"]


def test_triggered_event_is_queued_once():
    sim = Simulator()
    event = sim.event()
    event.succeed()
    assert sim.pending_count == 1
    sim.run()
    assert sim.pending_count == 0 and event.processed


def test_interrupt_dropped_when_the_process_finished_first():
    """The interrupt is queued behind the process's own wake-up at the
    same instant; the process has returned by the time it would land."""
    sim = Simulator()

    def worker():
        yield sim.timeout(10)

    proc = sim.process(worker())
    sim.schedule(10, lambda: proc.interrupt("late"))
    sim.run()
    assert not proc.is_alive and proc.value is None


def test_waiting_on_a_triggered_event_resumes_when_it_is_processed():
    sim = Simulator()
    log = []
    event = sim.event()

    def worker():
        yield sim.timeout(3)
        event.succeed("now")
        log.append((sim.now, (yield event)))

    sim.process(worker())
    sim.run()
    assert log == [(3, "now")]
