"""Process steps played in place: ``Simulator.sleep`` and the quiet-bus
``OPBBus.transfer``.

A process running as the last callback of its dispatch plays a step in
place when the step ends strictly before anything else could be
dispatched: it takes the insertion ids its queue entries would take and
moves ``now`` itself, without yielding.  Every test runs its scenario on
the engine and on the queued oracle (:class:`QueuedSimulator`, whose
processes never play in place) and requires the same log, in which
foreign entries record the queue's ``(time, insertion id)`` keys, and
the same insertion-id count.  It also checks whether the step played in
place by counting process resumes.
"""

import pytest

from repro.hw.bus import OPBBus, RegisterTarget
from repro.sim import Simulator
from repro.sim.engine import Process, push_only
from tests.sim.queued_engine import QueuedSimulator

#: Both steps last this long: a sleep, or four 3-cycle transactions.
LENGTH = 12
REGISTERS = RegisterTarget("regs", latency=3)


def step(kind, sim, bus):
    """The step under test, as a generator."""
    if kind == "sleep":
        return sim.sleep(LENGTH)
    return bus.transfer(0, REGISTERS, 1, LENGTH // REGISTERS.latency)


@pytest.fixture
def resumes(monkeypatch):
    """Process resumes per simulator, counted from now on."""
    counts = {}
    resume = Process._resume

    def counting(self, event, throw=None):
        counts[self.sim] = counts.get(self.sim, 0) + 1
        return resume(self, event, throw)

    monkeypatch.setattr(Process, "_resume", counting)
    return counts


def keys(sim):
    """The queued entries' ``(time, insertion id)`` keys, in order."""
    return sorted(entry[:2] for entry in sim._heap)


def on_both(scenario, kind, resumes):
    """Run ``scenario(sim, bus, log, kind)`` on the engine and on the
    queued oracle; require the same log, bus stats and insertion-id
    count.  Returns the process resumes each engine needed."""
    runs = []
    for engine in (Simulator, QueuedSimulator):
        sim = engine()
        bus = OPBBus(sim)
        log = []
        scenario(sim, bus, log, kind)
        runs.append((log, bus.stats, sim._eid, sim.now))
    assert runs[0] == runs[1]
    sims = list(resumes)
    return resumes[sims[0]], resumes[sims[1]]


def probe_at(sim, log, time):
    """A foreign entry at ``time`` that logs the queue's keys."""
    sim.schedule_at(time, lambda: log.append(("probe", sim.now, keys(sim))))


def single(sim, bus, log, kind, start=0, steps=1):
    """One process: wait ``start``, then ``steps`` times play the step
    and log the instant and the insertion-id count."""
    def proc():
        if start:
            yield sim.timeout(start)
        for _ in range(steps):
            yield from step(kind, sim, bus)
            log.append(("done", sim.now, sim._eid))

    sim.process(proc())


KINDS = ["sleep", "transfer"]


@pytest.mark.parametrize("kind", KINDS)
def test_step_plays_in_place_under_the_queued_key(kind, resumes):
    def scenario(sim, bus, log, kind):
        single(sim, bus, log, kind, steps=2)
        probe_at(sim, log, 100)
        sim.run()

    # The start only, against the start and a wake-up per step.
    assert on_both(scenario, kind, resumes) == (1, 3)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("at, played", [(3, False), (LENGTH, False),
                                        (LENGTH + 1, True)])
def test_an_entry_due_at_or_before_the_end_queues_the_step(kind, at, played,
                                                           resumes):
    def scenario(sim, bus, log, kind):
        single(sim, bus, log, kind)
        probe_at(sim, log, at)
        sim.run()

    assert on_both(scenario, kind, resumes)[0] == (1 if played else 2)


@pytest.mark.parametrize("kind", KINDS)
def test_a_process_that_is_not_last_in_its_dispatch_queues(kind, resumes):
    """Two processes wake on one event: the first must queue its step,
    since the second runs in the same dispatch and logs at the wake-up
    instant."""
    def scenario(sim, bus, log, kind):
        gate = sim.event()

        def stepper():
            yield gate
            yield from step(kind, sim, bus)
            log.append(("stepper", sim.now, sim._eid))

        def watcher():
            yield gate
            log.append(("watcher", sim.now, sim._eid))

        sim.process(stepper())
        sim.process(watcher())
        sim.schedule(5, gate.succeed)
        sim.run()

    # Two starts, two wake-ups, and the stepper's wake-up after its step.
    assert on_both(scenario, kind, resumes) == (5, 5)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("until, played", [(LENGTH, True),
                                           (LENGTH - 1, False)])
def test_the_run_limit_queues_a_step_that_ends_past_it(kind, until, played,
                                                       resumes):
    def scenario(sim, bus, log, kind):
        single(sim, bus, log, kind)
        sim.run(until=until)
        log.append(("limit", sim.now, keys(sim)))
        sim.run()

    assert on_both(scenario, kind, resumes)[0] == (1 if played else 2)


@pytest.mark.parametrize("kind", KINDS)
def test_a_stopped_run_queues_the_step(kind, resumes):
    def scenario(sim, bus, log, kind):
        def proc():
            sim.stop()
            yield from step(kind, sim, bus)
            log.append(("done", sim.now, sim._eid))

        sim.process(proc())
        sim.run()
        log.append(("stopped", sim.now, keys(sim)))
        sim.run()

    assert on_both(scenario, kind, resumes)[0] == 2


def test_a_busy_bus_queues_the_transfer(resumes):
    """A transfer that finds the bus held waits for its grant."""
    def scenario(sim, bus, log, kind):
        single(sim, bus, log, kind, start=5)

        def holder():
            yield from bus.transfer(1, REGISTERS, 1, 4)
            log.append(("holder", sim.now))

        sim.process(holder())
        sim.schedule(3, lambda: None)  # the holder's batch cannot play
        sim.run()

    # Two starts, the wake-up after the delay, then the holder's and the
    # step's wake-ups.
    assert on_both(scenario, "transfer", resumes)[0] == 5


class Grant:
    """A push-only entry: run, it pushes one logging entry ``gap``
    cycles later, as a bus grant pushes its hold."""

    def __init__(self, sim, log, gap):
        self.sim, self.log, self.gap = sim, log, gap

    @push_only
    def fire(self):
        self.sim.schedule(self.gap, lambda: self.log.append(
            ("hold", self.sim.now, keys(self.sim))))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("gap, played", [(LENGTH + 1, True), (LENGTH, False),
                                         (2, False)])
def test_a_push_only_entry_due_now_runs_ahead_of_the_step(kind, gap, played,
                                                          resumes):
    """The step takes its id, runs the push-only entry due at ``now``
    (its push takes the next id), then plays only if it still ends before
    the head."""
    def scenario(sim, bus, log, kind):
        def proc():
            sim.schedule(0, Grant(sim, log, gap).fire)
            yield from step(kind, sim, bus)
            log.append(("done", sim.now, sim._eid))

        sim.process(proc())
        sim.run()

    assert on_both(scenario, kind, resumes)[0] == (1 if played else 2)


def test_a_plain_entry_due_now_is_not_run_ahead(resumes):
    def scenario(sim, bus, log, kind):
        def proc():
            sim.schedule(0, lambda: log.append(("plain", sim.now)))
            yield from sim.sleep(LENGTH)
            log.append(("done", sim.now, sim._eid))

        sim.process(proc())
        sim.run()

    assert on_both(scenario, "sleep", resumes)[0] == 2


def test_sleep_rejects_a_negative_delay():
    sim = Simulator()

    def proc():
        yield from sim.sleep(-1)

    sim.process(proc())
    with pytest.raises(ValueError, match="negative sleep delay"):
        sim.run()
