"""Unit tests for Store and for the grant/release arbiter of OPBBus.

The bus is the simulator's only mutually exclusive resource; its
arbiter primitives (``_request``/``_release``) are exercised here
directly, and the transfer-level behaviour in tests/hw/test_bus.py.
"""

from repro.hw.bus import OPBBus, RegisterTarget
from repro.sim import Simulator, Store


def test_resource_fifo_order():
    sim = Simulator()
    bus = OPBBus(sim)
    order = []

    def user(tag, hold):
        grant = bus._request(priority=1)
        yield grant
        order.append((tag, sim.now))
        yield sim.timeout(hold)
        bus._release(grant)

    sim.process(user("a", 5))
    sim.process(user("b", 5))
    sim.process(user("c", 5))
    sim.run()
    assert order == [("a", 0), ("b", 5), ("c", 10)]
    assert not bus.busy


def test_release_waiting_request_cancels_it():
    sim = Simulator()
    bus = OPBBus(sim)
    first = bus._request(priority=0)
    second = bus._request(priority=0)
    assert bus.queue_length == 1
    bus._release(second)  # cancel before grant
    assert bus.queue_length == 0
    bus._release(first)
    assert not bus.busy
    assert not second.triggered


def test_priority_resource_fifo_among_equals():
    sim = Simulator()
    bus = OPBBus(sim)
    order = []

    def user(tag):
        grant = bus._request(priority=1)
        yield grant
        order.append(tag)
        yield sim.timeout(1)
        bus._release(grant)

    def spawn():
        hold = bus._request(priority=0)
        yield hold
        for tag in "abc":
            sim.process(user(tag))
        yield sim.timeout(1)
        bus._release(hold)

    sim.process(spawn())
    sim.run()
    assert order == ["a", "b", "c"]


def test_priority_resource_cancel_waiting():
    sim = Simulator()
    bus = OPBBus(sim)
    first = bus._request(priority=0)
    second = bus._request(priority=1)
    third = bus._request(priority=2)
    bus._release(second)
    assert bus.queue_length == 1
    # The holder's release skips the cancelled waiter.
    bus._release(first)
    assert third.triggered and not second.triggered
    bus._release(third)
    assert not bus.busy


def test_resource_wait_accounting():
    sim = Simulator()
    bus = OPBBus(sim)
    reg = RegisterTarget("reg", latency=10)

    def user(master):
        yield from bus.transfer(master, reg)

    sim.process(user(0))
    sim.process(user(1))
    sim.run()
    assert bus.stats.transactions == 2
    assert bus.stats.wait_cycles == {0: 0, 1: 10}


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    store.put("x")
    got = store.get()
    assert got.triggered
    assert got.value == "x"
    assert len(store) == 0


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    values = []

    def consumer():
        item = yield store.get()
        values.append((sim.now, item))

    sim.process(consumer())
    sim.schedule(7, lambda: store.put("late"))
    sim.run()
    assert values == [(7, "late")]


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    assert store.get().value == 1
    assert store.get().value == 2
