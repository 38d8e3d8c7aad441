"""Tests for the multiprocessor interrupt controller (MPIC)."""

import pytest

from repro.hw.intc import InterruptMode, MultiprocessorInterruptController
from repro.sim import Simulator


class Lines:
    """Capture line assertions per cpu."""

    def __init__(self, intc, n):
        self.state = [False] * n
        self.history = []
        for cpu in range(n):
            intc.connect_cpu(cpu, self._make(cpu))

    def _make(self, cpu):
        def cb(asserted):
            self.state[cpu] = asserted
            self.history.append((cpu, asserted))
        return cb


def setup(n_cpus=2, timeout=100):
    sim = Simulator()
    intc = MultiprocessorInterruptController(sim, n_cpus, ack_timeout=timeout)
    lines = Lines(intc, n_cpus)
    return sim, intc, lines


def test_distribute_goes_to_first_free_cpu():
    sim, intc, lines = setup()
    src = intc.add_source("dev")
    intc.raise_interrupt(src, payload="hello")
    assert lines.state == [True, False]
    source, payload = intc.acknowledge(0)
    assert source is src
    assert payload == "hello"
    assert lines.state == [False, False]


def test_distribution_skips_busy_cpu():
    sim, intc, lines = setup()
    src = intc.add_source("dev")
    intc.raise_interrupt(src)
    intc.acknowledge(0)  # cpu0 now servicing
    intc.raise_interrupt(src)
    assert lines.state == [False, True]


def test_parallel_handlers_tracked():
    sim, intc, lines = setup()
    src = intc.add_source("dev")
    intc.raise_interrupt(src)
    intc.acknowledge(0)
    intc.raise_interrupt(src)
    intc.acknowledge(1)
    assert intc.max_parallel_handlers == 2
    intc.complete(0)
    intc.complete(1)


def test_timeout_reroutes_to_next_cpu():
    sim, intc, lines = setup(timeout=50)
    src = intc.add_source("dev")
    intc.raise_interrupt(src)
    assert lines.state == [True, False]
    sim.run(until=60)  # cpu0 never acks
    assert lines.state == [False, True]
    assert intc.timeouts == 1
    source, _ = intc.acknowledge(1)
    assert source is src


def test_ack_after_timeout_window_still_works_if_claimed_before():
    sim, intc, lines = setup(timeout=50)
    src = intc.add_source("dev")
    intc.raise_interrupt(src)
    intc.acknowledge(0)
    sim.run(until=100)  # timeout must not re-route a claimed interrupt
    assert intc.timeouts == 0


def test_parked_when_all_busy_then_retried():
    sim, intc, lines = setup()
    src = intc.add_source("dev")
    intc.raise_interrupt(src)
    intc.acknowledge(0)
    intc.raise_interrupt(src)
    intc.acknowledge(1)
    intc.raise_interrupt(src)  # nobody free -> parked
    assert lines.state == [False, False]
    intc.complete(0)
    assert lines.state == [True, False]


def test_booking_restricts_delivery():
    sim, intc, lines = setup()
    src = intc.add_source("dev", mode=InterruptMode.BOOKED, booked_cpu=1)
    intc.raise_interrupt(src)
    assert lines.state == [False, True]


def test_book_and_unbook():
    sim, intc, lines = setup()
    src = intc.add_source("dev")
    intc.book(src, 1)
    intc.raise_interrupt(src)
    assert lines.state == [False, True]
    intc.acknowledge(1)
    intc.complete(1)
    intc.unbook(src)
    intc.raise_interrupt(src)
    assert lines.state == [True, False]


def test_broadcast_reaches_all():
    sim, intc, lines = setup()
    src = intc.add_source("timer", mode=InterruptMode.BROADCAST)
    intc.raise_interrupt(src)
    assert lines.state == [True, True]


def test_multicast_reaches_selected():
    sim, intc, lines = setup(n_cpus=3)
    src = intc.add_source("dev", mode=InterruptMode.MULTICAST, multicast_cpus={0, 2})
    intc.raise_interrupt(src)
    assert lines.state == [True, False, True]


def test_multicast_requires_targets():
    sim, intc, _ = setup()
    with pytest.raises(ValueError):
        intc.add_source("dev", mode=InterruptMode.MULTICAST)


def test_booked_requires_cpu():
    sim, intc, _ = setup()
    with pytest.raises(ValueError):
        intc.add_source("dev", mode=InterruptMode.BOOKED)


def test_ipi_targets_specific_cpu():
    sim, intc, lines = setup()
    intc.send_ipi(0, 1, payload={"kind": "ipi"})
    assert lines.state == [False, True]
    source, payload = intc.acknowledge(1)
    assert payload == {"kind": "ipi"}
    assert intc.ipis_sent == 1


def test_ipi_out_of_range():
    sim, intc, _ = setup()
    with pytest.raises(ValueError):
        intc.send_ipi(0, 9)


def test_disabled_cpu_not_offered():
    sim, intc, lines = setup()
    intc.set_enabled(0, False)
    src = intc.add_source("dev")
    intc.raise_interrupt(src)
    assert lines.state == [False, True]


def test_reenabling_delivers_parked():
    sim, intc, lines = setup(n_cpus=1)
    intc.set_enabled(0, False)
    src = intc.add_source("dev")
    intc.raise_interrupt(src)
    assert lines.state == [False]
    intc.set_enabled(0, True)
    assert lines.state == [True]


def test_spurious_ack_raises():
    sim, intc, _ = setup()
    with pytest.raises(RuntimeError):
        intc.acknowledge(0)


def test_eoi_without_service_raises():
    sim, intc, _ = setup()
    with pytest.raises(RuntimeError):
        intc.complete(0)


def test_delivery_counts():
    sim, intc, _ = setup()
    src = intc.add_source("dev")
    intc.raise_interrupt(src)
    intc.acknowledge(0)
    intc.complete(0)
    assert intc.delivered == 1


def test_book_out_of_range_raises():
    sim, intc, _ = setup()
    src = intc.add_source("dev")
    with pytest.raises(ValueError):
        intc.book(src, 2)
    assert src.mode is InterruptMode.DISTRIBUTE


def test_booked_offer_not_rerouted_on_timeout():
    sim, intc, lines = setup(timeout=50)
    src = intc.add_source("dev")
    intc.book(src, 1)
    intc.raise_interrupt(src)
    sim.run(until=200)
    assert lines.state == [False, True]
    assert intc.timeouts == 0


def test_rebooking_moves_delivery():
    sim, intc, lines = setup(n_cpus=3)
    src = intc.add_source("dev")
    intc.book(src, 2)
    intc.raise_interrupt(src, payload="first")
    assert lines.state == [False, False, True]
    assert intc.acknowledge(2) == (src, "first")
    intc.complete(2)
    intc.book(src, 0)
    intc.raise_interrupt(src, payload="second")
    assert lines.state == [True, False, False]
    assert intc.acknowledge(0) == (src, "second")


def test_booked_offer_queues_behind_busy_cpu():
    sim, intc, lines = setup()
    src = intc.add_source("dev", mode=InterruptMode.BOOKED, booked_cpu=0)
    intc.raise_interrupt(src)
    intc.acknowledge(0)
    intc.raise_interrupt(src)  # cpu0 busy: the booked offer waits, cpu1 never sees it
    assert intc.pending_for(0) == 1
    assert lines.state == [True, False]


def test_raise_from_foreign_source_rejected():
    sim, intc, _ = setup()
    other = MultiprocessorInterruptController(Simulator(), 2)
    other.add_source("a")
    stranger = other.add_source("b")  # id 1: never registered with intc
    with pytest.raises(ValueError):
        intc.raise_interrupt(stranger)
