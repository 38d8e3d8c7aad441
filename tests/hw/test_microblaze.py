"""Tests for the MicroBlaze core model (profile-driven execution)."""

from dataclasses import asdict

import pytest

from repro.hw.bus import OPBBus
from repro.hw.memory import DDRMemory
from repro.hw.microblaze import ExecutionProfile, MicroBlaze, SegmentResult
from repro.sim import Interrupt, Simulator
from tests.hw.reference_bus import ReferenceBus
from tests.hw.reference_core import ReferenceCore


def make_core(sim=None, cpu=0, chunk=1000):
    sim = sim or Simulator()
    bus = OPBBus(sim)
    ddr = DDRMemory()
    return sim, MicroBlaze(sim, cpu, bus, ddr, chunk_cycles=chunk)


def test_profile_validation():
    with pytest.raises(ValueError):
        ExecutionProfile(access_period=0)
    with pytest.raises(ValueError):
        ExecutionProfile(access_words=0)


def test_uncontended_execution_takes_nominal_time():
    sim, core = make_core()
    result = SegmentResult()

    def run():
        yield from core.execute(10_000, ExecutionProfile(100, 4), result)

    sim.process(run())
    sim.run()
    assert result.completed
    assert result.nominal_done == 10_000
    # Uncontended: real == nominal (bus latency is inside the budget).
    assert result.real_cycles == 10_000
    assert result.wait_cycles == 0
    assert sim.now == 10_000


def test_contended_execution_stretches():
    sim = Simulator()
    bus = OPBBus(sim)
    ddr = DDRMemory()
    a = MicroBlaze(sim, 0, bus, ddr, chunk_cycles=500)
    b = MicroBlaze(sim, 1, bus, ddr, chunk_cycles=500)
    results = [SegmentResult(), SegmentResult()]

    def run(core, result):
        yield from core.execute(20_000, ExecutionProfile(40, 4), result)

    sim.process(run(a, results[0]))
    sim.process(run(b, results[1]))
    sim.run()
    assert all(r.completed for r in results)
    # Both saturate the bus (18/40 each): real time must exceed nominal.
    assert results[0].real_cycles > 20_000 or results[1].real_cycles > 20_000
    assert sim.now > 20_000


def test_interrupt_mid_execution_credits_partial_progress():
    sim, core = make_core(chunk=1000)
    result = SegmentResult()
    state = {}

    def run():
        try:
            yield from core.execute(100_000, ExecutionProfile(100, 4), result)
        except Interrupt:
            state["interrupted_at"] = sim.now

    proc = sim.process(run())
    sim.schedule(12_345, lambda: proc.interrupt("irq"))
    sim.run()
    assert state["interrupted_at"] == 12_345
    # Progress within ~1 chunk of the interrupt instant.
    assert 11_345 <= result.nominal_done <= 12_345
    assert not result.completed


def test_zero_cycles_completes_immediately():
    sim, core = make_core()
    result = SegmentResult()

    def run():
        yield from core.execute(0, result=result)

    sim.process(run())
    sim.run()
    assert result.completed
    assert result.nominal_done == 0


def test_negative_cycles_rejected():
    sim, core = make_core()
    with pytest.raises(ValueError):
        list(core.execute(-1))


def test_idle_accounting():
    sim, core = make_core()

    def run():
        yield from core.idle(500)

    sim.process(run())
    sim.run()
    assert core.idle_cycles == 500
    assert core.busy_cycles == 0


def test_irq_event_fires_immediately_if_asserted():
    sim, core = make_core()
    core.on_interrupt_line(True)
    event = core.irq_event()
    assert event.triggered


def test_irq_event_waits_for_assertion():
    sim, core = make_core()
    event = core.irq_event()
    assert not event.triggered
    core.on_interrupt_line(True)
    assert event.triggered


def test_irq_event_respects_disable():
    sim, core = make_core()
    core.disable_interrupts()
    core.on_interrupt_line(True)
    event = core.irq_event()
    assert not event.triggered
    core.enable_interrupts()
    assert event.triggered


def test_enable_listener_called():
    sim, core = make_core()
    calls = []
    core.add_enable_listener(calls.append)
    core.disable_interrupts()
    core.enable_interrupts()
    assert calls == [False, True]


def test_utilization_stats():
    sim, core = make_core()

    def run():
        yield from core.execute(1000, ExecutionProfile(100, 4))
        yield from core.idle(200)

    sim.process(run())
    sim.run()
    stats = core.utilization_stats
    assert stats["busy"] == 1000
    assert stats["idle"] == 200
    assert stats["nominal"] == 1000


def run_interrupted_pair(core_cls, bus_cls, irq_at):
    """Two cores contend; cpu1 is interrupted at ``irq_at`` mid-batch."""
    sim = Simulator()
    bus = bus_cls(sim)
    ddr = DDRMemory()
    cores = [core_cls(sim, cpu, bus, ddr, chunk_cycles=2000) for cpu in (0, 1)]
    results = [SegmentResult(), SegmentResult()]
    ends = {}

    def run(cpu):
        try:
            yield from cores[cpu].execute(6000, ExecutionProfile(40, 4), results[cpu])
        except Interrupt:
            pass
        ends[cpu] = sim.now

    procs = [sim.process(run(cpu)) for cpu in (0, 1)]
    sim.schedule_at(irq_at, lambda: procs[1].interrupt("irq"))
    sim.run()
    return bus, cores, results, ends


@pytest.mark.parametrize("irq_at", [1101, 1350, 1500, 1777, 2899, 4321, 5000])
def test_interrupt_mid_batch_matches_unbatched_loop(irq_at):
    bus, cores, results, ends = run_interrupted_pair(MicroBlaze, OPBBus, irq_at)
    ref_bus, ref_cores, ref_results, ref_ends = run_interrupted_pair(
        ReferenceCore, ReferenceBus, irq_at)
    # Each chunk spends 1100 local cycles, then issues its 50
    # transactions as one batch; cpu1's batches span [1100, 2900) and
    # [4000, 5782), so every instant above lands inside one (holding
    # the bus or queued for it).
    assert ends[1] == irq_at and not results[1].completed
    assert results[0].completed and not bus.busy and bus.queue_length == 0
    # Only the transactions that finished before the interrupt count.
    assert bus.stats.transactions_by_master.get(1, 0) < 150
    assert asdict(bus.stats) == asdict(ref_bus.stats)
    assert ends == ref_ends
    for got, want in zip(results, ref_results):
        assert vars(got) == vars(want)
    for got, want in zip(cores, ref_cores):
        assert got.utilization_stats == want.utilization_stats
