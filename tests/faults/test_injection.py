"""Hardware fault surfaces and the injector: determinism and identity."""

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.scenarios import (
    baseline_run,
    crash_plan,
    demo_taskset,
    run_scenario,
)
from repro.hw.bus import OPBBus
from repro.hw.intc import MultiprocessorInterruptController
from repro.hw.memory import WordStorage
from repro.hw.soc import SoC, SoCConfig
from repro.hw.timer import SystemTimer
from repro.kernel import DualPriorityMicrokernel
from repro.sim import Simulator


# -------------------------------------------------------------- hw surfaces
def test_memory_bit_flip_corrupts_and_counts():
    mem = WordStorage(base=0x4000_0000, size=64, name="test-ram")
    mem.write_word(0x4000_0000, 0b1010)
    value = mem.flip_bit(0x4000_0000, 1)
    assert value == 0b1000
    assert mem.read_word(0x4000_0000) == 0b1000
    assert mem.bitflips == 1
    with pytest.raises(ValueError):
        mem.flip_bit(0x4000_0000, 32)


def test_timer_glitch_swallows_a_tick_but_keeps_cadence():
    sim = Simulator()
    intc = MultiprocessorInterruptController(sim, 1)
    intc.connect_cpu(0, lambda asserted: None)
    timer = SystemTimer(sim, intc, period=100)
    sim.schedule_at(50, lambda: timer.glitch(1))
    timer.start()
    sim.run(until=450)
    # Ticks would fire at 100..400; the first is suppressed.
    assert timer.glitches == 1
    assert timer.ticks == 3
    # The cadence is unshifted: the next tick is still on the grid.
    assert timer.next_tick % 100 == 0


def _ipi_fixture():
    sim = Simulator()
    intc = MultiprocessorInterruptController(sim, 2)
    asserted_at = []
    intc.connect_cpu(0, lambda asserted: None)
    intc.connect_cpu(1, lambda asserted: asserted_at.append((sim.now, asserted)))
    return sim, intc, asserted_at


def test_ipi_drop_window():
    sim, intc, asserted_at = _ipi_fixture()
    intc.inject_ipi_fault("drop", until=100)
    sim.schedule_at(50, lambda: intc.send_ipi(0, 1))
    sim.schedule_at(200, lambda: intc.send_ipi(0, 1))
    sim.run()
    assert intc.ipis_dropped == 1
    # Only the post-window IPI asserted the line.
    assert [t for t, up in asserted_at if up] == [200]


def test_ipi_delay_window():
    sim, intc, asserted_at = _ipi_fixture()
    intc.inject_ipi_fault("delay", until=100, arg=40)
    sim.schedule_at(50, lambda: intc.send_ipi(0, 1))
    sim.run()
    assert intc.ipis_delayed == 1
    assert [t for t, up in asserted_at if up] == [90]


def test_ipi_duplicate_window():
    sim, intc, asserted_at = _ipi_fixture()
    intc.inject_ipi_fault("duplicate", until=100)
    sim.schedule_at(50, lambda: intc.send_ipi(0, 1))
    sim.run()
    assert intc.ipis_duplicated == 1
    # The original plus its duplicate are both offered to the target.
    assert intc.pending_for(1) == 2


def test_ipi_fault_window_disarms_after_until():
    sim, intc, asserted_at = _ipi_fixture()
    intc.inject_ipi_fault("drop", until=100)
    sim.schedule_at(150, lambda: intc.send_ipi(0, 1))
    sim.schedule_at(160, lambda: intc.send_ipi(0, 1))
    sim.run()
    assert intc.ipis_dropped == 0
    assert intc.pending_for(1) == 2


def test_bus_stall_accounts_cycles():
    sim = Simulator()
    bus = OPBBus(sim)
    sim.process(bus.stall(250))
    sim.run()
    assert bus.stats.stalls_injected == 1
    assert bus.stats.stall_cycles == 250


# ------------------------------------------------------------ the injector
def _kernel_fixture():
    soc = SoC(SoCConfig(n_cpus=2, tick_cycles=20_000, chunk_cycles=1_000))
    kernel = DualPriorityMicrokernel(soc, demo_taskset())
    return soc, kernel


def test_injector_cannot_arm_twice():
    _, kernel = _kernel_fixture()
    injector = FaultInjector(kernel, crash_plan())
    injector.arm()
    with pytest.raises(RuntimeError):
        injector.arm()


def test_injector_rejects_past_events():
    soc, kernel = _kernel_fixture()
    soc.sim.run(until=100)
    plan = FaultPlan(events=(
        FaultEvent(kind="task_crash", time=10, task="tight"),
    ))
    with pytest.raises(ValueError):
        FaultInjector(kernel, plan).arm()


def test_injected_run_replays_bit_for_bit():
    first = run_scenario(plan=crash_plan(), recovery={"enabled": True})
    second = run_scenario(plan=crash_plan(), recovery={"enabled": True})
    assert first == second


def test_zero_fault_plan_identical_to_no_injector():
    empty = run_scenario(plan=FaultPlan())
    baseline = baseline_run()
    assert empty["jobs"] == baseline["jobs"]
    assert empty["trace"] == baseline["trace"]
    assert empty["stats"] == baseline["stats"]
    assert empty["now"] == baseline["now"]


def test_fault_instants_land_in_the_trace():
    result = run_scenario(plan=crash_plan(), recovery={"enabled": True})
    kinds = {event.kind for event in result["trace"]}
    assert "fault_injected" in kinds
    assert "fault" in kinds
    assert "retry" in kinds


def test_injector_stats_count_fired_events():
    result = run_scenario(plan=crash_plan(), recovery={"enabled": True})
    stats = result["injector"]
    assert stats["planned"] == len(crash_plan())
    assert stats["fired"] == stats["planned"]
    assert stats["by_kind"] == {"task_crash": len(crash_plan())}
