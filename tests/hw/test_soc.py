"""Tests for SoC assembly (Figure 1 wiring)."""

import pytest

from repro import CLOCK_HZ, TICK
from repro.hw.soc import SoC, SoCConfig


def test_default_config_matches_paper():
    config = SoCConfig()
    assert CLOCK_HZ == 50_000_000
    assert config.tick_cycles == TICK == 5_000_000  # 0.1 s at 50 MHz
    assert SoC(config).seconds(config.tick_cycles) == pytest.approx(0.1)


def test_builds_requested_core_count():
    for n in (1, 2, 4):
        soc = SoC(SoCConfig(n_cpus=n))
        assert len(soc.cores) == n
        assert soc.intc.n_cpus == n
        assert soc.crossbar.n_ports == n


def test_cores_have_private_memories_and_caches():
    soc = SoC(SoCConfig(n_cpus=2))
    assert soc.core(0).local_mem is not soc.core(1).local_mem
    assert soc.core(0).icache is not soc.core(1).icache
    assert soc.core(0).bus is soc.core(1).bus  # single shared OPB


def test_interrupt_lines_wired():
    soc = SoC(SoCConfig(n_cpus=2))
    source = soc.intc.add_source("dev")
    soc.intc.raise_interrupt(source)
    assert soc.core(0).line_asserted
    assert not soc.core(1).line_asserted


def test_enable_listener_mirrors_to_mpic():
    soc = SoC(SoCConfig(n_cpus=2))
    soc.core(0).disable_interrupts()
    source = soc.intc.add_source("dev")
    soc.intc.raise_interrupt(source)
    # cpu0 disabled -> offer goes to cpu1.
    assert not soc.core(0).line_asserted
    assert soc.core(1).line_asserted


def test_add_can_interface():
    soc = SoC(SoCConfig(n_cpus=2))
    can = soc.add_can_interface("can0", task_name="evt")
    assert soc.peripherals["can0"] is can
    with pytest.raises(ValueError):
        soc.add_can_interface("can0")


def test_can_frames_raise_interrupts():
    soc = SoC(SoCConfig(n_cpus=1))
    can = soc.add_can_interface("can0", task_name="evt")
    can.program_frames([100, 200])
    soc.sim.run(until=150)
    assert can.events_raised == 1
    _, payload = soc.intc.acknowledge(0)
    assert payload["task"] == "evt"
    assert payload["kind"] == "aperiodic"


def test_seconds_helper():
    soc = SoC(SoCConfig())
    assert soc.seconds(50_000_000) == pytest.approx(1.0)


def test_timer_period_follows_config():
    soc = SoC(SoCConfig(n_cpus=1, tick_cycles=123_000))
    assert soc.timer.period == 123_000


def test_invalid_configs():
    with pytest.raises(ValueError):
        SoCConfig(n_cpus=0)
    with pytest.raises(ValueError):
        SoCConfig(tick_cycles=0)
