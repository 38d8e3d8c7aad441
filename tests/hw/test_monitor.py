"""Tests for the windowed bus monitor."""

import pytest

from repro.hw.bus import OPBBus
from repro.hw.memory import DDRMemory
from repro.hw.monitor import BusMonitor, BusSample
from repro.sim import Simulator


def busy_system(duration=10_000, masters=2):
    sim = Simulator()
    bus = OPBBus(sim)
    ddr = DDRMemory()

    def master(mid):
        while sim.now < duration:
            yield from bus.transfer(mid, ddr, words=4)
            yield sim.timeout(10)

    for mid in range(masters):
        sim.process(master(mid))
    return sim, bus


def test_samples_cover_run():
    sim, bus = busy_system(duration=10_000)
    monitor = BusMonitor(sim, bus, window=1_000)
    monitor.start()
    sim.run(until=10_000)
    assert len(monitor.samples) == 10
    assert monitor.samples[0].start == 0
    assert monitor.samples[-1].end == 10_000


def test_utilization_within_bounds():
    sim, bus = busy_system()
    monitor = BusMonitor(sim, bus, window=1_000)
    monitor.start()
    sim.run(until=10_000)
    for sample in monitor.samples:
        assert 0.0 <= sample.utilization <= 1.0
    assert monitor.peak_utilization() > 0.5


def test_windows_sum_to_cumulative():
    sim, bus = busy_system()
    monitor = BusMonitor(sim, bus, window=1_000)
    monitor.start()
    sim.run(until=10_000)
    assert sum(s.busy_cycles for s in monitor.samples) == bus.stats.busy_cycles
    assert sum(s.transactions for s in monitor.samples) == bus.stats.transactions


def test_idle_bus_reads_zero():
    sim = Simulator()
    bus = OPBBus(sim)
    monitor = BusMonitor(sim, bus, window=500)
    monitor.start()
    sim.run(until=2_000)
    assert monitor.utilization_series() == [0.0] * 4
    assert monitor.steady_state_utilization() == 0.0


def test_stop_halts_sampling():
    sim, bus = busy_system()
    monitor = BusMonitor(sim, bus, window=1_000)
    monitor.start()
    sim.run(until=3_000)
    monitor.stop()
    sim.run(until=10_000)
    assert len(monitor.samples) == 3


def test_sparkline_renders():
    sim, bus = busy_system()
    monitor = BusMonitor(sim, bus, window=1_000)
    monitor.start()
    sim.run(until=10_000)
    art = monitor.sparkline(width=20)
    assert len(art) <= 20
    assert art.strip()  # busy bus -> non-blank glyphs
    assert BusMonitor(Simulator(), bus, window=10).sparkline() == "(no samples)"


def test_validation():
    sim = Simulator()
    bus = OPBBus(sim)
    with pytest.raises(ValueError):
        BusMonitor(sim, bus, window=0)
    monitor = BusMonitor(sim, bus, window=10)
    monitor.start()
    with pytest.raises(RuntimeError):
        monitor.start()


def test_utilization_series_matches_samples():
    sim, bus = busy_system()
    monitor = BusMonitor(sim, bus, window=1_000)
    monitor.start()
    sim.run(until=10_000)
    series = monitor.utilization_series()
    assert series == [s.utilization for s in monitor.samples]
    assert monitor.peak_utilization() == max(series)


def test_steady_state_skips_warmup_windows():
    sim, bus = busy_system()
    monitor = BusMonitor(sim, bus, window=1_000)
    monitor.start()
    sim.run(until=10_000)
    series = monitor.utilization_series()
    assert monitor.steady_state_utilization() == pytest.approx(
        sum(series[1:]) / len(series[1:])
    )
    assert monitor.steady_state_utilization(skip=3) == pytest.approx(
        sum(series[3:]) / len(series[3:])
    )
    # skipping every sample degenerates to 0.0, not a ZeroDivisionError
    assert monitor.steady_state_utilization(skip=len(series)) == 0.0


def test_peak_on_empty_monitor_is_zero():
    sim = Simulator()
    bus = OPBBus(sim)
    monitor = BusMonitor(sim, bus, window=100)
    assert monitor.peak_utilization() == 0.0
    assert monitor.utilization_series() == []


def test_fold_bus_monitor_into_registry():
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.report import fold_bus_monitor

    sim, bus = busy_system()
    monitor = BusMonitor(sim, bus, window=1_000)
    monitor.start()
    sim.run(until=10_000)
    registry = MetricsRegistry()
    fold_bus_monitor(registry, monitor)
    snap = registry.snapshot()
    assert snap["bus_window_utilization"]["series"][0]["count"] == len(monitor.samples)
    assert snap["bus_peak_utilization"]["series"][0]["value"] == pytest.approx(
        monitor.peak_utilization(), abs=1e-6)
    assert snap["bus_steady_state_utilization"]["series"][0]["value"] == pytest.approx(
        monitor.steady_state_utilization(), abs=1e-6)


def test_fold_bus_monitor_custom_prefix():
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.report import fold_bus_monitor

    sim = Simulator()
    bus = OPBBus(sim)
    monitor = BusMonitor(sim, bus, window=100)
    registry = MetricsRegistry()
    fold_bus_monitor(registry, monitor, prefix="opb")
    assert "opb_peak_utilization" in registry
    assert "bus_peak_utilization" not in registry


def test_mean_wait_per_sample():
    sample = BusSample(start=0, end=100, busy_cycles=50, transactions=5, wait_cycles=20)
    assert sample.mean_wait == 4.0
    empty = BusSample(start=0, end=100, busy_cycles=0, transactions=0, wait_cycles=0)
    assert empty.mean_wait == 0.0
