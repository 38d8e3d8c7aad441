"""Tests for the interrupting peripherals (the CAN event path of Figure 4)."""

import pytest

from repro.hw.intc import InterruptMode, MultiprocessorInterruptController
from repro.hw.peripherals import CANInterface, InterruptingPeripheral
from repro.sim import Simulator


def setup(n_cpus=1, ack_timeout=500):
    sim = Simulator()
    intc = MultiprocessorInterruptController(sim, n_cpus, ack_timeout=ack_timeout)
    lines = [False] * n_cpus
    for cpu in range(n_cpus):
        intc.connect_cpu(cpu, lambda asserted, c=cpu: lines.__setitem__(c, asserted))
    return sim, intc, lines


def test_source_registered_as_distributed():
    sim, intc, _ = setup()
    dev = InterruptingPeripheral(sim, intc, "dev")
    assert intc.sources[dev.source.source_id] is dev.source
    assert dev.source.name == "dev"
    assert dev.source.mode is InterruptMode.DISTRIBUTE


def test_register_block_named_after_peripheral():
    sim, intc, _ = setup()
    dev = InterruptingPeripheral(sim, intc, "dev", register_latency=4)
    assert dev.registers.name == "dev"
    assert dev.registers.access_latency(3) == 12


def test_events_fire_at_programmed_times():
    sim, intc, lines = setup()
    dev = InterruptingPeripheral(sim, intc, "dev")
    dev.program_events([300, 100])
    sim.run(until=99)
    assert dev.events_raised == 0
    assert lines == [False]
    sim.run(until=150)
    assert dev.events_raised == 1
    assert lines == [True]
    source, payload = intc.acknowledge(0)
    assert source is dev.source
    assert payload == {"peripheral": "dev", "time": 100}


def test_payload_factory_used():
    sim, intc, _ = setup()
    dev = InterruptingPeripheral(sim, intc, "dev")
    dev.program_events([40], payload_factory=lambda t: ("sample", t * 2))
    sim.run(until=50)
    _, payload = intc.acknowledge(0)
    assert payload == ("sample", 80)


def test_simultaneous_events_spread_over_free_cpus():
    sim, intc, lines = setup(n_cpus=2)
    dev = InterruptingPeripheral(sim, intc, "dev")
    dev.program_events([10, 10])
    sim.run(until=20)
    assert dev.events_raised == 2
    assert lines == [True, True]


def test_can_task_name_defaults_to_none():
    sim, intc, _ = setup()
    can = CANInterface(sim, intc)
    assert can.name == "can0"
    assert can.task_name is None
    assert can.frames == []


def test_can_frames_sorted_and_recorded():
    sim, intc, _ = setup()
    can = CANInterface(sim, intc, task_name="evt")
    can.program_frames([300, 100, 200])
    assert can.frames == [100, 200, 300]
    sim.run(until=1_000)
    assert can.events_raised == 3


def test_can_payload_names_aperiodic_task():
    sim, intc, _ = setup()
    can = CANInterface(sim, intc, name="can1", task_name="susan")
    can.program_frames([250])
    sim.run(until=300)
    _, payload = intc.acknowledge(0)
    assert payload == {"peripheral": "can1", "kind": "aperiodic", "task": "susan", "time": 250}


def test_unclaimed_frame_rerouted_to_next_cpu():
    sim, intc, lines = setup(n_cpus=2, ack_timeout=50)
    can = CANInterface(sim, intc, task_name="evt")
    can.program_frames([100])
    sim.run(until=120)
    assert lines == [True, False]
    sim.run(until=160)  # cpu0 let the 50-cycle window pass at 150
    assert lines == [False, True]
    assert intc.timeouts == 1
    _, payload = intc.acknowledge(1)
    assert payload["time"] == 100


@pytest.mark.parametrize("rate", [0.0, -1e-3])
def test_poisson_rejects_non_positive_rate(rate):
    sim, intc, _ = setup()
    can = CANInterface(sim, intc)
    with pytest.raises(ValueError):
        can.program_poisson(rate, 10_000, seed=1)
    assert can.frames == []


def test_poisson_times_sorted_within_horizon():
    sim, intc, _ = setup()
    can = CANInterface(sim, intc)
    times = can.program_poisson(1 / 2_000, 200_000, seed=3)
    assert times
    assert times == sorted(times)
    assert all(0 <= t < 200_000 for t in times)
    assert can.frames == times


def test_poisson_empty_horizon_programs_nothing():
    sim, intc, _ = setup()
    can = CANInterface(sim, intc)
    assert can.program_poisson(1 / 100, 0, seed=1) == []
    sim.run(until=1_000)
    assert can.events_raised == 0


def test_poisson_seeds_differ():
    sim, intc, _ = setup()
    times_a = CANInterface(sim, intc, name="a").program_poisson(1 / 2_000, 200_000, seed=1)
    times_b = CANInterface(sim, intc, name="b").program_poisson(1 / 2_000, 200_000, seed=2)
    assert times_a != times_b


def test_poisson_count_tracks_rate():
    sim, intc, _ = setup()
    can = CANInterface(sim, intc)
    # Expected 2000 arrivals, standard deviation about 45.
    times = can.program_poisson(1 / 1_000, 2_000_000, seed=7)
    assert 1_800 < len(times) < 2_200


def test_every_poisson_frame_raises_once():
    sim, intc, _ = setup()
    can = CANInterface(sim, intc)
    times = can.program_poisson(1 / 5_000, 100_000, seed=4)
    sim.run(until=100_000)
    assert can.events_raised == len(times)
