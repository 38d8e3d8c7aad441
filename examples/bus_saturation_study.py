#!/usr/bin/env python3
"""Watching the bus saturate: the mechanism behind Figure 4's trend.

Runs the automotive workload on 2, 3 and 4 processors at 50 %
utilization with a windowed bus monitor attached, and prints the
utilization time series.  This is the paper's explanation of the
4-processor result made visible: "the bus and memory access patterns
have stabilized".

Run:  python examples/bus_saturation_study.py
"""

from repro import CLOCK_HZ
from repro.experiments.figure4 import TICK
from repro.hw.monitor import BusMonitor
from repro.simulators import make_simulator, mean_response
from repro.workloads.automotive import (
    AUTOMOTIVE_APERIODIC,
    automotive_bindings,
    build_automotive_taskset,
    prepare_taskset,
)

SCALE = 1_000


def run_config(n_cpus: int, utilization: float = 0.5):
    taskset = prepare_taskset(
        build_automotive_taskset(utilization, n_cpus), n_cpus, tick=TICK
    )
    arrival = int(1.0 * CLOCK_HZ)
    horizon = arrival + int(16.0 * CLOCK_HZ)
    proto = make_simulator(
        "prototype", taskset, n_cpus, tick=TICK, scale=SCALE,
        bindings=automotive_bindings(),
        aperiodic_arrivals={AUTOMOTIVE_APERIODIC: [arrival]},
    )
    monitor = BusMonitor(
        proto.soc.sim, proto.soc.bus, window=(TICK // SCALE) * 10
    )
    monitor.start()
    proto.run(horizon)
    response = mean_response(proto, AUTOMOTIVE_APERIODIC)
    return monitor, response / CLOCK_HZ


def main() -> None:
    print("OPB bus utilization over time (one glyph = 10 ticks; ' '=idle,"
          " '@'=saturated)\n")
    for n_cpus in (2, 3, 4):
        monitor, response_s = run_config(n_cpus)
        steady = monitor.steady_state_utilization(skip=2)
        print(f"{n_cpus} processors  |{monitor.sparkline(width=64)}|")
        print(f"   steady-state bus utilization: {steady:.1%}   "
              f"aperiodic response: {response_s:.2f} s\n")
    print("More processors push the bus toward saturation; the aperiodic")
    print("task pays for every extra busy master in arbitration waits.")


if __name__ == "__main__":
    main()
