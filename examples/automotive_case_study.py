#!/usr/bin/env python3
"""The paper's evaluation workload, end to end (a one-cell Figure 4).

Builds the 19-task MiBench automotive set (18 periodic + susan/large
as the interrupt-triggered aperiodic), analyses it, then runs both the
theoretical simulator (idealised, 2 % overhead) and the full-system
prototype (arbitrated OPB, context switches through shared memory,
MPIC-distributed interrupts) and compares the aperiodic response time
-- the paper's headline measurement.  Misses count every periodic
deadline that fell by the horizon unmet, finished or not.

Run:  python examples/automotive_case_study.py [n_cpus] [utilization]
e.g.  python examples/automotive_case_study.py 3 0.5
"""

import sys

from repro import CLOCK_HZ, cycles_to_seconds
from repro.experiments.figure4 import TICK
from repro.simulators.oracle import Comparison, run_oracle
from repro.workloads.automotive import (
    AUTOMOTIVE_APERIODIC,
    automotive_bindings,
    build_automotive_taskset,
    prepare_taskset,
)


def main() -> None:
    n_cpus = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    utilization = float(sys.argv[2]) if len(sys.argv) > 2 else 0.5
    scale = 1_000
    arrival = int(1.0 * CLOCK_HZ)          # the camera frame arrives at 1 s
    horizon = arrival + int(20 * CLOCK_HZ)

    print(f"== MiBench automotive workload: {n_cpus} MicroBlazes @ "
          f"{utilization:.0%} periodic utilization ==")
    taskset = build_automotive_taskset(utilization, n_cpus)
    taskset = prepare_taskset(taskset, n_cpus, tick=TICK)
    print(taskset.summary())
    print()

    arrivals = {AUTOMOTIVE_APERIODIC: [arrival]}

    result = Comparison(
        run_oracle("theoretical", taskset, n_cpus, horizon, tick=TICK,
                   aperiodic_arrivals=arrivals),
        run_oracle("prototype", taskset, n_cpus, horizon, tick=TICK, scale=scale,
                   bindings=automotive_bindings(), aperiodic_arrivals=arrivals),
    )
    theo_resp = result.theoretical.response[AUTOMOTIVE_APERIODIC].mean
    proto_resp = result.prototype.response[AUTOMOTIVE_APERIODIC].mean

    print("== results ==")
    print(f"susan/large standalone execution:   "
          f"{cycles_to_seconds(taskset.by_name(AUTOMOTIVE_APERIODIC).acet):7.3f} s")
    print(f"theoretical simulator response:     {cycles_to_seconds(theo_resp):7.3f} s")
    print(f"prototype (full system) response:   {cycles_to_seconds(proto_resp):7.3f} s")
    print(f"slowdown real vs simulated:         "
          f"{result.slowdown_pct(AUTOMOTIVE_APERIODIC):7.1f} %")
    print()
    stats = result.prototype.sim.stats()
    print("== prototype internals ==")
    print(f"scheduling cycles run:   {stats['scheduling_cycles']}")
    print(f"context switches:        {stats['context_switches']}")
    print(f"IPIs sent:               {stats['ipis']}")
    print(f"interrupts delivered:    {stats['mpic_delivered']}")
    print(f"OPB bus utilization:     {stats['bus_utilization']:.1%}")
    print(f"periodic deadline misses: {len(result.prototype.misses)}")


if __name__ == "__main__":
    main()
