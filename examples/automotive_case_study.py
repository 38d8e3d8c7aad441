#!/usr/bin/env python3
"""The paper's evaluation workload, end to end (a one-cell Figure 4).

Builds the 19-task MiBench automotive set (18 periodic + susan/large
as the interrupt-triggered aperiodic), analyses it, then runs both the
theoretical simulator (idealised, 2 % overhead) and the full-system
prototype (arbitrated OPB, context switches through shared memory,
MPIC-distributed interrupts) and compares the aperiodic response time
-- the paper's headline measurement.

Run:  python examples/automotive_case_study.py [n_cpus] [utilization]
e.g.  python examples/automotive_case_study.py 3 0.5
"""

import sys

from repro import CLOCK_HZ, cycles_to_seconds
from repro.experiments.figure4 import TICK
from repro.simulators import make_simulator, mean_response
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

    theo = make_simulator("theoretical", taskset, n_cpus, tick=TICK,
                          aperiodic_arrivals=arrivals)
    theo.run(horizon)
    theo_resp, _ = mean_response(theo, horizon, AUTOMOTIVE_APERIODIC)

    proto = make_simulator("prototype", taskset, n_cpus, tick=TICK, scale=scale,
                           bindings=automotive_bindings(),
                           aperiodic_arrivals=arrivals)
    proto.run(horizon)
    proto_resp, _ = mean_response(proto, horizon, AUTOMOTIVE_APERIODIC)

    print("== results ==")
    print(f"susan/large standalone execution:   "
          f"{cycles_to_seconds(taskset.by_name(AUTOMOTIVE_APERIODIC).acet):7.3f} s")
    print(f"theoretical simulator response:     {cycles_to_seconds(theo_resp):7.3f} s")
    print(f"prototype (full system) response:   {cycles_to_seconds(proto_resp):7.3f} s")
    print(f"slowdown real vs simulated:         "
          f"{100 * (proto_resp / theo_resp - 1):7.1f} %")
    print()
    stats = proto.stats()
    print("== prototype internals ==")
    print(f"scheduling cycles run:   {stats['scheduling_cycles']}")
    print(f"context switches:        {stats['context_switches']}")
    print(f"IPIs sent:               {stats['ipis']}")
    print(f"interrupts delivered:    {stats['mpic_delivered']}")
    print(f"OPB bus utilization:     {stats['bus_utilization']:.1%}")
    misses = sum(1 for j in proto.finished_jobs if j.missed_deadline)
    print(f"periodic deadline misses: {misses}")


if __name__ == "__main__":
    main()
