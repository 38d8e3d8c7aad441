"""Dispatch census of single-phase Figure-4 prototype runs.

The bus loop stands in for queue entries without changing the schedule
(docs/PERF.md, "Lead-in run-ahead"): every entry it plays in place still
takes its insertion id, so ``sim._eid`` is pinned exactly, while the
number of entries the engine itself dispatches must stay below a bound.
The bounds sit halfway between the counts before lead-in run-ahead
(8,299 and 22,837) and after it (6,351 and 17,596), so a change that
quietly stops carrying cores from chunk to chunk fails here even when
every output matches.
"""

import pytest

from repro import CLOCK_HZ, TICK
from repro.sim.engine import Simulator
from repro.simulators.ladder import make_simulator
from repro.simulators.prototype import DEFAULT_SCALE
from repro.workloads.automotive import (
    AUTOMOTIVE_APERIODIC,
    automotive_bindings,
    build_automotive_taskset,
    prepare_taskset,
)


def dispatch_census(n_cpus, utilization):
    """(entries dispatched, insertion ids taken) of one phase (arrival
    at 1.0 s) of a prototype cell on the heap queue, whose run loop
    dispatches every entry through ``Simulator.step``."""
    dispatched = [0]
    step = Simulator.step

    def counting_step(self):
        dispatched[0] += 1
        step(self)

    taskset = prepare_taskset(build_automotive_taskset(utilization, n_cpus),
                              n_cpus, tick=TICK)
    arrival = int(1.0 * CLOCK_HZ)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Simulator, "DEFAULT_QUEUE", "heap")
        patch.setattr(Simulator, "step", counting_step)
        sim = make_simulator(
            "prototype", taskset, n_cpus, scale=DEFAULT_SCALE,
            bindings=automotive_bindings(),
            aperiodic_arrivals={AUTOMOTIVE_APERIODIC: [arrival]},
        )
        sim.run(arrival + 25 * CLOCK_HZ)
    return dispatched[0], sim.soc.sim._eid


@pytest.mark.parametrize("n_cpus, utilization, eid, bound", [
    (2, 0.4, 61_479, 7_325),
    (4, 0.6, 133_399, 20_216),
], ids=["2P-40", "4P-60"])
def test_lead_in_run_ahead_dispatches_fewer_entries(n_cpus, utilization, eid,
                                                    bound):
    dispatched, taken = dispatch_census(n_cpus, utilization)
    assert taken == eid
    assert dispatched < bound
