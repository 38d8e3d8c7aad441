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

import heapq
from types import SimpleNamespace

import pytest

from repro import CLOCK_HZ, TICK
import repro.sim.engine
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
    at 1.0 s) of a prototype cell.  The engine takes every entry off its
    heap with ``heapq.heappop``: the run loop to dispatch it, or
    ``Simulator._pop_head`` for a callback that runs it in place, so the
    dispatches are the pops less the ``_pop_head`` calls."""
    pops, in_place = [0], [0]
    pop_head = Simulator._pop_head

    def counting_heappop(heap):
        pops[0] += 1
        return heapq.heappop(heap)

    def counting_pop_head(self):
        in_place[0] += 1
        pop_head(self)

    taskset = prepare_taskset(build_automotive_taskset(utilization, n_cpus),
                              n_cpus, tick=TICK)
    arrival = int(1.0 * CLOCK_HZ)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.sim.engine, "heapq", SimpleNamespace(
            heappop=counting_heappop, heappush=heapq.heappush,
            heapify=heapq.heapify))
        patch.setattr(Simulator, "_pop_head", counting_pop_head)
        sim = make_simulator(
            "prototype", taskset, n_cpus, scale=DEFAULT_SCALE,
            bindings=automotive_bindings(),
            aperiodic_arrivals={AUTOMOTIVE_APERIODIC: [arrival]},
        )
        sim.run(arrival + 25 * CLOCK_HZ)
    return pops[0] - in_place[0], sim.soc.sim._eid


@pytest.mark.parametrize("n_cpus, utilization, eid, bound", [
    (2, 0.4, 61_479, 7_325),
    (4, 0.6, 116_258, 20_216),
], ids=["2P-40", "4P-60"])
def test_lead_in_run_ahead_dispatches_fewer_entries(n_cpus, utilization, eid,
                                                    bound):
    dispatched, taken = dispatch_census(n_cpus, utilization)
    assert taken == eid
    assert dispatched < bound
