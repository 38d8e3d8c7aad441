"""Dispatch census of single-phase Figure-4 prototype runs.

The bus loop stands in for queue entries without changing the schedule
(docs/PERF.md, "Lead-in run-ahead"), and so do the kernel steps a
process plays in place ("Kernel steps in place"): every entry played in
place still takes its insertion id, so ``sim._eid`` is pinned exactly,
while the number of entries the engine itself dispatches, and of
process resumes, must stay below a bound.  The bounds sit halfway
between the counts before on-time jobs withdrew their watchdog entries
and free kernel locks were taken in place past push-only entries (2,795
and 8,539 dispatches, 1,043 and 3,770 resumes) and after (2,482 and
7,147, 984 and 3,396), so a change that quietly stops carrying cores
from chunk to chunk, playing kernel steps in place or withdrawing
no-op watchdogs fails here even when every output matches.
"""

import heapq
from types import SimpleNamespace

import pytest

from repro import CLOCK_HZ, TICK
import repro.sim.engine
from repro.sim.engine import Process, Simulator
from repro.simulators.ladder import make_simulator
from repro.simulators.prototype import DEFAULT_SCALE
from repro.workloads.automotive import (
    AUTOMOTIVE_APERIODIC,
    automotive_bindings,
    build_automotive_taskset,
    prepare_taskset,
)


def dispatch_census(n_cpus, utilization):
    """(entries dispatched, insertion ids taken, process resumes) of one
    phase (arrival at 1.0 s) of a prototype cell.  The engine takes every
    entry off its heap with ``heapq.heappop``: the run loop to dispatch
    it, or ``Simulator._pop_head`` for a callback or a process step that
    runs it in place, so the dispatches are the pops less the
    ``_pop_head`` calls."""
    pops, in_place, resumes = [0], [0], [0]
    pop_head = Simulator._pop_head
    resume = Process._resume

    def counting_heappop(heap):
        pops[0] += 1
        return heapq.heappop(heap)

    def counting_pop_head(self):
        in_place[0] += 1
        pop_head(self)

    def counting_resume(self, event, throw=None):
        resumes[0] += 1
        return resume(self, event, throw)

    taskset = prepare_taskset(build_automotive_taskset(utilization, n_cpus),
                              n_cpus, tick=TICK)
    arrival = int(1.0 * CLOCK_HZ)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.sim.engine, "heapq", SimpleNamespace(
            heappop=counting_heappop, heappush=heapq.heappush,
            heapify=heapq.heapify))
        patch.setattr(Simulator, "_pop_head", counting_pop_head)
        patch.setattr(Process, "_resume", counting_resume)
        sim = make_simulator(
            "prototype", taskset, n_cpus, scale=DEFAULT_SCALE,
            bindings=automotive_bindings(),
            aperiodic_arrivals={AUTOMOTIVE_APERIODIC: [arrival]},
        )
        sim.run(arrival + 25 * CLOCK_HZ)
    return pops[0] - in_place[0], sim.soc.sim._eid, resumes[0]


@pytest.mark.parametrize("n_cpus, utilization, eid, bound, resume_bound", [
    (2, 0.4, 61_479, 2_639, 1_014),
    (4, 0.6, 116_258, 7_843, 3_583),
], ids=["2P-40", "4P-60"])
def test_run_ahead_and_kernel_steps_dispatch_fewer_entries(
        n_cpus, utilization, eid, bound, resume_bound):
    dispatched, taken, resumed = dispatch_census(n_cpus, utilization)
    assert taken == eid
    assert dispatched < bound
    assert resumed < resume_bound
