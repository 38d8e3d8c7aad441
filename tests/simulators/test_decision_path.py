"""One MPDP decision path: every rung against allocate-on-every-event.

The rungs report their events to the policy and take each decision from
:meth:`~repro.core.mpdp.MPDPScheduler.reschedule`, which recomputes the
full assignment only when a job entered a band and otherwise lets the
freed processors self-serve the queues.  :class:`AllocateEveryEvent`
recomputes it at every decision.  Patched over the scheduler class each
rung imports, it must leave the anchor phases unchanged: the same jobs,
stats and trace, and on the event-driven rungs the same insertion ids.
"""

import pytest

import repro.kernel.microkernel
import repro.simulators.theoretical
import repro.simulators.tlm
from repro import CLOCK_HZ, TICK
from repro.core.mpdp import MPDPScheduler
from repro.simulators.ladder import make_simulator
from repro.simulators.prototype import DEFAULT_SCALE
from repro.simulators.tlm import ANCHOR_CELLS
from repro.trace.recorder import TraceRecorder
from repro.workloads.automotive import (
    AUTOMOTIVE_APERIODIC,
    automotive_bindings,
    build_automotive_taskset,
    prepare_taskset,
)


class AllocateEveryEvent(MPDPScheduler):
    """Oracle: a full :meth:`allocate` at every scheduling point."""

    def reschedule(self, now):
        return self.allocate(now)


RUNG_MODULES = (
    repro.simulators.theoretical,
    repro.simulators.tlm,
    repro.kernel.microkernel,
)


def anchor_phase(fidelity, n_cpus, utilization):
    """Jobs, stats, trace and engine ids of one anchor phase (1.0 s)."""
    taskset = prepare_taskset(build_automotive_taskset(utilization, n_cpus),
                              n_cpus, tick=TICK)
    arrival = int(1.0 * CLOCK_HZ)
    trace = TraceRecorder()
    scale = DEFAULT_SCALE if fidelity == "prototype" else 1
    sim = make_simulator(
        fidelity, taskset, n_cpus, scale=scale,
        bindings=automotive_bindings(), trace=trace,
        aperiodic_arrivals={AUTOMOTIVE_APERIODIC: [arrival]},
    )
    sim.run(arrival + 17 * CLOCK_HZ)
    policy = sim.kernel.policy if fidelity == "prototype" else sim.policy
    engine = {"prototype": lambda: sim.soc.sim, "tlm": lambda: sim.sim}.get(
        fidelity, lambda: None)()
    return {
        "oracle": type(policy) is AllocateEveryEvent,
        "jobs": [(job.name, job.release, job.start_time, job.finish_time,
                  job.preemptions, job.migrations)
                 for job in sim.finished_jobs],
        "stats": sim.stats(),
        "trace": [(event.time, event.kind, event.job, event.cpu, event.info)
                  for event in trace.events],
        "engine": None if engine is None else (engine._eid, engine.now),
    }


@pytest.mark.parametrize("fidelity", ["theoretical", "tlm", "prototype"])
@pytest.mark.parametrize("cell", ANCHOR_CELLS,
                         ids=[f"{n}P-{u:.0%}" for n, u in ANCHOR_CELLS])
def test_rung_matches_allocate_every_event(fidelity, cell):
    incremental = anchor_phase(fidelity, *cell)
    with pytest.MonkeyPatch.context() as patch:
        for module in RUNG_MODULES:
            patch.setattr(module, "MPDPScheduler", AllocateEveryEvent)
        reference = anchor_phase(fidelity, *cell)
    assert reference.pop("oracle") and not incremental.pop("oracle")
    assert incremental["jobs"] and incremental["trace"]
    for key in reference:
        assert incremental[key] == reference[key], key
