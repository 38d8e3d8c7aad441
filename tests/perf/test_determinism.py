"""Determinism sentinel: full-system runs replay bit for bit.

A kernel-on-SoC run, with or without an injected fault plan, must come
out the same every time it is run -- finished jobs, trace, kernel and injector stats,
final time.  Runs that crash on a known kernel defect count too: each
replay must then raise the same error.

The cores and the bus are held to their oracle as well: the segment
model (``MicroBlaze`` on the run-ahead ``OPBBus``) and the per-chunk,
per-transaction oracle (``tests.hw.reference_core.ReferenceCore`` on
``tests.hw.reference_bus.ReferenceBus``) must give identical
full-system runs, Figure-4 prototype cells included, under the
adaptive and the fixed stride.  So is the engine: processes that play
kernel steps in place and the queued oracle
(``tests.sim.queued_engine.QueuedSimulator``, every step a queue round
trip) must give identical Figure-4 cells, traces included, and fault
plan runs, under both strides.
"""

from dataclasses import asdict

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro import CLOCK_HZ, TICK
import repro.hw.soc
from repro.faults.plan import FAULT_KINDS, random_plan
from repro.faults.scenarios import baseline_run, demo_taskset, run_scenario
from repro.hw.bus import OPBBus
from repro.hw.microblaze import MicroBlaze
from repro.sim.engine import Simulator
from repro.simulators.ladder import make_simulator
from repro.simulators.prototype import DEFAULT_SCALE
from repro.trace import TraceRecorder
from repro.workloads.automotive import (
    AUTOMOTIVE_APERIODIC,
    automotive_bindings,
    build_automotive_taskset,
    prepare_taskset,
)
from tests.hw.reference_bus import ReferenceBus
from tests.hw.reference_core import ReferenceCore
from tests.sim.queued_engine import QueuedSimulator

DEMO_WCETS = {task.name: task.wcet for task in demo_taskset().periodic}


def outcome(run, *args, **kwargs):
    """``run(*args, **kwargs)``, or ``(exception type name, message)``
    when the run raised, so crashing runs can be compared like finished
    ones."""
    try:
        return run(*args, **kwargs)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def test_baseline_run_replays_identically():
    first = outcome(baseline_run)
    assert isinstance(first, dict), first
    assert first["jobs"] and first["trace"]
    assert outcome(baseline_run) == first


# Each example is two kernel runs, so a failure is reported as drawn
# (a seed and a few knobs reproduce it) instead of shrunk.
@settings(max_examples=25, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    seed=st.integers(0, 10_000),
    n_faults=st.integers(0, 6),
    kinds=st.sets(st.sampled_from(FAULT_KINDS), min_size=1),
    recovery=st.booleans(),
)
def test_fault_plan_runs_replay_identically(seed, n_faults, kinds, recovery):
    """Replays agree, and agree with the queued engine on both strides."""
    plan = random_plan(seed=seed, horizon=400_000, tasks=DEMO_WCETS,
                       n_faults=n_faults, kinds=sorted(kinds))
    config = {"enabled": True} if recovery else None
    first = outcome(run_scenario, plan=plan, recovery=config)
    replay = outcome(run_scenario, plan=plan, recovery=config)
    assert first == replay
    outcomes = same_on_queued_engine(run_scenario, plan=plan, recovery=config)
    assert outcomes[0][0] == first


#: The segment model under test and the per-chunk, per-transaction
#: oracle, as (core class, bus class).
MODELS = {"segment": (MicroBlaze, OPBBus),
          "per-chunk": (ReferenceCore, ReferenceBus)}

#: The engine under test, whose processes play steps in place, and the
#: queued oracle.
ENGINES = {"in-place": Simulator, "queued": QueuedSimulator}


def on_model(model, stride, run, *args, engine="in-place", **kwargs):
    """``run(*args, **kwargs)`` with every new SoC built from ``model``'s
    core and bus on ``engine``'s simulator, at ``stride`` ("adaptive":
    the default, or "fixed": as with ``adaptive_chunking=False``, the
    core ignores the hint the SoC wires).

    Returns (result, then per SoC: ``asdict(BusStats)``, each core's
    ``utilization_stats``, the final clock and insertion-id count); the
    result is ``(exception type name, message)`` when the run raised, as
    in :func:`outcome`.
    """
    core_cls, bus_cls = MODELS[model]
    buses, cores = [], []

    class Bus(bus_cls):
        def __init__(self, *a, **k):
            super().__init__(*a, **k)
            buses.append(self)

    class Core(core_cls):
        if stride == "fixed":
            preemption_hint = property(lambda self: None,
                                       lambda self, hint: None)

        def __init__(self, *a, **k):
            super().__init__(*a, **k)
            cores.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.hw.soc, "OPBBus", Bus)
        patch.setattr(repro.hw.soc, "MicroBlaze", Core)
        patch.setattr(repro.hw.soc, "Simulator", ENGINES[engine])
        result = outcome(run, *args, **kwargs)
    return result, [
        (asdict(bus.stats),
         [core.utilization_stats for core in cores if core.bus is bus],
         bus.sim.now, bus.sim._eid)
        for bus in buses
    ]


def same_on_oracle(run, *args, **kwargs):
    """Run under both strides, on the segment model and on the oracle;
    require identical outcomes, and return the segment model's
    outcomes."""
    outcomes = []
    for stride in ("adaptive", "fixed"):
        got = on_model("segment", stride, run, *args, **kwargs)
        want = on_model("per-chunk", stride, run, *args, **kwargs)
        assert got == want, stride
        outcomes.append(got)
    return outcomes


def same_on_queued_engine(run, *args, **kwargs):
    """Run under both strides, on the engine and on the queued oracle;
    require identical outcomes, and return the engine's outcomes."""
    outcomes = []
    for stride in ("adaptive", "fixed"):
        got = on_model("segment", stride, run, *args, **kwargs)
        want = on_model("segment", stride, run, *args, engine="queued",
                        **kwargs)
        assert got == want, stride
        outcomes.append(got)
    return outcomes


def figure4_cell(n_cpus, utilization, traced=False):
    """One phase (arrival at 1.0 s) of a prototype Figure-4 cell:
    finished jobs, kernel stats and final time, and the trace events
    when ``traced``."""
    taskset = prepare_taskset(build_automotive_taskset(utilization, n_cpus),
                              n_cpus, tick=TICK)
    arrival = int(1.0 * CLOCK_HZ)
    trace = TraceRecorder() if traced else None
    sim = make_simulator(
        "prototype", taskset, n_cpus, scale=DEFAULT_SCALE,
        bindings=automotive_bindings(),
        aperiodic_arrivals={AUTOMOTIVE_APERIODIC: [arrival]},
        trace=trace,
    )
    sim.run(arrival + 25 * CLOCK_HZ)
    jobs = tuple(
        (j.task.name, j.index, j.release, j.start_time, j.finish_time,
         j.cpu, j.preemptions, j.migrations)
        for j in sim.finished_jobs
    )
    result = {"jobs": jobs, "stats": sim.stats(), "now": sim.soc.sim.now}
    if traced:
        result["trace"] = tuple(trace.events)
    return result


@pytest.mark.parametrize("n_cpus, utilization", [(2, 0.4), (3, 0.5), (4, 0.6)],
                         ids=["2P-40", "3P-50", "4P-60"])
def test_figure4_cell_identical_on_per_chunk_oracle(n_cpus, utilization):
    outcomes = same_on_oracle(figure4_cell, n_cpus, utilization)
    for result, socs in outcomes:
        assert isinstance(result, dict), result
        assert result["jobs"]
        assert len(socs) == 1 and socs[0][0]["transactions"]
    # The strides are different schedules.
    assert outcomes[0][1] != outcomes[1][1]


@pytest.mark.parametrize("n_cpus, utilization", [(2, 0.4), (3, 0.5), (4, 0.6)],
                         ids=["2P-40", "3P-50", "4P-60"])
def test_figure4_cell_identical_on_queued_engine(n_cpus, utilization):
    outcomes = same_on_queued_engine(figure4_cell, n_cpus, utilization,
                                     traced=True)
    for result, socs in outcomes:
        assert isinstance(result, dict), result
        assert result["jobs"] and result["trace"]
        assert len(socs) == 1 and socs[0][0]["transactions"]


def test_baseline_run_identical_on_per_chunk_oracle():
    for result, _socs in same_on_oracle(baseline_run):
        assert isinstance(result, dict), result
        assert result["jobs"] and result["trace"]


@settings(max_examples=6, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    seed=st.integers(0, 10_000),
    n_faults=st.integers(1, 6),
    kinds=st.sets(st.sampled_from(FAULT_KINDS)),
)
def test_bus_stall_plans_identical_on_per_chunk_oracle(seed, n_faults, kinds):
    plan = random_plan(seed=seed, horizon=400_000, tasks=DEMO_WCETS,
                       n_faults=n_faults, kinds=sorted(kinds | {"bus_stall"}))
    same_on_oracle(run_scenario, plan=plan)
