"""One way onto a rung: build any simulator of the ladder, read it back.

Every rung honours the same time-base contract: ``sim.scale`` is the
factor its workload was divided by (structurally 1 for
``theoretical`` and ``tlm``), ``sim.run(until)`` takes full-scale
cycles, and ``sim.to_full_scale`` maps a measurement in the rung's own
time base back to full-scale cycles.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro import TICK
from repro.core.task import TaskSet
from repro.kernel.costs import KernelCosts
from repro.kernel.microkernel import TaskBinding
from repro.simulators.prototype import PrototypeConfig, PrototypeSimulator
from repro.simulators.theoretical import TheoreticalSimulator
from repro.simulators.tlm import DEFAULT_COST_TABLE, TLMCostTable, TLMSimulator
from repro.trace.metrics import ScheduleMetrics, compute_metrics

#: The simulation ladder, fastest first.  ``theoretical`` is the
#: paper's idealised baseline (flat 2 % overhead), ``tlm`` the
#: calibrated transaction-level rung (:mod:`repro.simulators.tlm`) and
#: ``prototype`` the cycle-approximate kernel-on-SoC run.
FIDELITIES = ("theoretical", "tlm", "prototype")


def make_simulator(
    fidelity: str,
    taskset: TaskSet,
    n_cpus: int,
    tick: int = TICK,
    scale: int = 1,
    bindings: Optional[Dict[str, TaskBinding]] = None,
    costs: Optional[KernelCosts] = None,
    aperiodic_arrivals: Optional[Dict[str, Sequence[int]]] = None,
    trace=None,
    metrics=None,
    overhead: float = 0.02,
    table: TLMCostTable = DEFAULT_COST_TABLE,
):
    """The simulator of rung ``fidelity`` (one of :data:`FIDELITIES`).

    Each rung takes the options it models and ignores the rest:
    ``scale`` divides the prototype's workload only (the other rungs
    have no per-cycle work to amortise); ``bindings``, ``costs`` and
    ``metrics`` reach the TLM and prototype rungs; ``overhead`` is the
    theoretical rung's uniform inflation and ``table`` the TLM rung's
    calibrated contention parameters.
    """
    if fidelity == "theoretical":
        return TheoreticalSimulator(
            taskset, n_cpus, tick=tick, overhead=overhead,
            aperiodic_arrivals=aperiodic_arrivals, trace=trace,
        )
    if fidelity == "tlm":
        return TLMSimulator(
            taskset, n_cpus, tick=tick, bindings=bindings,
            aperiodic_arrivals=aperiodic_arrivals, trace=trace,
            metrics=metrics, costs=costs, table=table,
        )
    if fidelity == "prototype":
        return PrototypeSimulator(
            taskset,
            PrototypeConfig(n_cpus=n_cpus, tick=tick, scale=scale,
                            costs=costs or KernelCosts()),
            bindings=bindings, aperiodic_arrivals=aperiodic_arrivals,
            trace=trace, metrics=metrics,
        )
    raise ValueError(
        f"unknown fidelity {fidelity!r}: expected one of {FIDELITIES}"
    )


def run_metrics(sim, horizon: int) -> ScheduleMetrics:
    """Metrics of a run to ``horizon`` (full-scale cycles), in the
    rung's own time base."""
    return compute_metrics(sim.finished_jobs, horizon // sim.scale)


def mean_response(sim, horizon: int, task: str) -> Tuple[float, ScheduleMetrics]:
    """``task``'s mean response time in full-scale cycles, and the
    run's :func:`run_metrics`."""
    metrics = run_metrics(sim, horizon)
    return sim.to_full_scale(metrics.response_of(task).mean), metrics
