"""End-to-end simulators -- the multi-fidelity simulation ladder.

Three rungs run the same MPDP workload at different cost/accuracy
points (:data:`FIDELITIES`, fastest first):

- :mod:`repro.simulators.theoretical` -- the paper's comparison
  baseline: MPDP with idealised hardware and a small uniform overhead
  (2 %) for context switching and contention;
- :mod:`repro.simulators.tlm` -- transaction-level middle rung:
  task segments as timed blocks with calibrated analytic bus
  contention, events still at exact instants (25x+ faster than the
  prototype at bounded accuracy loss);
- :mod:`repro.simulators.prototype` -- the full-system run: the
  microkernel of :mod:`repro.kernel` on the SoC of :mod:`repro.hw`;
- :mod:`repro.simulators.baselines` -- classical alternatives
  (partitioned fixed-priority with background aperiodics, global
  fixed-priority, global EDF) for the ablation benchmarks.

:func:`make_simulator` (:mod:`repro.simulators.ladder`) is the one
way onto a rung: it builds any of :data:`FIDELITIES` by name, and
:func:`mean_response` reads a run back at full scale whatever the
rung's time base.  :func:`run_oracle` (:mod:`repro.simulators.oracle`)
runs any rung and checks every periodic deadline of the run; exact
hyperperiod verification, the analysis cross-check and the per-task
theoretical-vs-prototype :class:`Comparison` read its result.
"""

from repro.simulators.theoretical import TheoreticalSimulator
from repro.simulators.ladder import (
    FIDELITIES,
    make_simulator,
    mean_response,
    run_metrics,
)
from repro.simulators.prototype import PrototypeConfig, PrototypeSimulator
from repro.simulators.tlm import (
    ANCHOR_CELLS,
    DEFAULT_COST_TABLE,
    TLMCostTable,
    TLMSimulator,
    calibrate,
)
from repro.simulators.baselines import (
    BaselinePolicy,
    GlobalEDFPolicy,
    GlobalFixedPriorityPolicy,
    MultiprocessorSimulator,
    PartitionedFixedPriorityPolicy,
)

__all__ = [
    "FIDELITIES",
    "make_simulator",
    "mean_response",
    "run_metrics",
    "TheoreticalSimulator",
    "TLMSimulator",
    "TLMCostTable",
    "DEFAULT_COST_TABLE",
    "ANCHOR_CELLS",
    "calibrate",
    "PrototypeSimulator",
    "PrototypeConfig",
    "MultiprocessorSimulator",
    "BaselinePolicy",
    "PartitionedFixedPriorityPolicy",
    "GlobalFixedPriorityPolicy",
    "GlobalEDFPolicy",
]
