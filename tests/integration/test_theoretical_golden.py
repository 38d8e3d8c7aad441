"""Golden identity of the theoretical column of Figure 4.

Pins the exact theoretical response (seconds, averaged over the paper's
arrival phases as ``figure4.run_cell`` does) and, per phase, the
context switches and scheduling cycles of the theoretical rung on all
nine Figure-4 cells.  Recorded with the allocate-every-step loop, before
the rung consulted the MPDP policy incrementally.  A change that shifts
one theoretical decision fails here, not only in the benchmark's output
digest.
"""

import pytest

from repro import CLOCK_HZ, TICK, cycles_to_seconds
from repro.experiments.figure4 import ARRIVAL_PHASES_S
from repro.simulators.theoretical import TheoreticalSimulator
from repro.trace.metrics import compute_metrics
from repro.workloads.automotive import (
    AUTOMOTIVE_APERIODIC,
    build_automotive_taskset,
    prepare_taskset,
)

#: (n_cpus, utilization) -> (theoretical_s, [(context_switches,
#: scheduling_cycles) per phase in ARRIVAL_PHASES_S order]).
GOLDEN = {
    (2, 0.40): (10.302, [(212, 260), (232, 286), (264, 323)]),
    (2, 0.50): (10.302, [(268, 260), (292, 286), (326, 323)]),
    (2, 0.60): (10.302, [(325, 260), (353, 286), (402, 323)]),
    (3, 0.40): (10.302, [(316, 260), (341, 286), (387, 323)]),
    (3, 0.50): (10.302, [(399, 260), (443, 286), (493, 323)]),
    (3, 0.60): (10.302, [(501, 260), (550, 286), (617, 323)]),
    (4, 0.40): (10.302, [(423, 260), (462, 286), (517, 323)]),
    (4, 0.50): (10.302, [(542, 260), (604, 286), (673, 323)]),
    (4, 0.60): (10.302, [(679, 260), (742, 286), (830, 323)]),
}


def theoretical_column(n_cpus: int, utilization: float):
    """The theoretical half of ``figure4.run_cell``."""
    taskset = prepare_taskset(
        build_automotive_taskset(utilization, n_cpus), n_cpus, tick=TICK
    )
    responses = []
    counters = []
    for arrival_s in ARRIVAL_PHASES_S:
        arrival = int(arrival_s * CLOCK_HZ)
        horizon = arrival + int(25.0 * CLOCK_HZ)
        sim = TheoreticalSimulator(
            taskset, n_cpus, tick=TICK, overhead=0.02,
            aperiodic_arrivals={AUTOMOTIVE_APERIODIC: [arrival]},
        )
        sim.run(horizon)
        metrics = compute_metrics(sim.finished_jobs, horizon)
        responses.append(metrics.response_of(AUTOMOTIVE_APERIODIC).mean)
        stats = sim.stats()
        counters.append((stats["context_switches"], stats["scheduling_cycles"]))
    return cycles_to_seconds(sum(responses) / len(responses)), counters


@pytest.mark.parametrize("cell", sorted(GOLDEN),
                         ids=lambda c: f"{c[0]}P{round(c[1] * 100)}")
def test_theoretical_column_is_unchanged(cell):
    assert theoretical_column(*cell) == GOLDEN[cell]
