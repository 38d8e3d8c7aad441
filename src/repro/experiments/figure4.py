"""Figure 4: aperiodic response time, theoretical vs real prototype.

"Figure 4 shows the average response time of the selected aperiodic
task on architectures from 2 to 4 processors, with a periodic
utilization of the systems from 40% to 60%."  The paper's headline
observations, which this module regenerates:

- the theoretical simulator (2 % uniform overhead) responds near the
  10.1 s standalone execution time at these utilizations (10.32 s
  worst case including switch overheads);
- the prototype is slower: ~7/8/12 % at 2 processors for 40/50/60 %,
  ~15/22/27 % at 3 processors;
- 4 processors behave like 3 (slightly better): the bus has
  saturated, even though the total periodic work is double that of
  the 2-processor system at equal utilization;
- at 4 processors / 60 % the prototype still reaches ~12.9 s, about
  25 % over the simulated optimum.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro import CLOCK_HZ, TICK, cycles_to_seconds
from repro.experiments.runner import sweep
from repro.experiments.tables import (
    PAPER_APERIODIC_EXEC_S as APERIODIC_STANDALONE_S,
    PAPER_APERIODIC_WORST_S as APERIODIC_THEORETICAL_WORST_S,
    PAPER_SLOWDOWN_MATRIX as PAPER_SLOWDOWNS,
)
from repro.obs.ledger import Ledger
from repro.perf.cache import RunCache
from repro.perf.executor import Telemetry
from repro.simulators.ladder import FIDELITIES, make_simulator, mean_response
from repro.simulators.prototype import DEFAULT_SCALE
from repro.workloads.automotive import (
    AUTOMOTIVE_APERIODIC,
    automotive_bindings,
    build_automotive_taskset,
    prepare_taskset,
)

@dataclass
class Figure4Cell:
    """One (n_cpus, utilization) measurement pair."""

    n_cpus: int
    utilization: float
    theoretical_s: float
    real_s: float

    @property
    def slowdown_pct(self) -> float:
        """How much slower the prototype is than the simulation."""
        return 100.0 * (self.real_s / self.theoretical_s - 1.0)

    def row(self) -> str:
        return (
            f"{self.n_cpus}P  {self.utilization:4.0%}   "
            f"theoretical {self.theoretical_s:7.3f} s   "
            f"real {self.real_s:7.3f} s   "
            f"slowdown {self.slowdown_pct:5.1f} %"
        )


#: Arrival phases (seconds) averaged per cell; staggered against the
#: periodic releases so the mean does not ride one alignment.
ARRIVAL_PHASES_S = (1.0, 3.55, 7.3)


def run_cell(
    n_cpus: int,
    utilization: float,
    scale: int = DEFAULT_SCALE,
    arrival_phases_s: Sequence[float] = ARRIVAL_PHASES_S,
    horizon_margin_s: float = 25.0,
    fidelity: str = "prototype",
) -> Figure4Cell:
    """Measure one Figure 4 cell (theoretical + the chosen real rung).

    The paper reports the *average* response time of the aperiodic
    task; each phase in ``arrival_phases_s`` is run independently (one
    arrival per run, so samples never interfere) and the means are
    averaged.

    ``fidelity`` picks the rung standing in for the "real" column:
    the cycle-approximate prototype (the paper's measurement), or the
    calibrated ``tlm`` rung for fast exploratory sweeps (accurate to
    its calibration residual).  ``theoretical`` degenerates to a
    self-comparison (slowdown ~0) and is mostly useful as a sanity
    anchor.
    """
    taskset = build_automotive_taskset(utilization, n_cpus)
    taskset = prepare_taskset(taskset, n_cpus, tick=TICK)

    theo_samples: List[float] = []
    real_samples: List[float] = []
    for arrival_s in arrival_phases_s:
        arrival = int(arrival_s * CLOCK_HZ)
        horizon = arrival + int(horizon_margin_s * CLOCK_HZ)
        samples = []
        # The theoretical rung, then the real one (run once if the same).
        for rung in dict.fromkeys(("theoretical", fidelity)):
            sim = make_simulator(
                rung, taskset, n_cpus, scale=scale,
                bindings=automotive_bindings(),
                aperiodic_arrivals={AUTOMOTIVE_APERIODIC: [arrival]},
            )
            sim.run(horizon)
            samples.append(mean_response(sim, AUTOMOTIVE_APERIODIC))
        theo_samples.append(samples[0])
        real_samples.append(samples[-1])

    mean_theo = sum(theo_samples) / len(theo_samples)
    mean_real = sum(real_samples) / len(real_samples)
    return Figure4Cell(
        n_cpus=n_cpus,
        utilization=utilization,
        theoretical_s=cycles_to_seconds(mean_theo),
        real_s=cycles_to_seconds(mean_real),
    )


def _measure_cell(**spec) -> Dict[str, float]:
    """The Figure 4 sweep's measure: :func:`run_cell` on one grid point."""
    cell = run_cell(**spec)
    return {"theoretical_s": cell.theoretical_s, "real_s": cell.real_s,
            "slowdown_pct": cell.slowdown_pct}


def figure4_sweep(
    cpus: Sequence[int] = (2, 3, 4),
    utilizations: Sequence[float] = (0.40, 0.50, 0.60),
    scale: int = DEFAULT_SCALE,
    max_workers: int = 1,
    cache: Optional[RunCache] = None,
    fidelity: str = "prototype",
    telemetry: Optional[Telemetry] = None,
    ledger: Optional[Ledger] = None,
) -> List[Figure4Cell]:
    """The full Figure 4 grid, as one :func:`~repro.experiments.runner.sweep`.

    Each cell's spec is every :func:`run_cell` argument; with a
    ``cache`` it is keyed by tag ``figure4``, that spec (fidelity rung
    included) and the package version, so previously computed cells
    are loaded instead of re-run.  With ``max_workers > 1`` cells run
    across worker processes; results are reassembled in grid order and
    are bit-for-bit identical to a serial sweep.  ``fidelity`` picks
    the rung standing in for the "real" column (see :func:`run_cell`).

    ``telemetry`` records the sweep as spans (``sweep`` -> per-cell
    ``cell`` -> ``measure``, cache hits/misses as events on the sweep
    span) and per-cell counters, merged deterministically across
    workers; ``ledger`` appends one ``figure4`` entry to the run
    history, with the maximum and mean slowdown as its results.
    """
    grid = {"n_cpus": list(cpus), "utilization": list(utilizations),
            "scale": [scale], "arrival_phases_s": [ARRIVAL_PHASES_S],
            "horizon_margin_s": [25.0], "fidelity": [fidelity]}
    result = sweep(_measure_cell, grid, max_workers=max_workers, cache=cache,
                   cache_tag="figure4", telemetry=telemetry,
                   ledger=ledger, ledger_kind="figure4")
    return [Figure4Cell(row["n_cpus"], row["utilization"],
                        row["theoretical_s"], row["real_s"])
            for row in result.rows]


def slowdown_table(cells: Sequence[Figure4Cell]) -> str:
    """Side-by-side measured vs paper slowdowns."""
    lines = [
        f"{'config':<12}{'theoretical':>14}{'real':>10}{'slowdown':>11}{'paper':>9}"
    ]
    for cell in cells:
        paper = PAPER_SLOWDOWNS.get((cell.n_cpus, round(cell.utilization, 2)))
        paper_text = f"{paper:.0f} %" if paper is not None else "-"
        lines.append(
            f"{cell.n_cpus}P @ {cell.utilization:4.0%}  "
            f"{cell.theoretical_s:11.3f} s {cell.real_s:8.3f} s "
            f"{cell.slowdown_pct:8.1f} % {paper_text:>8}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Reproduce Figure 4")
    parser.add_argument("--cpus", type=int, nargs="+", default=[2, 3, 4])
    parser.add_argument(
        "--utilizations", type=float, nargs="+", default=[0.40, 0.50, 0.60]
    )
    parser.add_argument("--scale", type=int, default=DEFAULT_SCALE)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (0 = one per CPU)")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="content-addressed run cache directory")
    parser.add_argument("--fidelity", choices=list(FIDELITIES),
                        default="prototype",
                        help="simulation rung for the 'real' column")
    parser.add_argument("--ledger", metavar="FILE", nargs="?",
                        const="", default=None,
                        help="append this run to the persistent run ledger "
                             "(default: .repro/ledger.jsonl or $REPRO_LEDGER)")
    args = parser.parse_args(argv)

    cache = RunCache(args.cache) if args.cache else None
    ledger = (Ledger(args.ledger or None)
              if args.ledger is not None else None)
    cells = figure4_sweep(args.cpus, args.utilizations, scale=args.scale,
                          max_workers=args.workers, cache=cache,
                          fidelity=args.fidelity, ledger=ledger)
    print("Figure 4 -- aperiodic (susan/large) response time")
    print(f"standalone execution: {APERIODIC_STANDALONE_S} s; paper's")
    print(f"theoretical worst case with switching: {APERIODIC_THEORETICAL_WORST_S} s")
    print()
    print(slowdown_table(cells))
    if cache is not None:
        stats = cache.stats()
        print(f"\ncache: {stats['hits']} hit(s), {stats['misses']} miss(es) "
              f"({stats['hit_rate']:.0%} hit rate) in {stats['root']}")
    if ledger is not None:
        print(f"ledger: appended figure4 entry to {ledger.path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
