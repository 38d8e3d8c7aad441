"""Structured theoretical-vs-prototype validation.

Runs both simulators on the same analysed task set and produces a
per-task comparison of response times -- the drill-down behind Figure
4's single aperiodic number.  Used by the validation benchmarks and
useful to anyone re-calibrating the hardware model against different
traffic profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.task import TaskSet
from repro.kernel.microkernel import TaskBinding
from repro.simulators.ladder import make_simulator, run_metrics


@dataclass(frozen=True)
class TaskComparison:
    """Response-time comparison for one task."""

    task: str
    is_periodic: bool
    theoretical_mean: float
    prototype_mean: float
    jobs_theoretical: int
    jobs_prototype: int

    @property
    def slowdown_pct(self) -> float:
        if self.theoretical_mean <= 0:
            return 0.0
        return 100.0 * (self.prototype_mean / self.theoretical_mean - 1.0)


@dataclass
class ValidationResult:
    """Outcome of one side-by-side run."""

    comparisons: List[TaskComparison]
    theoretical_misses: int
    prototype_misses: int

    def by_task(self, name: str) -> TaskComparison:
        for comparison in self.comparisons:
            if comparison.task == name:
                return comparison
        raise KeyError(name)

    def worst_periodic_slowdown(self) -> Optional[TaskComparison]:
        periodic = [c for c in self.comparisons if c.is_periodic]
        return max(periodic, key=lambda c: c.slowdown_pct, default=None)

    def format(self) -> str:
        lines = [
            f"{'task':<28}{'theo mean':>14}{'proto mean':>14}{'slowdown':>10}"
        ]
        for c in sorted(self.comparisons, key=lambda c: -c.slowdown_pct):
            lines.append(
                f"{c.task:<28}{c.theoretical_mean:>14.0f}{c.prototype_mean:>14.0f}"
                f"{c.slowdown_pct:>9.1f}%"
            )
        lines.append(
            f"misses: theoretical={self.theoretical_misses} "
            f"prototype={self.prototype_misses}"
        )
        return "\n".join(lines)


def validate(
    taskset: TaskSet,
    n_cpus: int,
    tick: int,
    horizon: int,
    scale: int = 1,
    overhead: float = 0.02,
    bindings: Optional[Dict[str, TaskBinding]] = None,
    aperiodic_arrivals: Optional[Dict[str, Sequence[int]]] = None,
) -> ValidationResult:
    """Run both simulators and compare per-task mean responses.

    All times (tick, horizon, arrivals) are full-scale cycles; the
    prototype is scaled internally and reports back at full scale.
    """
    theoretical = make_simulator(
        "theoretical", taskset, n_cpus, tick=tick, overhead=overhead,
        aperiodic_arrivals=aperiodic_arrivals,
    )
    theoretical.run(horizon)
    theo_metrics = run_metrics(theoretical, horizon)

    prototype = make_simulator(
        "prototype", taskset, n_cpus, tick=tick, scale=scale,
        bindings=bindings, aperiodic_arrivals=aperiodic_arrivals,
    )
    prototype.run(horizon)
    proto_metrics = run_metrics(prototype, horizon)

    comparisons: List[TaskComparison] = []
    periodic_names = {t.name for t in taskset.periodic}
    for name in sorted(set(theo_metrics.response) & set(proto_metrics.response)):
        theo = theo_metrics.response[name]
        proto = proto_metrics.response[name]
        comparisons.append(
            TaskComparison(
                task=name,
                is_periodic=name in periodic_names,
                theoretical_mean=theoretical.to_full_scale(theo.mean),
                prototype_mean=prototype.to_full_scale(proto.mean),
                jobs_theoretical=theo.count,
                jobs_prototype=proto.count,
            )
        )
    return ValidationResult(
        comparisons=comparisons,
        theoretical_misses=theo_metrics.deadline_misses,
        prototype_misses=proto_metrics.deadline_misses,
    )
