"""The soundness oracle: run any rung and check every periodic deadline.

:func:`run_oracle` builds a rung of the ladder with
:func:`~repro.simulators.ladder.make_simulator`, runs it to a horizon
and returns an :class:`OracleRun`: per-task response statistics in
full-scale cycles, and the deadline verdict.  Three readers sit on
that one result:

- :func:`verify_by_simulation` -- exact verification of an analysed
  set: the theoretical rung at zero overhead over whole hyperperiods
  plus the longest deadline.  For synchronous periodic sets this is a
  necessary and sufficient test of the implemented policy, tick
  quantisation of promotions included;
- :func:`cross_check` -- the offline analysis's verdict against that
  simulation (the analysis must never say "schedulable" when the
  simulation misses);
- :class:`Comparison` -- per-task mean responses of the theoretical
  and prototype rungs side by side, the drill-down behind Figure 4's
  single aperiodic number.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.analysis.schedulability import analyse_taskset
from repro.core.task import TaskSet
from repro.simulators.ladder import make_simulator, run_metrics
from repro.trace.metrics import ResponseStats


@dataclass(frozen=True)
class OracleRun:
    """One rung run to ``horizon`` (full-scale cycles), read back.

    ``misses`` names every periodic job ``task#k`` whose deadline
    ``r_k + D`` (release ``r_k = offset + k*T``) fell by the horizon
    and that had not finished by it -- including jobs still queued,
    parked behind a late predecessor, or never created because their
    predecessor never completed.  ``jobs_checked`` counts those
    deadlines; ``worst_response_ratio`` is the largest response / D
    over the finished periodic jobs.
    """

    horizon: int
    response: Dict[str, ResponseStats]
    misses: List[str]
    jobs_checked: int
    worst_response_ratio: float
    sim: object = field(repr=False, compare=False)

    @property
    def schedulable(self) -> bool:
        return not self.misses

    def __bool__(self) -> bool:  # truthiness = verdict
        return self.schedulable


def run_oracle(fidelity: str, taskset: TaskSet, n_cpus: int, horizon: int,
               **options) -> OracleRun:
    """Run rung ``fidelity`` to ``horizon`` and check every deadline.

    ``options`` go to :func:`~repro.simulators.ladder.make_simulator`;
    all times, the horizon included, are full-scale cycles.
    """
    sim = make_simulator(fidelity, taskset, n_cpus, **options)
    sim.run(horizon)
    # The rule runs in the rung's own time base, on the set it ran.
    end = horizon // sim.scale
    finished = {}
    worst_ratio = 0.0
    for job in sim.finished_jobs:
        if job.is_periodic:
            finished[job.task.name, job.index] = job.finish_time
            worst_ratio = max(worst_ratio, job.response_time / job.task.deadline)
    misses: List[str] = []
    checked = 0
    for task in sim.taskset.periodic:
        for k, release in enumerate(task.release_times(end - task.deadline + 1)):
            checked += 1
            finish = finished.get((task.name, k))
            if finish is None or finish > release + task.deadline:
                misses.append(f"{task.name}#{k}")
    response = {
        name: replace(
            stats,
            mean=sim.to_full_scale(stats.mean),
            minimum=sim.to_full_scale(stats.minimum),
            maximum=sim.to_full_scale(stats.maximum),
            stdev=sim.to_full_scale(stats.stdev),
        )
        for name, stats in run_metrics(sim, horizon).response.items()
    }
    return OracleRun(
        horizon=horizon,
        response=response,
        misses=sorted(misses),
        jobs_checked=checked,
        worst_response_ratio=worst_ratio,
        sim=sim,
    )


def verify_by_simulation(
    taskset: TaskSet,
    n_cpus: int,
    tick: int,
    max_horizon: int = 500_000_000,
    hyperperiods: int = 1,
) -> OracleRun:
    """Run ``hyperperiods`` hyperperiods plus the longest deadline on
    the theoretical rung at zero overhead.

    Raises
    ------
    ValueError
        When the hyperperiod is too large to simulate exactly
        (``max_horizon`` guards against pathological period sets).
    """
    if hyperperiods < 1:
        raise ValueError("hyperperiods must be >= 1")
    taskset.require_analysed()
    longest_deadline = max((t.deadline for t in taskset.periodic), default=0)
    horizon = taskset.hyperperiod * hyperperiods + longest_deadline
    if horizon > max_horizon:
        raise ValueError(
            f"hyperperiod horizon {horizon} exceeds max_horizon {max_horizon}; "
            "use the response-time test instead"
        )
    return run_oracle("theoretical", taskset, n_cpus, horizon,
                      tick=tick, overhead=0.0)


def cross_check(
    taskset: TaskSet,
    n_cpus: int,
    tick: int,
    max_horizon: int = 500_000_000,
) -> Optional[bool]:
    """Compare the analytical verdict with the simulated one.

    Returns True when both agree schedulable, False when both agree
    unschedulable, and raises AssertionError when the analysis said
    "schedulable" but the simulation found a miss (the analysis must
    be safe).  Returns None when the hyperperiod is too large to
    simulate.
    """
    report = analyse_taskset(taskset, n_cpus)
    try:
        simulated = verify_by_simulation(taskset, n_cpus, tick, max_horizon=max_horizon)
    except ValueError:
        return None
    if report.schedulable and not simulated.schedulable:
        raise AssertionError(
            "analysis claimed schedulable but simulation missed deadlines: "
            f"{simulated.misses}"
        )
    return report.schedulable and simulated.schedulable


@dataclass(frozen=True)
class Comparison:
    """The theoretical and prototype rungs on the same set, per task."""

    theoretical: OracleRun
    prototype: OracleRun

    def slowdown_pct(self, task: str) -> float:
        """How much slower ``task``'s mean response is on the prototype."""
        theoretical = self.theoretical.response[task].mean
        if theoretical <= 0:
            return 0.0
        return 100.0 * (self.prototype.response[task].mean / theoretical - 1.0)

    def format(self) -> str:
        tasks = set(self.theoretical.response) & set(self.prototype.response)
        lines = [
            f"{'task':<28}{'theo mean':>14}{'proto mean':>14}{'slowdown':>10}"
        ]
        for task in sorted(tasks, key=lambda t: (-self.slowdown_pct(t), t)):
            lines.append(
                f"{task:<28}{self.theoretical.response[task].mean:>14.0f}"
                f"{self.prototype.response[task].mean:>14.0f}"
                f"{self.slowdown_pct(task):>9.1f}%"
            )
        lines.append(
            f"misses: theoretical={len(self.theoretical.misses)} "
            f"prototype={len(self.prototype.misses)}"
        )
        return "\n".join(lines)
