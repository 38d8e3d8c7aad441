"""Tests for the soundness oracle: one miss rule on every rung, and its
readers (hyperperiod verification, the analysis cross-check and the
theoretical-vs-prototype comparison)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis import assign_promotions, partition, random_taskset
from repro.core.task import AperiodicTask, PeriodicTask, TaskSet
from repro.simulators.ladder import FIDELITIES
from repro.simulators.oracle import (
    Comparison,
    OracleRun,
    cross_check,
    run_oracle,
    verify_by_simulation,
)
from repro.trace.metrics import ResponseStats

TICK = 10_000


def analysed(tasks, n_cpus=1):
    ts = TaskSet(tasks).with_deadline_monotonic_priorities()
    ts = partition(ts, n_cpus)
    return assign_promotions(ts, n_cpus, tick=TICK)


class TestVerifyBySimulation:
    def test_simple_set_verified(self):
        ts = analysed([
            PeriodicTask(name="a", wcet=10_000, period=100_000),
            PeriodicTask(name="b", wcet=20_000, period=200_000),
        ])
        result = verify_by_simulation(ts, 1, tick=TICK)
        assert result.schedulable
        assert bool(result)
        assert result.misses == []
        assert result.jobs_checked >= 3
        assert 0 < result.worst_response_ratio <= 1.0

    def test_horizon_covers_hyperperiod_plus_deadline(self):
        ts = analysed([
            PeriodicTask(name="a", wcet=1_000, period=60_000),
            PeriodicTask(name="b", wcet=1_000, period=40_000),
        ])
        result = verify_by_simulation(ts, 1, tick=TICK)
        assert result.horizon == 120_000 + 60_000

    def test_huge_hyperperiod_rejected(self):
        ts = analysed([
            PeriodicTask(name="a", wcet=10, period=999_983),  # prime
            PeriodicTask(name="b", wcet=10, period=999_979),  # prime
        ])
        with pytest.raises(ValueError):
            verify_by_simulation(ts, 1, tick=TICK, max_horizon=10_000_000)

    def test_multi_hyperperiod(self):
        ts = analysed([PeriodicTask(name="a", wcet=10_000, period=100_000)])
        result = verify_by_simulation(ts, 1, tick=TICK, hyperperiods=3)
        assert result.horizon == 400_000
        assert result.schedulable

    def test_invalid_hyperperiods(self):
        ts = analysed([PeriodicTask(name="a", wcet=10_000, period=100_000)])
        with pytest.raises(ValueError):
            verify_by_simulation(ts, 1, tick=TICK, hyperperiods=0)


class TestCrossCheck:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_analysis_never_contradicted_by_simulation(self, seed):
        """The safety property: analytical 'schedulable' must never be
        refuted by exact simulation."""
        base = random_taskset(
            4, 0.8, seed=seed, min_period=20_000, max_period=100_000,
        )
        # Round periods to tick multiples for an exact cross-check.
        rounded = [
            PeriodicTask(
                name=t.name, wcet=t.wcet,
                period=max(TICK, (t.period // TICK) * TICK),
                low_priority=t.low_priority, high_priority=t.high_priority,
            )
            for t in base.periodic
        ]
        ts = analysed(rounded, n_cpus=2)
        verdict = cross_check(ts, 2, tick=TICK, max_horizon=2_000_000_000)
        assert verdict is True  # these sets are schedulable and verified


def promoted(name, wcet, period, high):
    """A task promoted at release on cpu 0 (hand-built, not analysed)."""
    return PeriodicTask(name=name, wcet=wcet, period=period,
                        high_priority=high, cpu=0, promotion=0)


class TestCompleteMissRule:
    """Overloaded sets where a deadline passes on a job that never
    finished and is neither unpromoted-ready nor running."""

    def test_promoted_job_waiting_in_its_local_queue(self):
        # hp runs 0-60k and 100k-160k; lp#0 runs 60k-100k, then waits
        # promoted in cpu 0's local queue past its 100k deadline.
        ts = TaskSet([promoted("hp", 60_000, 100_000, high=2),
                      promoted("lp", 60_000, 100_000, high=1)])
        run = run_oracle("theoretical", ts, 1, 150_000, tick=TICK, overhead=0.0)
        assert [job.name for job in run.sim.policy.local[0]] == ["lp#0"]
        assert run.misses == ["lp#0"]
        assert run.jobs_checked == 2
        assert not run.schedulable

    def test_successor_that_was_never_created(self):
        # hp runs 0-250k; lp#0 runs from 250k and is still running at
        # the 260k horizon.  lp#1 (release 100k, deadline 200k) would be
        # created only at lp#0's completion, so no queue holds it.
        ts = TaskSet([promoted("hp", 250_000, 300_000, high=2),
                      promoted("lp", 60_000, 100_000, high=1)])
        run = run_oracle("theoretical", ts, 1, 260_000, tick=TICK, overhead=0.0)
        assert [job.name for job in run.sim.policy.running] == ["lp#0"]
        assert run.misses == ["lp#0", "lp#1"]
        assert run.jobs_checked == 2


VALIDATION_TICK = 100_000
HORIZON = 12_000_000
ARRIVALS = {"evt": [1_000_000]}


@pytest.fixture(scope="module")
def validation_set():
    ts = TaskSet(
        [
            PeriodicTask(name="a", wcet=200_000, period=2_000_000),
            PeriodicTask(name="b", wcet=300_000, period=3_000_000),
        ],
        [AperiodicTask(name="evt", wcet=400_000)],
    ).with_deadline_monotonic_priorities()
    return assign_promotions(partition(ts, 2), 2, tick=VALIDATION_TICK)


@pytest.fixture(scope="module")
def result(validation_set):
    options = dict(tick=VALIDATION_TICK, aperiodic_arrivals=ARRIVALS)
    return Comparison(
        run_oracle("theoretical", validation_set, 2, HORIZON, **options),
        run_oracle("prototype", validation_set, 2, HORIZON, scale=10, **options),
    )


class TestComparison:
    def test_all_tasks_compared(self, result):
        assert set(result.theoretical.response) == {"a", "b", "evt"}
        assert set(result.prototype.response) == {"a", "b", "evt"}

    def test_no_misses_either_side(self, result):
        assert result.theoretical.misses == []
        assert result.prototype.misses == []

    def test_prototype_not_faster_by_much(self, result):
        # The prototype includes hardware overheads; the theoretical side
        # includes a 2% inflation.  Per-task means must stay in the same
        # ballpark with the prototype generally the slower one.
        for task, theo in result.theoretical.response.items():
            assert result.prototype.response[task].mean > 0.8 * theo.mean

    def test_unknown_task_raises(self, result):
        with pytest.raises(KeyError):
            result.slowdown_pct("ghost")

    def test_format_renders(self, result):
        text = result.format()
        assert "evt" in text
        assert "misses: theoretical=0 prototype=0" in text

    def test_slowdown_math(self):
        def run(mean):
            stats = ResponseStats("x", 5, mean, int(mean), int(mean), 0.0)
            return OracleRun(
                horizon=0, response={"x": stats}, misses=[], jobs_checked=0,
                worst_response_ratio=0.0, sim=None,
            )

        assert Comparison(run(100.0), run(110.0)).slowdown_pct("x") == pytest.approx(10.0)


@pytest.mark.parametrize("fidelity", FIDELITIES)
def test_every_rung_meets_every_deadline(validation_set, fidelity):
    run = run_oracle(fidelity, validation_set, 2, HORIZON, tick=VALIDATION_TICK,
                     scale=100, aperiodic_arrivals=ARRIVALS)
    assert run.misses == []
    # a: 6 deadlines by 12 M; b: 4.  The rule counts them in each
    # rung's own time base, so the coarse prototype counts the same.
    assert run.jobs_checked == 10
    assert set(run.response) == {"a", "b", "evt"}


def loaded_after(module, layers):
    """Modules of ``layers`` (packages or modules) that a fresh
    interpreter holds after ``import module``."""
    code = (
        f"import sys, {module}\n"
        f"layers = {tuple(layers)!r}\n"
        "print(sorted(m for m in sys.modules "
        "if any(m == l or m.startswith(l + '.') for l in layers)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    return out.stdout.strip()


def test_analysis_imports_no_simulator_layer():
    layers = ("repro.sim", "repro.hw", "repro.kernel", "repro.simulators",
              "repro.perf")
    assert loaded_after("repro.analysis", layers) == "[]"


def test_sweep_loads_no_static_analyser_pass_and_no_kernel_model():
    """A Figure-4 sweep checks its task sets with ``repro.lint.tasks``
    only, and reads the workload from its characterisation table."""
    layers = ("repro.lint.absint", "repro.lint.asm", "repro.lint.concurrency",
              "repro.lint.determinism", "repro.workloads.basicmath",
              "repro.workloads.bitcount", "repro.workloads.datasets",
              "repro.workloads.qsort_bench", "repro.workloads.susan")
    assert loaded_after("repro.experiments.figure4", layers) == "[]"
