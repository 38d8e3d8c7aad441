"""Task-set lint pass: raw-row validation, schedulability checks on
seeded-bad sets, and clean runs over the shipped example workloads."""

import pytest

from repro.analysis.partitioning import partition
from repro.analysis.promotion import assign_promotions
from repro.core.task import PeriodicTask, TaskSet
from repro.lint.diagnostics import LintError, Severity
from repro.lint.tasks import check_taskset, lint_task_rows, lint_taskset
from repro.workloads.automotive import build_automotive_taskset, prepare_taskset


def rows(*triples):
    return [
        {"name": n, "wcet": c, "period": t, "deadline": d}
        for n, c, t, d in triples
    ]


# ---------------------------------------------------------------- raw rows
class TestTaskRows:
    def test_clean_rows(self):
        report = lint_task_rows(rows(("a", 10, 100, None), ("b", 5, 50, 40)))
        assert report.clean

    def test_task001_non_integer(self):
        report = lint_task_rows(rows(("a", "ten", 100, None)))
        assert "not an integer" in report.by_rule("TASK001")[0].message

    def test_task001_non_positive_wcet(self):
        report = lint_task_rows(rows(("a", 0, 100, None)))
        assert report.by_rule("TASK001")

    def test_task001_deadline_exceeds_period(self):
        report = lint_task_rows(rows(("a", 10, 100, 200)))
        assert any("exceeds period" in d.message for d in report.by_rule("TASK001"))

    def test_task001_wcet_exceeds_deadline(self):
        report = lint_task_rows(rows(("a", 60, 100, 50)))
        assert any("trivially unschedulable" in d.message for d in report)

    def test_task009_duplicate_names(self):
        report = lint_task_rows(rows(("a", 10, 100, None), ("a", 5, 50, None)))
        dup = report.by_rule("TASK009")
        assert len(dup) == 1 and "row 1" in dup[0].message

    def test_every_bad_row_reported(self):
        """One diagnostic per offence, not fail-on-first."""
        report = lint_task_rows(rows(("a", 0, 100, None), ("b", 10, -5, None)))
        locations = {d.location for d in report.by_rule("TASK001")}
        assert locations == {"task a (row 1)", "task b (row 2)"}


# ---------------------------------------------------------------- task sets
def dm(tasks):
    return TaskSet(tasks).with_deadline_monotonic_priorities()


class TestTaskSetLint:
    def test_clean_quickstart_set(self):
        toy = dm(
            [
                PeriodicTask(name="wheel-speed", wcet=12_000, period=60_000),
                PeriodicTask(
                    name="abs-monitor", wcet=20_000, period=100_000, deadline=80_000
                ),
                PeriodicTask(name="engine-poll", wcet=30_000, period=150_000),
            ]
        )
        toy = assign_promotions(partition(toy, 2), 2, tick=10_000)
        assert lint_taskset(toy, 2, tick=10_000).clean

    def test_clean_automotive_workload(self):
        taskset = prepare_taskset(build_automotive_taskset(0.5, 2), 2, tick=5_000_000)
        report = check_taskset(taskset, 2, tick=5_000_000)
        assert report.ok

    def test_task002_overloaded_processor(self):
        overloaded = dm(
            [
                PeriodicTask(name="hog-a", wcet=60_000, period=100_000),
                PeriodicTask(name="hog-b", wcet=60_000, period=100_000),
            ]
        )
        report = lint_taskset(overloaded, 1)
        assert report.by_rule("TASK002") and report.by_rule("TASK008")

    def test_task003_deadline_unreachable(self):
        # U = 0.53 < 1 but the victim's busy period overruns D=35:
        # w = 30 + ceil(w/20)*10 -> 40 > 35.
        victim = PeriodicTask(
            name="victim", wcet=30, period=1_000, deadline=35, high_priority=0
        )
        hog = PeriodicTask(name="hog", wcet=10, period=20, high_priority=1)
        report = lint_taskset(TaskSet([victim, hog]), 1)
        bad = report.by_rule("TASK003")
        assert len(bad) == 1 and "victim" in bad[0].location

    def test_task004_duplicate_upper_band_priority(self):
        twins = TaskSet(
            [
                PeriodicTask(name="a", wcet=10, period=100, high_priority=3),
                PeriodicTask(name="b", wcet=10, period=100, high_priority=3),
            ]
        )
        report = lint_taskset(twins, 1)
        dup = report.by_rule("TASK004")
        assert dup and dup[0].severity == Severity.WARNING

    def test_task005_band_order_inversion(self):
        crossed = TaskSet(
            [
                PeriodicTask(
                    name="a", wcet=10, period=100, low_priority=1, high_priority=0
                ),
                PeriodicTask(
                    name="b", wcet=10, period=200, low_priority=0, high_priority=1
                ),
            ]
        )
        report = lint_taskset(crossed, 1)
        assert report.by_rule("TASK005")

    def test_task006_promotion_past_slack(self):
        # Alone on its cpu: W = C = 50, slack = D - W = 50; U = 60 is too late.
        late = TaskSet(
            [PeriodicTask(name="late", wcet=50, period=100, promotion=60)]
        )
        report = lint_taskset(late, 1)
        assert report.by_rule("TASK006")

    def test_task006_tick_granularity(self):
        # U = slack is fine without a tick but leaves no observation
        # latency once promotions are quantized.
        tight = TaskSet(
            [PeriodicTask(name="tight", wcet=50, period=100, promotion=50)]
        )
        assert lint_taskset(tight, 1).clean
        assert lint_taskset(tight, 1, tick=20).by_rule("TASK006")

    def test_task007_cpu_out_of_range(self):
        stray = TaskSet([PeriodicTask(name="stray", wcet=10, period=100, cpu=5)])
        report = lint_taskset(stray, 2)
        assert report.by_rule("TASK007")

    def test_task008_total_overload(self):
        heavy = dm(
            [
                PeriodicTask(name=f"t{i}", wcet=90, period=100, cpu=i % 2)
                for i in range(3)
            ]
        )
        report = lint_taskset(heavy, 2)
        assert report.by_rule("TASK008")

    def test_check_taskset_raises_on_errors(self):
        overloaded = dm(
            [
                PeriodicTask(name="hog-a", wcet=60_000, period=100_000),
                PeriodicTask(name="hog-b", wcet=60_000, period=100_000),
            ]
        )
        with pytest.raises(LintError) as excinfo:
            check_taskset(overloaded, 1)
        assert "TASK002" in str(excinfo.value)
        assert excinfo.value.report.by_rule("TASK002")
