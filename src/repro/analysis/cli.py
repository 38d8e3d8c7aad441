"""Command-line front end for the offline analysis ("in-house tool").

Reads a task table (CSV: name,wcet,period,deadline), partitions it on
N processors, computes promotion times, and prints the task tables with
processor assignments -- the same artefact the paper feeds to both the
FPGA prototype and the simulator.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.partitioning import partition
from repro.analysis.promotion import assign_promotions, promotion_table
from repro.analysis.schedulability import analyse_taskset
from repro.core.task import TaskSet
from repro.lint.diagnostics import LintError, require_ok
from repro.lint.tasks import lint_taskset, read_task_table


def load_task_csv(path: str) -> TaskSet:
    """Parse ``name,wcet,period[,deadline]`` rows into a TaskSet.

    Rows are linted (``TASK001``/``TASK009``) before task construction,
    so a malformed or empty table raises :class:`LintError` with every
    offending row named instead of the first constructor ValueError.
    """
    with open(path, newline="") as handle:
        report, taskset = read_task_table(handle.read())
    require_ok(report, subject=path)
    return taskset


def run_analysis(
    taskset: TaskSet,
    n_cpus: int,
    heuristic: str = "worst-fit",
    tick: Optional[int] = None,
):
    """Partition, analyse and promote; returns (taskset, report, rows)."""
    assigned = partition(taskset, n_cpus, heuristic=heuristic)
    report = analyse_taskset(assigned, n_cpus)
    analysed = assign_promotions(assigned, n_cpus, tick=tick)
    rows = promotion_table(analysed, n_cpus)
    return analysed, report, rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="MPDP offline analysis: partitioning, WCRT, promotions"
    )
    parser.add_argument("csv", help="task table: name,wcet,period[,deadline]")
    parser.add_argument("--cpus", type=int, default=2, help="number of processors")
    parser.add_argument(
        "--heuristic",
        default="worst-fit",
        choices=["first-fit", "best-fit", "worst-fit"],
    )
    parser.add_argument(
        "--tick", type=int, default=None, help="round promotions down to this tick"
    )
    args = parser.parse_args(argv)

    try:
        taskset = load_task_csv(args.csv)
    except OSError as exc:
        print(f"cannot read {args.csv}: {exc.strerror}", file=sys.stderr)
        return 1
    except LintError as exc:
        print(exc.report.format(header=f"lint: {args.csv}"), file=sys.stderr)
        return 1
    try:
        analysed, report, rows = run_analysis(
            taskset, args.cpus, heuristic=args.heuristic, tick=args.tick
        )
    except Exception as exc:  # surface analysis failures as exit codes
        print(f"analysis failed: {exc}", file=sys.stderr)
        return 1

    lint_report = lint_taskset(analysed, args.cpus, tick=args.tick)
    if not lint_report.clean:
        print(lint_report.format(header="task-set lint"), file=sys.stderr)
        if not lint_report.ok:
            return 1

    print(report.format())
    print()
    header = f"{'task':<14}{'cpu':>4}{'C':>12}{'T':>12}{'D':>12}{'W':>12}{'U=D-W':>12}"
    print(header)
    for row in rows:
        wcrt = row["wcrt"] if row["wcrt"] is not None else "-"
        prom = row["promotion"] if row["promotion"] is not None else "-"
        print(
            f"{row['task']:<14}{row['cpu']:>4}{row['wcet']:>12}{row['period']:>12}"
            f"{row['deadline']:>12}{wcrt:>12}{prom:>12}"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
