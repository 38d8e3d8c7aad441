"""Task-set and configuration linting for the offline analysis.

The paper's in-house tool computes W_i and U_i = D_i - W_i but trusts
its inputs; a malformed table used to surface as a confusing failure
deep inside a simulator run.  This pass validates a task table (raw
CSV-style rows, before :class:`~repro.core.task.PeriodicTask`
construction can reject them) and a partitioned/analysed
:class:`~repro.core.task.TaskSet`, reporting ``TASK001``-``TASK008``
diagnostics (see ``docs/LINT.md``).
"""

from __future__ import annotations

import csv
import io
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.analysis.response_time import (
    RecurrenceDivergenceError,
    worst_case_response_time,
)
from repro.core.task import PeriodicTask, TaskSet
from repro.lint.diagnostics import LintReport, Severity, require_ok


#: Columns of a task table, in order; ``deadline`` is optional.
_COLUMNS = ("name", "wcet", "period", "deadline")
_ROW_HINT = "one task per row: name,wcet,period[,deadline]"


def read_task_table(text: str) -> Tuple[LintReport, Optional[TaskSet]]:
    """Parse and lint a ``name,wcet,period[,deadline]`` CSV table.

    Blank lines, ``#`` comments and a ``name`` header row are skipped;
    absent or empty cells read as missing.  Returns the
    :func:`lint_task_rows` report and, when it has no errors, the
    deadline-monotonic :class:`~repro.core.task.TaskSet` (else ``None``).
    """
    rows = []
    for row in csv.reader(io.StringIO(text)):
        if not row or row[0].startswith("#") or row[0] == "name":
            continue
        cells = [cell or None for cell in row] + [None] * len(_COLUMNS)
        rows.append(dict(zip(_COLUMNS, cells)))
    report = lint_task_rows(rows)
    if not report.ok:
        return report, None
    taskset = TaskSet(
        [
            PeriodicTask(
                name=row["name"],
                wcet=int(row["wcet"]),
                period=int(row["period"]),
                deadline=int(row["deadline"]) if row["deadline"] else None,
            )
            for row in rows
        ]
    )
    return report, taskset.with_deadline_monotonic_priorities()


def lint_task_rows(rows: Iterable[Mapping[str, object]]) -> LintReport:
    """Validate raw task rows (``name``/``wcet``/``period``/``deadline``).

    Runs before :class:`~repro.core.task.PeriodicTask` construction so a
    bad CSV fails with one actionable diagnostic per row instead of the
    first constructor ValueError.  ``deadline`` may be ``None`` (defaults
    to the period, as the task model does); a missing name, wcet or
    period, and a table with no rows at all, are errors.
    """
    report = LintReport()
    rows = list(rows)
    if not rows:
        report.add(
            "TASK001",
            Severity.ERROR,
            "task table has no rows",
            location="task table",
            hint=_ROW_HINT,
        )
    seen: Dict[str, int] = {}
    for number, row in enumerate(rows, start=1):
        name = str(row.get("name") or f"row {number}")
        where = f"task {name} (row {number})"
        for key in ("name", "wcet", "period"):
            if row.get(key) in (None, ""):
                report.add(
                    "TASK001",
                    Severity.ERROR,
                    f"missing {key}",
                    location=where,
                    hint=_ROW_HINT,
                )

        def integer(key: str) -> Optional[int]:
            value = row.get(key)
            if value is None:
                return None
            try:
                return int(value)
            except (TypeError, ValueError):
                report.add(
                    "TASK001",
                    Severity.ERROR,
                    f"{key} {value!r} is not an integer",
                    location=where,
                    hint="times are integer clock cycles",
                )
                return None

        if name in seen:
            report.add(
                "TASK009",
                Severity.ERROR,
                f"duplicate task name (first defined in row {seen[name]})",
                location=where,
                hint="task names must be unique",
            )
        else:
            seen[name] = number

        wcet, period = integer("wcet"), integer("period")
        deadline = integer("deadline")
        if wcet is not None and wcet <= 0:
            report.add(
                "TASK001",
                Severity.ERROR,
                f"wcet must be positive, got {wcet}",
                location=where,
            )
        if period is not None and period <= 0:
            report.add(
                "TASK001",
                Severity.ERROR,
                f"period must be positive, got {period}",
                location=where,
            )
        if deadline is None and period is not None:
            deadline = period  # implicit-deadline default
        if deadline is not None and deadline <= 0:
            report.add(
                "TASK001",
                Severity.ERROR,
                f"deadline must be positive, got {deadline}",
                location=where,
            )
            continue
        if (
            wcet is not None
            and deadline is not None
            and period is not None
            and wcet > 0
            and period > 0
        ):
            if deadline > period:
                report.add(
                    "TASK001",
                    Severity.ERROR,
                    f"deadline {deadline} exceeds period {period} "
                    "(constrained deadlines require D <= T)",
                    location=where,
                    hint="lower the deadline or raise the period",
                )
            if wcet > deadline:
                report.add(
                    "TASK001",
                    Severity.ERROR,
                    f"wcet {wcet} exceeds deadline {deadline}; "
                    "trivially unschedulable",
                    location=where,
                    hint="no schedule can fit C cycles into a shorter window",
                )
    return report


def _cpu_groups(
    taskset: TaskSet, n_cpus: int, report: LintReport
) -> Dict[int, List[PeriodicTask]]:
    """Group by home processor, flagging out-of-range indices (TASK007)."""
    groups: Dict[int, List[PeriodicTask]] = {}
    for task in taskset.periodic:
        if not 0 <= task.cpu < n_cpus:
            report.add(
                "TASK007",
                Severity.ERROR,
                f"home processor {task.cpu} outside 0..{n_cpus - 1}",
                location=f"task {task.name}",
                hint="re-run the partitioner with the right --cpus",
            )
            continue
        groups.setdefault(task.cpu, []).append(task)
    return groups


def lint_taskset(
    taskset: TaskSet, n_cpus: int, tick: Optional[int] = None
) -> LintReport:
    """Lint a (possibly partitioned/analysed) task set.

    Checks utilization bounds per processor and overall, the W_i
    recurrence outcome per task (U_i = D_i - W_i >= 0), duplicate or
    band-inconsistent priorities within a processor group, and -- when
    promotions are already assigned -- that no promotion instant lands
    later than D_i - W_i (which would void the hard guarantee).
    """
    report = LintReport()
    if n_cpus < 1:
        report.add(
            "TASK007", Severity.ERROR, f"processor count {n_cpus} must be >= 1"
        )
        return report

    total = taskset.utilization
    if total > n_cpus:
        report.add(
            "TASK008",
            Severity.ERROR,
            f"total periodic utilization {total:.3f} exceeds the "
            f"{n_cpus}-processor capacity",
            location="task set",
            hint="shed load, stretch periods, or add processors",
        )

    groups = _cpu_groups(taskset, n_cpus, report)
    for cpu in sorted(groups):
        tasks = groups[cpu]
        usage = sum(t.utilization for t in tasks)
        if usage >= 1.0:
            report.add(
                "TASK002",
                Severity.ERROR,
                f"cpu {cpu} utilization {usage:.3f} >= 1; the W_i recurrence "
                "diverges and deadlines cannot be guaranteed",
                location=f"cpu {cpu} ({', '.join(t.name for t in tasks)})",
                hint="repartition (worst-fit spreads load) or stretch periods",
            )

        # duplicate / band-inconsistent priorities within the group
        by_high: Dict[int, List[str]] = {}
        for task in tasks:
            by_high.setdefault(task.high_priority, []).append(task.name)
        for priority, names in sorted(by_high.items()):
            if len(names) > 1:
                report.add(
                    "TASK004",
                    Severity.WARNING,
                    f"tasks {', '.join(sorted(names))} share upper-band "
                    f"priority {priority} on cpu {cpu}; interference analysis "
                    "breaks the tie by name",
                    location=f"cpu {cpu}",
                    hint="assign strict priorities (with_deadline_monotonic_priorities)",
                )
        for i, first in enumerate(tasks):
            for second in tasks[i + 1:]:
                low_delta = first.low_priority - second.low_priority
                high_delta = first.high_priority - second.high_priority
                if low_delta * high_delta < 0:
                    report.add(
                        "TASK005",
                        Severity.WARNING,
                        f"{first.name} and {second.name} swap relative order "
                        "between the lower and upper band "
                        f"(low {first.low_priority} vs {second.low_priority}, "
                        f"high {first.high_priority} vs {second.high_priority})",
                        location=f"cpu {cpu}",
                        hint="dual-priority expects consistent in-band orderings",
                    )

        # per-task response time: U_i = D_i - W_i must be >= 0
        for task in tasks:
            if usage >= 1.0:
                continue  # recurrence diverges; TASK002 already says why
            try:
                result = worst_case_response_time(task, tasks)
            except RecurrenceDivergenceError as exc:
                report.add(
                    "TASK003",
                    Severity.ERROR,
                    f"W_i recurrence diverged: {exc}",
                    location=f"task {task.name} (cpu {cpu})",
                )
                continue
            if not result.schedulable:
                report.add(
                    "TASK003",
                    Severity.ERROR,
                    f"worst-case response time exceeds deadline {task.deadline} "
                    "(U_i = D_i - W_i would be negative)",
                    location=f"task {task.name} (cpu {cpu})",
                    hint="lower this cpu's load or relax the deadline",
                )
                continue
            slack = task.deadline - result.value
            if task.promotion is not None and task.promotion > slack:
                report.add(
                    "TASK006",
                    Severity.ERROR,
                    f"promotion U={task.promotion} is later than "
                    f"D - W = {slack}; the hard deadline is no longer guaranteed",
                    location=f"task {task.name} (cpu {cpu})",
                    hint="recompute promotions (repro.analysis.promotion.assign_promotions)",
                )
            elif (
                tick is not None
                and task.promotion is not None
                and task.promotion > max(0, slack - tick)
            ):
                report.add(
                    "TASK006",
                    Severity.ERROR,
                    f"promotion U={task.promotion} leaves less than one tick "
                    f"({tick}) of observation latency before D - W = {slack}",
                    location=f"task {task.name} (cpu {cpu})",
                    hint="pass the same tick to assign_promotions",
                )
    return report


def lint_fault_config(
    taskset: TaskSet,
    bindings: Mapping[str, object],
    n_cpus: int,
    recovery=None,
) -> LintReport:
    """Lint the fault-recovery configuration (docs/FAULTS.md).

    ``bindings`` maps task name ->
    :class:`repro.kernel.microkernel.TaskBinding`; ``recovery`` is an
    optional :class:`repro.kernel.microkernel.RecoveryConfig`.

    TASK010 (error): the retry budget must fit the slack -- a crashed
    job re-executes up to ``retry_budget`` times at full WCET on top
    of its fault-free worst-case response time, so
    ``W_i + retry_budget * C_i`` must stay within ``D_i`` or the
    recovery policy itself breaks the hard guarantee.

    TASK011: criticality levels must be well-formed -- bindings that
    name unknown tasks (warning), a degradation config whose shed
    floor can never shed anything (warning), or one that would shed
    *every* periodic task on some processor (error: degraded mode
    must keep a useful system).
    """
    report = LintReport()
    known = {task.name for task in taskset.periodic}
    for name in sorted(bindings):
        if name not in known and not any(
            task.name == name for task in taskset.aperiodic
        ):
            report.add(
                "TASK011",
                Severity.WARNING,
                f"binding names unknown task {name!r}",
                location="fault config",
                hint="criticality/retry budgets on unknown tasks are dead config",
            )

    def binding_of(name: str):
        from repro.kernel.microkernel import TaskBinding

        binding = bindings.get(name)
        return binding if binding is not None else TaskBinding()

    groups = {cpu: [] for cpu in range(n_cpus)}
    for task in taskset.periodic:
        if 0 <= task.cpu < n_cpus:
            groups[task.cpu].append(task)

    for cpu in sorted(groups):
        tasks = groups[cpu]
        if not tasks:
            continue
        if sum(t.utilization for t in tasks) >= 1.0:
            continue  # lint_taskset's TASK002 already rejects the group
        for task in tasks:
            budget = binding_of(task.name).retry_budget
            if budget == 0:
                continue
            try:
                result = worst_case_response_time(task, tasks)
            except RecurrenceDivergenceError:
                continue  # TASK003 territory
            if not result.schedulable:
                continue
            worst = result.value + budget * task.wcet
            if worst > task.deadline:
                report.add(
                    "TASK010",
                    Severity.ERROR,
                    f"retry budget {budget} does not fit the slack: "
                    f"W + {budget}*C = {worst} > D = {task.deadline}",
                    location=f"task {task.name} (cpu {cpu})",
                    hint="lower retry_budget, shed load, or relax the deadline",
                )

    if recovery is not None and recovery.degradation_threshold > 0:
        floor = recovery.shed_below_criticality
        sheddable = [
            task.name
            for task in taskset.periodic
            if binding_of(task.name).criticality < floor
        ]
        if not sheddable:
            report.add(
                "TASK011",
                Severity.WARNING,
                f"degradation is armed (threshold "
                f"{recovery.degradation_threshold}) but no periodic task has "
                f"criticality below the shed floor {floor}; degraded mode "
                "would shed nothing",
                location="fault config",
                hint="mark best-effort tasks with a lower criticality",
            )
        for cpu in sorted(groups):
            tasks = groups[cpu]
            if tasks and all(
                binding_of(task.name).criticality < floor for task in tasks
            ):
                report.add(
                    "TASK011",
                    Severity.ERROR,
                    f"degraded mode would shed every periodic task on cpu "
                    f"{cpu} ({', '.join(sorted(t.name for t in tasks))})",
                    location=f"cpu {cpu}",
                    hint="keep at least one task at or above the shed floor per cpu",
                )
    return report


def check_taskset(
    taskset: TaskSet, n_cpus: int, tick: Optional[int] = None
) -> LintReport:
    """Fail-fast entry point: raise ``LintError`` on any error diagnostic.

    Called by the experiment runner and the analysis CLI before a
    simulation is started; returns the (error-free) report so callers
    can still surface warnings.
    """
    return require_ok(lint_taskset(taskset, n_cpus, tick=tick), subject="task set")
