"""ASCII Gantt rendering of schedule traces.

Renders the kind of schedule the paper draws in Figure 3: one row per
processor, time flowing right, each slot labelled with the job that
occupied it.  Works from the ``busy_intervals`` reconstruction of a
:class:`~repro.trace.recorder.TraceRecorder`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.trace.recorder import TraceRecorder


def _short_label(job_name: Optional[str]) -> str:
    if not job_name:
        return "."
    base = job_name.split("#")[0]
    return base[:6]


def render_gantt(
    trace: TraceRecorder,
    horizon: int,
    slot: int,
    n_cpus: int,
    start: int = 0,
    ruler: bool = True,
) -> str:
    """Render the schedule between ``start`` and ``horizon``.

    ``slot`` is the number of cycles per character column.  Each column
    shows the job that held the cpu for the majority of that slot
    (first-started wins ties), '.' for idle.
    """
    if slot <= 0:
        raise ValueError("slot must be positive")
    if horizon <= start:
        raise ValueError("horizon must exceed start")
    intervals = trace.busy_intervals(horizon)
    n_cols = (horizon - start + slot - 1) // slot

    lines: List[str] = []
    label_width = 8
    for cpu in range(n_cpus):
        cells: List[str] = []
        cpu_intervals = intervals.get(cpu, [])
        for col in range(n_cols):
            col_start = start + col * slot
            col_end = min(horizon, col_start + slot)
            best_job, best_overlap = None, 0
            for ivl_start, ivl_end, job in cpu_intervals:
                overlap = min(ivl_end, col_end) - max(ivl_start, col_start)
                if overlap > best_overlap:
                    best_job, best_overlap = job, overlap
            cells.append(_short_label(best_job)[0].upper() if best_job else ".")
        lines.append(f"cpu{cpu:<2}".ljust(label_width) + "".join(cells))

    if ruler:
        marks = [" "] * n_cols
        step = max(1, n_cols // 10)
        for col in range(0, n_cols, step):
            marks[col] = "|"
        lines.append(" " * label_width + "".join(marks))
    return "\n".join(lines)


def render_legend(trace: TraceRecorder) -> str:
    """Map single-letter Gantt labels back to job names."""
    jobs = sorted(
        {e.job.split("#")[0] for e in trace.of_kind("dispatch") if e.job}
    )
    return "\n".join(f"  {name[:1].upper()} = {name}" for name in jobs)


def render_interval_table(
    trace: TraceRecorder, horizon: int, n_cpus: int
) -> str:
    """Explicit (start, end, job) rows per cpu -- the Figure 3 tables."""
    intervals = trace.busy_intervals(horizon)
    lines = []
    for cpu in range(n_cpus):
        lines.append(f"cpu{cpu}:")
        for start, end, job in intervals.get(cpu, []):
            lines.append(f"  [{start:>10} .. {end:>10})  {job}")
    return "\n".join(lines)
