"""One-shot reproduction report generator.

``python -m repro.experiments.report [out.md]`` runs the whole
evaluation (Figure 3, Figure 4, the analysis tables) and writes a
self-contained markdown report with measured-vs-paper numbers -- the
artefact to attach to a reproduction claim.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import TICK
from repro.analysis.promotion import promotion_table
from repro.experiments.figure3 import (
    narrative_checks_a,
    narrative_checks_b,
    run_schedule_a,
    run_schedule_b,
    schedule_report,
)
from repro.experiments.figure4 import figure4_sweep
from repro.experiments.tables import (
    PAPER_APERIODIC_EXEC_S,
    PAPER_APERIODIC_WORST_S,
    format_slowdown_matrix,
    format_task_table,
)
from repro.workloads.automotive import build_automotive_taskset, prepare_taskset


def build_report(quick: bool = False, max_workers: int = 1) -> str:
    """Assemble the full report as markdown."""
    lines: List[str] = [
        "# Reproduction report",
        "",
        "Paper: *A Dual-Priority Real-Time Multiprocessor System on FPGA "
        "for Automotive Applications* (DATE 2008).",
        "",
    ]

    # ----------------------------------------------------------- Figure 3
    lines += ["## Figure 3 — worked schedule", ""]
    sim_a, trace_a = run_schedule_a()
    sim_b, trace_b = run_schedule_b()
    lines += ["```", schedule_report("A (periodic only)", sim_a, trace_a), "```", ""]
    lines += ["```", schedule_report("B (with aperiodics)", sim_b, trace_b), "```", ""]
    for label, checks in (
        ("A", narrative_checks_a(sim_a, trace_a)),
        ("B", narrative_checks_b(sim_b, trace_b)),
    ):
        for claim, holds in checks.items():
            lines.append(f"- schedule {label}: {'PASS' if holds else 'FAIL'} — {claim}")
    lines.append("")

    # ------------------------------------------------------ analysis table
    lines += ["## Offline analysis (2 processors @ 50 %)", ""]
    taskset = prepare_taskset(build_automotive_taskset(0.5, 2), 2, tick=TICK)
    lines += ["```", format_task_table(promotion_table(taskset, 2)), "```", ""]

    # ----------------------------------------------------------- Figure 4
    lines += ["## Figure 4 — aperiodic response, theoretical vs real", ""]
    lines.append(
        f"Paper anchors: standalone execution {PAPER_APERIODIC_EXEC_S} s, "
        f"theoretical worst case {PAPER_APERIODIC_WORST_S} s."
    )
    lines.append("")
    cpus = (2,) if quick else (2, 3, 4)
    utils = (0.5,) if quick else (0.40, 0.50, 0.60)
    cells = figure4_sweep(cpus, utils, max_workers=max_workers)
    measured = {
        (cell.n_cpus, round(cell.utilization, 2)): cell.slowdown_pct
        for cell in cells
    }
    lines += ["```"]
    for cell in cells:
        lines.append(cell.row())
    lines += ["```", "", "```", format_slowdown_matrix(measured), "```", ""]

    ok = all(cell.real_s > cell.theoretical_s for cell in cells)
    lines.append(
        f"Verdict: prototype slower than simulation in "
        f"{'every' if ok else 'NOT every'} measured cell; see EXPERIMENTS.md "
        "for the shape assessment."
    )
    lines.append("")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Generate the reproduction report")
    parser.add_argument("output", nargs="?", default="-",
                        help="output file ('-' = stdout)")
    parser.add_argument("--quick", action="store_true",
                        help="single Figure 4 cell instead of the full grid")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the Figure 4 sweep (0 = one per CPU)")
    args = parser.parse_args(argv)
    if args.workers < 0:
        parser.error("--workers must be >= 0")
    text = build_report(quick=args.quick, max_workers=args.workers)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"report written to {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
