"""Reference values from the paper and table rendering helpers.

Single home for every number the paper's evaluation quotes, so tests
and benchmarks assert against one source of truth, plus the renderer
that prints our task tables in the paper's format.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro import CLOCK_HZ

#: The prototype clock (Virtex-II PRO XC2VP30, speed grade -7).
PAPER_CLOCK_HZ = 50_000_000
assert PAPER_CLOCK_HZ == CLOCK_HZ

#: Scheduling tick: "Scheduling phase is triggered each 0.1 seconds".
PAPER_TICK_S = 0.1

#: Uniform overhead the paper's simulator charges.
PAPER_SIM_OVERHEAD = 0.02

#: "The aperiodic task, on a single processor architecture, should
#: execute in [~10.1] seconds with the given dataset at 50 MHz."
PAPER_APERIODIC_EXEC_S = 10.1

#: "... with the only overheads of context switching when moving the
#: task on free processors (10.32 seconds in the worst case)."
PAPER_APERIODIC_WORST_S = 10.32

#: "our architecture can reach a response time of [~12.9] seconds,
#: 25% worse than the optimal response time obtained in simulation"
PAPER_4P60_RESPONSE_S = 12.9

#: The evaluation grid.
PAPER_CPUS: Tuple[int, ...] = (2, 3, 4)
PAPER_UTILIZATIONS: Tuple[float, ...] = (0.40, 0.50, 0.60)

#: Real-vs-simulated slowdown percentages quoted in Section 5.
PAPER_SLOWDOWN_MATRIX: Dict[Tuple[int, float], float] = {
    (2, 0.40): 7.0,
    (2, 0.50): 8.0,
    (2, 0.60): 12.0,
    (3, 0.40): 15.0,
    (3, 0.50): 22.0,
    (3, 0.60): 27.0,
    # 4 processors: "almost the same results obtained with 3
    # MicroBlazes, even slightly better"; at 60% about 25%.
    (4, 0.60): 25.0,
}

#: Workload composition: "a total of 19 tasks ... 18 periodic and 1
#: aperiodic.  The aperiodic task is the susan benchmark with the
#: large dataset."
PAPER_N_PERIODIC = 18
PAPER_N_APERIODIC = 1

#: Figure 3 priority bands: periodic low 0-1, aperiodic 2, periodic
#: high 3-4.
PAPER_FIG3_LOW_PRIORITIES = (0, 1)
PAPER_FIG3_APERIODIC_PRIORITY = 2
PAPER_FIG3_HIGH_PRIORITIES = (3, 4)


def format_task_table(rows: Sequence[dict], clock_hz: int = CLOCK_HZ) -> str:
    """Render analysis rows (see promotion_table) paper-style.

    Times are shown both in cycles and in milliseconds at the clock.
    """
    header = (
        f"{'task':<28}{'cpu':>4}{'C (ms)':>10}{'T (ms)':>10}"
        f"{'D (ms)':>10}{'W (ms)':>10}{'U (ms)':>10}{'ok':>4}"
    )
    lines = [header, "-" * len(header)]

    def ms(cycles) -> str:
        if cycles is None:
            return "-"
        return f"{1e3 * cycles / clock_hz:.1f}"

    for row in rows:
        lines.append(
            f"{row['task']:<28}{row['cpu']:>4}{ms(row['wcet']):>10}"
            f"{ms(row['period']):>10}{ms(row['deadline']):>10}"
            f"{ms(row['wcrt']):>10}{ms(row['promotion']):>10}"
            f"{'y' if row['schedulable'] else 'N':>4}"
        )
    return "\n".join(lines)


def format_slowdown_matrix(
    measured: Dict[Tuple[int, float], float],
    paper: Dict[Tuple[int, float], float] = PAPER_SLOWDOWN_MATRIX,
) -> str:
    """Measured-vs-paper slowdown grid, one row per processor count."""
    lines = [
        "slowdown real-vs-theoretical, % -- measured (paper)",
        " " * 6 + "".join(f"{u:>16.0%}" for u in PAPER_UTILIZATIONS),
    ]
    for n in PAPER_CPUS:
        cells = []
        for u in PAPER_UTILIZATIONS:
            value = measured.get((n, u))
            reference = paper.get((n, round(u, 2)))
            text = f"{value:.1f}" if value is not None else "-"
            if reference is not None:
                text += f" ({reference:.0f})"
            cells.append(f"{text:>16}")
        lines.append(f"{n}P:   " + "".join(cells))
    return "\n".join(lines)
