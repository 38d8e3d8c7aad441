"""``python -m bench compare --base A.json... --head B.json...``

Checks two sets of results files written by ``python -m bench run --out``
against each other, with the end-to-end metrics, directions and bounds
of ``BENCHMARK.json``:

- one row per (metric, workload) with each side's median and relative
  inter-quartile range (IQR);
- ``regression`` when the head median is worse than the base median by
  more than the metric's bound;
- ``unresolved`` when either side's relative IQR exceeds the bound, so
  a difference cannot be told from noise -- unless every head run is
  better than every base run;
- simulated outputs apart: any difference in ``outputs_sha256`` between
  runs of the same workload and seed, and any ``fail_share`` difference,
  is listed separately; a digest difference or a ``fail_share`` rise is
  flagged.

Exit status: 0 when nothing is flagged, 1 on a regression or an output
difference, 2 on bad input (including runs measured with different
``run_seconds``).
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

from bench.run import load_benchmark
from bench.timing import relative_iqr


class BadInput(ValueError):
    """A results file is missing, unreadable or inconsistent."""


def load_results(paths: Sequence[str]) -> List[dict]:
    runs = []
    for path in paths:
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:
            raise BadInput(f"{path}: {exc}") from None
        if not isinstance(data, dict) or not isinstance(data.get("workloads"), dict):
            raise BadInput(f"{path}: not a results file of python -m bench run")
        if data.get("trace"):
            raise BadInput(f"{path}: traced results carry no end-to-end metrics")
        data["path"] = path
        runs.append(data)
    return runs


def values(runs: List[dict], workload: str, metric: str) -> List[float]:
    out = []
    for run in runs:
        result = run["workloads"].get(workload)
        if result is None:
            continue
        try:
            out.append(float(result["metrics"][metric]))
        except (KeyError, TypeError, ValueError):
            raise BadInput(f"{run['path']}: {workload} has no metric {metric}") from None
    return out


def verdict(base: List[float], head: List[float], better: str, bound: float
            ) -> Tuple[str, float]:
    """(verdict, relative change of the head median) for one metric."""
    base_median = statistics.median(base)
    head_median = statistics.median(head)
    change = (head_median - base_median) / abs(base_median) if base_median else 0.0
    worse = change > bound if better == "lower" else change < -bound
    improved = change < -bound if better == "lower" else change > bound
    if max(relative_iqr(base), relative_iqr(head)) > bound:
        all_better = (max(head) < min(base) if better == "lower"
                      else min(head) > max(base))
        return ("better" if all_better else "unresolved"), change
    if worse:
        return "regression", change
    return ("better" if improved else "ok"), change


def output_differences(base: List[dict], head: List[dict],
                       workloads: Sequence[str]) -> Tuple[List[str], bool]:
    """Digest and fail_share differences; True when any must be flagged."""
    lines: List[str] = []
    flagged = False
    for workload in workloads:
        digests: Dict[int, Dict[str, List[str]]] = {}
        for side, runs in (("base", base), ("head", head)):
            for run in runs:
                result = run["workloads"].get(workload)
                if result is not None:
                    digests.setdefault(run["seed"], {}).setdefault(
                        result["outputs_sha256"], []).append(f"{side}:{run['path']}")
        for seed, by_digest in sorted(digests.items()):
            if len(by_digest) > 1:
                flagged = True
                lines.append(f"{workload} seed {seed}: outputs differ")
                for digest, where in sorted(by_digest.items()):
                    lines.append(f"    {digest[:16]}  {', '.join(where)}")
        base_share = [run["workloads"][workload]["fail_share"]
                      for run in base if workload in run["workloads"]]
        head_share = [run["workloads"][workload]["fail_share"]
                      for run in head if workload in run["workloads"]]
        if sorted(set(base_share)) != sorted(set(head_share)):
            rise = statistics.median(head_share) > statistics.median(base_share)
            flagged = flagged or rise
            lines.append(f"{workload}: fail_share base {sorted(set(base_share))} "
                         f"head {sorted(set(head_share))}"
                         + (" (rise)" if rise else ""))
    return lines, flagged


def main(base_paths: Sequence[str], head_paths: Sequence[str]) -> int:
    try:
        benchmark = load_benchmark()
        base = load_results(base_paths)
        head = load_results(head_paths)
        budgets = {run.get("seconds") for run in base + head}
        if len(budgets) > 1:
            raise BadInput(f"runs measured with different time budgets {budgets}")
        workloads = [spec["name"] for spec in benchmark["workloads"]
                     if any(spec["name"] in run["workloads"] for run in base)
                     and any(spec["name"] in run["workloads"] for run in head)]
        if not workloads:
            raise BadInput("the two sets share no workload")
        rows = []
        for spec in benchmark["end_to_end"]:
            for workload in workloads:
                base_values = values(base, workload, spec["name"])
                head_values = values(head, workload, spec["name"])
                result, change = verdict(base_values, head_values,
                                         spec["better"], spec["bound"])
                rows.append((spec, workload, base_values, head_values, result, change))
        differences, outputs_flagged = output_differences(base, head, workloads)
    except (OSError, KeyError, TypeError, BadInput) as exc:
        print(f"bench compare: bad input: {exc}", file=sys.stderr)
        return 2

    print(f"{'metric':<13}{'workload':<16}{'base median':>13}{'iqr':>7}"
          f"{'head median':>13}{'iqr':>7}{'change':>8}{'bound':>7}  verdict")
    for spec, workload, base_values, head_values, result, change in rows:
        print(f"{spec['name']:<13}{workload:<16}"
              f"{statistics.median(base_values):>13.5g}{relative_iqr(base_values):>7.1%}"
              f"{statistics.median(head_values):>13.5g}{relative_iqr(head_values):>7.1%}"
              f"{change:>+8.1%}{spec['bound']:>7.0%}  {result}")
    print()
    print("simulated outputs: " + ("identical" if not differences else "DIFFER"))
    for line in differences:
        print("  " + line)
    regressions = [row for row in rows if row[4] == "regression"]
    return 1 if regressions or outputs_flagged else 0
