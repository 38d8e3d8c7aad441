"""Measure one workload in this process: timed passes, checks, digests
and, when traced, the per-layer profile.

The untraced run repeats the workload's ops, in order, until ``S``
seconds have passed and at least one full pass is done; an op's time is
the median of its executions.  The traced run makes exactly one
untraced pass and then one pass under ``cProfile`` with boundary spans.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import resource
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.obs.perfetto import write_chrome_trace
from repro.obs.spans import SpanRecorder

from bench import OUT_DIR, ROOT, layers
from bench.instrument import Instruments
from bench.timing import SegmentTimer
from bench.workloads import WORKLOADS, sha256_of


def execute(key: str, fn: Callable[[], dict],
            timer: Optional[SegmentTimer] = None) -> dict:
    """Run one op, timed when ``timer`` is given; an exception becomes an
    ``error`` outcome."""
    try:
        return timer.run(key, fn) if timer is not None else fn()
    except Exception as exc:  # op boundary: record, report, keep going
        traceback.print_exc(file=sys.stderr)
        return {"error": f"{type(exc).__name__}: {exc}"}


def peak_rss_mb() -> Tuple[float, float]:
    """Peak resident set of this process and of its largest finished
    child (pool workers), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, children / 1024.0


def timed_loop(ops, seconds: float, timer: SegmentTimer
               ) -> Tuple[Dict[str, dict], Set[str], int, Tuple[float, float]]:
    """Repeat ``ops`` until ``seconds`` passed and one full pass is done.

    Returns each op's first outcome, the ops whose later executions
    produced a different outcome, the number of executions, and the peak
    memory after the first pass (a fixed amount of work, unlike the run).
    """
    outcomes: Dict[str, dict] = {}
    unstable: Set[str] = set()
    timer.start()
    start = time.perf_counter()
    executions = 0
    while True:
        key, fn = ops[executions % len(ops)]
        outcome = execute(key, fn, timer)
        executions += 1
        if key not in outcomes:
            outcomes[key] = outcome
        elif outcome != outcomes[key]:
            unstable.add(key)
        if executions == len(ops):
            rss = peak_rss_mb()
        if executions >= len(ops) and time.perf_counter() - start >= seconds:
            break
    timer.close()
    return outcomes, unstable, executions, rss


def traced_pass(ops, instruments: Instruments, timer: SegmentTimer
                ) -> Tuple[Dict[str, dict], cProfile.Profile, SpanRecorder]:
    """One pass under the profiler, recording boundary spans."""
    profiler = cProfile.Profile()
    spans = SpanRecorder()
    instruments.spans, instruments.profiler = spans, profiler

    def profiled(key: str, fn: Callable[[], dict]) -> dict:
        profiler.enable()
        try:
            with instruments.span("op", key=key):
                return fn()
        finally:
            profiler.disable()

    try:
        timer.start()
        outcomes = {key: execute(key, lambda k=key, f=fn: profiled(k, f), timer)
                    for key, fn in ops}
        timer.close()
    finally:
        instruments.spans, instruments.profiler = None, None
    return outcomes, profiler, spans


def measure(workload, seconds: float, trace: bool, instruments: Instruments,
            seed: int) -> dict:
    ops = workload.ops()
    timer = SegmentTimer(measure_probe=workload.measure_probe)
    outcomes, unstable, executions, rss = timed_loop(
        ops, 0.0 if trace else seconds, timer)
    checks = {key: execute(key, fn) for key, fn in workload.checks()}
    every = {**outcomes, **checks}

    problems: Dict[str, List[str]] = {}
    for key in unstable:
        problems.setdefault(key, []).append("outcome differs between executions")
    for key, outcome in every.items():
        if "error" in outcome:
            problems.setdefault(key, []).append(outcome["error"])
    for key, found in workload.problems(every).items():
        problems.setdefault(key, []).extend(found)
    extra, counters = workload.report(every)

    op_s = timer.median_norm_s()
    wall_s = sum(op_s.values())
    traced = (trace_report(workload, ops, instruments, outcomes, wall_s,
                           problems, seed) if trace else None)
    work = sum(workload.work(o) for o in outcomes.values() if "error" not in o)
    known = sorted(key for key, o in outcomes.items() if "known_defect" in o)
    attempted = len(every)
    return {
        "workload": workload.name,
        "attempted": attempted,
        "failed": len(problems),
        "known_defects": known,
        "fail_share": (len(problems) + len(known)) / attempted,
        "problems": problems,
        "executions": executions,
        "metrics": {
            "wall_s": wall_s,
            "work_rate": work / wall_s,
            "peak_rss_mb": max(rss),
            **extra,
        },
        "work": work,
        "work_unit": workload.work_unit,
        "counters": counters,
        "outputs_sha256": sha256_of([[key, every[key]] for key in sorted(every)]),
        "trace": traced,
        "raw": {
            "rss_self_children_mb": rss,
            "probe_share": sum(timer.probes) / (
                sum(timer.probes) + sum(map(sum, timer.raw.values()))),
            "probes_s": timer.probes,
            "ops": {key: {"raw_s": timer.raw[key], "norm_s": timer.norm[key],
                          "work": (workload.work(outcomes[key])
                                   if "error" not in outcomes[key] else None)}
                    for key in timer.raw},
        },
    }


def trace_report(workload, ops, instruments: Instruments, outcomes: Dict[str, dict],
                 wall_s: float, problems: Dict[str, List[str]], seed: int) -> dict:
    timer = SegmentTimer(measure_probe=workload.measure_probe)
    traced, profiler, spans = traced_pass(ops, instruments, timer)
    for key, outcome in traced.items():
        if outcome != outcomes[key]:
            problems.setdefault(key, []).append(
                "traced outcome differs from the untraced one")
    traced_raw = sum(sum(values) for values in timer.raw.values())
    traced_norm = sum(sum(values) for values in timer.norm.values())
    scale = traced_norm / traced_raw
    folded = layers.fold_profile(pstats.Stats(profiler))
    os.makedirs(OUT_DIR, exist_ok=True)
    perfetto = os.path.join(OUT_DIR, f"{workload.name}-seed{seed}.perfetto.json")
    write_chrome_trace([], perfetto, spans=spans.spans)
    return {
        "layers": {layer: {"self_s": row["self_s"] * scale, "calls": row["calls"]}
                   for layer, row in folded.items()},
        "trace_overhead": traced_norm / wall_s - 1.0,
        "traced_wall_s": traced_norm,
        "spans": len(spans),
        "perfetto": os.path.relpath(perfetto, ROOT),
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up workload ``name`` from ``seed``, measure it and check it."""
    instruments = Instruments()
    with instruments.installed():
        workload = WORKLOADS[name](seed, instruments)
        try:
            return measure(workload, seconds, trace, instruments, seed)
        finally:
            workload.close()
