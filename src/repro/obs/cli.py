"""``repro-obs``: the observability front end.

Five modes, mirroring ``repro-lint``/``repro-perf``::

    repro-obs report [--cpus 2] [--util 0.5] [--scale N] [--out report.json]
                     [--prometheus] [--trace-jsonl FILE] [--perfetto FILE]
    repro-obs convert TRACE [--to perfetto|json|csv|jsonl] [--out FILE]
    repro-obs history [--last N] [--kind sweep|bench|...] [--ledger FILE]
    repro-obs diff A B [--threshold 0.10] [--ledger FILE] [--verbose]

``report`` runs one fully instrumented Figure-4-style prototype cell
and emits its :class:`~repro.obs.report.RunReport` (JSON by default,
Prometheus text with ``--prometheus``); ``convert`` re-encodes a
recorded trace (JSON / CSV / JSONL autodetected by extension) into a
Perfetto-loadable Chrome trace or any of the flat formats.
``history`` lists the persistent run ledger
(:mod:`repro.obs.ledger`); ``diff`` compares two runs -- each side a
ledger index (``-1`` = newest) or a JSON results file such as
``BENCH_perf.json`` -- under a relative regression threshold and
exits 1 when a metric moved past it in its bad direction.  The obs
tier's invariants are tests: ``pytest -m obs``.

Exit status: 0 on success, 1 on any failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional


# --------------------------------------------------------------------- report
def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.runner import prototype_run_report
    from repro.obs.sinks import JsonlFileSink
    from repro.trace.recorder import TraceRecorder

    if args.perfetto and not args.trace_jsonl:
        print("--perfetto needs --trace-jsonl (the streamed events are "
              "the converter's input)", file=sys.stderr)
        return 1
    trace = None
    if args.trace_jsonl:
        trace = TraceRecorder(sink=JsonlFileSink(args.trace_jsonl))
    report = prototype_run_report(
        n_cpus=args.cpus,
        utilization=args.util,
        scale=args.scale,
        horizon_margin_s=args.horizon_margin,
        trace=trace,
    )
    if args.perfetto:
        from repro.obs.perfetto import write_chrome_trace
        from repro.obs.sinks import trace_from_jsonl

        write_chrome_trace(trace_from_jsonl(args.trace_jsonl), args.perfetto)
    # Write artefacts before printing anything: a broken stdout pipe
    # must not cost the run its report file.
    if args.out:
        report.write(args.out)
    if args.prometheus:
        print(report.summary())
    if args.out:
        print(f"run report written to {args.out}", file=sys.stderr)
    else:
        print(report.to_json())
    return 0


# -------------------------------------------------------------------- convert
def _load_trace(path: str):
    from repro.obs.sinks import trace_from_jsonl
    from repro.trace.export import trace_from_csv, trace_from_json

    if path.endswith(".jsonl"):
        return trace_from_jsonl(path)
    with open(path) as handle:
        text = handle.read()
    if path.endswith(".csv"):
        return trace_from_csv(text)
    return trace_from_json(text)


def _cmd_convert(args: argparse.Namespace) -> int:
    from repro.obs.sinks import event_to_dict
    from repro.trace.export import trace_to_csv, trace_to_json
    from repro.obs.perfetto import chrome_trace_json

    try:
        trace = _load_trace(args.trace)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"cannot load {args.trace}: {exc}", file=sys.stderr)
        return 1

    if args.to == "perfetto":
        text = chrome_trace_json(trace, clock_hz=args.clock_hz, indent=None) + "\n"
    elif args.to == "json":
        text = trace_to_json(trace, indent=2) + "\n"
    elif args.to == "csv":
        text = trace_to_csv(trace)
    else:  # jsonl
        text = "".join(
            json.dumps(event_to_dict(e), separators=(",", ":")) + "\n"
            for e in trace
        )

    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"{len(trace.events)} events -> {args.out} ({args.to})",
              file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


# ------------------------------------------------------------- history / diff
def _cmd_history(args: argparse.Namespace) -> int:
    from repro.obs.ledger import Ledger, format_history

    ledger = Ledger(args.ledger or None)
    entries = ledger.entries()
    if args.kind:
        entries = [entry for entry in entries if entry.kind == args.kind]
    if args.last:
        entries = entries[-args.last:]
    print(format_history(entries, ledger.corrupt))
    return 0


def _entry_diffable(entry) -> dict:
    """The numeric surface of a ledger entry worth diffing.

    ``when``/``version`` are identity, not performance; everything
    else flattens into comparable scalars.
    """
    return {
        "wall_time_s": entry.wall_time_s,
        "cells": entry.cells,
        "cache": entry.cache or {},
        "results": entry.results,
    }


def _diff_source(spec: str, ledger) -> tuple:
    """Resolve one ``diff`` operand: a ledger index or a JSON file.

    ``-1`` is the newest ledger entry, ``-2`` the one before, matching
    the offsets ``repro-obs history`` prints; anything that is not an
    integer is read as a JSON results document (``BENCH_perf.json``,
    a RunReport, ...).
    """
    try:
        index = int(spec)
    except ValueError:
        with open(spec) as handle:
            return json.load(handle), spec
    entries = ledger.entries()
    if not entries:
        raise ValueError(f"ledger {ledger.path} has no entries")
    try:
        entry = entries[index]
    except IndexError:
        raise ValueError(
            f"ledger index {index} out of range ({len(entries)} entry(ies))"
        )
    label = f"[{index}] {entry.kind} {entry.label} @ {entry.timestamp()}"
    return _entry_diffable(entry), label


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.obs.ledger import Ledger, diff_numeric, format_diff

    ledger = Ledger(args.ledger or None)
    try:
        baseline, label_a = _diff_source(args.a, ledger)
        candidate, label_b = _diff_source(args.b, ledger)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"cannot resolve diff operand: {exc}", file=sys.stderr)
        return 2
    report = diff_numeric(baseline, candidate, threshold=args.threshold)
    print(f"baseline : {label_a}")
    print(f"candidate: {label_b}")
    print(format_diff(report, verbose=args.verbose))
    return 1 if report["regressions"] else 0


# ----------------------------------------------------------------------- main
def build_parser() -> argparse.ArgumentParser:
    from repro import CLOCK_HZ

    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="observability: metrics registry snapshots, run reports, "
        "trace sink/format conversion (Perfetto, JSONL, CSV, JSON)",
    )
    commands = parser.add_subparsers(dest="command")

    report = commands.add_parser(
        "report", help="run one instrumented prototype cell and emit its RunReport"
    )
    report.add_argument("--cpus", type=int, default=2)
    report.add_argument("--util", type=float, default=0.5)
    report.add_argument("--scale", type=int, default=1_000,
                        help="workload time divisor (1 = full size)")
    report.add_argument("--horizon-margin", type=float, default=17.0,
                        help="seconds simulated past the aperiodic arrival")
    report.add_argument("--out", default="",
                        help="write the report JSON here (default: stdout)")
    report.add_argument("--prometheus", action="store_true",
                        help="also print a human summary of the metric families")
    report.add_argument("--trace-jsonl", default="",
                        help="stream the full trace to this JSONL file")
    report.add_argument("--perfetto", default="",
                        help="also convert the streamed trace to a Perfetto file")
    report.set_defaults(func=_cmd_report)

    convert = commands.add_parser(
        "convert", help="re-encode a trace (json/csv/jsonl in) to "
        "perfetto/json/csv/jsonl"
    )
    convert.add_argument("trace", help="input trace (.json, .csv or .jsonl)")
    convert.add_argument("--to", choices=("perfetto", "json", "csv", "jsonl"),
                         default="perfetto")
    convert.add_argument("--out", default="", help="output file (default: stdout)")
    convert.add_argument("--clock-hz", type=int, default=CLOCK_HZ,
                         help="cycle clock for perfetto timestamps")
    convert.set_defaults(func=_cmd_convert)

    history = commands.add_parser(
        "history", help="list the persistent run ledger (newest last)"
    )
    history.add_argument("--last", type=int, default=0,
                         help="show only the newest N entries")
    history.add_argument("--kind", default="",
                         help="filter by entry kind (sweep/bench/figure4/...)")
    history.add_argument("--ledger", default="",
                         help="ledger file (default: $REPRO_LEDGER or "
                         ".repro/ledger.jsonl)")
    history.set_defaults(func=_cmd_history)

    diff = commands.add_parser(
        "diff", help="compare two runs (ledger indices like -1/-2, or JSON "
        "results files); exit 1 on regression"
    )
    diff.add_argument("a", help="baseline: ledger index or JSON file")
    diff.add_argument("b", help="candidate: ledger index or JSON file")
    diff.add_argument("--threshold", type=float, default=0.10,
                      help="relative movement flagged as regression "
                      "(default 0.10)")
    diff.add_argument("--ledger", default="",
                      help="ledger file (default: $REPRO_LEDGER or "
                      ".repro/ledger.jsonl)")
    diff.add_argument("--verbose", action="store_true",
                      help="show every shared metric, not just movers")
    diff.set_defaults(func=_cmd_diff)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help(sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
