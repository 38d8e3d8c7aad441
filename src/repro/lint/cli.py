"""``repro-lint``: the static-analysis front end.

Five subcommands, one per pass::

    repro-lint asm prog.s [--param r5] [--wcet --loop-bound loop=32] [--verified]
    repro-lint tasks table.csv --cpus 2 [--tick 10000]
    repro-lint trace trace.json
    repro-lint audit [--kernel memcpy_words] [--seed 1 --seed 2] [--routines]
    repro-lint determinism [PATH ...]

Every subcommand accepts ``--format {text,json}``; JSON output carries
the stable rule-code/location schema from
:meth:`~repro.lint.diagnostics.Diagnostic.to_dict`, so CI can gate on
specific rules.

Exit status is a three-way contract:

- ``0`` -- the pass ran and reported no *errors* (warnings are printed
  but do not fail the run);
- ``1`` -- the pass ran and reported findings (lint errors, unbounded
  WCET, failed audit checks);
- ``2`` -- the tool itself could not do its job: unreadable input,
  usage errors, or an internal crash.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.lint.diagnostics import LintReport, Severity

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


class _InputError(Exception):
    """Operational failure (unreadable input): exit code 2, not a finding."""


def _read_text(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror}") from exc


def _print_report(report: LintReport, header: str, out=None) -> int:
    out = out or sys.stdout
    print(report.format(header=header), file=out)
    return EXIT_OK if report.ok else EXIT_FINDINGS


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# ------------------------------------------------------------------------ asm
def _parse_loop_bounds(items: List[str]) -> Dict[Union[str, int], int]:
    bounds: Dict[Union[str, int], int] = {}
    for item in items:
        label, _, value = item.partition("=")
        if not _ or not label or not value:
            raise SystemExit(f"--loop-bound expects LABEL=N, got {item!r}")
        try:
            bounds[label] = int(value, 0)
        except ValueError:
            raise SystemExit(f"--loop-bound {item!r}: bound must be an integer")
    return bounds


def _cmd_asm(args: argparse.Namespace) -> int:
    from repro.hw.assembler import AssemblerError, assemble
    from repro.lint.absint import (
        AnnotationError,
        audit_annotation_rules,
        parse_annotations,
        verified_wcet,
    )
    from repro.lint.asm import ProgramAnalysis, lint_program, wcet_bound

    source = _read_text(args.file)
    try:
        program = assemble(source, text_base=args.text_base)
    except AssemblerError as exc:
        print(f"ASM000 error: {exc}", file=sys.stderr)
        return EXIT_FINDINGS

    entry = 0
    if args.entry is not None:
        address = program.symbols.get(args.entry)
        if address is None:
            print(f"unknown entry label {args.entry!r}", file=sys.stderr)
            return EXIT_ERROR
        entry = (address - program.base) // 4

    report = lint_program(program, entry=entry, params=args.param)
    status = EXIT_OK if report.ok else EXIT_FINDINGS
    payload: dict = {
        "command": "asm",
        "file": args.file,
        "report": report.to_dict(),
        "wcet": None,
        "verified": None,
    }
    if args.format == "text":
        _print_report(report, header=f"asm lint: {args.file}")

    if args.wcet:
        result = wcet_bound(
            program, loop_bounds=_parse_loop_bounds(args.loop_bound), entry=entry
        )
        for diag in result.report:
            if diag.rule == "ASM006":
                if args.format == "text":
                    print(diag.format())
                payload["report"]["diagnostics"].append(diag.to_dict())
                status = EXIT_FINDINGS
        payload["wcet"] = {"bounded": result.bounded, "cycles": result.cycles}
        if args.format == "text":
            if result.bounded:
                print(f"static WCET bound: {result.cycles} cycles")
            else:
                print("static WCET bound: unbounded (see diagnostics)")
        if not result.bounded:
            status = EXIT_FINDINGS

    if args.verified:
        try:
            annotations = parse_annotations(source)
        except AnnotationError as exc:
            print(f"ASM000 error: {exc}", file=sys.stderr)
            return EXIT_FINDINGS
        analysis = ProgramAnalysis(program, entry=entry)
        wcet = verified_wcet(
            program, annotations=annotations, entry=entry, analysis=analysis
        )
        absint_report = LintReport().extend(wcet.absint.report)
        absint_report.extend(
            audit_annotation_rules(wcet.absint, annotations, analysis)
        )
        payload["verified"] = {
            "ok": absint_report.ok,
            "verified_cycles": wcet.verified_cycles,
            "annotated_cycles": wcet.annotated_cycles,
            "tightened": wcet.tightened,
            "report": absint_report.to_dict(),
        }
        if args.format == "text":
            for diag in absint_report:
                print(diag.format())
            if wcet.verified_cycles is not None:
                suffix = " (tightened)" if wcet.tightened else ""
                print(
                    f"verified WCET bound: {wcet.verified_cycles} cycles "
                    f"(annotated: {wcet.annotated_cycles}){suffix}"
                )
            else:
                print("verified WCET bound: unbounded (see diagnostics)")
        if not absint_report.ok or wcet.verified_cycles is None:
            status = EXIT_FINDINGS

    if args.format == "json":
        _emit_json(payload)
    return status


# ---------------------------------------------------------------------- tasks
def _cmd_tasks(args: argparse.Namespace) -> int:
    from repro.analysis.partitioning import PartitioningError, partition
    from repro.analysis.promotion import assign_promotions
    from repro.lint.tasks import lint_taskset, read_task_table

    row_report, taskset = read_task_table(_read_text(args.file))
    payload: dict = {
        "command": "tasks",
        "file": args.file,
        "rows": row_report.to_dict(),
        "taskset": None,
    }
    status = EXIT_OK if row_report.ok else EXIT_FINDINGS
    if args.format == "text":
        _print_report(row_report, header=f"task rows: {args.file}")
    if taskset is None:
        if args.format == "json":
            _emit_json(payload)
        return status

    set_report = LintReport()
    try:
        taskset = partition(taskset, args.cpus, heuristic=args.heuristic)
        taskset = assign_promotions(taskset, args.cpus, tick=args.tick)
    except (PartitioningError, ValueError) as exc:
        set_report.add(
            "TASK003",
            Severity.ERROR,
            f"offline analysis failed: {exc}",
            location="task set",
            hint="the set is infeasible on this processor count",
        )
    set_report.extend(lint_taskset(taskset, args.cpus, tick=args.tick))
    payload["taskset"] = set_report.to_dict()
    if args.format == "text":
        _print_report(set_report, header=f"task set ({args.cpus} cpus)")
    if args.format == "json":
        _emit_json(payload)
    return max(status, EXIT_OK if set_report.ok else EXIT_FINDINGS)


# ---------------------------------------------------------------------- trace
def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.lint.concurrency import lint_trace
    from repro.trace.export import trace_from_json

    trace = trace_from_json(_read_text(args.file))
    report = lint_trace(trace)
    if args.format == "json":
        _emit_json(
            {
                "command": "trace",
                "file": args.file,
                "events": len(trace),
                "report": report.to_dict(),
            }
        )
        return EXIT_OK if report.ok else EXIT_FINDINGS
    return _print_report(report, header=f"trace lint: {args.file} ({len(trace)} events)")


# ---------------------------------------------------------------------- audit
def _audit_dict(audit) -> dict:
    return {
        "kernel": audit.kernel,
        "seed": audit.seed,
        "measured": audit.measured,
        "verified": audit.wcet.verified_cycles,
        "annotated": audit.wcet.annotated_cycles,
        "tightened": audit.wcet.tightened,
        "ok": audit.ok,
        "loop_executions": audit.loop_executions,
        "checks": [
            {"name": name, "ok": ok, "detail": detail}
            for name, ok, detail in audit.checks
        ],
    }


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.lint.absint import (
        EXPECTED_COUNTED,
        audit_kernel,
        audit_routine,
        format_audit,
    )

    kernels = args.kernel or sorted(EXPECTED_COUNTED)
    unknown = [k for k in kernels if k not in EXPECTED_COUNTED]
    if unknown:
        print(f"unknown kernel(s): {', '.join(unknown)}", file=sys.stderr)
        return EXIT_ERROR

    if args.routines:
        routine_audits = [audit_routine(kernel) for kernel in kernels]
        ok = all(audit.ok for audit in routine_audits)
        if args.format == "json":
            _emit_json(
                {
                    "command": "audit",
                    "mode": "routines",
                    "routines": [
                        {
                            "name": audit.name,
                            "ok": audit.ok,
                            "report": audit.report.to_dict(),
                            "loops": [
                                {
                                    "label": summary.label,
                                    "header": header,
                                    "counted": summary.counted,
                                    "inferred": summary.inferred,
                                    "inferred_min": summary.inferred_min,
                                }
                                for header, summary in sorted(
                                    audit.result.loops.items()
                                )
                            ],
                        }
                        for audit in routine_audits
                    ],
                }
            )
        else:
            for audit in routine_audits:
                _print_report(audit.report, header=f"routine audit: {audit.name}")
                for header, summary in sorted(audit.result.loops.items()):
                    print(
                        f"  loop {summary.label or header}: "
                        f"counted={summary.counted} inferred={summary.inferred}"
                    )
        return EXIT_OK if ok else EXIT_FINDINGS

    seeds = args.seed or [1]
    audits = [audit_kernel(k, seed=s) for k in kernels for s in seeds]
    ok = all(audit.ok for audit in audits)
    if args.format == "json":
        _emit_json(
            {
                "command": "audit",
                "mode": "kernels",
                "audits": [_audit_dict(a) for a in audits],
                "ok": ok,
            }
        )
    else:
        print(format_audit(audits))
        for audit in audits:
            if not audit.ok:
                for name, check_ok, detail in audit.checks:
                    if not check_ok:
                        print(
                            f"FAIL {audit.kernel} seed={audit.seed}: {name} ({detail})"
                        )
    return EXIT_OK if ok else EXIT_FINDINGS


# --------------------------------------------------------------- determinism
def _default_determinism_paths() -> List[str]:
    import repro
    from repro.lint.determinism import DEFAULT_PATHS

    base = Path(repro.__file__).parent
    return [str(base / Path(p).name) for p in DEFAULT_PATHS]


def _cmd_determinism(args: argparse.Namespace) -> int:
    from repro.lint.determinism import lint_paths

    paths = args.path or _default_determinism_paths()
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        raise _InputError(f"cannot read {missing[0]}: No such file or directory")
    report = lint_paths(paths)
    if args.format == "json":
        _emit_json(
            {"command": "determinism", "paths": list(paths), "report": report.to_dict()}
        )
        return EXIT_OK if report.ok else EXIT_FINDINGS
    return _print_report(
        report, header=f"determinism lint: {len(paths)} path(s)"
    )


# ----------------------------------------------------------------------- main
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="static analysis: assembly CFG/dataflow/WCET, abstract "
        "interpretation, task-set schedulability, trace race/deadlock "
        "detection, repo determinism",
    )
    commands = parser.add_subparsers(dest="command")

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (json uses the stable rule/location schema)",
    )

    asm = commands.add_parser(
        "asm", help="lint an assembly source file", parents=[fmt]
    )
    asm.add_argument("file")
    asm.add_argument("--entry", default=None, help="entry label (default: first instruction)")
    asm.add_argument(
        "--param",
        action="append",
        default=[],
        help="register defined at entry (repeatable), e.g. --param r5",
    )
    asm.add_argument("--text-base", type=lambda v: int(v, 0), default=0x4000_0000)
    asm.add_argument("--wcet", action="store_true", help="also compute the WCET bound")
    asm.add_argument(
        "--loop-bound",
        action="append",
        default=[],
        metavar="LABEL=N",
        help="max iterations of the loop headed at LABEL (repeatable)",
    )
    asm.add_argument(
        "--verified",
        action="store_true",
        help="run the abstract-interpretation pass: inferred bounds, "
        "memory/stack proofs, path-pruned WCET (uses #@ annotations)",
    )
    asm.set_defaults(func=_cmd_asm)

    tasks = commands.add_parser("tasks", help="lint a task table CSV", parents=[fmt])
    tasks.add_argument("file", help="CSV: name,wcet,period[,deadline]")
    tasks.add_argument("--cpus", type=int, default=2)
    tasks.add_argument(
        "--heuristic", default="worst-fit", choices=["first-fit", "best-fit", "worst-fit"]
    )
    tasks.add_argument("--tick", type=int, default=None)
    tasks.set_defaults(func=_cmd_tasks)

    trace = commands.add_parser(
        "trace", help="lint a JSON trace for races/deadlocks", parents=[fmt]
    )
    trace.add_argument("file", help="trace JSON (repro.trace.export.trace_to_json)")
    trace.set_defaults(func=_cmd_trace)

    audit = commands.add_parser(
        "audit",
        help="verify asmlib kernels: measured <= verified <= annotated WCET",
        parents=[fmt],
    )
    audit.add_argument(
        "--kernel",
        action="append",
        default=[],
        help="kernel to audit (repeatable; default: all asmlib kernels)",
    )
    audit.add_argument(
        "--seed",
        action="append",
        type=int,
        default=[],
        help="driver data seed (repeatable; default: 1)",
    )
    audit.add_argument(
        "--routines",
        action="store_true",
        help="audit routine contracts standalone (no executor run)",
    )
    audit.set_defaults(func=_cmd_audit)

    determinism = commands.add_parser(
        "determinism",
        help="AST lint for nondeterminism in simulator hot paths",
        parents=[fmt],
    )
    determinism.add_argument(
        "path",
        nargs="*",
        help="files/directories to scan (default: src/repro/{sim,hw,kernel,"
             "faults,simulators,core,analysis,perf})",
    )
    determinism.set_defaults(func=_cmd_determinism)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help(sys.stderr)
        return EXIT_ERROR
    try:
        return args.func(args)
    except _InputError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # crash, not a finding: distinct exit code for CI
        print(f"repro-lint: internal error: {exc!r}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
