"""Repo-determinism AST lint over the simulator's hot paths.

The whole reproduction hinges on bit-identical reruns: the run cache
keys on inputs, the WCET regression compares executor cycle counts
across sessions, and traces are diffed between runs.  A stray wall
clock read or an unseeded RNG silently breaks all of that.  This pass
walks the Python AST of :data:`DEFAULT_PATHS` (or any paths given) and flags the three slips that have historically caused
irreproducible runs:

- ``DET001`` -- wall-clock reads: ``time.time``, ``time.monotonic``,
  ``time.perf_counter``, ``time.process_time``, ``time.time_ns`` and
  friends, or ``datetime.now``/``datetime.utcnow``.  Simulated time
  comes from the event engine, never the host.
- ``DET002`` -- unseeded randomness: calls to module-level
  ``random.<fn>`` (``random.random``, ``random.randint``, ...) or
  ``random.Random()``/``random.seed()`` with no arguments.  Seeded
  ``random.Random(seed)`` instances are fine.
- ``DET003`` -- iteration over a bare ``set`` display or ``set(...)``
  call (``for x in {a, b}``, ``sorted`` missing): set iteration order
  is insertion/hash dependent, so iterating an ad-hoc set feeds
  hash-order into the simulation.  Wrap in ``sorted(...)`` instead.

Diagnostics reuse the shared :class:`~repro.lint.diagnostics.Diagnostic`
model, so ``repro-lint determinism`` gets ``--format json`` and CI exit
codes for free.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Sequence, Union

from repro.lint.diagnostics import LintReport, Severity

#: Functions in the ``time`` module that read the host clock.
WALL_CLOCK_TIME_FNS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }
)

#: ``datetime``/``date`` constructors that read the host clock.
WALL_CLOCK_DATETIME_FNS = frozenset({"now", "utcnow", "today"})

#: Default trees scanned by ``repro-lint determinism`` and the pytest tier.
DEFAULT_PATHS = ("src/repro/sim", "src/repro/hw", "src/repro/kernel",
                 "src/repro/faults", "src/repro/simulators",
                 "src/repro/core", "src/repro/analysis", "src/repro/perf")


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of an attribute/name chain, '' otherwise."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, filename: str, report: LintReport):
        self.filename = filename
        self.report = report

    def _where(self, node: ast.AST) -> str:
        return f"{self.filename}:{node.lineno}"

    # ------------------------------------------------------------- DET001/2
    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        head, _, tail = name.rpartition(".")
        if head == "time" and tail in WALL_CLOCK_TIME_FNS:
            self.report.add(
                "DET001",
                Severity.ERROR,
                f"wall-clock read {name}() in a simulation path",
                location=self._where(node),
                hint="simulated time comes from the event engine, not the host",
            )
        elif tail in WALL_CLOCK_DATETIME_FNS and head.split(".")[-1] in (
            "datetime",
            "date",
        ):
            self.report.add(
                "DET001",
                Severity.ERROR,
                f"wall-clock read {name}() in a simulation path",
                location=self._where(node),
                hint="timestamp results after the run, outside src/repro",
            )
        elif head == "random":
            if tail in ("Random", "seed") and not node.args and not node.keywords:
                self.report.add(
                    "DET002",
                    Severity.ERROR,
                    f"unseeded random.{tail}() in a simulation path",
                    location=self._where(node),
                    hint="pass an explicit seed derived from the run config",
                )
            elif tail not in ("Random", "seed"):
                self.report.add(
                    "DET002",
                    Severity.ERROR,
                    f"module-level random.{tail}() uses the shared unseeded RNG",
                    location=self._where(node),
                    hint="use a random.Random(seed) instance instead",
                )
        self.generic_visit(node)

    # --------------------------------------------------------------- DET003
    def _check_iter(self, iter_node: ast.AST) -> None:
        is_set_display = isinstance(iter_node, ast.Set)
        is_set_call = (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id in ("set", "frozenset")
        )
        if is_set_display or is_set_call:
            what = "set display" if is_set_display else "set(...) call"
            self.report.add(
                "DET003",
                Severity.ERROR,
                f"iteration over a bare {what}: order is hash-dependent",
                location=self._where(iter_node),
                hint="wrap in sorted(...) to fix the iteration order",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)


def lint_python_source(source: str, filename: str = "<string>") -> LintReport:
    """Run the determinism rules over one Python source text."""
    report = LintReport()
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        report.add(
            "DET000",
            Severity.ERROR,
            f"cannot parse: {exc.msg}",
            location=f"{filename}:{exc.lineno or 0}",
        )
        return report
    _DeterminismVisitor(filename, report).visit(tree)
    return report


def _python_files(paths: Iterable[Union[str, Path]]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


def lint_paths(paths: Sequence[Union[str, Path]] = DEFAULT_PATHS) -> LintReport:
    """Run the determinism rules over files/directories of Python code."""
    report = LintReport()
    for path in _python_files(paths):
        try:
            source = path.read_text()
        except OSError as exc:
            report.add(
                "DET000",
                Severity.ERROR,
                f"cannot read: {exc}",
                location=str(path),
            )
            continue
        report.extend(lint_python_source(source, filename=str(path)))
    return report
