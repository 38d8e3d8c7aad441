"""The shared diagnostic model of the lint subsystem.

Every lint pass (assembly, task set, trace) reports findings as
:class:`Diagnostic` records carrying a stable rule code (``ASM001``,
``TASK003``, ``RACE001`` ...), a severity, a human-oriented location,
and a fix hint.  ``docs/LINT.md`` catalogues every rule code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional


class Severity(enum.IntEnum):
    """Diagnostic severity; larger is worse."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding.

    ``rule`` is the stable code documented in ``docs/LINT.md``;
    ``location`` is pass-specific ("pc 4 (loop+1)", "task wheel-speed",
    "event 12 @t=300"); ``hint`` suggests the fix.
    """

    rule: str
    severity: Severity
    message: str
    location: str = ""
    hint: str = ""

    def format(self) -> str:
        where = f" at {self.location}" if self.location else ""
        hint = f" (hint: {self.hint})" if self.hint else ""
        return f"{self.rule} {self.severity}{where}: {self.message}{hint}"

    def to_dict(self) -> dict:
        """Stable machine-readable form used by ``--format json``.

        The key set (``rule``/``severity``/``message``/``location``/
        ``hint``) is part of the CLI contract; add keys, never rename.
        """
        return {
            "rule": self.rule,
            "severity": str(self.severity),
            "message": self.message,
            "location": self.location,
            "hint": self.hint,
        }

    def __str__(self) -> str:
        return self.format()


class LintReport:
    """An ordered collection of diagnostics with simple queries."""

    def __init__(self, diagnostics: Iterable[Diagnostic] = ()):
        self.diagnostics: List[Diagnostic] = list(diagnostics)

    # ------------------------------------------------------------- building
    def add(
        self,
        rule: str,
        severity: Severity,
        message: str,
        location: str = "",
        hint: str = "",
    ) -> Diagnostic:
        diag = Diagnostic(rule, severity, message, location=location, hint=hint)
        self.diagnostics.append(diag)
        return diag

    def extend(self, other: "LintReport") -> "LintReport":
        self.diagnostics.extend(other.diagnostics)
        return self

    # -------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __bool__(self) -> bool:
        return bool(self.diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when the subject is safe to run (no errors)."""
        return not self.errors

    @property
    def clean(self) -> bool:
        """True when there is nothing to report at all."""
        return not self.diagnostics

    def by_rule(self, rule: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.rule == rule]

    def rules(self) -> List[str]:
        """Sorted set of rule codes present in the report."""
        return sorted({d.rule for d in self.diagnostics})

    def format(self, header: Optional[str] = None) -> str:
        lines: List[str] = []
        if header is not None:
            lines.append(header)
        if not self.diagnostics:
            lines.append("clean: no diagnostics")
        else:
            lines.extend(d.format() for d in self.diagnostics)
            lines.append(
                f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Machine-readable report: diagnostics plus summary counts."""
        return {
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "ok": self.ok,
        }


class LintError(Exception):
    """Raised by the fail-fast helpers when a report contains errors.

    Carries the offending report so callers can render or inspect it.
    """

    def __init__(self, report: LintReport, subject: str = "input"):
        self.report = report
        self.subject = subject
        summary = "; ".join(d.format() for d in report.errors[:5])
        extra = len(report.errors) - 5
        if extra > 0:
            summary += f"; ... {extra} more"
        super().__init__(f"{subject} failed lint: {summary}")


def require_ok(report: LintReport, subject: str = "input") -> LintReport:
    """Raise :class:`LintError` when ``report`` contains errors."""
    if not report.ok:
        raise LintError(report, subject=subject)
    return report
