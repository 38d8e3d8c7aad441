"""The persistent run ledger: an append-only history of experiment runs.

``RunReport`` files are snapshots -- each one overwrites the last, so
yesterday's numbers are gone.  The ledger is the missing trajectory:
one JSON line per sweep / Figure 4 run / campaign appended to
``.repro/ledger.jsonl`` (override with ``$REPRO_LEDGER``), recording
what ran, under which configuration hash and fidelity rung,
how long it took, how the run cache behaved, and a content digest of
the collected metrics.  ``repro-obs history`` lists it; ``repro-obs
diff`` compares two entries (or two JSON results files) under
regression thresholds.

Appends are atomic the same way :class:`~repro.perf.cache.RunCache`
writes are: each entry is a single short ``O_APPEND`` write of one
complete line, so concurrent sweep processes interleave whole entries,
never torn ones, and a crashed run leaves at most its own partial
line; the next append starts on a fresh line after it.  Readers skip
corrupt lines (counting them) instead of dying on a truncated tail.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import __version__

__all__ = [
    "LedgerEntry",
    "Ledger",
    "DEFAULT_LEDGER_PATH",
    "LEDGER_ENV",
    "flatten_numeric",
    "diff_numeric",
    "format_history",
    "format_diff",
]

#: Environment variable overriding the default ledger file.
LEDGER_ENV = "REPRO_LEDGER"
#: Default ledger location (created on first append).
DEFAULT_LEDGER_PATH = os.path.join(".repro", "ledger.jsonl")


@dataclass
class LedgerEntry:
    """One recorded run."""

    #: What ran: ``sweep`` / ``figure4`` / ``campaign`` / ...
    kind: str
    #: Human handle: the sweep's cache tag (``figure4``,
    #: ``fault_campaign``, or the measure's name).
    label: str
    #: Content hash of everything that determined the run's outcome.
    config_hash: str = ""
    #: Fidelity rung, when the run picked one.
    fidelity: Optional[str] = None
    #: Host wall-clock cost of the whole run.
    wall_time_s: float = 0.0
    #: Number of cells / sections the run covered.
    cells: int = 0
    #: Run-cache share of the run ({hits, misses, hit_rate}), if cached.
    cache: Optional[Dict[str, Any]] = None
    #: Fingerprint of the collected metrics snapshot, if instrumented.
    metrics_digest: Optional[str] = None
    #: Scalar result columns worth diffing (deadline misses, slowdowns, ...).
    results: Dict[str, Any] = field(default_factory=dict)
    #: Seconds since the epoch at append time (wall clock, host-local).
    when: float = 0.0
    version: str = __version__

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "label": self.label,
            "config_hash": self.config_hash,
            "fidelity": self.fidelity,
            "wall_time_s": self.wall_time_s,
            "cells": self.cells,
            "cache": self.cache,
            "metrics_digest": self.metrics_digest,
            "results": self.results,
            "when": self.when,
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, row: Dict[str, Any]) -> "LedgerEntry":
        return cls(
            kind=row.get("kind", "?"),
            label=row.get("label", "?"),
            config_hash=row.get("config_hash", ""),
            fidelity=row.get("fidelity"),
            wall_time_s=row.get("wall_time_s", 0.0),
            cells=row.get("cells", 0),
            cache=row.get("cache"),
            metrics_digest=row.get("metrics_digest"),
            results=dict(row.get("results") or {}),
            when=row.get("when", 0.0),
            version=row.get("version", "?"),
        )

    def timestamp(self) -> str:
        """``YYYY-mm-dd HH:MM:SS`` local time of the append."""
        if not self.when:
            return "-"
        return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(self.when))


class Ledger:
    """Append-only JSONL run history with atomic whole-line appends."""

    def __init__(self, path: Optional[Union[str, os.PathLike]] = None):
        if path is None:
            path = os.environ.get(LEDGER_ENV, DEFAULT_LEDGER_PATH)
        self.path = Path(path)
        #: Corrupt lines skipped by the last :meth:`entries` call.
        self.corrupt = 0

    def append(self, entry: LedgerEntry) -> LedgerEntry:
        """Record one entry (stamping ``when`` if unset) and return it."""
        if not entry.when:
            entry.when = time.time()
        line = json.dumps(entry.to_dict(), sort_keys=True,
                          separators=(",", ":")) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # One O_APPEND write per entry: concurrent writers interleave
        # whole lines (same crash-safety stance as RunCache.put).
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            # A crashed writer can leave a partial last line; start on a
            # fresh one so only that line is lost, not this entry too.
            size = os.lseek(fd, 0, os.SEEK_END)
            if size:
                os.lseek(fd, size - 1, os.SEEK_SET)
                if os.read(fd, 1) != b"\n":
                    line = "\n" + line
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)
        return entry

    def entries(self) -> List[LedgerEntry]:
        """Every readable entry, oldest first (corrupt lines counted)."""
        self.corrupt = 0
        rows: List[LedgerEntry] = []
        try:
            with open(self.path) as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        rows.append(LedgerEntry.from_dict(json.loads(line)))
                    except (ValueError, TypeError, AttributeError):
                        self.corrupt += 1
        except OSError:
            return []
        return rows

    def tail(self, n: int) -> List[LedgerEntry]:
        return self.entries()[-n:] if n > 0 else []

    def __len__(self) -> int:
        return len(self.entries())


# --------------------------------------------------------------------- diffs
#: Key-name fragments where a *higher* value is better.
_HIGHER_IS_BETTER = ("events_per_s", "speedup", "hit_rate", "hits")
#: Key-name fragments where a *lower* value is better.
_LOWER_IS_BETTER = ("_s", "wall_time", "misses", "dropped", "put_errors",
                    "deviation", "deadline")


def _direction(key: str) -> int:
    """+1 when higher is better, -1 when lower is better, 0 neutral."""
    leaf = key.rsplit(".", 1)[-1]
    for fragment in _HIGHER_IS_BETTER:
        if fragment in leaf:
            return 1
    for fragment in _LOWER_IS_BETTER:
        if leaf.endswith(fragment) or fragment in leaf:
            return -1
    return 0


def flatten_numeric(obj: Any, prefix: str = "") -> Dict[str, float]:
    """Numeric leaves of a nested dict/list as dotted-path -> value."""
    out: Dict[str, float] = {}
    if isinstance(obj, bool):
        return out
    if isinstance(obj, (int, float)):
        out[prefix or "value"] = float(obj)
        return out
    if isinstance(obj, dict):
        for key in sorted(obj, key=str):
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_numeric(obj[key], path))
        return out
    if isinstance(obj, (list, tuple)):
        for index, item in enumerate(obj):
            path = f"{prefix}[{index}]" if prefix else f"[{index}]"
            out.update(flatten_numeric(item, path))
        return out
    return out


def diff_numeric(
    a: Dict[str, Any],
    b: Dict[str, Any],
    threshold: float = 0.10,
) -> Dict[str, Any]:
    """Compare the numeric leaves of two result documents.

    ``a`` is the baseline, ``b`` the candidate.  Every shared numeric
    path yields a row; a row *regresses* when it moves past
    ``threshold`` (relative) in its key's bad direction
    (``wall_time_s`` up, ``events_per_s`` down, ...); neutral keys are
    reported but never regress.  Returns ``{"rows": [...],
    "regressions": [...], "only_a": [...], "only_b": [...]}``.
    """
    flat_a = flatten_numeric(a)
    flat_b = flatten_numeric(b)
    rows: List[Dict[str, Any]] = []
    regressions: List[str] = []
    for key in sorted(set(flat_a) & set(flat_b)):
        before, after = flat_a[key], flat_b[key]
        if before == 0:
            delta = 0.0 if after == 0 else float("inf")
        else:
            delta = (after - before) / abs(before)
        direction = _direction(key)
        regressed = bool(
            direction and delta * direction < 0 and abs(delta) > threshold
        )
        rows.append({
            "key": key,
            "a": before,
            "b": after,
            "delta": delta,
            "direction": direction,
            "regressed": regressed,
        })
        if regressed:
            regressions.append(key)
    return {
        "rows": rows,
        "regressions": regressions,
        "only_a": sorted(set(flat_a) - set(flat_b)),
        "only_b": sorted(set(flat_b) - set(flat_a)),
        "threshold": threshold,
    }


# ---------------------------------------------------------------- rendering
def format_history(entries: Sequence[LedgerEntry], corrupt: int = 0) -> str:
    """One line per entry, newest last (the ``repro-obs history`` view)."""
    if not entries:
        return "(empty ledger)"
    lines = []
    for index, entry in enumerate(entries):
        offset = index - len(entries)  # -1 == newest
        cache = ""
        if entry.cache:
            cache = (f"  cache {entry.cache.get('hits', 0)}/"
                     f"{entry.cache.get('hits', 0) + entry.cache.get('misses', 0)}"
                     f" hit")
        fidelity = f"  {entry.fidelity}" if entry.fidelity else ""
        digest = f"  metrics {entry.metrics_digest[:8]}" if entry.metrics_digest else ""
        lines.append(
            f"[{offset:>3}] {entry.timestamp()}  {entry.kind:<9} "
            f"{entry.label:<24} {entry.cells:>4} cell(s) "
            f"{entry.wall_time_s:8.2f} s{fidelity}{cache}{digest}"
            f"  (v{entry.version}, cfg {entry.config_hash[:8] or '-'})"
        )
    if corrupt:
        lines.append(f"({corrupt} corrupt line(s) skipped)")
    return "\n".join(lines)


def format_diff(report: Dict[str, Any], verbose: bool = False) -> str:
    """Human rendering of a :func:`diff_numeric` report."""
    lines: List[str] = []
    shown = [row for row in report["rows"]
             if verbose or row["regressed"] or
             (row["direction"] != 0 and abs(row["delta"]) > report["threshold"])]
    for row in shown:
        if row["regressed"]:
            marker = "REGRESSED"
        elif row["delta"] == 0:
            marker = "unchanged"
        elif row["direction"] != 0:
            marker = "improved"
        else:
            marker = "changed"
        delta = row["delta"]
        delta_text = "inf" if delta == float("inf") else f"{delta:+.1%}"
        lines.append(
            f"  {row['key']}: {row['a']:g} -> {row['b']:g} "
            f"({delta_text}) {marker}"
        )
    if not shown:
        lines.append(f"  no movement beyond {report['threshold']:.0%} "
                     f"on {len(report['rows'])} shared metric(s)")
    for key in report["only_a"]:
        lines.append(f"  {key}: only in baseline")
    for key in report["only_b"]:
        lines.append(f"  {key}: only in candidate")
    verdict = (f"{len(report['regressions'])} regression(s) beyond "
               f"{report['threshold']:.0%}" if report["regressions"]
               else f"no regressions beyond {report['threshold']:.0%}")
    lines.append(f"diff: {verdict}")
    return "\n".join(lines)
