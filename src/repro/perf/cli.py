"""``repro-perf``: the performance-subsystem front end.

Two modes::

    repro-perf calibrate-tlm [--scale N] [--json]
    repro-perf cache [--gc] [--max-mb MB] [--max-entries N] [--dir PATH]

``calibrate-tlm`` refits the TLM per-transaction cost table against
fresh prototype runs and prints the fitted parameters plus the
residual (the accuracy bound the TLM tests enforce).  ``cache``
reports on-disk run-cache usage and, with ``--gc``, evicts
least-recently-used entries down to the given limits.
The perf tier's invariants (parallel == serial, cold == warm cache,
replay == first run) are tests: ``pytest -m perf``; timings
are the benchmark in ``bench/`` (see ``bench/README.md``).

Exit status: 0 on success, 1 on any failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.simulators.prototype import DEFAULT_SCALE


def _cmd_calibrate_tlm(args: argparse.Namespace) -> int:
    import json

    from repro.simulators.tlm import ANCHOR_CELLS, DEFAULT_COST_TABLE, calibrate

    table = calibrate(scale=args.scale)
    if args.json:
        print(json.dumps(table.to_dict(), indent=2))
    else:
        cells = ", ".join(f"{n}P/{u:.0%}" for n, u in ANCHOR_CELLS)
        print(f"calibrated against prototype anchors: {cells} "
              f"(scale {args.scale})")
        print(f"  wait_gain     = {table.wait_gain}")
        print(f"  base_overhead = {table.base_overhead}")
        print(f"  priority_skew = {table.priority_skew}")
        print(f"  residual      = {table.residual} "
              f"(max relative per-task WCRT deviation)")
        if table != DEFAULT_COST_TABLE:
            print("note: fitted table differs from the committed "
                  "DEFAULT_COST_TABLE in repro/simulators/tlm.py -- "
                  "update it (and the residual-derived test tolerance "
                  "follows automatically)", file=sys.stderr)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.perf.cache import RunCache

    cache = RunCache(args.dir or None)
    if args.gc:
        max_bytes = None
        if args.max_mb is not None:
            max_bytes = int(args.max_mb * 1024 * 1024)
        report = cache.gc(max_bytes=max_bytes, max_entries=args.max_entries)
        print(
            f"cache gc: {report['evicted']} entry(ies) evicted, "
            f"{report['removed_tmp']} tmp file(s) removed; "
            f"{report['entries_after']} entry(ies) / "
            f"{report['bytes_after']} byte(s) remain in {report['root']}"
        )
    else:
        print(
            f"cache: {len(cache)} entry(ies), {cache.disk_usage()} byte(s) "
            f"in {cache.root}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-perf",
        description="performance subsystem: TLM calibration and run-cache "
        "maintenance",
    )
    commands = parser.add_subparsers(dest="command")

    calibrate = commands.add_parser(
        "calibrate-tlm",
        help="refit the TLM per-transaction cost table against fresh "
        "prototype runs on the anchor cells")
    calibrate.add_argument("--scale", type=int, default=DEFAULT_SCALE,
                           help="prototype time-scale divisor for the "
                           "reference runs (default %(default)s)")
    calibrate.add_argument("--json", action="store_true",
                           help="emit the fitted table as JSON")
    calibrate.set_defaults(func=_cmd_calibrate_tlm)

    cache = commands.add_parser(
        "cache", help="report run-cache disk usage; --gc evicts LRU entries")
    cache.add_argument("--gc", action="store_true",
                       help="evict least-recently-used entries down to the "
                       "limits (and always remove orphaned tmp files)")
    cache.add_argument("--max-mb", type=float, default=None,
                       help="keep at most this many megabytes")
    cache.add_argument("--max-entries", type=int, default=None,
                       help="keep at most this many entries")
    cache.add_argument("--dir", default=None,
                       help="cache directory (default: $REPRO_CACHE_DIR "
                       "or .repro-cache)")
    cache.set_defaults(func=_cmd_cache)
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
