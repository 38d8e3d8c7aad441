"""``repro-perf``: the performance-harness front end.

Three modes, mirroring ``repro-lint``::

    repro-perf bench [--out BENCH_perf.json] [--workers N] [--quick]
                     [--engine-only] [--tlm] [--isa-only]
                     [--ledger FILE] [--no-ledger]
    repro-perf calibrate-tlm [--scale N] [--json]
    repro-perf cache [--gc] [--max-mb MB] [--max-entries N] [--dir PATH]

``bench`` times representative experiment cells serial-vs-parallel and
cold-vs-warm cache and writes ``BENCH_perf.json`` (see docs/PERF.md
for how to read it); ``--engine-only`` runs just the event-core
micro-benchmark in seconds and writes nothing by default, ``--tlm``
runs just the fidelity-ladder section (TLM vs prototype on the Figure
4 anchor cells), and ``--isa-only`` just the ISA interpreter section
(predecoded block mode vs per-instruction reference on the asmlib
kernels).  Full ``bench`` runs append a summary
entry to the persistent run ledger (``.repro/ledger.jsonl`` or
``$REPRO_LEDGER``; compare runs with ``repro-obs diff``) -- suppress
with ``--no-ledger``.  ``calibrate-tlm`` refits the TLM
per-transaction cost table against fresh prototype runs and prints the
fitted parameters plus the residual (the accuracy bound the TLM tests
enforce).  ``cache`` reports on-disk run-cache usage and, with
``--gc``, evicts least-recently-used entries down to the given limits.
The perf tier's invariants (parallel == serial, cold == warm cache,
heap == bucket event queue) are tests: ``pytest -m perf``.

Exit status: 0 on success, 1 on any failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


# ----------------------------------------------------------------------- main
def _bench_ledger_results(results: dict) -> dict:
    """The diffable scalars a bench run leaves in the ledger."""
    out: dict = {}
    if "engine" in results:
        out["engine_events_per_s"] = results["engine"]["events_per_s"]
    if "figure4" in results:
        out["figure4_speedup"] = results["figure4"]["speedup"]
        out["figure4_serial_s"] = results["figure4"]["serial_s"]
    if "cache" in results:
        out["cache_warm_speedup"] = results["cache"]["warm_speedup"]
    if "tlm" in results:
        out["tlm_min_speedup"] = results["tlm"]["min_speedup"]
        out["tlm_max_wcrt_deviation"] = results["tlm"]["max_wcrt_deviation"]
    if "isa" in results:
        out["isa_speedup"] = results["isa"]["speedup"]
        out["isa_events_per_instr_reference"] = (
            results["isa"]["events_per_instr_reference"])
        out["isa_events_per_instr_block"] = (
            results["isa"]["events_per_instr_block"])
    return {key: value for key, value in out.items() if value is not None}


def _cmd_bench(args: argparse.Namespace) -> int:
    import time

    from repro.perf.bench import BENCH_FILE, format_results, run_benchmarks

    out = args.out
    if out is None:
        # Partial results must not overwrite a full BENCH_perf.json,
        # so the section-only modes write nothing unless --out is
        # explicit.
        out = "" if (args.engine_only or args.tlm or args.isa_only) else BENCH_FILE
    started = time.perf_counter()
    results = run_benchmarks(out=out, workers=args.workers or None,
                             quick=args.quick, engine_only=args.engine_only,
                             tlm_only=args.tlm, isa_only=args.isa_only)
    wall_time_s = time.perf_counter() - started
    print(format_results(results))
    if out:
        print(f"benchmark results written to {out}", file=sys.stderr)
    # Full runs land in the persistent run ledger so BENCH_perf.json
    # snapshots accumulate a diffable trajectory (repro-obs history /
    # diff).  Section-only modes are partial by design and skipped.
    if not (args.engine_only or args.tlm or args.isa_only or args.no_ledger):
        from repro.obs.ledger import Ledger, LedgerEntry
        from repro.perf.cache import fingerprint

        ledger = Ledger(args.ledger or None)
        cache_section = results.get("cache")
        ledger.append(LedgerEntry(
            kind="bench",
            label=out or BENCH_FILE,
            config_hash=fingerprint({"quick": args.quick,
                                     "workers": args.workers or None}),
            wall_time_s=round(wall_time_s, 3),
            cells=results.get("figure4", {}).get("cells", 0),
            cache=(
                {"hits": cache_section["hits"],
                 "misses": cache_section["misses"],
                 "hit_rate": cache_section["hit_rate"]}
                if cache_section else None
            ),
            results=_bench_ledger_results(results),
        ))
        print(f"ledger: appended bench entry to {ledger.path}",
              file=sys.stderr)
    if args.tlm:
        ok = results["tlm"]["accurate"]
        if not ok:
            print("FAIL: TLM rung drifted outside the calibrated accuracy "
                  "bound -- re-run repro-perf calibrate-tlm", file=sys.stderr)
        return 0 if ok else 1
    if args.isa_only:
        ok = results["isa"]["identical"]
        if not ok:
            print("FAIL: block-mode ISA run diverged from the reference "
                  "interpreter on at least one kernel", file=sys.stderr)
        return 0 if ok else 1
    if args.engine_only:
        return 0
    ok = (results["figure4"]["identical"] and results["cache"]["identical"]
          and results["tlm"]["accurate"] and results["isa"]["identical"])
    if not ok:
        print("FAIL: parallel/cached results differ from serial, the TLM "
              "rung drifted outside its accuracy bound, or the block-mode "
              "ISA interpreter diverged from the reference", file=sys.stderr)
    return 0 if ok else 1


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
        description="performance harness: parallel executor, run cache and "
        "sim-core timings (BENCH_perf.json)",
    )
    commands = parser.add_subparsers(dest="command")

    bench = commands.add_parser("bench", help="time serial vs parallel and "
                                "cold vs warm cache; write BENCH_perf.json")
    bench.add_argument("--out", default=None,
                       help="output file ('' = don't write; default "
                       "BENCH_perf.json, or nothing with --engine-only)")
    bench.add_argument("--workers", type=int, default=0,
                       help="worker processes (default: one per CPU)")
    bench.add_argument("--quick", action="store_true",
                       help="smaller grids (CI-sized run)")
    bench.add_argument("--engine-only", action="store_true",
                       help="run only the event-core micro-benchmark "
                       "(seconds; writes nothing unless --out is given)")
    bench.add_argument("--tlm", action="store_true",
                       help="run only the fidelity-ladder section (TLM vs "
                       "prototype on the Figure 4 anchor cells; writes "
                       "nothing unless --out is given)")
    bench.add_argument("--isa-only", action="store_true",
                       help="run only the ISA interpreter section (block vs "
                       "reference on the asmlib kernels; writes nothing "
                       "unless --out is given)")
    bench.add_argument("--ledger", default=None, metavar="FILE",
                       help="run-ledger file for the appended bench entry "
                       "(default: $REPRO_LEDGER or .repro/ledger.jsonl)")
    bench.add_argument("--no-ledger", action="store_true",
                       help="do not append this run to the run ledger")
    bench.set_defaults(func=_cmd_bench)

    calibrate = commands.add_parser(
        "calibrate-tlm",
        help="refit the TLM per-transaction cost table against fresh "
        "prototype runs on the anchor cells")
    calibrate.add_argument("--scale", type=int, default=1_000,
                           help="prototype time-scale divisor for the "
                           "reference runs (default 1000)")
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
