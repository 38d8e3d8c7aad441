"""Command line: ``python -m bench run ...`` and ``python -m bench compare ...``."""

from __future__ import annotations

import argparse
import sys

from bench import compare as compare_module
from bench import run as run_module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench",
        description="Probe-normalised benchmark of the repro package.")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", action="append", default=[],
                     help="workload to run (repeatable; default: all)")
    run.add_argument("--seed", type=int, default=0,
                     help="input seed (default 0; seed 1 is held out for claims)")
    # Runners that follow BENCHMARK.json pass ``--seconds <run_seconds>``;
    # it is accepted for them and refused with any other value, so every
    # result is measured with the same time budget.
    run.add_argument("--seconds", type=float, default=None, help=argparse.SUPPRESS)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: one profiled pass with spans; report per-layer metrics")
    run.add_argument("--out", help="write every result and raw sample to this file")

    compare = commands.add_parser(
        "compare", help="compare two sets of results files (exit 0 ok, "
                        "1 regression, 2 bad input)")
    compare.add_argument("--base", nargs="+", required=True, metavar="FILE",
                         help="results files of the base commit")
    compare.add_argument("--head", nargs="+", required=True, metavar="FILE",
                         help="results files of the changed commit")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run_module.main(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.out)
    return compare_module.main(args.base, args.head)


if __name__ == "__main__":
    sys.exit(main())
