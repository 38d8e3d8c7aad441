"""``repro-faults``: the fault-injection tier front end.

Three modes, mirroring ``repro-perf``::

    repro-faults plan [--seed N] [--horizon CYCLES] [--faults N]
                      [--min-gap CYCLES]
    repro-faults campaign [--runs N] [--seed N] [--recovery|--no-recovery]
                          [--workers N] [--min-gap CYCLES] [--until CYCLES]
                          [--perfetto OUT.json]

``plan`` prints a seeded :func:`repro.faults.plan.random_plan` as JSON
(the exact serialization a campaign cell is cache-keyed by); pipe it to
a file to pin a scenario.  ``campaign`` fans N seeded fault-injection
runs across the ``pmap`` pool against the demo workload and prints the
miss/recovery/degradation table (see docs/FAULTS.md).  The tier's
contracts (replay, zero-fault identity, recovery, analysis pessimism)
are tests: ``pytest -m faults``.

Exit status: 0 on success, 1 on any failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


# ----------------------------------------------------------------------- main
def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.faults.plan import random_plan
    from repro.faults.scenarios import demo_taskset

    taskset = demo_taskset()
    wcets = {task.name: task.wcet for task in taskset.periodic}
    plan = random_plan(seed=args.seed, horizon=args.horizon, tasks=wcets,
                       n_cpus=2, n_faults=args.faults, min_gap=args.min_gap,
                       name=f"seed-{args.seed}")
    print(plan.to_json(indent=2))
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.experiments.runner import fault_campaign
    from repro.perf.cache import RunCache

    cache = RunCache(args.cache_dir) if args.cache_dir else None
    result = fault_campaign(
        n_runs=args.runs, seed=args.seed, recovery=args.recovery,
        until=args.until, n_faults=args.faults, min_gap=args.min_gap,
        max_workers=args.workers, cache=cache, perfetto_out=args.perfetto,
    )
    print(result.format())
    if args.perfetto:
        print(f"perfetto trace written to {args.perfetto}", file=sys.stderr)
    misses = sum(row["deadline_misses"] for row in result.rows)
    print(f"campaign: {len(result.rows)} run(s), {misses} deadline miss(es) "
          f"({'recovery on' if args.recovery else 'recovery off'})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-faults",
        description="deterministic fault injection: seeded plans, watchdog "
        "recovery, degradation and fault-aware schedulability",
    )
    commands = parser.add_subparsers(dest="command")

    plan = commands.add_parser(
        "plan", help="print a seeded random fault plan as JSON")
    plan.add_argument("--seed", type=int, default=0, help="plan seed")
    plan.add_argument("--horizon", type=int, default=400_000,
                      help="last cycle faults may be scheduled at")
    plan.add_argument("--faults", type=int, default=4,
                      help="number of fault events")
    plan.add_argument("--min-gap", type=int, default=0,
                      help="minimum cycles between kernel-level faults "
                      "(match a FaultModel min_interarrival)")
    plan.set_defaults(func=_cmd_plan)

    campaign = commands.add_parser(
        "campaign", help="run N seeded fault-injection runs and print the "
        "miss/recovery table")
    campaign.add_argument("--runs", type=int, default=4,
                          help="number of seeded runs")
    campaign.add_argument("--seed", type=int, default=0,
                          help="first seed (runs use seed..seed+runs-1)")
    campaign.add_argument("--recovery", action="store_true", default=True,
                          help="enable watchdog recovery (default)")
    campaign.add_argument("--no-recovery", dest="recovery",
                          action="store_false",
                          help="disable recovery (count raw misses)")
    campaign.add_argument("--workers", type=int, default=1,
                          help="pmap worker processes")
    campaign.add_argument("--faults", type=int, default=4,
                          help="fault events per run")
    campaign.add_argument("--min-gap", type=int, default=0,
                          help="minimum cycles between kernel faults")
    campaign.add_argument("--until", type=int, default=400_000,
                          help="run horizon in cycles")
    campaign.add_argument("--perfetto", default=None, metavar="OUT",
                          help="also write a Perfetto trace of the first "
                          "seed's run (fault instants included)")
    campaign.add_argument("--cache-dir", default=None,
                          help="cache campaign cells in this RunCache "
                          "directory")
    campaign.set_defaults(func=_cmd_campaign)
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
