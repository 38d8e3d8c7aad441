"""One workload in a fresh process.

``python -m bench run`` starts this module once per workload to measure
it, and :data:`bench.run.SETUP_SAMPLES` more times with ``--setup-only``
to time set-up on its own::

    python -m bench.child --workload W --seed N --seconds S --trace 0|1 [--setup-only]

It prints one JSON object as the last line of its standard output.

The process pins itself to one CPU, so the host-speed probe always
measures the CPU the work runs on; a workload with its own pool
workers (``parallel``) is left free to use every CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import time

from bench import probe


def pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def time_setup(name: str, seed: int) -> dict:
    """Import the package and build the seed's inputs, between two probes.

    Nothing heavier than :mod:`bench.probe` is imported before this
    runs, so the time covers every import the workload needs.
    """
    pin_to_one_cpu()
    before = probe.measure()
    start = time.perf_counter()
    from bench.instrument import Instruments
    from bench.workloads import WORKLOADS

    WORKLOADS[name](seed, Instruments()).close()
    raw_s = time.perf_counter() - start
    return {"raw_s": raw_s, "probes_s": [before, probe.measure()]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.setup_only:
        print(json.dumps(time_setup(args.workload, args.seed)))
        return 0
    from bench import measure
    from bench.workloads import WORKLOADS

    if not WORKLOADS[args.workload].parallel:
        pin_to_one_cpu()
    result = measure.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
