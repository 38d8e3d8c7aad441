"""The MiBench automotive characterisation the simulators consume.

The paper runs the MiBench automotive binaries; the reproduction does
not run any kernel.  Each :class:`BenchmarkSpec` is the table row a
simulated task reads instead: a calibrated WCET in 50 MHz cycles, a
shared-memory traffic profile and a stack footprint.

WCET calibration: the paper pins one absolute number -- the aperiodic
susan/large run "should execute in ~10.1 seconds with the given
dataset at 50 MHz", i.e. about 505 M cycles -- and the remaining
magnitudes follow MiBench's relative weights on a FPU-less soft core
(susan >> qsort > basicmath > bitcount; large ~ 10x small).  The
traffic profile and the stack size are per-group constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.hw.microblaze import ExecutionProfile


@dataclass(frozen=True)
class BenchmarkSpec:
    """One (program, dataset) entry of the automotive set."""

    name: str
    group: str
    dataset: str
    wcet_cycles: int
    profile: ExecutionProfile
    stack_words: int


# ----------------------------------------------------------- traffic profiles
_PROFILES = {
    # susan streams image data from shared memory: heaviest bus load.
    "susan": ExecutionProfile(access_period=45, access_words=4),
    # qsort moves vectors around shared buffers.
    "qsort": ExecutionProfile(access_period=24, access_words=4),
    # basicmath is compute-bound with moderate table traffic.
    "basicmath": ExecutionProfile(access_period=40, access_words=4),
    # bitcount runs almost entirely out of registers and I-cache.
    "bitcount": ExecutionProfile(access_period=80, access_words=4),
}
_STACKS = {"susan": 2048, "qsort": 1024, "basicmath": 512, "bitcount": 256}


# --------------------------------------------------------- calibrated WCETs
#: (group, program, dataset) -> WCET in 50 MHz cycles, one row per task
#: of the 19-task automotive workload.
WCET_TABLE: Dict[Tuple[str, str, str], int] = {
    ("basicmath", "sqrt", "small"): 3_000_000,
    ("basicmath", "sqrt", "large"): 30_000_000,
    ("basicmath", "derivative", "small"): 2_000_000,
    ("basicmath", "derivative", "large"): 20_000_000,
    ("basicmath", "angle", "small"): 1_500_000,
    ("basicmath", "angle", "large"): 15_000_000,
    ("bitcount", "shift", "small"): 1_600_000,
    ("bitcount", "shift", "large"): 16_000_000,
    ("bitcount", "sparse", "small"): 1_200_000,
    ("bitcount", "sparse", "large"): 12_000_000,
    ("bitcount", "ntbl", "small"): 1_000_000,
    ("bitcount", "ntbl", "large"): 10_000_000,
    ("bitcount", "btbl", "small"): 900_000,
    ("bitcount", "btbl", "large"): 9_000_000,
    ("bitcount", "parallel", "small"): 800_000,
    ("bitcount", "parallel", "large"): 8_000_000,
    ("qsort", "qsort", "small"): 5_000_000,
    ("qsort", "qsort", "large"): 50_000_000,
    #: the paper's aperiodic task: ~10.1 s at 50 MHz.
    ("susan", "smoothing", "large"): 505_000_000,
}


#: Every task of the automotive workload, by ``group-program-dataset``.
MIBENCH_AUTOMOTIVE: Dict[str, BenchmarkSpec] = {
    f"{group}-{program}-{dataset}": BenchmarkSpec(
        name=f"{group}-{program}-{dataset}",
        group=group,
        dataset=dataset,
        wcet_cycles=wcet,
        profile=_PROFILES[group],
        stack_words=_STACKS[group],
    )
    for (group, program, dataset), wcet in WCET_TABLE.items()
}


def get_benchmark(name: str) -> BenchmarkSpec:
    try:
        return MIBENCH_AUTOMOTIVE[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; have {sorted(MIBENCH_AUTOMOTIVE)}"
        ) from None
