"""MiBench automotive workloads.

The calibrated WCET/traffic/stack characterisation of the MiBench
automotive programs the paper runs (basicmath, bitcount, qsort,
susan), and the builder for the paper's 19-task evaluation workload
(18 periodic + the susan/large aperiodic).
"""

from repro.workloads.mibench import (
    BenchmarkSpec,
    MIBENCH_AUTOMOTIVE,
    get_benchmark,
)
from repro.workloads.automotive import (
    AUTOMOTIVE_APERIODIC,
    AUTOMOTIVE_PERIODIC,
    automotive_bindings,
    build_automotive_taskset,
    prepare_taskset,
)

__all__ = [
    "BenchmarkSpec",
    "MIBENCH_AUTOMOTIVE",
    "get_benchmark",
    "build_automotive_taskset",
    "prepare_taskset",
    "automotive_bindings",
    "AUTOMOTIVE_PERIODIC",
    "AUTOMOTIVE_APERIODIC",
]
