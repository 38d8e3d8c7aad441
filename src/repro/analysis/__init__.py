"""Offline analysis: worst-case response times, promotions, partitioning.

Reproduces the paper's "in-house tool that takes in input worst case
execution times, period and deadlines of the tasks and produces the
task tables with processor assignments and all the required
information for both our target architecture and the simulator".
"""

from repro.analysis.response_time import (
    ResponseTimeResult,
    busy_period_recurrence,
    fault_aware_response_time,
    worst_case_response_time,
)
from repro.analysis.promotion import assign_promotions, promotion_time
from repro.analysis.schedulability import (
    FaultModel,
    SchedulabilityReport,
    analyse_taskset,
    liu_layland_bound,
)
from repro.analysis.partitioning import PartitioningError, partition
from repro.analysis.taskgen import (
    random_periods,
    random_taskset,
    uunifast,
)

__all__ = [
    "worst_case_response_time",
    "busy_period_recurrence",
    "fault_aware_response_time",
    "FaultModel",
    "ResponseTimeResult",
    "promotion_time",
    "assign_promotions",
    "analyse_taskset",
    "SchedulabilityReport",
    "liu_layland_bound",
    "partition",
    "PartitioningError",
    "uunifast",
    "random_periods",
    "random_taskset",
]
