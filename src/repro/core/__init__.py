"""Core dual-priority task model and the MPDP scheduling policy.

This package is the paper's primary contribution, independent of any
particular execution substrate:

- :mod:`repro.core.task` -- periodic/aperiodic task and job model,
- :mod:`repro.core.queues` -- the queue structures of Section 4.2
  (Periodic Ready Queue, Aperiodic Ready Queue, Waiting Periodic Queue,
  per-processor High Priority Local Ready Queues),
- :mod:`repro.core.mpdp` -- the Multiprocessor Dual Priority policy:
  promotion handling, global/local allocation, and the scheduling-cycle
  decision procedure used by both simulators and the microkernel.
"""

from repro.core.task import (
    AperiodicTask,
    Band,
    Job,
    JobState,
    PeriodicTask,
    TaskSet,
)
from repro.core.queues import (
    AperiodicReadyQueue,
    HighPriorityLocalQueue,
    PeriodicReadyQueue,
    WaitingPeriodicQueue,
)
from repro.core.mpdp import Allocation, MPDPScheduler

__all__ = [
    "Band",
    "PeriodicTask",
    "AperiodicTask",
    "Job",
    "JobState",
    "TaskSet",
    "PeriodicReadyQueue",
    "AperiodicReadyQueue",
    "WaitingPeriodicQueue",
    "HighPriorityLocalQueue",
    "MPDPScheduler",
    "Allocation",
]
