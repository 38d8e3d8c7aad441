"""repro -- reproduction of the DATE 2008 dual-priority FPGA MPSoC paper.

Top-level convenience re-exports.  The subpackages are:

- :mod:`repro.core` -- task model and the MPDP policy,
- :mod:`repro.analysis` -- offline WCRT/promotion analysis and
  partitioning (the paper's "in-house tool"),
- :mod:`repro.sim` -- discrete-event simulation kernel,
- :mod:`repro.hw` -- the FPGA multiprocessor model (MicroBlaze cores,
  OPB bus, memories, caches, multiprocessor interrupt controller,
  synchronization engine, crossbar, peripherals),
- :mod:`repro.kernel` -- the dual-priority microkernel running on the
  hardware model,
- :mod:`repro.simulators` -- theoretical/prototype/baseline end-to-end
  simulators,
- :mod:`repro.workloads` -- the MiBench automotive characterisation
  table and the paper's 19-task workload,
- :mod:`repro.trace` -- trace recording, metrics and ASCII Gantt,
- :mod:`repro.experiments` -- Figure 3 / Figure 4 reproduction.
"""

from repro.core.mpdp import MPDPScheduler
from repro.core.task import AperiodicTask, Job, PeriodicTask, TaskSet

__version__ = "1.3.0"

__all__ = [
    "PeriodicTask",
    "AperiodicTask",
    "Job",
    "TaskSet",
    "MPDPScheduler",
    "CLOCK_HZ",
    "TICK",
    "cycles_to_seconds",
    "seconds_to_cycles",
    "__version__",
]

#: The prototype clock frequency (Virtex-II PRO, 50 MHz).
CLOCK_HZ = 50_000_000

#: The paper's scheduling tick: 0.1 s at the 50 MHz prototype clock.
TICK = 5_000_000


def cycles_to_seconds(cycles: int, clock_hz: int = CLOCK_HZ) -> float:
    """Convert integer cycles to seconds at the prototype clock."""
    return cycles / clock_hz


def seconds_to_cycles(seconds: float, clock_hz: int = CLOCK_HZ) -> int:
    """Convert seconds to integer cycles at the prototype clock."""
    return int(round(seconds * clock_hz))
