"""Cycle-approximate model of the paper's FPGA multiprocessor (Fig. 1).

The architecture: several MicroBlaze soft cores on a shared On-chip
Peripheral Bus (OPB), each with a private local BRAM (1-cycle) and a
direct-mapped instruction cache (hit 1 cycle / miss 12 to DDR), a
shared DDR memory and boot BRAM behind the bus, a Synchronization
Engine coprocessor (hardware locks/barriers), a crossbar for small
inter-processor transfers, a system timer, CAN-style peripherals, and
the multiprocessor interrupt controller (MPIC) that distributes
interrupts, supports booking, multicast/broadcast and IPIs with a
fixed-priority-with-timeout scheme.

Everything here runs on the discrete-event kernel in :mod:`repro.sim`
with integer cycle timestamps.
"""

from repro.hw.bus import BusStats, BusTarget, OPBBus
from repro.hw.cache import DirectMappedICache
from repro.hw.crossbar import Crossbar
from repro.hw.intc import (
    InterruptMode,
    InterruptSource,
    MultiprocessorInterruptController,
)
from repro.hw.memory import DDRMemory, LocalBRAM, SharedBRAM
from repro.hw.microblaze import MicroBlaze
from repro.hw.peripherals import CANInterface, InterruptingPeripheral
from repro.hw.soc import SoC, SoCConfig
from repro.hw.sync_engine import SynchronizationEngine
from repro.hw.timer import SystemTimer

__all__ = [
    "OPBBus",
    "BusTarget",
    "BusStats",
    "LocalBRAM",
    "SharedBRAM",
    "DDRMemory",
    "DirectMappedICache",
    "MultiprocessorInterruptController",
    "InterruptSource",
    "InterruptMode",
    "SynchronizationEngine",
    "Crossbar",
    "SystemTimer",
    "CANInterface",
    "InterruptingPeripheral",
    "MicroBlaze",
    "SoC",
    "SoCConfig",
]
