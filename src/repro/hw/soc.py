"""System-on-chip assembly: Figure 1 of the paper in one object.

``SoC`` wires N MicroBlaze cores (each with local BRAM and I-cache) to
the shared OPB, the DDR, the boot BRAM, the Synchronization Engine,
the crossbar, the system timer and the multiprocessor interrupt
controller, exactly mirroring the block diagram.  The microkernel in
:mod:`repro.kernel` takes an SoC and runs on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import TICK, cycles_to_seconds
from repro.hw.bus import OPBBus
from repro.hw.cache import DirectMappedICache
from repro.hw.crossbar import Crossbar
from repro.hw.intc import MultiprocessorInterruptController
from repro.hw.memory import DDRMemory, LocalBRAM, SharedBRAM
from repro.hw.microblaze import MicroBlaze
from repro.hw.peripherals import CANInterface
from repro.hw.sync_engine import SynchronizationEngine
from repro.hw.timer import SystemTimer
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class SoCConfig:
    """Build-time parameters of the prototype.

    Defaults follow the paper: scheduling tick 0.1 s (= 5,000,000
    cycles of the fixed 50 MHz clock, :data:`repro.CLOCK_HZ`) and a
    per-core I-cache.  Memory sizes are the defaults of
    :class:`~repro.hw.memory.LocalBRAM` and
    :class:`~repro.hw.memory.DDRMemory`.
    """

    n_cpus: int = 2
    tick_cycles: int = TICK
    mpic_ack_timeout: int = 500
    icache_lines: int = 256
    icache_line_words: int = 8
    chunk_cycles: int = 2_000
    #: When True (the default), cores expand execution slices up to the
    #: system timer's next tick (see ``MicroBlaze.preemption_hint``)
    #: instead of stepping in fixed ``chunk_cycles`` strides.  Set
    #: False to reproduce the fixed-stride bus-interleaving granularity.
    adaptive_chunking: bool = True

    def __post_init__(self):
        if self.n_cpus < 1:
            raise ValueError("n_cpus must be >= 1")
        if self.tick_cycles <= 0:
            raise ValueError("tick_cycles must be positive")


class SoC:
    """The assembled multiprocessor."""

    def __init__(self, config: SoCConfig, sim: Optional[Simulator] = None,
                 metrics=None):
        self.config = config
        self.sim = sim or Simulator()
        self.metrics = metrics

        self.bus = OPBBus(self.sim, name="opb")
        self.ddr = DDRMemory()
        self.boot_bram = SharedBRAM()
        self.sync_engine = SynchronizationEngine(self.sim, metrics=metrics)
        self.crossbar = Crossbar(self.sim, n_ports=config.n_cpus)
        self.intc = MultiprocessorInterruptController(
            self.sim, n_cpus=config.n_cpus, ack_timeout=config.mpic_ack_timeout,
            metrics=metrics,
        )

        self.cores: List[MicroBlaze] = []
        for cpu in range(config.n_cpus):
            core = MicroBlaze(
                self.sim,
                cpu_id=cpu,
                bus=self.bus,
                ddr=self.ddr,
                local_mem=LocalBRAM(cpu),
                icache=DirectMappedICache(
                    cpu,
                    n_lines=config.icache_lines,
                    line_words=config.icache_line_words,
                ),
                chunk_cycles=config.chunk_cycles,
            )
            self.intc.connect_cpu(cpu, core.on_interrupt_line)
            core.add_enable_listener(
                lambda enabled, cpu=cpu: self.intc.set_enabled(cpu, enabled)
            )
            self.cores.append(core)

        self.timer = SystemTimer(
            self.sim, self.intc, period=config.tick_cycles, name="system-timer"
        )
        if config.adaptive_chunking:
            timer = self.timer
            for core in self.cores:
                core.preemption_hint = lambda: timer.next_tick
        self.peripherals: Dict[str, CANInterface] = {}

    # -------------------------------------------------------------- builders
    def add_can_interface(self, name: str, task_name: Optional[str] = None) -> CANInterface:
        """Attach a CAN controller whose frames release ``task_name``."""
        if name in self.peripherals:
            raise ValueError(f"peripheral {name!r} already present")
        can = CANInterface(self.sim, self.intc, name=name, task_name=task_name)
        self.peripherals[name] = can
        return can

    # ---------------------------------------------------------------- queries
    def core(self, cpu: int) -> MicroBlaze:
        return self.cores[cpu]

    def seconds(self, cycles: int) -> float:
        """Convert cycles to wall seconds at the 50 MHz prototype clock."""
        return cycles_to_seconds(cycles)
