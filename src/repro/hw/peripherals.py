"""Peripheral models that raise aperiodic interrupts.

"Peripherals can be interfaces to sensors and data acquisition
systems, like for example Controller Area Networks (CANs) interfaces,
widely used in automotive applications."  A peripheral here is a
programmable interrupt generator: it raises its MPIC source at given
instants and carries a payload naming the aperiodic task to release --
exactly the camera/CAN event path that triggers the susan workload in
the paper.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence

from repro.hw.bus import RegisterTarget
from repro.hw.intc import InterruptMode, MultiprocessorInterruptController
from repro.sim.engine import Simulator


class InterruptingPeripheral:
    """Base: raises its interrupt source at programmed instants."""

    def __init__(
        self,
        sim: Simulator,
        intc: MultiprocessorInterruptController,
        name: str,
        register_latency: int = 3,
    ):
        self.sim = sim
        self.intc = intc
        self.name = name
        self.registers = RegisterTarget(name=name, latency=register_latency)
        self.source = intc.add_source(name, mode=InterruptMode.DISTRIBUTE)
        self.events_raised = 0

    def program_events(self, times: Iterable[int], payload_factory=None) -> None:
        """Schedule interrupt assertions at absolute cycle times."""
        for time in sorted(times):
            payload = payload_factory(time) if payload_factory else {"peripheral": self.name, "time": time}
            self.sim.schedule_at(time, lambda p=payload: self._fire(p))

    def _fire(self, payload: Any) -> None:
        self.events_raised += 1
        self.intc.raise_interrupt(self.source, payload=payload)


class CANInterface(InterruptingPeripheral):
    """A CAN controller delivering frames that trigger aperiodic tasks.

    Frames arrive at explicit times (as in Figure 4, where a single
    aperiodic release is measured).
    """

    def __init__(
        self,
        sim: Simulator,
        intc: MultiprocessorInterruptController,
        name: str = "can0",
        task_name: Optional[str] = None,
    ):
        super().__init__(sim, intc, name)
        self.task_name = task_name
        self.frames: List[int] = []

    def program_frames(self, times: Sequence[int]) -> None:
        """Deliver one frame (one aperiodic release) per instant."""
        self.frames = sorted(times)
        self.program_events(
            self.frames,
            payload_factory=lambda t: {
                "peripheral": self.name,
                "kind": "aperiodic",
                "task": self.task_name,
                "time": t,
            },
        )
