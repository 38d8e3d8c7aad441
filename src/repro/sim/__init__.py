"""Discrete-event simulation kernel.

A small, deterministic, cycle-resolution event engine in the style of
SimPy, built from scratch because the reproduction must not rely on
external simulation frameworks.  It provides:

- :class:`~repro.sim.engine.Simulator` -- the event loop with integer
  cycle time,
- :class:`~repro.sim.events.Event` / :class:`~repro.sim.events.Timeout`
  -- one-shot signalling primitives,
- :class:`~repro.sim.engine.Process` -- generator-based cooperative
  processes with SimPy-style interrupts (used to model preemption),
- :class:`~repro.sim.resources.Store` -- a blocking FIFO for
  mailbox-style hardware.
"""

from repro.sim.engine import Process, Simulator
from repro.sim.events import Event, Interrupt, Timeout
from repro.sim.resources import Store

__all__ = [
    "Simulator",
    "Process",
    "Event",
    "Timeout",
    "Interrupt",
    "Store",
]
