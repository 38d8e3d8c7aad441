"""Test oracle: the engine with every process step a queue round trip.

:class:`QueuedSimulator` is :class:`~repro.sim.engine.Simulator` whose
processes never play in place: ``Simulator.sleep`` always yields its
timeout, ``OPBBus.transfer`` always queues its grant, and the kernel
lock is always granted through the queue.  Tests require the in-place
engine to reproduce it entry for entry: the same schedule, stats and
``(time, insertion id)`` keys.
"""

from repro.sim.engine import Simulator


class QueuedSimulator(Simulator):
    # Reads False whatever ``Process._resume`` sets: no process may play
    # in place.
    _inplace = property(lambda self: False, lambda self, value: None)
