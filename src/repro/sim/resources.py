"""Queued resources for modelling contention.

:class:`Store` is an unbounded FIFO of items used by mailbox-style
hardware (the crossbar message channels).  Bus arbitration lives with
the bus itself (:class:`repro.hw.bus.OPBBus`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.sim.events import Event


class Store:
    """An unbounded FIFO of items with blocking ``get``.

    ``put`` never blocks; ``get`` returns an event that fires with the
    next item (immediately if one is buffered).
    """

    def __init__(self, sim, name: str = "store"):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the next item in FIFO order."""
        event = Event(self.sim, name=f"{self.name}.get")
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self._items)
