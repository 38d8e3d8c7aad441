"""Event primitives for the discrete-event kernel.

Events are one-shot: they may be *succeeded* (or *failed*) exactly once,
after which their callbacks run inside the simulator loop.  Processes
(see :mod:`repro.sim.engine`) wait on events by yielding them.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

PENDING = "pending"
TRIGGERED = "triggered"
PROCESSED = "processed"


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` carries arbitrary user data (for the kernel model this
    is typically the preemption reason, e.g. ``"ipi"`` or
    ``"promotion"``).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Interrupt(cause={self.cause!r})"


class Event:
    """A one-shot occurrence that processes can wait for.

    Events are allocated on every timeout and wake-up, and once per
    bus transfer batch (its ``done`` event), so the class is slotted:
    full-system runs create millions of them and the per-instance
    ``__dict__`` would dominate the allocation cost.  Entries in
    ``callbacks`` may be tombstoned to ``None`` by a detaching waiter
    (see ``Process._resume``); the simulator's run loop skips them.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.engine.Simulator`.
    name:
        Optional label used in tracebacks and ``repr``.
    """

    __slots__ = ("sim", "name", "callbacks", "_value", "_ok", "_state")

    def __init__(self, sim: "Simulator", name: Optional[str] = None):  # noqa: F821
        self.sim = sim
        self.name = name
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok = True
        self._state = PENDING

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been succeeded or failed."""
        return self._state != PENDING

    @property
    def processed(self) -> bool:
        """True once the callbacks have been executed."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful if triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The payload passed to :meth:`succeed` or :meth:`fail`."""
        if self._state == PENDING:
            raise RuntimeError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Mark the event successful and schedule its callbacks now."""
        if self._state != PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        sim = self.sim
        sim._push(sim.now, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Mark the event failed; waiting processes see the exception."""
        if self._state != PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = TRIGGERED
        sim = self.sim
        sim._push(sim.now, self)
        return self

    def __repr__(self) -> str:
        label = self.name or self.__class__.__name__
        return f"<{label} state={self._state}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` cycles in the future.

    It stays *pending* until its scheduled instant and is processed by
    the simulator loop when its queue entry is reached.

    Timeouts are the single hottest allocation in full-system runs, so
    the constructor inlines the :class:`Event` field initialisation and
    leaves ``name`` unset (``repr`` derives a label lazily) instead of
    rendering an f-string per instance.

    Triggered early with :meth:`succeed` or :meth:`fail`, a timeout
    sets ``delay`` to None: its own queue entry is still in flight, so
    :meth:`~repro.sim.engine.Simulator.advance` must never re-arm it.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None, name: Optional[str] = None):  # noqa: F821
        delay = int(delay)
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.name = name
        self.callbacks = []
        self._value = value
        self._ok = True
        self._state = PENDING
        self.delay = delay
        sim._push(sim.now + delay, self)

    def succeed(self, value: Any = None) -> "Timeout":
        self.delay = None
        return Event.succeed(self, value)

    def fail(self, exception: BaseException) -> "Timeout":
        self.delay = None
        return Event.fail(self, exception)

    def __repr__(self) -> str:
        label = self.name or f"Timeout({self.delay})"
        return f"<{label} state={self._state}>"
