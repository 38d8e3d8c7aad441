"""The simulator event loop and generator-based processes.

Time is an integer number of clock cycles.  All hardware models in
:mod:`repro.hw` and the microkernel in :mod:`repro.kernel` run on top of
this loop.  Determinism matters for reproduction, so the loop has one
queue, a flat ``heapq`` of ``(time, insertion id, item)`` entries: an
entry runs at its instant, and entries at the same instant run in the
order they were pushed.  Popping the heap jumps ``now`` straight to the
next queued instant, so idle stretches (all cores parked on their
interrupt lines) cost no per-cycle work.  A step that ends before
anything else could be dispatched may be played in place, under the
insertion ids its entries would take, instead of through the queue
(:meth:`Simulator.sleep`).
"""

from __future__ import annotations

import heapq
from types import MethodType
from typing import Any, Callable, Generator, List, Optional

from repro.sim.events import PENDING, PROCESSED, Event, Interrupt, Timeout

_INF = float("inf")


def push_only(func):
    """Mark a method whose bound queue callback, run at its instant, only
    pushes later entries and wakes no process (a bus grant, which pushes
    its hold).  A process playing a step in place may pop and run such an
    entry due at ``now`` ahead of its step (see :meth:`Simulator.sleep`):
    the queue would have dispatched it first all the same."""
    func.push_only = True
    return func


class Simulator:
    """A deterministic discrete-event simulator with integer cycle time.

    Example
    -------
    >>> sim = Simulator()
    >>> log = []
    >>> def worker(sim):
    ...     yield sim.timeout(5)
    ...     log.append(sim.now)
    >>> _ = sim.process(worker(sim))
    >>> sim.run()
    >>> log
    [5]
    """

    def __init__(self):
        self.now: int = 0
        self._eid = 0
        self._stopped = False
        # ``until + 1`` while ``run(until)`` is active, else infinity:
        # the first instant the current run will not dispatch.
        self._limit = _INF
        self._heap: List[tuple] = []
        # While a process runs: True when it runs as the last callback
        # of its dispatch and may play steps in place, else False (see
        # ``Process._resume``); None while no process runs.
        self._inplace: Optional[bool] = None

    # -- event factories ----------------------------------------------------
    def event(self, name: Optional[str] = None) -> Event:
        """Create a fresh untriggered event owned by this simulator."""
        return Event(self, name=name)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` cycles from now."""
        return Timeout(self, delay, value=value)

    def advance(self, delay: int, sleeper: Optional[Timeout] = None) -> Timeout:
        """Fast path for coalesced sleeps: a timeout that recycles its event.

        The block-mode ISA interpreter (and any similar temporally
        decoupled model) sleeps once per basic-block window, always from
        the same process.  Passing the previous window's ``sleeper``
        back in lets the consumed :class:`Timeout` object be re-armed in
        place -- same queue entry shape, same tie ordering as a fresh
        ``timeout(delay)``, minus the allocation.  A sleeper is only
        reused when it was consumed normally (processed, no callbacks
        left, never triggered early); anything else -- including an
        early-succeeded timeout whose own queue entry is still in
        flight -- gets a fresh Timeout, which is always safe.
        """
        delay = int(delay)
        if delay < 0:
            raise ValueError(f"negative advance delay: {delay}")
        if (sleeper is not None and sleeper._state == PROCESSED
                and not sleeper.callbacks and sleeper.delay is not None):
            sleeper._state = PENDING
            sleeper._value = None
            sleeper._ok = True
            sleeper.delay = delay
            self._push(self.now + delay, sleeper)
            return sleeper
        return Timeout(self, delay)

    def sleep(self, delay: int):
        """Generator: wait ``delay`` cycles, as ``yield sim.timeout(delay)``.

        Called as ``yield from sim.sleep(delay)`` inside a process.  When
        the process may play in place (it runs as the last callback of
        its dispatch, in a run that is not stopped) and the sleep ends
        strictly before anything else could be dispatched, the sleep
        takes the insertion id its timeout would have taken and moves
        ``now`` itself, without yielding; :func:`push_only` entries due
        at ``now`` run first, as the queue would run them.  Otherwise it
        yields a :class:`Timeout` under that same ``(time, insertion
        id)`` key.
        """
        delay = int(delay)
        if delay < 0:
            raise ValueError(f"negative sleep delay: {delay}")
        if self._inplace and not self._stopped:
            self._eid += 1
            eid = self._eid
            end = self.now + delay
            if end < self._head_past_push_only():
                self.now = end
                return
            timeout = self._push_as(eid, Timeout, self, delay)
        else:
            timeout = Timeout(self, delay)
        yield timeout

    def process(self, generator: Generator, name: Optional[str] = None) -> "Process":
        """Spawn a cooperative process from a generator."""
        return Process(self, generator, name=name)

    # -- scheduling ----------------------------------------------------------
    def schedule_at(self, time: int, callback: Callable[[], None]) -> None:
        """Run ``callback()`` at absolute cycle ``time``."""
        time = int(time)
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        self._push(time, callback)

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Run ``callback()`` after ``delay`` cycles."""
        self.schedule_at(self.now + int(delay), callback)

    def _push(self, time: int, item: Any) -> None:
        self._eid += 1
        heapq.heappush(self._heap, (time, self._eid, item))

    # -- queue access ----------------------------------------------------------
    def horizon(self) -> float:
        """The earliest instant at which the engine will next dispatch
        anything: the next queued entry, capped at ``until + 1`` inside
        ``run(until)``; infinity when neither exists.

        Valid from inside a callback too.  A bare queue callback, or a
        process running as the last callback of its dispatch, may
        therefore play out, in place, work that would otherwise be queue
        entries strictly before the horizon, advancing ``now`` as it
        goes: no other entry can be dispatched in between (the bus
        run-ahead of :mod:`repro.hw.bus`, :meth:`sleep`).
        """
        return self._head()[0]

    def _head(self) -> tuple:
        """``(time, item)`` of the entry the engine dispatches next, or
        ``(limit, None)`` when nothing is queued before the run limit
        (``until + 1`` inside ``run(until)``, else infinity).

        Valid from inside a callback, also after the callback moved
        ``now`` forward (run-ahead never passes a queued entry, so every
        entry is at or after ``now``).
        """
        heap = self._heap
        if heap and heap[0][0] < self._limit:
            entry = heap[0]
            return entry[0], entry[2]
        return self._limit, None

    def _head_past_push_only(self) -> float:
        """:meth:`horizon`, after popping and running every
        :func:`push_only` entry due at ``now`` at the head of the queue.

        For a process playing a step in place that has taken its first
        insertion id: the queue would have dispatched those entries
        before the step's, and what they push takes later ids."""
        heap = self._heap
        now = self.now
        while heap:
            time, _eid, item = heap[0]
            if (time != now or type(item) is not MethodType
                    or not getattr(item.__func__, "push_only", False)):
                break
            self._pop_head()
            item()
        return self._head()[0]

    def _push_as(self, eid: int, make: Callable, *args) -> Any:
        """``make(*args)``, whose single push goes in under the insertion
        id ``eid`` taken earlier; ``_eid`` is left as it was."""
        taken = self._eid
        self._eid = eid - 1
        try:
            return make(*args)
        finally:
            self._eid = taken

    def _pop_head(self) -> None:
        """Remove the entry :meth:`_head` reported; ``now`` must already
        be its time.  The caller runs it in place."""
        heapq.heappop(self._heap)

    def withdraw(self, time: int, callback: Callable[[], None]) -> None:
        """Remove the queued bare ``callback`` due at ``time`` without
        running it.

        The other entries keep their order and ``_eid`` is unchanged, so
        the schedule is as if the entry had run and done nothing -- except
        that nothing is dispatched, and run-ahead is not cut at ``time``.
        Raises ``ValueError`` when no such entry is queued.
        """
        heap = self._heap
        for index, entry in enumerate(heap):
            if entry[2] is callback and entry[0] == time:
                heap[index] = heap[-1]
                heap.pop()
                heapq.heapify(heap)
                return
        raise ValueError(f"no queued callback {callback!r} at {time}")

    @property
    def pending_count(self) -> int:
        """Number of entries still in the queue (diagnostic)."""
        return len(self._heap)

    # -- main loop -----------------------------------------------------------
    def run(self, until: Optional[int] = None) -> None:
        """Run until the queue drains or ``now`` would pass ``until``.

        When ``until`` is given the clock is left exactly at ``until``
        even if no event is scheduled there, so back-to-back ``run``
        calls compose predictably.  ``until`` must be a whole cycle
        count: a fractional one raises ``ValueError``.
        """
        if until is not None:
            whole = int(until)
            if whole != until:
                raise ValueError(
                    f"run(until) needs a whole cycle count, got {until!r}")
            until = whole
        self._limit = limit = _INF if until is None else until + 1
        self._stopped = False
        # The hot loop: one iteration per entry, with Event dispatch
        # inlined (state flip + callback sweep) to keep per-event call
        # overhead off the critical path.
        heap = self._heap
        heappop = heapq.heappop
        event_cls = Event
        try:
            while heap and not self._stopped:
                if heap[0][0] >= limit:
                    break
                time, _eid, item = heappop(heap)
                self.now = time
                if isinstance(item, event_cls):
                    item._state = PROCESSED
                    callbacks = item.callbacks
                    if callbacks:
                        item.callbacks = []
                        for cb in callbacks:
                            if cb is not None:
                                cb(item)
                else:
                    item()
        finally:
            self._limit = _INF
        if until is not None and self.now < until:
            self.now = until

    def stop(self) -> None:
        """Stop the loop after the current callback returns."""
        self._stopped = True


class Process(Event):
    """A cooperative process driven by a generator.

    The generator yields :class:`Event` instances; the process resumes
    when the yielded event triggers.  The process is itself an event
    that fires with the generator's return value, so processes can wait
    on each other.  :meth:`interrupt` throws
    :class:`~repro.sim.events.Interrupt` inside the generator at the
    current simulation time, which is how preemption is modelled.

    Wake-ups (start, interrupt delivery, already-processed targets) are
    pushed into the queue as bare callbacks rather than throwaway
    ``Event`` objects: one queue entry is pushed either way, so tie
    ordering -- and therefore the schedule -- is unchanged, but the
    allocation and callback-dispatch cost disappears from the hottest
    paths of full-system runs.

    A process that runs as the last callback of its dispatch may play
    steps in place (:meth:`Simulator.sleep`): nothing else is
    dispatched before its next queue entry.
    """

    __slots__ = ("_generator", "_waiting_on", "_wait_list", "_wait_slot",
                 "_resume_cb")

    def __init__(self, sim: Simulator, generator: Generator, name: Optional[str] = None):
        super().__init__(sim, name=name or getattr(generator, "__name__", "Process"))
        if not hasattr(generator, "send"):
            raise TypeError("Process requires a generator (did you call the function?)")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        # Where our _resume callback sits inside the waited event's
        # callback list, for O(1) tombstone detach on interrupt.
        self._wait_list: Optional[list] = None
        self._wait_slot: int = -1
        # The bound method is appended to a callback list on every
        # yield; binding it once saves an allocation per wait.
        self._resume_cb = self._resume
        # Kick off at the current time, but through the queue so that
        # construction order stays deterministic.
        sim._push(sim.now, self._start)

    def _start(self) -> None:
        self._resume(None)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == PENDING

    def interrupt(self, cause: Any = None, guard: Optional[Callable[[], bool]] = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        ``guard`` is re-evaluated at the instant the throw would land;
        if it returns False the interrupt is silently dropped.  This
        closes same-cycle races where the target left the interruptible
        region between the decision to interrupt and the delivery (the
        kernel model uses it to never throw into kernel-mode code).
        """
        if self._state != PENDING:
            raise RuntimeError(f"cannot interrupt finished process {self!r}")

        def deliver() -> None:
            if self._state != PENDING:
                return
            if guard is not None and not guard():
                return
            self._resume(None, throw=Interrupt(cause))

        self.sim._push(self.sim.now, deliver)

    # -- internal -------------------------------------------------------------
    def _resume(self, event: Optional[Event], throw: Optional[BaseException] = None) -> None:
        if self._state != PENDING:
            return
        # Detach from whatever we were waiting on (interrupt case).
        # Tombstone our recorded slot instead of list.remove: entries
        # are append-only (only swapped out wholesale by the run
        # loop's dispatch, which our recorded reference survives), so
        # the slot index stays valid and detach is O(1) even for
        # heavily-interrupted processes.
        waiting = self._waiting_on
        if waiting is None:
            last = True  # a bare callback: start, or a processed target
        elif waiting is not event:
            self._wait_list[self._wait_slot] = None
            last = True  # a bare callback: interrupt delivery
        else:
            last = self._wait_slot == len(self._wait_list) - 1
        self._waiting_on = None
        self._wait_list = None
        generator = self._generator
        # Running last in its dispatch, the process may play steps in
        # place (``Simulator.sleep``): the engine would dispatch nothing
        # else before its next queue entry.  Cleared when the generator
        # yields, returns or raises, so a nested resume can only turn
        # in-place play off.
        sim = self.sim
        sim._inplace = last if sim._inplace is None else False
        try:
            if throw is not None:
                target = generator.throw(throw)
            elif event is None or event is self:
                target = generator.send(None)
            elif event._ok:
                target = generator.send(
                    event._value if event._state != PENDING else None
                )
            else:
                target = generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(getattr(stop, "value", None))
            return
        except Interrupt:
            # Process let the interrupt escape: treat as termination.
            self.succeed(None)
            return
        except BaseException as exc:  # propagate failures to waiters
            if self.callbacks:
                self.fail(exc)
            else:
                raise
            return
        finally:
            sim._inplace = None
        if not isinstance(target, Event):
            raise TypeError(
                f"process {self.name!r} yielded {target!r}; processes must yield Events"
            )
        if target._state != PROCESSED:
            self._waiting_on = target
            callbacks = target.callbacks
            self._wait_list = callbacks
            self._wait_slot = len(callbacks)
            callbacks.append(self._resume_cb)
        else:
            # Already processed event: resume immediately via queue.
            sim._push(sim.now, lambda: self._resume(target))
