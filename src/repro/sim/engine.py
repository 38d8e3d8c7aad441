"""The simulator event loop and generator-based processes.

Time is an integer number of clock cycles.  All hardware models in
:mod:`repro.hw` and the microkernel in :mod:`repro.kernel` run on top of
this loop.  Determinism matters for reproduction, so ties in the event
queue are broken by insertion order.

Two interchangeable queue implementations back the loop:

- ``"bucket"`` (the default): a hybrid bucketed timer queue.  A
  near-horizon window of :data:`BUCKET_HORIZON` per-cycle FIFO buckets
  absorbs the short delays that dominate full-system runs (bus grants,
  kernel costs, execution chunks) with O(1) pushes and pops; anything
  scheduled at least a full window ahead overflows into a regular heap.
  FIFO buckets make insertion order the tie order by construction, and
  a heap entry at cycle ``T`` was necessarily pushed at least
  ``BUCKET_HORIZON`` cycles before any bucketed entry at ``T``, so
  draining the heap first at each instant reproduces the global
  insertion order exactly.  When the window is empty the loop
  fast-forwards ``now`` straight to the heap's next instant -- idle
  stretches (all cores parked on their interrupt lines) cost zero
  per-cycle work.
- ``"heap"``: the original flat ``heapq`` with explicit insertion-id
  tie-breaks.  Kept as the reference implementation; the determinism
  sentinel ``tests/perf/test_determinism.py`` replays identical
  workloads on both queues and requires bit-for-bit identical
  schedules.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.sim.events import (
    PENDING,
    PROCESSED,
    TRIGGERED,
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Timeout,
)

#: Width (in cycles) of the bucketed near-horizon window.  Power of two
#: so bucket indexing is a mask.  Delays shorter than this are O(1)
#: pushes; longer ones take the heap path.
BUCKET_HORIZON = 1024
_MASK = BUCKET_HORIZON - 1
_WORDS = BUCKET_HORIZON >> 6  # 64-bit occupancy words
_WMASK = _WORDS - 1
_INF = float("inf")


class Simulator:
    """A deterministic discrete-event simulator with integer cycle time.

    Parameters
    ----------
    queue:
        ``"bucket"`` (default) or ``"heap"``; both produce identical
        schedules (see the module docstring).  ``None`` selects
        :attr:`DEFAULT_QUEUE`, which the perf tier's determinism
        sentinel flips to A/B the implementations.

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

    #: Queue implementation used when the constructor gets ``queue=None``.
    DEFAULT_QUEUE = "bucket"

    def __init__(self, queue: Optional[str] = None):
        kind = queue or Simulator.DEFAULT_QUEUE
        if kind not in ("bucket", "heap"):
            raise ValueError(f"unknown queue implementation: {kind!r}")
        self.queue_kind = kind
        self.now: int = 0
        self._eid = 0
        self._stopped = False
        # ``until + 1`` while ``run(until)`` is active, else infinity:
        # the first instant the current run will not dispatch.
        self._limit = _INF
        if kind == "heap":
            self._heap: List[tuple] = []
            self._push = self._push_heap
            self._head = self._head_heap
        else:
            # Plain lists, drained with ``pop(0)``: a bucket rarely
            # holds more than a few entries, and an empty list costs 56
            # bytes where a deque pre-allocates a 64-slot block, so the
            # window takes about 60 KB instead of 0.8 MB per simulator.
            self._buckets: List[list] = [[] for _ in range(BUCKET_HORIZON)]
            # One occupancy bit per bucket, 64 buckets per word, so the
            # scan for the next non-empty bucket skips empty stretches
            # in word-sized strides.
            self._occ = [0] * _WORDS
            self._bucket_count = 0
            # Exact earliest bucketed instant (None <=> window empty);
            # maintained eagerly so peeks are O(1).
            self._next_bt: Optional[int] = None
            self._far: List[tuple] = []
            self._push = self._push_bucket
            self._head = self._head_bucket

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
        left); anything else -- including an early-succeeded event whose
        stale queue entry may still be in flight -- gets a fresh
        Timeout, which is always safe.
        """
        delay = int(delay)
        if delay < 0:
            raise ValueError(f"negative advance delay: {delay}")
        if (sleeper is not None and sleeper._state == PROCESSED
                and not sleeper.callbacks):
            sleeper._state = PENDING
            sleeper._value = None
            sleeper._ok = True
            sleeper.delay = delay
            self._push(self.now + delay, sleeper)
            return sleeper
        return Timeout(self, delay)

    def process(self, generator: Generator, name: Optional[str] = None) -> "Process":
        """Spawn a cooperative process from a generator."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing when any child event fires."""
        return AnyOf(self, list(events))

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when every child event has fired."""
        return AllOf(self, list(events))

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

    def _push_heap(self, time: int, item: Any) -> None:
        self._eid += 1
        heapq.heappush(self._heap, (time, self._eid, item))

    def _push_bucket(self, time: int, item: Any) -> None:
        self._eid += 1
        if time - self.now < BUCKET_HORIZON:
            idx = time & _MASK
            bucket = self._buckets[idx]
            if not bucket:
                # A non-empty bucket already holds entries at exactly
                # this instant (the window spans less than one wrap), so
                # the cached minimum only moves on empty-bucket pushes.
                self._occ[idx >> 6] |= 1 << (idx & 63)
                nbt = self._next_bt
                if nbt is None or time < nbt:
                    self._next_bt = time
            bucket.append(item)
            self._bucket_count += 1
        else:
            heapq.heappush(self._far, (time, self._eid, item))

    # ``_push`` is bound per-instance in ``__init__`` to the selected
    # implementation; this class-level alias keeps the attribute
    # documented and introspectable.
    _push = _push_heap

    # -- queue internals (bucket mode) ---------------------------------------
    def _scan_bucket_time(self) -> int:
        """Earliest occupied bucket instant (requires a non-empty window).

        Scans the occupancy bitmap from ``now`` forward, one 64-bucket
        word at a time; a set bit at ring position ``p`` maps back to
        the unique instant ``now + ((p - now) mod BUCKET_HORIZON)``.
        """
        occ = self._occ
        base = self.now & _MASK
        word = occ[base >> 6] >> (base & 63)
        if word:
            return self.now + ((word & -word).bit_length() - 1)
        w = base >> 6
        for off in range(1, _WORDS + 1):
            wi = (w + off) & _WMASK
            wd = occ[wi]
            if wd:
                pos = (wi << 6) + ((wd & -wd).bit_length() - 1)
                return self.now + ((pos - base) & _MASK)
        raise RuntimeError("bucket occupancy out of sync")  # pragma: no cover

    def _pop_next(self) -> tuple:
        """Remove and return ``(time, item)`` for the next queue entry."""
        if self.queue_kind == "heap":
            time, _eid, item = heapq.heappop(self._heap)
            return time, item
        nbt = self._next_bt
        far = self._far
        if far and (nbt is None or far[0][0] <= nbt):
            entry = heapq.heappop(far)
            return entry[0], entry[2]
        if nbt is None:
            raise IndexError("pop from an empty event queue")
        idx = nbt & _MASK
        bucket = self._buckets[idx]
        if not bucket:  # stale cache after an exception mid-run: heal
            self._occ[idx >> 6] &= ~(1 << (idx & 63))
            self._next_bt = self._scan_bucket_time() if self._bucket_count else None
            return self._pop_next()
        item = bucket.pop(0)
        self._bucket_count -= 1
        if not bucket:
            self._occ[idx >> 6] &= ~(1 << (idx & 63))
            self._next_bt = self._scan_bucket_time() if self._bucket_count else None
        return nbt, item

    # -- main loop -----------------------------------------------------------
    def horizon(self) -> float:
        """The earliest instant at which the engine will next dispatch
        anything: the next queued entry, capped at ``until + 1`` inside
        ``run(until)``; infinity when neither exists.

        Both queues give the same answer, also from inside a callback
        while the bucket of the current instant is being drained.  A
        bare queue callback may therefore play out, in place, work that
        would otherwise be queue entries strictly before the horizon,
        advancing ``now`` as it goes: no other entry can be dispatched
        in between (the bus run-ahead of :mod:`repro.hw.bus`).
        """
        return self._head()[0]

    def _head_heap(self) -> tuple:
        """``(time, item)`` of the entry the engine dispatches next, or
        ``(limit, None)`` when nothing is queued before the run limit
        (``until + 1`` inside ``run(until)``, else infinity).

        Valid from inside a callback, also mid-drain and after the
        callback moved ``now`` past the instant being drained (run-ahead
        never passes a queued entry, so every entry is at or after
        ``now``).  Bound per instance to the selected queue, as ``_head``.
        """
        heap = self._heap
        if heap and heap[0][0] < self._limit:
            entry = heap[0]
            return entry[0], entry[2]
        return self._limit, None

    def _head_bucket(self) -> tuple:
        far = self._far
        if self._bucket_count:
            now = self.now
            nbt = self._next_bt
            if nbt <= now:
                # Mid-drain the cached minimum still names the drained
                # instant.  Every bucketed entry lies in [now, now +
                # window), so a non-empty slot at ``now`` holds entries
                # due now; an empty one loses its stale occupancy bit,
                # and the cache is refreshed past it.
                idx = now & _MASK
                if self._buckets[idx]:
                    nbt = now
                else:
                    occ = self._occ
                    occ[idx >> 6] &= ~(1 << (idx & 63))
                    word = occ[idx >> 6] >> (idx & 63)
                    nbt = self._next_bt = (
                        now + (word & -word).bit_length() - 1 if word
                        else self._scan_bucket_time())
            if far and far[0][0] <= nbt:
                entry = far[0]
                time, item = entry[0], entry[2]
            else:
                time, item = nbt, self._buckets[nbt & _MASK][0]
        elif far:
            entry = far[0]
            time, item = entry[0], entry[2]
        else:
            return self._limit, None
        if time < self._limit:
            return time, item
        return self._limit, None

    # ``_head`` is bound per instance in ``__init__``, like ``_push``.
    _head = _head_heap

    def _pop_head(self, time: int) -> None:
        """Remove the entry :meth:`_head` reported at ``time``; ``now``
        must already be ``time``.  The caller runs it in place."""
        if self.queue_kind == "heap":
            heapq.heappop(self._heap)
            return
        far = self._far
        if far and far[0][0] == time:
            heapq.heappop(far)
            return
        idx = time & _MASK
        bucket = self._buckets[idx]
        bucket.pop(0)
        self._bucket_count -= 1
        if not bucket:
            self._occ[idx >> 6] &= ~(1 << (idx & 63))
            self._next_bt = self._scan_bucket_time() if self._bucket_count else None

    def withdraw(self, time: int, callback: Callable[[], None]) -> None:
        """Remove the queued bare ``callback`` due at ``time`` without
        running it.

        The other entries keep their order and ``_eid`` is unchanged, so
        the schedule is as if the entry had run and done nothing -- except
        that nothing is dispatched, and run-ahead is not cut at ``time``.
        Raises ``ValueError`` when no such entry is queued.
        """
        if self.queue_kind == "heap":
            heap = self._heap
            for index, entry in enumerate(heap):
                if entry[2] is callback and entry[0] == time:
                    heap[index] = heap[-1]
                    heap.pop()
                    heapq.heapify(heap)
                    return
        else:
            if time - self.now < BUCKET_HORIZON:
                idx = time & _MASK
                bucket = self._buckets[idx]
                for index, item in enumerate(bucket):
                    if item is callback:
                        del bucket[index]
                        self._bucket_count -= 1
                        if not bucket:
                            self._occ[idx >> 6] &= ~(1 << (idx & 63))
                            if self._next_bt == time:
                                self._next_bt = (self._scan_bucket_time()
                                                 if self._bucket_count else None)
                        return
            far = self._far
            for index, entry in enumerate(far):
                if entry[2] is callback and entry[0] == time:
                    far[index] = far[-1]
                    far.pop()
                    heapq.heapify(far)
                    return
        raise ValueError(f"no queued callback {callback!r} at {time}")

    def step(self) -> None:
        """Process the single next queue entry, advancing ``now``."""
        time, item = self._pop_next()
        if time < self.now:  # pragma: no cover - defensive
            raise RuntimeError("event queue time went backwards")
        self.now = time
        if isinstance(item, Event):
            if item._state == PENDING:
                # A timeout reaching its instant: trigger it now.
                item._state = TRIGGERED
            item._run_callbacks()
        else:
            item()

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
        self._limit = _INF if until is None else until + 1
        try:
            if self.queue_kind == "heap":
                self._run_heap(until)
            else:
                self._run_bucket(until)
        finally:
            self._limit = _INF

    def _run_heap(self, until: Optional[int]) -> None:
        self._stopped = False
        heap = self._heap
        while heap and not self._stopped:
            time = heap[0][0]
            if until is not None and time > until:
                break
            self.step()
        if until is not None and self.now < until:
            self.now = until

    def _run_bucket(self, until: Optional[int]) -> None:
        # The hot loop: one iteration per *instant*, draining first the
        # far heap's entries at that instant (strictly older insertion
        # ids -- see the module docstring), then the FIFO bucket.
        # Event dispatch is inlined (state flip + callback sweep) to
        # keep per-event call overhead off the critical path.  A
        # callback that ran ahead (see ``horizon``) leaves ``now`` past
        # ``t``; the drain then ends, since nothing else was due at
        # ``t``, and anything left in the slot belongs to a later lap.
        self._stopped = False
        limit = _INF if until is None else until
        buckets = self._buckets
        occ = self._occ
        far = self._far
        heappop = heapq.heappop
        event_cls = Event
        while not self._stopped:
            nbt = self._next_bt
            if far:
                ft = far[0][0]
                if nbt is None:
                    t = ft
                else:
                    t = ft if ft < nbt else nbt
            elif nbt is None:
                break  # queue drained
            else:
                t = nbt
            if t > limit:
                break
            # Idle fast-forward: nothing is scheduled between now and t,
            # so the clock jumps in one assignment.
            self.now = t
            while far and far[0][0] == t:
                item = heappop(far)[2]
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
                if self._stopped:
                    break
            if self._stopped:
                break
            if self._next_bt == t:
                idx = t & _MASK
                bucket = buckets[idx]
                while bucket:
                    item = bucket.pop(0)
                    self._bucket_count -= 1
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
                    if self._stopped or self.now != t:
                        break
                if not bucket:
                    occ[idx >> 6] &= ~(1 << (idx & 63))
                    if self._bucket_count:
                        # The first word of ``_scan_bucket_time``, inline:
                        # the next instant is usually within it.
                        now = self.now
                        base = now & _MASK
                        word = occ[base >> 6] >> (base & 63)
                        self._next_bt = (
                            now + (word & -word).bit_length() - 1 if word
                            else self._scan_bucket_time()
                        )
                    else:
                        self._next_bt = None
                elif self.now != t:
                    self._next_bt = self._scan_bucket_time()
        if until is not None and self.now < until:
            self.now = until

    def stop(self) -> None:
        """Stop the loop after the current callback returns."""
        self._stopped = True

    @property
    def pending_count(self) -> int:
        """Number of entries still in the queue (diagnostic)."""
        if self.queue_kind == "heap":
            return len(self._heap)
        return self._bucket_count + len(self._far)


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
        # are append-only (only swapped out wholesale by
        # _run_callbacks, which our recorded reference survives), so
        # the slot index stays valid and detach is O(1) even for
        # heavily-interrupted processes.
        waiting = self._waiting_on
        if waiting is not None and waiting is not event:
            self._wait_list[self._wait_slot] = None
        self._waiting_on = None
        self._wait_list = None
        generator = self._generator
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
            sim = self.sim
            sim._push(sim.now, lambda: self._resume(target))
