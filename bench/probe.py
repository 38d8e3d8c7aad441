"""Host-speed probe: a fixed, stdlib-only Python loop of about 40 ms.

The benchmark times this loop before its first timed segment and after
every segment, and divides each segment's raw time by the mean of the
two probes around it (see :mod:`bench.timing`).  The loop mixes the
operations the simulators spend their time on -- integer arithmetic,
heap pushes and pops, dict updates, method calls, generator resumption
and scattered reads over a table of a few megabytes -- so a host that
runs Python slower for a while, or starves it of cache, slows the probe
by about the same factor.

Never edit this file: the loop and :data:`PROBE_REF_S` together define
the unit of every normalised time the benchmark reports.  Changing
either one starts a new benchmark whose numbers cannot be compared with
older results.
"""

from __future__ import annotations

import heapq
import time

#: Probe time, in seconds, that normalised seconds are expressed
#: against: a segment measured while the probe takes exactly this long
#: reports its raw time unchanged.
PROBE_REF_S = 0.04

#: Loop trip count; fixed together with :data:`PROBE_REF_S`.
PROBE_ITERATIONS = 27_000

#: Entries of the table the loop walks; fixed with the loop.
PROBE_TABLE_SIZE = 1 << 16


class _Counter:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, amount: int) -> int:
        self.value = (self.value + amount) & 0xFFFFFFFF
        return self.value


def _ticker(counter: _Counter):
    total = 0
    while True:
        step = yield total
        total = counter.bump(step)


def probe_work(iterations: int = PROBE_ITERATIONS) -> int:
    """Run the probe loop once and return a checksum of its state."""
    # x -> (40501 x + 12345) mod 2**16 is a single cycle through the
    # table, so the walk visits scattered entries in a fixed order; the
    # offset keeps every entry a separate int object in memory.
    walk = [(40501 * i + 12345) % PROBE_TABLE_SIZE + PROBE_TABLE_SIZE
            for i in range(PROBE_TABLE_SIZE)]
    heap: list = []
    table: dict = {}
    counter = _Counter()
    ticker = _ticker(counter)
    next(ticker)
    acc = 0x12345678
    position = 0
    for i in range(iterations):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (acc & 0xFFFF, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        position = walk[position] - PROBE_TABLE_SIZE
        key = (acc ^ position) & 0x3FF
        table[key] = table.get(key, 0) + 1
        acc ^= ticker.send(key)
    return acc ^ len(table) ^ heap[0][0] ^ position


def measure() -> float:
    """Seconds one probe loop takes on this host right now."""
    start = time.perf_counter()
    probe_work()
    return time.perf_counter() - start
