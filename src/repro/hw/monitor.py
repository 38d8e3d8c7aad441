"""Windowed performance counters ("pattern stabilization" evidence).

The paper explains the 4-processor behaviour with "the bus and memory
access patterns have stabilized".  This monitor samples the OPB
counters (and optionally per-core busy state) on a fixed window so a
run produces a *time series* of bus utilization, transaction rate and
grant-wait, from which stabilization -- the flattening of the series
under added load -- can actually be observed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.hw.bus import OPBBus
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class BusSample:
    """Counters over one sampling window."""

    start: int
    end: int
    busy_cycles: int
    transactions: int
    wait_cycles: int

    @property
    def utilization(self) -> float:
        """Busy fraction, clamped to 1.0 (a transaction straddling the
        window boundary is charged to the window it completes in)."""
        width = self.end - self.start
        return min(1.0, self.busy_cycles / width) if width > 0 else 0.0

    @property
    def mean_wait(self) -> float:
        return self.wait_cycles / self.transactions if self.transactions else 0.0


class BusMonitor:
    """Samples an OPB bus every ``window`` cycles.

    Start it before running the simulation; the samples accumulate in
    :attr:`samples`.  Derivative counters are window-differenced from
    the bus's cumulative statistics.
    """

    def __init__(self, sim: Simulator, bus: OPBBus, window: int):
        if window <= 0:
            raise ValueError("window must be positive")
        self.sim = sim
        self.bus = bus
        self.window = window
        self.samples: List[BusSample] = []
        self._last_busy = 0
        self._last_txn = 0
        self._last_wait = 0
        self._running = False

    def start(self) -> None:
        if self._running:
            raise RuntimeError("monitor already running")
        self._running = True
        self._snapshot_baseline()
        self.sim.schedule(self.window, self._sample)

    def stop(self) -> None:
        self._running = False

    def _snapshot_baseline(self) -> None:
        self._last_busy = self.bus.stats.busy_cycles
        self._last_txn = self.bus.stats.transactions
        self._last_wait = sum(self.bus.stats.wait_cycles.values())

    def _sample(self) -> None:
        if not self._running:
            return
        busy = self.bus.stats.busy_cycles
        txn = self.bus.stats.transactions
        wait = sum(self.bus.stats.wait_cycles.values())
        self.samples.append(
            BusSample(
                start=self.sim.now - self.window,
                end=self.sim.now,
                busy_cycles=busy - self._last_busy,
                transactions=txn - self._last_txn,
                wait_cycles=wait - self._last_wait,
            )
        )
        self._last_busy, self._last_txn, self._last_wait = busy, txn, wait
        self.sim.schedule(self.window, self._sample)

    # ------------------------------------------------------------------ views
    def utilization_series(self) -> List[float]:
        return [s.utilization for s in self.samples]

    def peak_utilization(self) -> float:
        return max((s.utilization for s in self.samples), default=0.0)

    def steady_state_utilization(self, skip: int = 1) -> float:
        """Mean utilization after discarding ``skip`` warm-up windows."""
        tail = self.samples[skip:]
        if not tail:
            return 0.0
        return sum(s.utilization for s in tail) / len(tail)

    def sparkline(self, width: int = 60) -> str:
        """Tiny ASCII chart of the utilization series."""
        series = self.utilization_series()
        if not series:
            return "(no samples)"
        if len(series) > width:
            stride = len(series) / width
            series = [series[int(i * stride)] for i in range(width)]
        glyphs = " .:-=+*#%@"
        return "".join(
            glyphs[min(len(glyphs) - 1, int(value * (len(glyphs) - 1) + 0.5))]
            for value in series
        )
