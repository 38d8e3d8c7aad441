"""Exact simulated counters and boundary spans, read through public APIs.

:class:`Instruments` wraps the public ``run`` method of every simulator
rung so that each run, finished or failed, adds its ``stats()``, bus
statistics, simulated cycles and finished-job count to one counter
table.  The workloads run each simulator object once, so the cumulative
per-object statistics are added exactly once.

With a :class:`~repro.obs.spans.SpanRecorder` (traced runs only) the
same wrappers, plus ones on ``RunCache.lookup``/``put`` and
``Ledger.append``, record a span per call.  Calls the workloads make
directly open their spans through :meth:`Instruments.span`.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
from collections import Counter
from typing import Callable, Dict, Iterator, Optional

from repro.obs.ledger import Ledger
from repro.obs.spans import SpanRecorder
from repro.perf.cache import RunCache
from repro.simulators import (
    MultiprocessorSimulator,
    PrototypeSimulator,
    TheoreticalSimulator,
    TLMSimulator,
)


def _after_prototype(sim, counters: Counter) -> None:
    stats = sim.stats()
    bus = sim.soc.bus.stats
    counters["kernel.context_switches"] += stats["context_switches"]
    counters["kernel.scheduling_cycles"] += stats["scheduling_cycles"]
    counters["kernel.irqs_serviced"] += stats["irqs_serviced"]
    counters["hw.bus.transactions"] += bus.transactions
    counters["hw.bus.wait_cycles"] += sum(bus.wait_cycles.values())
    counters["hw.bus.busy_cycles"] += bus.busy_cycles
    counters["hw.intc.delivered"] += stats["mpic_delivered"]
    counters["hw.intc.ipis"] += stats["ipis"]
    counters["hw.intc.timeouts"] += stats["mpic_timeouts"]
    counters["prototype.cycles"] += sim.soc.sim.now
    counters["jobs"] += len(sim.finished_jobs)


def _after_tlm(sim, counters: Counter) -> None:
    stats = sim.stats()
    counters["simulators.tlm.transactions"] += stats["tlm_transactions"]
    counters["simulators.tlm.contention_wait_cycles"] += (
        stats["tlm_contention_wait_cycles"])
    counters["jobs"] += len(sim.finished_jobs)


def _after_theoretical(sim, counters: Counter) -> None:
    counters["simulators.theoretical.context_switches"] += (
        sim.stats()["context_switches"])
    counters["jobs"] += len(sim.finished_jobs)


def _after_baseline(sim, counters: Counter) -> None:
    counters["jobs"] += len(sim.finished)


class Instruments:
    """Counter table plus optional span recorder for one workload run."""

    def __init__(self) -> None:
        self.counters: Counter = Counter()
        #: Set to a recorder to record spans (traced passes only).
        self.spans: Optional[SpanRecorder] = None
        #: The traced pass's profiler, paused while a span is recorded
        #: so the benchmark's own bookkeeping is not charged to ``obs``.
        self.profiler: Optional[cProfile.Profile] = None

    def span(self, name: str, **attrs):
        """A span on the recorder, or a no-op context when not tracing."""
        if self.spans is None:
            return contextlib.nullcontext()
        return self._span(name, attrs)

    @contextlib.contextmanager
    def _span(self, name: str, attrs: dict) -> Iterator:
        with self._paused():
            span = self.spans.begin(name, **attrs)
        try:
            yield span
        finally:
            with self._paused():
                self.spans.end(span)

    @contextlib.contextmanager
    def _paused(self) -> Iterator[None]:
        if self.profiler is None:
            yield
            return
        self.profiler.disable()
        try:
            yield
        finally:
            self.profiler.enable()

    def snapshot(self) -> Dict[str, int]:
        return dict(self.counters)

    def delta(self, before: Dict[str, int]) -> Dict[str, int]:
        """Counters that moved since ``before``, sorted by name."""
        return {name: value - before.get(name, 0)
                for name, value in sorted(self.counters.items())
                if value != before.get(name, 0)}

    @contextlib.contextmanager
    def installed(self) -> Iterator["Instruments"]:
        """Wrap the public methods for the duration of the block."""
        targets = [
            (PrototypeSimulator, "run", _after_prototype),
            (TLMSimulator, "run", _after_tlm),
            (TheoreticalSimulator, "run", _after_theoretical),
            (MultiprocessorSimulator, "run", _after_baseline),
            (RunCache, "lookup", None),
            (RunCache, "put", None),
            (Ledger, "append", None),
        ]
        originals = []
        try:
            for cls, attr, after in targets:
                original = cls.__dict__[attr]
                originals.append((cls, attr, original))
                setattr(cls, attr, self._wrap(f"{cls.__name__}.{attr}",
                                              original, after))
            yield self
        finally:
            for cls, attr, original in originals:
                setattr(cls, attr, original)

    def _wrap(self, name: str, original: Callable,
              after: Optional[Callable]) -> Callable:
        instruments = self

        @functools.wraps(original)
        def wrapper(obj, *args, **kwargs):
            with instruments.span(name):
                try:
                    return original(obj, *args, **kwargs)
                finally:
                    if after is not None:
                        after(obj, instruments.counters)

        return wrapper
