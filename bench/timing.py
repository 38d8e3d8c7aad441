"""Probe-normalised timing of benchmark operations, and spread statistics.

Ops run in *segments*: one long op, or a batch of short ops adding up
to at least :data:`MIN_SEGMENT_S` of raw time.  The host-speed probe
(:mod:`bench.probe`) is timed before the first segment and after every
segment, and each op's raw time becomes normalised seconds::

    normalised_s = raw_s * PROBE_REF_S / mean(probe before, probe after)

so a host that slows down for a while slows the probes around a segment
by the same factor and the normalised time stays put.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Callable, Dict, List, Sequence, Tuple

from bench import probe

#: Shortest raw segment between two probes; with a ~40 ms probe this
#: keeps probe overhead under a tenth of the measured time.
MIN_SEGMENT_S = 0.5


def normalise(raw_s: float, probe_before_s: float, probe_after_s: float,
              ref_s: float = probe.PROBE_REF_S) -> float:
    """Raw seconds expressed at the reference probe speed."""
    return raw_s * ref_s / ((probe_before_s + probe_after_s) / 2.0)


def pinned_probe(cpu: int) -> float:
    """One probe on CPU ``cpu``, in a pool worker (pins the worker)."""
    os.sched_setaffinity(0, {cpu})
    return probe.measure()


class SegmentTimer:
    """Times keyed ops in probe-bracketed segments.

    ``raw[key]`` and ``norm[key]`` hold one sample per execution of the
    op, in execution order; ``probes`` holds every probe sample.
    """

    def __init__(self, min_segment_s: float = MIN_SEGMENT_S,
                 measure_probe: Callable[[], float] = probe.measure,
                 clock: Callable[[], float] = time.perf_counter,
                 ref_s: float = probe.PROBE_REF_S):
        self.min_segment_s = min_segment_s
        self.ref_s = ref_s
        self._measure_probe = measure_probe
        self._clock = clock
        self.probes: List[float] = []
        self.raw: Dict[str, List[float]] = {}
        self.norm: Dict[str, List[float]] = {}
        self._pending: List[Tuple[str, float]] = []
        self._pending_s = 0.0

    def start(self) -> None:
        """Take the probe before the first segment, if not yet taken.

        Call it before the first op, so a probe that fails stops the run
        instead of failing an op.
        """
        if not self.probes:
            self.probes.append(self._measure_probe())

    def run(self, key: str, fn: Callable[[], object]) -> object:
        """Time ``fn()`` as one execution of op ``key``; return its result.

        The time is recorded even when ``fn`` raises, so a failing op
        still costs what it cost.
        """
        self.start()
        start = self._clock()
        try:
            return fn()
        finally:
            raw = self._clock() - start
            self._pending.append((key, raw))
            self._pending_s += raw
            if self._pending_s >= self.min_segment_s:
                self.close()

    def close(self) -> None:
        """End the open segment: probe, then normalise its ops."""
        if not self._pending:
            return
        before = self.probes[-1]
        after = self._measure_probe()
        self.probes.append(after)
        for key, raw in self._pending:
            self.raw.setdefault(key, []).append(raw)
            self.norm.setdefault(key, []).append(
                normalise(raw, before, after, self.ref_s))
        self._pending = []
        self._pending_s = 0.0

    def median_norm_s(self) -> Dict[str, float]:
        """Median normalised seconds of each op."""
        return {key: statistics.median(values)
                for key, values in self.norm.items()}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one value)."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(median)
