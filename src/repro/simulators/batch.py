"""Replication framework: confidence intervals for response times.

The paper reports *average* response times.  One run is one sample;
this module runs a family of independent replications (different
aperiodic arrival phases and/or workload seeds), aggregates the
response-time samples and reports mean, spread and a t-distribution
confidence interval -- the statistics a careful reader would want next
to Figure 4's bars.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.perf.cache import RunCache, cache_key
from repro.perf.executor import cached_pmap

#: Two-sided 95 % t critical values for small sample sizes (df 1..30).
_T95 = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
]


def t_critical_95(df: int) -> float:
    """Two-sided 95 % Student-t critical value (normal beyond df 30)."""
    if df < 1:
        raise ValueError("df must be >= 1")
    if df <= len(_T95):
        return _T95[df - 1]
    return 1.96


@dataclass
class ReplicationSummary:
    """Aggregate over independent replications of one measurement."""

    label: str
    samples: List[float] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            raise ValueError(f"{self.label}: no samples")
        return statistics.fmean(self.samples)

    @property
    def stdev(self) -> float:
        return statistics.stdev(self.samples) if self.n > 1 else 0.0

    @property
    def half_width_95(self) -> float:
        """Half width of the 95 % confidence interval of the mean."""
        if self.n < 2:
            return float("inf") if self.n < 1 else 0.0
        return t_critical_95(self.n - 1) * self.stdev / math.sqrt(self.n)

    @property
    def interval_95(self) -> tuple:
        half = self.half_width_95
        return (self.mean - half, self.mean + half)

    def format(self, unit: str = "") -> str:
        if self.n == 0:
            return f"{self.label}: (no samples)"
        lo, hi = self.interval_95
        return (
            f"{self.label}: mean {self.mean:.4g}{unit} "
            f"(n={self.n}, sd {self.stdev:.3g}, 95% CI [{lo:.4g}, {hi:.4g}])"
        )


def _sample(measure: Callable[[int], float], seed: int) -> float:
    """One replication, coerced to float on the worker side."""
    return float(measure(seed))


def replicate(
    label: str,
    measure: Callable[[int], float],
    replications: int,
    seeds: Optional[Sequence[int]] = None,
    max_workers: int = 1,
    cache: Optional[RunCache] = None,
    cache_tag: Optional[str] = None,
) -> ReplicationSummary:
    """Run ``measure(seed)`` for each replication and aggregate.

    ``seeds`` defaults to 0..replications-1; determinism is preserved
    because the seed is the only varying input.  Replications are
    independent, so ``max_workers > 1`` fans them out over worker
    processes (picklable measures only; closures run serially) with
    samples reassembled in seed order -- identical to a serial run.
    With a ``cache``, samples are keyed by (tag, seed, package
    version) and only missing seeds are computed
    (:func:`~repro.perf.executor.cached_pmap`); ``cache_tag``
    defaults to the label.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    if seeds is None:
        seeds = list(range(replications))
    else:
        seeds = list(seeds)
        if len(seeds) != replications:
            raise ValueError("seeds length must equal replications")
    samples = cached_pmap(
        functools.partial(_sample, measure),
        seeds,
        max_workers=max_workers,
        cache=cache,
        keys=None if cache is None else [
            cache_key(kind="replicate", tag=cache_tag or label, seed=seed)
            for seed in seeds
        ],
    )
    return ReplicationSummary(label=label, samples=samples)


def compare(
    a: ReplicationSummary, b: ReplicationSummary
) -> dict:
    """Welch-style comparison of two summaries.

    Returns the difference of means, its approximate 95 % half-width
    and whether the intervals allow calling a winner.
    """
    if a.n < 2 or b.n < 2:
        raise ValueError("need at least 2 samples per side")
    diff = a.mean - b.mean
    se = math.sqrt(a.stdev ** 2 / a.n + b.stdev ** 2 / b.n)
    # Welch-Satterthwaite df, floored at 1.
    if se == 0:
        return {"difference": diff, "half_width": 0.0, "significant": diff != 0}
    num = (a.stdev ** 2 / a.n + b.stdev ** 2 / b.n) ** 2
    den = (
        (a.stdev ** 2 / a.n) ** 2 / max(1, a.n - 1)
        + (b.stdev ** 2 / b.n) ** 2 / max(1, b.n - 1)
    )
    df = max(1, int(num / den)) if den > 0 else 1
    half = t_critical_95(df) * se
    return {
        "difference": diff,
        "half_width": half,
        "significant": abs(diff) > half,
    }
