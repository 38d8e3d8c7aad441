"""Synthetic task-set generation (UUniFast and friends).

Used by the property tests and the ablation benchmarks to exercise the
analysis and the schedulers over a wide parameter space with explicit
seeds (determinism is a package-wide rule).
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.core.task import AperiodicTask, PeriodicTask, TaskSet


def uunifast(n: int, total_utilization: float, rng: random.Random) -> List[float]:
    """Bini & Buttazzo's UUniFast: n utilizations summing to the total.

    Produces an unbiased uniform sample over the simplex, the standard
    generator in the real-time literature.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if total_utilization <= 0:
        raise ValueError("total utilization must be positive")
    utilizations = []
    remaining = total_utilization
    for i in range(1, n):
        next_remaining = remaining * rng.random() ** (1.0 / (n - i))
        utilizations.append(remaining - next_remaining)
        remaining = next_remaining
    utilizations.append(remaining)
    return utilizations


def random_periods(
    n: int,
    rng: random.Random,
    minimum: int = 10_000,
    maximum: int = 1_000_000,
    granularity: int = 1_000,
) -> List[int]:
    """Log-uniform periods rounded to ``granularity`` cycles.

    Log-uniform sampling avoids the unrealistically harmonic sets a
    plain uniform draw tends to produce.
    """
    if minimum <= 0 or maximum < minimum:
        raise ValueError("need 0 < minimum <= maximum")
    import math

    periods = []
    for _ in range(n):
        value = math.exp(rng.uniform(math.log(minimum), math.log(maximum)))
        period = max(granularity, int(round(value / granularity)) * granularity)
        periods.append(period)
    return periods


def random_taskset(
    n_periodic: int,
    total_utilization: float,
    seed: int,
    n_aperiodic: int = 0,
    aperiodic_wcet: Optional[int] = None,
    deadline_factor: float = 1.0,
    min_period: int = 10_000,
    max_period: int = 1_000_000,
) -> TaskSet:
    """A reproducible random task set.

    Parameters
    ----------
    deadline_factor:
        D_i = max(C_i, deadline_factor * T_i); 1.0 gives implicit
        deadlines, smaller values constrained deadlines.
    """
    if not 0 < deadline_factor <= 1.0:
        raise ValueError("deadline_factor must be in (0, 1]")
    rng = random.Random(seed)
    utilizations = uunifast(n_periodic, total_utilization, rng)
    periods = random_periods(n_periodic, rng, minimum=min_period, maximum=max_period)
    periodic = []
    for i, (u, period) in enumerate(zip(utilizations, periods)):
        wcet = max(1, int(round(u * period)))
        if wcet > period:  # extreme draw; clamp to a feasible task
            wcet = period
        deadline = max(wcet, min(period, int(round(period * deadline_factor))))
        periodic.append(
            PeriodicTask(
                name=f"p{i}",
                wcet=wcet,
                period=period,
                deadline=deadline,
            )
        )
    aperiodic = []
    for i in range(n_aperiodic):
        wcet = aperiodic_wcet or max(1, int(rng.uniform(0.05, 0.3) * min_period))
        aperiodic.append(AperiodicTask(name=f"a{i}", wcet=wcet))
    return TaskSet(periodic, aperiodic).with_deadline_monotonic_priorities()
