"""Benchmark: observability overhead on the Figure 4 hot path.

Times one Figure 4 prototype cell uninstrumented (the default every
experiment uses) and fully instrumented (``prototype_run_report``:
metrics registry, ring-buffer trace and windowed bus monitor) on the
same host, and holds the instrumented run under twice the
uninstrumented one.  Both sides are timed here, so the ratio holds on
any host; absolute wall clocks per PR are the ``fig4-proto`` workload
of the benchmark in ``bench/``.
"""

import time

import pytest

from repro.experiments.runner import prototype_response_s, prototype_run_report

pytestmark = pytest.mark.obs

REPEATS = 3
CELL = dict(n_cpus=2, utilization=0.5, scale=1_000)


def _best_of(fn) -> float:
    """Minimum wall clock over ``REPEATS`` calls: noise only adds time."""
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        fn(**CELL)
        best = min(best, time.perf_counter() - started)
    return best


def test_enabled_instrumentation_is_bounded(report):
    disabled_s = _best_of(prototype_response_s)
    enabled_s = _best_of(prototype_run_report)
    overhead = enabled_s / disabled_s - 1.0
    report.append(
        f"[Obs] figure4 cell 2P/50%, best of {REPEATS}: disabled "
        f"{disabled_s:.3f}s, enabled {enabled_s:.3f}s ({overhead:+.1%})"
    )
    # The instrumented run does strictly more work; it must still be
    # the same order of magnitude or the hooks are on a hot path they
    # should not be on.
    assert overhead < 1.0, (
        f"instrumented run is {overhead:+.1%} vs disabled -- "
        f"observability must not double the simulation cost"
    )
