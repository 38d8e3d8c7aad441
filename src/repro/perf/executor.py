"""Parallel map over independent experiment cells.

Every cell of the evaluation grid -- a (n_cpus, workload, seed,
ablation) point -- is an independent simulation, so the sweep loops
are embarrassingly parallel.  :func:`pmap` fans a picklable function
out over a :class:`~concurrent.futures.ProcessPoolExecutor` in index
chunks and reassembles the results in submission order, so the output
is **bit-for-bit identical** to a serial ``[fn(x) for x in items]``.

Fallback rules (all silent, all order-preserving):

- ``max_workers`` of ``None``/``0`` means "one worker per CPU";
  ``1`` (the default everywhere) runs serially in-process;
- closures and other non-picklable callables/items run serially --
  the ablation sweeps in :mod:`repro.experiments.runner` close over
  local state and hit this path by design;
- a single item is never worth a worker process.

The optional ``stats`` dict reports which path ran, for the timing
harness and the equivalence tests.

Cross-process observability rides the same chunks: pass a
:class:`Telemetry` and every worker records into its own fresh
:class:`~repro.obs.metrics.MetricsRegistry` and
:class:`~repro.obs.spans.SpanRecorder` (reachable from instrumented
code via :func:`current_telemetry`), ships the snapshots home with the
chunk result, and the parent folds them back **in chunk order** --
so a merged parallel run's metrics equal the serial run's bit for bit
(``tests/perf/test_telemetry.py``).  With no telemetry the only cost is
a ``None`` default argument.
"""

from __future__ import annotations

import math
import os
import pickle
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder

T = TypeVar("T")
R = TypeVar("R")


class Telemetry:
    """One run's collection context: a metrics registry + span recorder.

    The parent process owns one; workers build their own throwaway
    instance per chunk and the parent merges the pieces back.  Both
    sides reach the active instance through :func:`current_telemetry`,
    which is ``None`` on every uninstrumented path.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        spans: Optional[SpanRecorder] = None,
        worker: str = "main",
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans = spans if spans is not None else SpanRecorder(process=worker)
        self.worker = worker


#: The telemetry installed for the currently running (serial slice or
#: worker chunk) of a collected ``pmap``; ``None`` everywhere else.
_ACTIVE: Optional[Telemetry] = None


def current_telemetry() -> Optional[Telemetry]:
    """The in-scope :class:`Telemetry`, or ``None`` when not collecting."""
    return _ACTIVE


class _installed:
    """Context manager swapping the active telemetry in and out."""

    def __init__(self, telemetry: Optional[Telemetry]):
        self._telemetry = telemetry
        self._previous: Optional[Telemetry] = None

    def __enter__(self):
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self._telemetry
        return self._telemetry

    def __exit__(self, *exc):
        global _ACTIVE
        _ACTIVE = self._previous


def default_workers() -> int:
    """One worker per available CPU (at least 1)."""
    return os.cpu_count() or 1


def picklable(obj: Any) -> bool:
    """True when ``obj`` survives pickling (process-pool requirement)."""
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


def chunk_indices(n_items: int, chunksize: int) -> List[range]:
    """Split ``range(n_items)`` into contiguous chunks of ``chunksize``."""
    if chunksize < 1:
        raise ValueError("chunksize must be >= 1")
    return [range(i, min(i + chunksize, n_items)) for i in range(0, n_items, chunksize)]


def _run_chunk(fn: Callable[[T], R], chunk: Sequence[T]) -> List[R]:
    """Worker-side body: evaluate one contiguous chunk in order."""
    return [fn(item) for item in chunk]


def _run_chunk_collected(
    fn: Callable[[T], R], chunk: Sequence[T]
) -> Tuple[List[R], MetricsRegistry, List[Dict[str, Any]], str]:
    """Worker-side body with telemetry: run the chunk under a fresh
    registry/recorder and return their contents with the results."""
    label = f"worker-{os.getpid()}"
    telemetry = Telemetry(worker=label)
    with _installed(telemetry):
        results = [fn(item) for item in chunk]
    return results, telemetry.metrics, telemetry.spans.to_rows(), label


def pmap(
    fn: Callable[[T], R],
    items: Iterable[T],
    max_workers: Optional[int] = 1,
    chunksize: Optional[int] = None,
    stats: Optional[Dict[str, Any]] = None,
    telemetry: Optional[Telemetry] = None,
) -> List[R]:
    """``[fn(x) for x in items]``, optionally across worker processes.

    Results always come back in input order regardless of which worker
    finished first, so callers can rely on parallel output being
    identical to serial output.  With ``telemetry``, worker-recorded
    metrics and spans come back too, merged in chunk order (see the
    module docstring).
    """
    items = list(items)
    workers = default_workers() if not max_workers else int(max_workers)
    workers = min(workers, len(items))

    def serial(mode: str) -> List[R]:
        if stats is not None:
            stats.update(mode=mode, workers=1, chunks=len(items))
        with _installed(telemetry if telemetry is not None else _ACTIVE):
            return [fn(item) for item in items]

    if workers <= 1:
        return serial("serial")
    if not picklable(fn) or not picklable(items):
        return serial("serial-unpicklable")

    if chunksize is None:
        # ~4 chunks per worker balances load against submit overhead.
        chunksize = max(1, math.ceil(len(items) / (workers * 4)))
    chunks = [[items[i] for i in index_range]
              for index_range in chunk_indices(len(items), chunksize)]
    body = _run_chunk_collected if telemetry is not None else _run_chunk
    results: List[Optional[Any]] = [None] * len(chunks)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(body, fn, chunk): position
                   for position, chunk in enumerate(chunks)}
        wait(futures, return_when=FIRST_EXCEPTION)
        for future, position in futures.items():
            results[position] = future.result()  # re-raises worker errors
    if stats is not None:
        stats.update(mode="parallel", workers=workers, chunks=len(chunks))
    ordered: List[R] = []
    if telemetry is not None:
        # Fold worker telemetry home in chunk (= submission) order so
        # the merged registry matches a serial run bit for bit.
        for chunk_result, registry, span_rows, label in results:
            ordered.extend(chunk_result)
            telemetry.metrics.merge(registry)
            telemetry.spans.graft(span_rows, process=label)
    else:
        for chunk_result in results:
            ordered.extend(chunk_result)
    return ordered
