"""repro.perf -- throughput machinery for the experiment harness.

Two pieces, designed so that using them never changes a result:

- :mod:`repro.perf.executor` -- :func:`pmap`, a process-pool map with
  chunking, serial fallback and index-ordered reassembly (parallel
  output is bit-for-bit identical to serial), and :func:`cached_pmap`,
  the same map behind a run cache;
- :mod:`repro.perf.cache` -- :class:`RunCache`, a content-addressed
  on-disk cache keyed by a stable hash of the run's spec (a sweep's
  tag and grid point, a replication's tag and seed) plus the package
  version, with hit/miss statistics.

:mod:`repro.perf.isabench` holds the asmlib kernel drivers and the
observable record the two ISA interpreters must agree on.  Timings
live in the benchmark under ``bench/`` (``python -m bench run``; see
``bench/README.md``), not in this package.

The experiment entry points (:func:`repro.experiments.runner.sweep`,
:func:`repro.experiments.figure4.figure4_sweep`,
:func:`repro.simulators.batch.replicate`) all accept ``max_workers``
and ``cache`` arguments and run through :func:`cached_pmap`.
"""

from repro.perf.cache import RunCache, cache_key, fingerprint
from repro.perf.executor import cached_pmap, default_workers, picklable, pmap

__all__ = [
    "pmap",
    "cached_pmap",
    "default_workers",
    "picklable",
    "RunCache",
    "cache_key",
    "fingerprint",
]
