"""repro.perf -- throughput machinery for the experiment harness.

Two pieces, designed so that using them never changes a result:

- :mod:`repro.perf.executor` -- :func:`pmap`, a process-pool map with
  chunking, serial fallback and index-ordered reassembly (parallel
  output is bit-for-bit identical to serial);
- :mod:`repro.perf.cache` -- :class:`RunCache`, a content-addressed
  on-disk cache keyed by a stable hash of (task-set rows, simulator
  config, seed, package version), with hit/miss statistics.

:mod:`repro.perf.isabench` holds the asmlib kernel drivers and the
observable record the two ISA interpreters must agree on.  Timings
live in the benchmark under ``bench/`` (``python -m bench run``; see
``bench/README.md``), not in this package.

The experiment entry points (:func:`repro.experiments.runner.sweep`,
:func:`repro.experiments.figure4.figure4_sweep`,
:func:`repro.simulators.batch.replicate`) all accept ``max_workers``
and ``cache`` arguments wired to this package.
"""

from repro.perf.cache import RunCache, cache_key, fingerprint, taskset_rows
from repro.perf.executor import default_workers, picklable, pmap

__all__ = [
    "pmap",
    "default_workers",
    "picklable",
    "RunCache",
    "cache_key",
    "fingerprint",
    "taskset_rows",
]
