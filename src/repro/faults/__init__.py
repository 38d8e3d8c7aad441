"""Deterministic fault injection and recovery (docs/FAULTS.md).

The tier has three pieces:

- :mod:`repro.faults.plan` -- serializable, RunCache-keyable
  :class:`FaultPlan` descriptions of *what* goes wrong and *when*;
- :mod:`repro.faults.injector` -- :class:`FaultInjector`, which arms a
  plan against a live prototype run by scheduling events through the
  sim engine and calling the explicit fault surfaces grown on the
  hardware and kernel models;
- :mod:`repro.faults.scenarios` -- picklable demo runs used by the
  fault and determinism tests and
  :func:`repro.experiments.runner.fault_campaign`.

Everything is reproducible bit-for-bit from ``(plan, seed)``: the only
randomness is the seeded generator inside :func:`random_plan`, and the
injector itself is a pure function of the plan.
"""

from repro.faults.plan import FAULT_KINDS, FaultEvent, FaultPlan, random_plan
from repro.faults.injector import FaultInjector

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "random_plan",
]
