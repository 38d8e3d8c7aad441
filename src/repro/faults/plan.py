"""Serializable fault plans.

A :class:`FaultPlan` is the unit of reproducibility for the fault
tier: a frozen, JSON-round-trippable description of every fault to
inject into one run.  Plans are plain dataclasses so
:func:`repro.perf.cache.cache_key` canonicalises them directly --
campaign cells are cached under ``(plan, kernel config)`` keys.

Fault vocabulary (the ``kind`` field):

==================  ====================================================
kind                meaning (``arg`` / ``duration`` use)
==================  ====================================================
``ipi_drop``        IPIs sent in ``[time, time+duration]`` are lost
``ipi_duplicate``   ... are delivered twice
``ipi_delay``       ... are deferred by ``arg`` cycles
``bus_stall``       the OPB is hogged for ``duration`` cycles
``timer_glitch``    the next ``arg`` timer ticks raise no interrupt
``bitflip_memory``  one SEU: bit ``arg`` of word ``addr`` flips -- in
                    cpu ``cpu``'s local BRAM when ``cpu`` is given and
                    ``addr`` lies in it, otherwise in DDR
``bitflip_register``register upset on cpu ``cpu``; corrupts the running
                    task's output (crash fault) if one is running
``wcet_overrun``    task ``task``'s next segment runs ``arg`` extra cycles
``task_crash``      task ``task``'s next completion is corrupted
==================  ====================================================
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

#: Every fault kind the injector understands.
FAULT_KINDS = (
    "ipi_drop",
    "ipi_duplicate",
    "ipi_delay",
    "bus_stall",
    "timer_glitch",
    "bitflip_memory",
    "bitflip_register",
    "wcet_overrun",
    "task_crash",
)

#: Base address of the SoC's DDR (:class:`repro.hw.memory.DDRMemory`),
#: where :func:`random_plan` lands its memory bit flips.
DDR_BASE = 0x4000_0000

#: Kinds consumed at the kernel level (the ones the fault-aware
#: response-time analysis models as re-execution overhead).
KERNEL_KINDS = ("wcet_overrun", "task_crash", "bitflip_register")


def _is_int(value) -> bool:
    """True for a plain integer (``bool`` is an int subclass, not one)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class FaultEvent:
    """One fault at one instant."""

    kind: str
    time: int
    cpu: Optional[int] = None
    task: Optional[str] = None
    addr: Optional[int] = None
    duration: int = 0
    arg: int = 0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        for field in ("time", "duration", "arg"):
            if not _is_int(getattr(self, field)):
                raise ValueError(
                    f"fault {field} must be an int, got {getattr(self, field)!r}")
        for field in ("cpu", "addr"):
            value = getattr(self, field)
            if value is not None and not _is_int(value):
                raise ValueError(f"fault {field} must be an int or null, got {value!r}")
        if self.task is not None and not isinstance(self.task, str):
            raise ValueError(f"fault task must be a string or null, got {self.task!r}")
        if self.time < 0:
            raise ValueError("fault time must be non-negative")
        if self.kind.startswith("ipi_") and self.duration <= 0:
            raise ValueError(f"{self.kind} needs a positive window duration")
        if self.kind == "ipi_delay" and self.arg <= 0:
            raise ValueError("ipi_delay needs arg > 0 delay cycles")
        if self.kind == "bus_stall" and self.duration <= 0:
            raise ValueError("bus_stall needs a positive duration")
        if self.kind == "timer_glitch" and self.arg <= 0:
            raise ValueError("timer_glitch needs arg >= 1 ticks")
        if self.kind == "bitflip_memory":
            if self.addr is None:
                raise ValueError("bitflip_memory needs an addr")
            if not 0 <= self.arg < 32:
                raise ValueError("bitflip_memory bit must be in [0, 32)")
        if self.kind == "bitflip_register" and self.cpu is None:
            raise ValueError("bitflip_register needs a cpu")
        if self.kind in ("wcet_overrun", "task_crash") and not self.task:
            raise ValueError(f"{self.kind} needs a task name")
        if self.kind == "wcet_overrun" and self.arg <= 0:
            raise ValueError("wcet_overrun needs arg > 0 extra cycles")

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "time": self.time}
        for key in ("cpu", "task", "addr"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.duration:
            out["duration"] = self.duration
        if self.arg:
            out["arg"] = self.arg
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultEvent":
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown fault event field(s) {unknown}")
        missing = [field for field in ("kind", "time") if field not in data]
        if missing:
            raise ValueError(f"fault event needs field(s) {missing}")
        return cls(**dict(data))


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of fault events plus the seed that produced it.

    The plan is the *entire* fault input to a run: replaying the same
    plan against the same kernel configuration reproduces the run
    bit for bit.  ``events`` keep their given order; the injector
    schedules them in that order, so ties at the same cycle resolve by
    plan position (the engine's insertion-order tie-break).
    """

    events: Tuple[FaultEvent, ...] = ()
    seed: int = 0
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise TypeError("plan events must be FaultEvent instances")

    def __len__(self) -> int:
        return len(self.events)

    @property
    def is_empty(self) -> bool:
        return not self.events

    def kernel_events(self) -> Tuple[FaultEvent, ...]:
        """Events consumed at the kernel level (see ``KERNEL_KINDS``)."""
        return tuple(e for e in self.events if e.kind in KERNEL_KINDS)

    def min_interarrival(self) -> Optional[int]:
        """Smallest gap between consecutive kernel-level fault times.

        This is the empirical counterpart of
        :class:`repro.analysis.schedulability.FaultModel.min_interarrival`:
        a plan is covered by a model with ``F`` iff this gap is >= F.
        Returns None with fewer than two kernel-level events.
        """
        times = sorted(e.time for e in self.kernel_events())
        if len(times) < 2:
            return None
        return min(b - a for a, b in zip(times, times[1:]))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultPlan":
        if not isinstance(data, Mapping):
            raise ValueError(f"fault plan must be an object, got {data!r}")
        events = data.get("events", ())
        if not isinstance(events, (list, tuple)):
            raise ValueError(f"fault plan events must be a list, got {events!r}")
        for index, event in enumerate(events):
            if not isinstance(event, Mapping):
                raise ValueError(
                    f"fault plan events[{index}] must be an object, got {event!r}")
        return cls(
            events=tuple(FaultEvent.from_dict(event) for event in events),
            seed=int(data.get("seed", 0)),
            name=str(data.get("name", "")),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


def random_plan(
    seed: int,
    horizon: int,
    tasks: Mapping[str, int],
    n_cpus: int = 2,
    n_faults: int = 4,
    kinds: Sequence[str] = KERNEL_KINDS[:2],
    min_gap: int = 0,
    start: int = 1_000,
    name: str = "",
) -> FaultPlan:
    """A seeded random plan -- the campaign workhorse.

    ``tasks`` maps task name -> WCET; overrun magnitudes are capped at
    the target task's WCET so plans stay within the re-execution cost
    the fault-aware analysis budgets for one fault.  ``min_gap``
    enforces a minimum spacing between fault times, letting campaigns
    generate plans covered by a ``FaultModel`` with that
    inter-arrival.  Same arguments -> identical plan.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if not tasks:
        raise ValueError("random_plan needs at least one task")
    for kind in kinds:
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
    rng = random.Random(seed)
    names = sorted(tasks)
    events = []
    time = start
    for _ in range(n_faults):
        time += min_gap + rng.randrange(max(1, (horizon - start) // max(1, n_faults)))
        if time >= horizon:
            break
        kind = rng.choice(list(kinds))
        task = rng.choice(names)
        if kind == "wcet_overrun":
            extra = max(1, rng.randrange(max(2, tasks[task])))
            events.append(FaultEvent(kind=kind, time=time, task=task, arg=extra))
        elif kind == "task_crash":
            events.append(FaultEvent(kind=kind, time=time, task=task))
        elif kind == "bitflip_register":
            events.append(FaultEvent(kind=kind, time=time, cpu=rng.randrange(n_cpus)))
        elif kind == "timer_glitch":
            events.append(FaultEvent(kind=kind, time=time, arg=1))
        elif kind == "bus_stall":
            events.append(
                FaultEvent(kind=kind, time=time, duration=rng.randrange(100, 2_000))
            )
        elif kind == "bitflip_memory":
            events.append(
                FaultEvent(
                    kind=kind, time=time,
                    addr=DDR_BASE + 4 * rng.randrange(1_024),
                    arg=rng.randrange(32),
                )
            )
        else:  # ipi window faults
            duration = rng.randrange(1_000, 10_000)
            arg = rng.randrange(100, 1_000) if kind == "ipi_delay" else 0
            events.append(
                FaultEvent(kind=kind, time=time, duration=duration, arg=arg)
            )
    return FaultPlan(events=tuple(events), seed=seed, name=name or f"random-{seed}")
