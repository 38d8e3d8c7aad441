"""The benchmark's four workloads, built from a seed, run through the
package's public API.

Each workload turns its seed into inputs when it is constructed (that
is its set-up), then offers

- ``ops()``: the timed operations, as ``(key, callable)`` pairs; each
  callable returns a JSON-serialisable *outcome* holding every
  simulated output and exact counter the op produced;
- ``checks()``: untimed operations whose outcomes the output checks
  compare against (reference runs, other rungs);
- ``problems(outcomes)``: the output checks, as a list of problems per
  op key, given the first outcome of every op and check;
- ``work(outcome)``: the op's work in the workload's unit, for
  ``work_rate``;
- ``report(outcomes)``: workload-specific result metrics and the exact
  per-layer counters of one pass.

An op that raised has the outcome ``{"error": message}`` and is already
a failed op; ``problems`` and ``report`` leave it out and still check
and count every other outcome.

An op outcome carrying a ``known_defect`` entry hit a defect recorded
in ``bench/README.md``; it is counted in ``fail_share`` but is not a
failed op.
"""

from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing
import os
import random
import shutil
import statistics
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from typing import Callable, Dict, List, Tuple

from repro.analysis import (
    PartitioningError,
    analyse_taskset,
    assign_promotions,
    partition,
    random_taskset,
)
from repro.experiments import figure4
from repro.experiments import runner
from repro.hw.asmlib import ROUTINES
from repro.obs.ledger import Ledger
from repro.perf import isabench
from repro.perf.cache import RunCache
from repro.perf.executor import Telemetry
from repro.simulators import (
    GlobalEDFPolicy,
    GlobalFixedPriorityPolicy,
    MultiprocessorSimulator,
    PartitionedFixedPriorityPolicy,
    TheoreticalSimulator,
)

from bench import OUT_DIR, probe
from bench.instrument import Instruments
from bench.timing import pinned_probe

Op = Tuple[str, Callable[[], dict]]

#: The Figure-4 grid, (processors, periodic utilization).
CELLS = [(n, u) for n in (2, 3, 4) for u in (0.40, 0.50, 0.60)]

#: Message of the prototype crash recorded in ``bench/README.md``
#: (known defect KD-1): the kernel watchdog arms at a deadline that is
#: already in the past.
KNOWN_DEFECT_PREFIX = "cannot schedule in the past"

def stratified_phases(rng: random.Random, count: int) -> Tuple[float, ...]:
    """``count`` arrival phases on the 0.05 s grid of [0.5, 8.0] s, one
    from each of ``count`` equal strata, so every seed covers early, middle
    and late arrivals alike."""
    steps = range(10, 161)
    return tuple(
        round(rng.choice(steps[len(steps) * i // count:
                               len(steps) * (i + 1) // count]) * 0.05, 2)
        for i in range(count))


def cell_label(n_cpus: int, utilization: float) -> str:
    return f"{n_cpus}P{round(utilization * 100)}"


def mean_slowdown_pct(rows: List[dict]) -> float:
    """Slowdown of one cell from its per-phase runs, as ``run_cell``
    averages them: mean real over mean theoretical."""
    theoretical = sum(row["theoretical_s"] for row in rows) / len(rows)
    real = sum(row["real_s"] for row in rows) / len(rows)
    return 100.0 * (real / theoretical - 1.0)


def sha256_of(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    """Defaults shared by the workloads (see the module docstring)."""

    #: True when the workload starts pool workers of its own; its
    #: process then runs on every CPU instead of one.
    parallel = False

    def measure_probe(self) -> float:
        """One host-speed probe, in seconds (see :mod:`bench.probe`)."""
        return probe.measure()

    def checks(self) -> List[Op]:
        return []

    def close(self) -> None:
        pass


class Fig4Proto(Workload):
    """Figure-4 grid on the cycle-approximate prototype rung."""

    name = "fig4-proto"
    #: Simulated prototype kilocycles (scaled time base).
    work_unit = "kcycles"

    def __init__(self, seed: int, instruments: Instruments):
        self.instruments = instruments
        rng = random.Random(seed)
        self.points: List[Tuple[str, int, float, float]] = []
        for n_cpus, utilization in CELLS:
            phases = (figure4.ARRIVAL_PHASES_S if seed == 0
                      else stratified_phases(rng, 3))
            for index, phase in enumerate(phases):
                key = f"{cell_label(n_cpus, utilization)}#{index}@{phase:.2f}"
                self.points.append((key, n_cpus, utilization, phase))

    def _run(self, n_cpus: int, utilization: float, phase: float,
             fidelity: str) -> dict:
        before = self.instruments.snapshot()
        with self.instruments.span("run_cell", n_cpus=n_cpus,
                                   utilization=utilization, fidelity=fidelity):
            try:
                cell = figure4.run_cell(n_cpus, utilization,
                                        arrival_phases_s=(phase,),
                                        fidelity=fidelity)
            except ValueError as exc:
                if fidelity != "prototype" or not str(exc).startswith(
                        KNOWN_DEFECT_PREFIX):
                    raise
                outcome = {"known_defect": str(exc)}
            else:
                outcome = {"theoretical_s": cell.theoretical_s,
                           "real_s": cell.real_s}
        outcome["counters"] = self.instruments.delta(before)
        return outcome

    def ops(self) -> List[Op]:
        return [(key, functools.partial(self._run, n, u, p, "prototype"))
                for key, n, u, p in self.points]

    def checks(self) -> List[Op]:
        return [(f"tlm:{key}", functools.partial(self._run, n, u, p, "tlm"))
                for key, n, u, p in self.points]

    def problems(self, outcomes: Dict[str, dict]) -> Dict[str, List[str]]:
        found: Dict[str, List[str]] = {}
        for key, *_ in self.points:
            outcome = outcomes[key]
            if "real_s" in outcome and outcome["real_s"] < outcome["theoretical_s"]:
                found.setdefault(key, []).append(
                    f"real {outcome['real_s']} s < theoretical "
                    f"{outcome['theoretical_s']} s")
        return found

    def work(self, outcome: dict) -> float:
        return outcome["counters"].get("prototype.cycles", 0) / 1000.0

    def report(self, outcomes: Dict[str, dict]) -> Tuple[dict, dict]:
        proto: Dict[Tuple[int, float], List[dict]] = {}
        tlm: Dict[Tuple[int, float], List[dict]] = {}
        for key, n_cpus, utilization, _phase in self.points:
            proto.setdefault((n_cpus, utilization), []).append(outcomes[key])
            tlm.setdefault((n_cpus, utilization), []).append(
                outcomes[f"tlm:{key}"])

        def completed(rows: List[dict]) -> bool:
            return all("real_s" in row for row in rows)

        paper_errors = [
            abs(mean_slowdown_pct(proto[cell]) - figure4.PAPER_SLOWDOWNS[cell])
            for cell in proto
            if cell in figure4.PAPER_SLOWDOWNS and completed(proto[cell])
        ]
        gaps = [
            abs(mean_slowdown_pct(tlm[cell]) - mean_slowdown_pct(proto[cell]))
            for cell in proto
            if completed(proto[cell]) and completed(tlm[cell])
        ]
        extra = {
            "paper_err_pp": sum(paper_errors) / len(paper_errors)
            if paper_errors else None,
            "tlm_gap_pp": sum(gaps) / len(gaps) if gaps else None,
            "cells_compared": len(gaps),
        }
        counters: Dict[str, int] = {}
        for key, *_ in self.points:
            for name, value in outcomes[key].get("counters", {}).items():
                if name.startswith(("kernel.", "hw.")):
                    counters[name] = counters.get(name, 0) + value
        return extra, counters


class IdealRungs(Workload):
    """The idealised rungs: TLM Figure-4 grid plus analysed random sets."""

    name = "ideal-rungs"
    #: Simulated jobs finished, summed over every simulator run.
    work_unit = "jobs"

    PHASES_PER_CELL = 12
    N_SETS = 120
    N_PERIODIC = 8
    SET_TICK = 10_000
    HORIZON = 3_000_000

    def __init__(self, seed: int, instruments: Instruments):
        self.instruments = instruments
        rng = random.Random(seed)
        self.tlm_points: List[Tuple[str, int, float, float]] = []
        for n_cpus, utilization in CELLS:
            phases = stratified_phases(rng, self.PHASES_PER_CELL)
            for index, phase in enumerate(phases):
                key = f"tlm:{cell_label(n_cpus, utilization)}#{index}@{phase:.2f}"
                self.tlm_points.append((key, n_cpus, utilization, phase))
        self.sets = []
        for index in range(self.N_SETS):
            n_cpus = 2 + index % 3
            per_cpu = rng.uniform(0.3, 0.6)
            taskset = random_taskset(
                self.N_PERIODIC, per_cpu * n_cpus, seed=rng.randrange(2 ** 31),
                n_aperiodic=1, aperiodic_wcet=40_000,
                min_period=100_000, max_period=600_000,
            )
            arrival = rng.randrange(0, self.HORIZON // 2)
            self.sets.append((f"set{index:03d}/{n_cpus}P", n_cpus, taskset,
                              arrival))

    def _run_tlm(self, n_cpus: int, utilization: float, phase: float) -> dict:
        before = self.instruments.snapshot()
        with self.instruments.span("run_cell", n_cpus=n_cpus,
                                   utilization=utilization, fidelity="tlm"):
            cell = figure4.run_cell(n_cpus, utilization,
                                    arrival_phases_s=(phase,), fidelity="tlm")
        return {"theoretical_s": cell.theoretical_s, "real_s": cell.real_s,
                "counters": self.instruments.delta(before)}

    def _run_set(self, n_cpus: int, base, arrival: int) -> dict:
        before = self.instruments.snapshot()
        try:
            taskset = partition(base, n_cpus)
            taskset = assign_promotions(taskset, n_cpus, tick=self.SET_TICK)
        except (PartitioningError, ValueError) as exc:
            return {"verdict": "rejected", "reason": type(exc).__name__}
        with self.instruments.span("analyse_taskset", n_cpus=n_cpus):
            report = analyse_taskset(taskset, n_cpus)
        if not report.schedulable:
            return {"verdict": "unschedulable"}
        wcrt = {row["task"]: row["wcrt"]
                for rows in report.per_cpu.values() for row in rows}
        arrivals = {"a0": [arrival]}
        theoretical = TheoreticalSimulator(taskset, n_cpus, tick=self.SET_TICK,
                                           overhead=0.0,
                                           aperiodic_arrivals=arrivals)
        theoretical.run(self.HORIZON)
        # The verdict's guarantee: promoted by release + U_i + one tick
        # of observation latency, then done within W_i (see
        # ``assign_promotions``).
        over_bound = []
        worst: Dict[str, int] = {}
        for job in theoretical.finished_jobs:
            if not job.is_periodic:
                continue
            name = job.task.name
            worst[name] = max(worst.get(name, 0), job.response_time)
            if job.response_time > job.task.promotion + self.SET_TICK + wcrt[name]:
                over_bound.append(job.name)
        outcome = {
            "verdict": "schedulable",
            "wcrt": dict(sorted(wcrt.items())),
            "worst_response": dict(sorted(worst.items())),
            "over_bound": over_bound,
            "misses": sum(job.missed_deadline for job in theoretical.finished_jobs),
            "aperiodic_response": [job.response_time
                                   for job in theoretical.finished_jobs
                                   if not job.is_periodic],
        }
        for policy in (PartitionedFixedPriorityPolicy(),
                       GlobalFixedPriorityPolicy(), GlobalEDFPolicy()):
            baseline = MultiprocessorSimulator(taskset, n_cpus, policy,
                                               aperiodic_arrivals=arrivals)
            baseline.run(self.HORIZON)
            outcome[policy.name] = {
                "finished": len(baseline.finished),
                "misses": len(baseline.deadline_misses()),
                "aperiodic_response": [job.response_time
                                       for job in baseline.finished
                                       if not job.is_periodic],
            }
        outcome["counters"] = self.instruments.delta(before)
        return outcome

    def ops(self) -> List[Op]:
        ops = [(key, functools.partial(self._run_tlm, n, u, p))
               for key, n, u, p in self.tlm_points]
        ops += [(key, functools.partial(self._run_set, n, base, arrival))
                for key, n, base, arrival in self.sets]
        return ops

    def problems(self, outcomes: Dict[str, dict]) -> Dict[str, List[str]]:
        found: Dict[str, List[str]] = {}
        for key, outcome in outcomes.items():
            if outcome.get("verdict") != "schedulable":
                continue
            if outcome["over_bound"]:
                found.setdefault(key, []).append(
                    f"responses over the analysed bound: {outcome['over_bound']}")
            if outcome["misses"]:
                found.setdefault(key, []).append(
                    f"{outcome['misses']} deadline misses on an analysed set")
        return found

    def work(self, outcome: dict) -> float:
        return outcome.get("counters", {}).get("jobs", 0)

    def report(self, outcomes: Dict[str, dict]) -> Tuple[dict, dict]:
        verdicts = [outcomes[key].get("verdict") for key, *_ in self.sets]
        counters = {"analysis.sets_rejected": sum(
            verdict in ("rejected", "unschedulable") for verdict in verdicts)}
        for key, outcome in outcomes.items():
            for name, value in outcome.get("counters", {}).items():
                if name.startswith("simulators."):
                    counters[name] = counters.get(name, 0) + value
        extra = {"sets_schedulable": verdicts.count("schedulable")}
        return extra, counters


class IsaKernels(Workload):
    """The asmlib kernels on the block ISA interpreter."""

    name = "isa-kernels"
    #: Retired simulated kilo-instructions.
    work_unit = "kinstr"

    SCALE = 10
    MAX_INSTRUCTIONS = 100_000_000

    def __init__(self, seed: int, instruments: Instruments):
        self.instruments = instruments
        rng = random.Random(seed)
        # Each kernel runs twice, at m and 2 - m times its nominal count
        # (m ~ U(0.8, 1.2)): the seed changes every input while the
        # work per kernel, and so the kernel mix, stays about the same.
        self.runs: List[Tuple[str, int]] = []
        for name in ROUTINES:
            nominal = isabench.DEFAULT_ITERS[name] * self.SCALE
            share = rng.uniform(0.8, 1.2)
            self.runs += [(name, max(1, round(nominal * share))),
                          (name, max(1, round(nominal * (2.0 - share))))]

    def _run(self, name: str, mode: str, iterations=None) -> dict:
        with self.instruments.span("run_kernel", kernel=name, mode=mode):
            summary = isabench.run_kernel(
                name, mode, iterations=iterations,
                max_instructions=self.MAX_INSTRUCTIONS)
        outcome = isabench.observable(summary)
        outcome["bus_log"] = sha256_of(outcome["bus_log"])
        for field in ("events", "windows", "window_instructions", "replays"):
            outcome[field] = summary[field]
        return outcome

    def ops(self) -> List[Op]:
        return [(f"{name}#{index % 2}x{iters}",
                 functools.partial(self._run, name, "block", iters))
                for index, (name, iters) in enumerate(self.runs)]

    def checks(self) -> List[Op]:
        return [(f"{mode}:{name}", functools.partial(self._run, name, mode))
                for name in ROUTINES for mode in ("block", "reference")]

    def problems(self, outcomes: Dict[str, dict]) -> Dict[str, List[str]]:
        found: Dict[str, List[str]] = {}
        for name in ROUTINES:
            block = outcomes[f"block:{name}"]
            reference = outcomes[f"reference:{name}"]
            if "error" in block or "error" in reference:
                continue
            differing = sorted(k for k in isabench.OBSERVABLE_KEYS
                               if block[k] != reference[k])
            if differing:
                found.setdefault(f"block:{name}", []).append(
                    f"block differs from reference in {differing}")
        for key, outcome in outcomes.items():
            if "error" not in outcome and not outcome["halted"]:
                found.setdefault(key, []).append("kernel did not halt")
        return found

    def work(self, outcome: dict) -> float:
        return outcome["retired"] / 1000.0

    def report(self, outcomes: Dict[str, dict]) -> Tuple[dict, dict]:
        timed = [outcomes[key] for key, _ in self.ops()
                 if "error" not in outcomes[key]]
        retired = sum(row["retired"] for row in timed)
        counters = {
            "hw.isa.retired": retired,
            "hw.isa.windows": sum(row["windows"] for row in timed),
            "hw.isa.replays": sum(row["replays"] for row in timed),
            "hw.isa.events_per_instr":
                sum(row["events"] for row in timed) / retired if retired else 0,
            "hw.isa.data_accesses": sum(row["data_accesses"] for row in timed),
            "hw.memory.icache_misses": sum(row["icache_misses"] for row in timed),
        }
        return {}, counters


class SweepPipeline(Workload):
    """Cold and warm sweeps through the cache/telemetry/ledger pipeline."""

    name = "sweep-pipeline"
    #: Sweep cells delivered (computed or served from the cache).
    work_unit = "cells"

    PAIRS = 4
    CAMPAIGN_RUNS = 16
    parallel = True

    def __init__(self, seed: int, instruments: Instruments):
        self.instruments = instruments
        self.seed = seed
        #: Pool size; 1 on a one-CPU host, which runs the sweeps serially.
        self.workers = min(2, os.cpu_count() or 1)
        os.makedirs(OUT_DIR, exist_ok=True)
        self._root = tempfile.mkdtemp(prefix="sweep-", dir=OUT_DIR)
        self._pair_dirs: Dict[int, str] = {}
        self._probe_cpus: List[int] = []
        self._probe_pool = None

    def measure_probe(self) -> float:
        """Mean of one probe per CPU the sweep's pool runs on, all at once.

        The pool spreads cells over every CPU, so one CPU's speed does not
        stand for the pass; the probes run in workers of their own.  They
        start on the first call, which comes before the first timed
        segment, so neither set-up nor a timed op pays for them.
        """
        if self._probe_pool is None:
            self._probe_cpus = sorted(os.sched_getaffinity(0))[:self.workers]
            self._probe_pool = ProcessPoolExecutor(
                len(self._probe_cpus),
                mp_context=multiprocessing.get_context("spawn"))
        return statistics.mean(self._probe_pool.map(pinned_probe,
                                                    self._probe_cpus))

    def _pass(self, directory: str, workers: int) -> dict:
        cache = RunCache(os.path.join(directory, "cache"))
        ledger = Ledger(os.path.join(directory, "ledger.jsonl"))
        telemetry = Telemetry()
        with self.instruments.span("figure4_sweep", fidelity="tlm"):
            cells = figure4.figure4_sweep(fidelity="tlm", max_workers=workers,
                                          cache=cache, telemetry=telemetry,
                                          ledger=ledger)
        with self.instruments.span("fault_campaign", n_runs=self.CAMPAIGN_RUNS):
            campaign = runner.fault_campaign(
                n_runs=self.CAMPAIGN_RUNS, seed=self.seed, max_workers=workers,
                cache=cache, telemetry=telemetry, ledger=ledger)
        return {
            "cells": [asdict(cell) for cell in cells],
            "campaign": campaign.rows,
            "cache": {"hits": cache.hits, "misses": cache.misses,
                      "put_errors": cache.put_errors},
            "metrics": telemetry.metrics.to_json(),
            # Through JSON so tuples compare equal to their stored form.
            "spans": json.loads(json.dumps(telemetry.spans.structure())),
            "spans_recorded": len(telemetry.spans),
            "ledger_entries": len(ledger),
        }

    def _cold(self, pair: int, workers: int) -> dict:
        directory = tempfile.mkdtemp(prefix=f"pair{pair}-", dir=self._root)
        self._pair_dirs[pair] = directory
        return self._pass(directory, workers)

    def _warm(self, pair: int, workers: int) -> dict:
        return self._pass(self._pair_dirs[pair], workers)

    def ops(self) -> List[Op]:
        ops: List[Op] = []
        for pair in range(self.PAIRS):
            ops.append((f"cold#{pair}",
                        functools.partial(self._cold, pair, self.workers)))
            ops.append((f"warm#{pair}",
                        functools.partial(self._warm, pair, self.workers)))
        return ops

    def checks(self) -> List[Op]:
        pair = self.PAIRS
        return [("serial:cold", functools.partial(self._cold, pair, 1)),
                ("serial:warm", functools.partial(self._warm, pair, 1))]

    def problems(self, outcomes: Dict[str, dict]) -> Dict[str, List[str]]:
        found: Dict[str, List[str]] = {}

        def check(key: str, outcome: dict, reference: dict, what: str,
                  message: str) -> None:
            if ("error" not in outcome and "error" not in reference
                    and outcome[what] != reference[what]):
                found.setdefault(key, []).append(message)

        cold_ref = outcomes["serial:cold"]
        warm_ref = outcomes["serial:warm"]
        for pair in range(self.PAIRS):
            cold_key, warm_key = f"cold#{pair}", f"warm#{pair}"
            cold, warm = outcomes[cold_key], outcomes[warm_key]
            for what in ("cells", "campaign", "metrics", "spans"):
                check(cold_key, cold, cold_ref, what,
                      f"parallel {what} differ from a serial run")
                check(warm_key, warm, warm_ref, what,
                      f"warm {what} differ from a serial warm run")
            for what in ("cells", "campaign"):
                check(warm_key, warm, cold, what,
                      f"warm {what} differ from cold {what}")
            if "error" not in warm and warm["cache"]["misses"]:
                found.setdefault(warm_key, []).append(
                    f"{warm['cache']['misses']} cache misses on a warm pass")
        return found

    def work(self, outcome: dict) -> float:
        return len(outcome["cells"]) + len(outcome["campaign"])

    def report(self, outcomes: Dict[str, dict]) -> Tuple[dict, dict]:
        timed = [outcomes[key] for key, _ in self.ops()
                 if "error" not in outcomes[key]]
        counters = {
            "perf.cache.hits": sum(row["cache"]["hits"] for row in timed),
            "perf.cache.misses": sum(row["cache"]["misses"] for row in timed),
            "perf.cache.put_errors": sum(row["cache"]["put_errors"]
                                         for row in timed),
            "obs.spans.recorded": sum(row["spans_recorded"] for row in timed),
            "obs.ledger.entries": sum(row["ledger_entries"] for row in timed),
        }
        return {}, counters

    def close(self) -> None:
        if self._probe_pool is not None:
            self._probe_pool.shutdown()
        shutil.rmtree(self._root, ignore_errors=True)


WORKLOADS = {cls.name: cls
             for cls in (Fig4Proto, IdealRungs, IsaKernels, SweepPipeline)}
