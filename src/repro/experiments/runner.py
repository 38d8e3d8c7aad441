"""Generic experiment sweeps and the prepackaged ablation studies.

The Figure 3/4 modules regenerate the paper's artefacts; this module
provides the machinery for *new* experiments over the same system: a
cartesian-product sweep runner with CSV export, plus the canned
ablations that the benchmarks exercise (context-switch cost, MPIC ack
timeout, bus-traffic intensity, scheduler baselines).
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro import CLOCK_HZ, TICK, cycles_to_seconds
from repro.hw.microblaze import ExecutionProfile
from repro.kernel.costs import KernelCosts
from repro.kernel.microkernel import TaskBinding
from repro.lint.tasks import check_taskset
from repro.obs.ledger import Ledger, LedgerEntry
from repro.perf.cache import RunCache, cache_key, fingerprint
from repro.perf.executor import Telemetry, cached_pmap, current_telemetry
from repro.simulators.ladder import make_simulator, mean_response, run_metrics
from repro.simulators.prototype import DEFAULT_SCALE
from repro.workloads.automotive import (
    AUTOMOTIVE_APERIODIC,
    automotive_bindings,
    build_automotive_taskset,
    prepare_taskset,
)


@dataclass
class SweepResult:
    """Rows produced by :func:`sweep`, with rendering helpers."""

    parameters: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    #: Run-cache accounting for this sweep (None when no cache given).
    cache_stats: Optional[Dict[str, Any]] = None

    def to_csv(self) -> str:
        if not self.rows:
            return ""
        # Union of keys across all rows, first-seen order: ragged
        # sweeps (a column only some measure calls report) must not
        # blow up DictWriter.
        fieldnames: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in fieldnames:
                    fieldnames.append(key)
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=fieldnames, restval="")
        writer.writeheader()
        writer.writerows(self.rows)
        return buffer.getvalue()

    def format(self) -> str:
        if not self.rows:
            return "(empty sweep)"
        keys: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in keys:
                    keys.append(key)
        widths = {
            k: max(len(k), max(len(self._cell(r.get(k, ""))) for r in self.rows))
            for k in keys
        }
        lines = ["  ".join(k.ljust(widths[k]) for k in keys)]
        for row in self.rows:
            lines.append(
                "  ".join(self._cell(row.get(k, "")).ljust(widths[k]) for k in keys)
            )
        if self.cache_stats is not None:
            stats = self.cache_stats
            lines.append(
                f"cache: {stats['hits']} hit(s), {stats['misses']} miss(es) "
                f"({stats['hit_rate']:.0%} hit rate)"
            )
        return "\n".join(lines)

    @staticmethod
    def _cell(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    def column(self, key: str) -> List[Any]:
        return [row[key] for row in self.rows]


def _pipeline_span(name: str, **attrs: Any):
    """A span on the active telemetry, or a no-op context.

    This is the whole disabled-path cost of span tracing: one module
    global read and a ``None`` check per *cell* (not per event).
    """
    telemetry = current_telemetry()
    if telemetry is None:
        return nullcontext()
    return telemetry.spans.span(name, **attrs)


def _eval_point(measure: Callable[..., Mapping[str, Any]], point: Dict[str, Any]) -> Dict[str, Any]:
    """One sweep cell: parameters first, then the measured columns."""
    telemetry = current_telemetry()
    if telemetry is None:
        row = dict(point)
        row.update(measure(**point))
        return row
    with telemetry.spans.span("cell", **point):
        row = dict(point)
        with telemetry.spans.span("measure", measure=_measure_tag(measure)):
            row.update(measure(**point))
    labels = ({"fidelity": point["fidelity"]} if "fidelity" in point else None)
    telemetry.metrics.counter(
        "sweep_cells_total", labels=labels,
        help="sweep cells evaluated (cache hits excluded)").inc()
    misses = row.get("misses")
    if isinstance(misses, int):
        telemetry.metrics.counter(
            "sweep_deadline_misses_total", labels=labels,
            help="deadline misses summed over evaluated cells").inc(misses)
    return row


def _measure_tag(measure: Callable) -> str:
    """A stable cache tag for a measure callable (never a repr with an
    object address, which would defeat cross-run caching)."""
    tag = getattr(measure, "__qualname__", None)
    if tag is None and isinstance(measure, functools.partial):
        tag = getattr(measure.func, "__qualname__", None)
    return tag or f"measure:{getattr(measure, '__module__', '?')}"


def sweep(
    measure: Callable[..., Mapping[str, Any]],
    grid: Mapping[str, Sequence[Any]],
    max_workers: int = 1,
    cache: Optional[RunCache] = None,
    cache_tag: Optional[str] = None,
    telemetry: Optional[Telemetry] = None,
    ledger: Optional[Ledger] = None,
    ledger_kind: str = "sweep",
) -> SweepResult:
    """Run ``measure(**point)`` over the cartesian product of ``grid``.

    ``measure`` returns a mapping of result columns; the sweep prepends
    the parameter values to every row.  Cells are independent, so with
    ``max_workers > 1`` they are fanned out over worker processes (when
    ``measure`` is picklable; closures silently run serially) with
    results reassembled in grid order -- identical to a serial run.

    With a ``cache``, each cell is keyed by (tag, point, package
    version) and only missing cells are computed
    (:func:`~repro.perf.executor.cached_pmap`).  ``cache_tag``
    defaults to the measure's qualified name; pass an explicit tag if
    the measure's behaviour depends on state the point does not encode.

    A simulation rung (:data:`repro.simulators.FIDELITIES`) is a grid
    column like any other: ``"fidelity": [rung]`` (last, by
    convention) puts it on every row and in every cell's cache key, so
    rungs never alias, and passes it to ``measure`` as a keyword
    (:func:`prototype_response_s` accepts it and rejects an unknown
    rung).  A fidelity column holding one value also labels the
    sweep's ledger entry.

    ``telemetry`` turns on pipeline observability: the sweep runs
    under a ``sweep`` span, every computed cell records ``cell`` /
    ``measure`` / ``simulate`` child spans and per-cell counters (in
    the worker process when parallel -- the executor ships them home
    and merges in submission order), and cache hits/misses land as
    span events on the sweep span.  ``ledger`` additionally appends
    one :class:`~repro.obs.ledger.LedgerEntry` (kind ``ledger_kind``)
    recording the run's config hash, wall time, cache share and
    metrics digest.
    """
    started = time.perf_counter()
    names = list(grid.keys())
    points = [
        dict(zip(names, values))
        for values in itertools.product(*(grid[name] for name in names))
    ]
    tag = cache_tag or _measure_tag(measure)
    result = SweepResult(parameters=names)
    before = (cache.hits, cache.misses) if cache is not None else (0, 0)
    # Execution geometry (worker count, chunking) is deliberately NOT a
    # span attribute: span structure must be identical whatever the
    # parallelism, so only workload-identity attrs go on the sweep span.
    sweep_span = (
        telemetry.spans.span("sweep", tag=tag, cells=len(points))
        if telemetry is not None else nullcontext()
    )
    with sweep_span:
        result.rows.extend(
            cached_pmap(
                functools.partial(_eval_point, measure),
                points,
                max_workers=max_workers,
                cache=cache,
                keys=None if cache is None else [
                    cache_key(kind="sweep", tag=tag, point=point)
                    for point in points
                ],
                telemetry=telemetry,
            )
        )
    if cache is not None:
        # Surface this sweep's share of the cache accounting instead of
        # silently dropping it (the cache object may be long-lived).
        hits = cache.hits - before[0]
        misses = cache.misses - before[1]
        total = hits + misses
        result.cache_stats = {
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / total, 4) if total else 0.0,
        }
    if ledger is not None:
        rungs = list(grid.get("fidelity", ()))
        ledger.append(LedgerEntry(
            kind=ledger_kind,
            label=tag,
            config_hash=fingerprint(
                {"tag": tag, "grid": {k: list(v) for k, v in grid.items()}}
            ),
            fidelity=rungs[0] if len(rungs) == 1 else None,
            wall_time_s=round(time.perf_counter() - started, 4),
            cells=len(points),
            cache=result.cache_stats,
            metrics_digest=(
                fingerprint(telemetry.metrics.snapshot())
                if telemetry is not None else None
            ),
            results=_sweep_ledger_results(result),
        ))
    return result


def _sweep_ledger_results(result: SweepResult) -> Dict[str, Any]:
    """The diffable scalar summary a sweep leaves in the ledger."""
    out: Dict[str, Any] = {}
    misses = [r["misses"] for r in result.rows
              if isinstance(r.get("misses"), int)]
    if misses:
        out["total_deadline_misses"] = sum(misses)
    responses = [r["response_s"] for r in result.rows
                 if isinstance(r.get("response_s"), (int, float))]
    if responses:
        out["mean_response_s"] = round(sum(responses) / len(responses), 6)
    slowdowns = [r["slowdown_pct"] for r in result.rows
                 if isinstance(r.get("slowdown_pct"), (int, float))]
    if slowdowns:
        out["max_slowdown_pct"] = round(max(slowdowns), 4)
        out["mean_slowdown_pct"] = round(sum(slowdowns) / len(slowdowns), 4)
    return out


# --------------------------------------------------------------- measurements
#: The rung counters a :func:`prototype_response_s` row carries, in
#: column order after ``response_s`` and ``misses``.
_RUNG_COLUMNS = {
    "theoretical": ("context_switches",),
    "tlm": ("context_switches", "tlm_transactions",
            "tlm_contention_wait_cycles"),
    "prototype": ("bus_utilization", "context_switches", "mpic_timeouts"),
}


def prototype_response_s(
    n_cpus: int = 2,
    utilization: float = 0.5,
    scale: int = DEFAULT_SCALE,
    costs: KernelCosts = None,
    bindings: Dict[str, TaskBinding] = None,
    mpic_ack_timeout: int = None,
    arrival_s: float = 1.0,
    horizon_margin_s: float = 17.0,
    fidelity: str = "prototype",
) -> Dict[str, Any]:
    """One run of the automotive workload on the chosen fidelity rung.

    Returns the aperiodic response time, the schedulability verdict
    and the rung's own counters (columns differ per rung; the sweep
    CSV writer handles ragged rows).  Knobs a rung does not model are
    ignored there: the theoretical rung has no kernel costs, bindings
    or MPIC; the TLM rung has no MPIC acknowledge path and no
    per-cycle ``scale`` (it always runs the full-size workload).
    """
    taskset = prepare_taskset(
        build_automotive_taskset(utilization, n_cpus), n_cpus, tick=TICK
    )
    check_taskset(taskset, n_cpus, tick=TICK)
    arrival = int(arrival_s * CLOCK_HZ)
    horizon = arrival + int(horizon_margin_s * CLOCK_HZ)
    sim = make_simulator(
        fidelity, taskset, n_cpus, scale=scale,
        bindings=bindings if bindings is not None else automotive_bindings(),
        costs=costs, aperiodic_arrivals={AUTOMOTIVE_APERIODIC: [arrival]},
    )
    if fidelity == "prototype" and mpic_ack_timeout is not None:
        sim.soc.intc.ack_timeout = mpic_ack_timeout
    with _pipeline_span("simulate", fidelity=fidelity, horizon=horizon):
        sim.run(horizon)
    response = mean_response(sim, AUTOMOTIVE_APERIODIC)
    row = {"response_s": cycles_to_seconds(response),
           "misses": run_metrics(sim, horizon).deadline_misses}
    stats = sim.stats()
    row.update((column, stats[column]) for column in _RUNG_COLUMNS[fidelity])
    if "bus_utilization" in row:
        row["bus_utilization"] = round(row["bus_utilization"], 4)
    return row


# ------------------------------------------------------------- observability
def prototype_run_report(
    n_cpus: int = 2,
    utilization: float = 0.5,
    scale: int = DEFAULT_SCALE,
    arrival_s: float = 1.0,
    horizon_margin_s: float = 17.0,
    monitor_windows: int = 50,
    trace: Any = None,
    run_cache: Optional[RunCache] = None,
    label: Optional[str] = None,
):
    """One fully instrumented prototype run -> :class:`RunReport`.

    Same workload as :func:`prototype_response_s`, but wired for
    observability: a :class:`~repro.obs.metrics.MetricsRegistry`
    threaded through the kernel, MPIC and sync engine (scheduler-cycle
    latency, queue depths, IPI latency, lock wait/hold times), a
    windowed bus monitor folded into the registry, per-cpu i-cache and
    optional run-cache hit rates, and a trace summary.  ``trace`` may
    be a prepared :class:`~repro.trace.recorder.TraceRecorder` (e.g.
    over a JSONL sink); by default the run traces into a bounded ring
    buffer so memory stays flat at any horizon.
    """
    from repro.hw.monitor import BusMonitor
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.report import (
        RunReport, fold_bus_monitor, fold_icaches, fold_run_cache,
    )
    from repro.obs.sinks import RingBufferSink
    from repro.trace.recorder import TraceRecorder

    registry = MetricsRegistry()
    if trace is None:
        trace = TraceRecorder(sink=RingBufferSink(capacity=65_536))

    taskset = prepare_taskset(
        build_automotive_taskset(utilization, n_cpus), n_cpus, tick=TICK
    )
    check_taskset(taskset, n_cpus, tick=TICK)
    arrival = int(arrival_s * CLOCK_HZ)
    horizon = arrival + int(horizon_margin_s * CLOCK_HZ)
    proto = make_simulator(
        "prototype", taskset, n_cpus, scale=scale,
        bindings=automotive_bindings(),
        aperiodic_arrivals={AUTOMOTIVE_APERIODIC: [arrival]},
        trace=trace, metrics=registry,
    )
    monitor = BusMonitor(
        proto.soc.sim, proto.soc.bus,
        window=max(1, horizon // scale // max(1, monitor_windows)),
    )
    monitor.start()
    proto.run(horizon)
    monitor.stop()

    fold_bus_monitor(registry, monitor)
    fold_icaches(registry, (core.icache for core in proto.soc.cores))
    if run_cache is not None:
        fold_run_cache(registry, run_cache)

    response = mean_response(proto, AUTOMOTIVE_APERIODIC)
    metrics = run_metrics(proto, horizon)
    registry.gauge("aperiodic_response_s",
                   help="mean aperiodic response time (full-scale seconds)").set(
        round(cycles_to_seconds(response), 6))
    registry.gauge("deadline_misses",
                   help="deadline misses over the run").set(metrics.deadline_misses)

    trace.close()
    return RunReport.build(
        label=label or f"prototype {n_cpus}P@{utilization:.0%}",
        registry=registry,
        params={
            "n_cpus": n_cpus,
            "utilization": utilization,
            "scale": scale,
            "arrival_s": arrival_s,
            "horizon_margin_s": horizon_margin_s,
        },
        kernel_stats=proto.stats(),
        trace=trace,
    )


# ------------------------------------------------------------------ ablations
def context_cost_sweep(
    multipliers: Sequence[int] = (1, 10, 100, 1000),
    cache: Optional[RunCache] = None,
    fidelity: str = "prototype",
) -> SweepResult:
    """Response vs context-switch cost (primitive + regfile scaled)."""

    def measure(multiplier: int, fidelity: str) -> Dict[str, Any]:
        base = KernelCosts()
        costs = KernelCosts(
            context_primitive=base.context_primitive * multiplier,
            regfile_words=base.regfile_words * multiplier,
        )
        return prototype_response_s(costs=costs, fidelity=fidelity)

    return sweep(measure, {"multiplier": list(multipliers),
                           "fidelity": [fidelity]},
                 cache=cache, cache_tag="context_cost_sweep")


def traffic_intensity_sweep(
    scales: Sequence[float] = (0.25, 0.5, 1.0, 2.0),
    cache: Optional[RunCache] = None,
    fidelity: str = "prototype",
) -> SweepResult:
    """Response vs shared-memory traffic density (x the characterised
    profiles; 1.0 = calibrated)."""

    def measure(traffic: float, fidelity: str) -> Dict[str, Any]:
        bindings = {}
        for name, binding in automotive_bindings().items():
            period = max(20, int(round(binding.profile.access_period / traffic)))
            bindings[name] = TaskBinding(
                profile=ExecutionProfile(access_period=period,
                                         access_words=binding.profile.access_words),
                stack_words=binding.stack_words,
            )
        return prototype_response_s(bindings=bindings, fidelity=fidelity)

    return sweep(measure, {"traffic": list(scales), "fidelity": [fidelity]},
                 cache=cache, cache_tag="traffic_intensity_sweep")


def processor_scaling_sweep(
    cpus: Sequence[int] = (2, 3, 4),
    utilization: float = 0.5,
    max_workers: int = 1,
    cache: Optional[RunCache] = None,
    fidelity: str = "prototype",
) -> SweepResult:
    """Response vs processor count at fixed per-cpu utilization."""
    measure = functools.partial(_scaling_measure, utilization=utilization)
    return sweep(measure, {"n_cpus": list(cpus), "fidelity": [fidelity]},
                 max_workers=max_workers,
                 cache=cache, cache_tag="processor_scaling_sweep")


def _scaling_measure(
    n_cpus: int, utilization: float, fidelity: str
) -> Dict[str, Any]:
    return prototype_response_s(
        n_cpus=n_cpus, utilization=utilization, fidelity=fidelity
    )


def mpic_timeout_sweep(
    timeouts: Sequence[int] = (50, 500, 5_000, 50_000),
    max_workers: int = 1,
    cache: Optional[RunCache] = None,
) -> SweepResult:
    """Response vs the MPIC acknowledge timeout (re-routing window)."""
    return sweep(_mpic_measure, {"ack_timeout": list(timeouts)},
                 max_workers=max_workers,
                 cache=cache, cache_tag="mpic_timeout_sweep")


def _mpic_measure(ack_timeout: int) -> Dict[str, Any]:
    return prototype_response_s(mpic_ack_timeout=ack_timeout)


def verified_wcet_sweep(
    period_scales: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    n_cpus: int = 2,
    max_workers: int = 1,
    cache: Optional[RunCache] = None,
) -> SweepResult:
    """Schedulability with verified vs annotated C_i as periods tighten.

    At each scale the asmlib-kernel task set
    (:data:`repro.analysis.verified.DEFAULT_SPECS`, periods multiplied
    by the scale) is analysed twice: once with annotation-derived WCETs
    and once with the abstract-interpretation-verified ones.  The
    interesting region is where the verified bounds admit a set the
    annotated bounds reject.
    """
    measure = functools.partial(_verified_measure, n_cpus=n_cpus)
    return sweep(measure, {"period_scale": list(period_scales)},
                 max_workers=max_workers,
                 cache=cache, cache_tag="verified_wcet_sweep")


def _verified_measure(period_scale: float, n_cpus: int) -> Dict[str, Any]:
    from repro.analysis.verified import DEFAULT_SPECS, analyse_verified, scale_periods

    specs = scale_periods(DEFAULT_SPECS, period_scale)
    row: Dict[str, Any] = {}
    for source in ("verified", "annotated"):
        result = analyse_verified(specs=specs, n_cpus=n_cpus, wcet_source=source)
        row[f"{source}_schedulable"] = result.schedulable
        row[f"{source}_utilization"] = (
            round(result.report.total_utilization, 4)
            if result.report is not None
            else None
        )
    row["verified_only"] = (
        row["verified_schedulable"] and not row["annotated_schedulable"]
    )
    return row


# -------------------------------------------------------------- fault campaigns
def _fault_campaign_cell(
    seed: int,
    recovery_on: bool,
    until: int,
    n_faults: int,
    min_gap: int,
) -> Dict[str, Any]:
    """One campaign run (module-level so ``pmap`` can pickle it).

    The plan is regenerated from the seed inside the cell, so the cell
    is a pure function of its (cache-keyed) parameters.
    """
    from repro.faults.plan import random_plan
    from repro.faults.scenarios import campaign_cell, demo_taskset

    taskset = demo_taskset()
    wcets = {task.name: task.wcet for task in taskset.periodic}
    plan = random_plan(
        seed=seed, horizon=until, tasks=wcets, n_cpus=2,
        n_faults=n_faults, min_gap=min_gap,
    )
    recovery = {"enabled": True} if recovery_on else None
    return campaign_cell(
        {"plan": plan.to_dict(), "recovery": recovery, "until": until}
    )


def fault_campaign(
    n_runs: int = 4,
    seed: int = 0,
    recovery: bool = True,
    until: int = 400_000,
    n_faults: int = 4,
    min_gap: int = 0,
    max_workers: int = 1,
    cache: Optional[RunCache] = None,
    perfetto_out: Optional[str] = None,
    telemetry: Optional[Telemetry] = None,
    ledger: Optional[Ledger] = None,
) -> SweepResult:
    """N seeded fault-injection runs over the ``pmap`` pool.

    Each cell injects a fresh :func:`repro.faults.plan.random_plan`
    (seeds ``seed .. seed+n_runs-1``) into the demo workload and
    reports miss/recovery/degradation statistics.  Cells are cached
    under their (seed, knobs) key like every other sweep, so repeated
    campaigns only pay for new seeds.  ``min_gap`` spaces kernel-level
    faults so campaigns can be matched against a
    :class:`repro.analysis.schedulability.FaultModel`.

    ``perfetto_out`` additionally re-runs the first seed with a full
    trace and writes a Perfetto-loadable file whose instant events
    mark every injection, consumed fault, retry, shed and deadline
    miss.

    Campaigns always run the prototype rung: it is the only one with a
    kernel-level fault surface.

    ``telemetry`` / ``ledger`` behave as in :func:`sweep`; campaign
    ledger entries are recorded under kind ``campaign``.
    """
    result = sweep(
        _fault_campaign_cell,
        {
            "seed": [seed + i for i in range(n_runs)],
            "recovery_on": [recovery],
            "until": [until],
            "n_faults": [n_faults],
            "min_gap": [min_gap],
        },
        max_workers=max_workers,
        cache=cache,
        cache_tag="fault_campaign",
        telemetry=telemetry,
        ledger=ledger,
        ledger_kind="campaign",
    )
    if perfetto_out is not None:
        from repro.faults.plan import random_plan
        from repro.faults.scenarios import demo_taskset, run_scenario
        from repro.obs.perfetto import write_chrome_trace

        taskset = demo_taskset()
        wcets = {task.name: task.wcet for task in taskset.periodic}
        plan = random_plan(
            seed=seed, horizon=until, tasks=wcets, n_cpus=2,
            n_faults=n_faults, min_gap=min_gap,
        )
        traced = run_scenario(
            plan=plan,
            recovery={"enabled": True} if recovery else None,
            until=until,
        )
        write_chrome_trace(traced["trace"], perfetto_out, horizon=until)
    return result
