"""Telemetry of a whole sweep: merged metrics, span export, ledger rows.

``sweep(..., telemetry=..., ledger=...)`` is where the obs pieces meet
the perf pipeline: worker telemetry merged across processes, cache
hits and misses as span events, per-worker Perfetto tracks and one
ledger entry per sweep.
"""

from repro.experiments.runner import sweep
from repro.obs.ledger import Ledger
from repro.obs.perfetto import SPAN_PID_BASE, spans_to_events
from repro.perf.cache import RunCache
from repro.perf.executor import Telemetry


def probe(x):
    """Module-level (picklable) measure."""
    return {"y": x * x, "misses": x % 2}


GRID = {"x": [1, 2, 3, 4]}


def traced_sweep(workers, **kwargs):
    telemetry = Telemetry()
    result = sweep(probe, GRID, max_workers=workers, telemetry=telemetry,
                   **kwargs)
    return result, telemetry


def test_parallel_sweep_telemetry_equals_serial():
    serial, serial_t = traced_sweep(1)
    parallel, parallel_t = traced_sweep(2)
    assert parallel.rows == serial.rows
    assert parallel_t.metrics.to_json() == serial_t.metrics.to_json()
    assert parallel_t.spans.structure() == serial_t.spans.structure()
    assert len(parallel_t.spans) == len(serial_t.spans) > 0
    workers = {s.process for s in parallel_t.spans} - {"main"}
    assert workers and all(label.startswith("worker-") for label in workers)


def test_span_export_gives_each_process_its_own_track():
    _, telemetry = traced_sweep(2)
    events = spans_to_events(list(telemetry.spans))
    tracks = {e["args"]["name"]: e["pid"] for e in events
              if e["ph"] == "M" and e["name"] == "process_name"}
    assert tracks["main"] == SPAN_PID_BASE
    assert len(tracks) >= 2
    assert len(set(tracks.values())) == len(tracks)


def test_cached_sweeps_record_cache_events_and_ledger_rows(tmp_path):
    cache = RunCache(tmp_path / "cache")
    ledger = Ledger(tmp_path / "ledger.jsonl")
    grid = {"x": [1, 2]}
    runs = []
    for _ in range(2):
        telemetry = Telemetry()
        sweep(probe, grid, cache=cache, cache_tag="obs", telemetry=telemetry,
              ledger=ledger)
        runs.append(telemetry)
    cold, warm = ([e.name for s in t.spans for e in s.events] for t in runs)
    assert cold == ["cache_miss", "cache_miss"]
    assert warm == ["cache_hit", "cache_hit"]
    instants = [e for e in spans_to_events(list(runs[1].spans))
                if e["ph"] == "i" and e["name"] == "cache_hit"]
    assert len(instants) == 2

    entries = ledger.entries()
    assert [(e.kind, e.label, e.cells) for e in entries] == [
        ("sweep", "obs", 2), ("sweep", "obs", 2)]
    assert entries[0].cache == {"hits": 0, "misses": 2, "hit_rate": 0.0}
    assert entries[1].cache == {"hits": 2, "misses": 0, "hit_rate": 1.0}
    assert entries[0].metrics_digest
    assert entries[0].config_hash
    assert entries[0].config_hash == entries[1].config_hash
