"""Fault campaigns over the pmap pool, caching, and the CLI."""

import json

from repro.experiments.runner import fault_campaign
from repro.faults import cli
from repro.perf.cache import RunCache


def test_campaign_rows_per_seed():
    result = fault_campaign(n_runs=3, seed=10, recovery=True)
    assert len(result.rows) == 3
    assert [row["seed"] for row in result.rows] == [10, 11, 12]
    for row in result.rows:
        assert row["faults_fired"] > 0
        assert row["finished_jobs"] > 0


def test_campaign_is_deterministic():
    first = fault_campaign(n_runs=2, seed=0, recovery=True)
    second = fault_campaign(n_runs=2, seed=0, recovery=True)
    assert first.rows == second.rows


def test_campaign_parallel_matches_serial():
    serial = fault_campaign(n_runs=3, seed=0, recovery=True, max_workers=1)
    parallel = fault_campaign(n_runs=3, seed=0, recovery=True, max_workers=2)
    assert serial.rows == parallel.rows


def test_campaign_cells_are_cached(tmp_path):
    cache = RunCache(tmp_path / "cache")
    cold = fault_campaign(n_runs=2, seed=5, recovery=True, cache=cache)
    assert cache.misses == 2 and cache.stores == 2
    warm = fault_campaign(n_runs=2, seed=5, recovery=True, cache=cache)
    assert cache.hits == 2
    assert warm.rows == cold.rows


def test_recovery_off_records_misses():
    on = fault_campaign(n_runs=2, seed=0, recovery=True)
    off = fault_campaign(n_runs=2, seed=0, recovery=False)
    assert sum(row["deadline_misses"] for row in on.rows) == 0
    assert sum(row["deadline_misses"] for row in off.rows) > 0
    assert sum(row["task_retries"] for row in off.rows) == 0


def test_campaign_writes_perfetto_trace(tmp_path):
    out = tmp_path / "faults.json"
    fault_campaign(n_runs=1, seed=0, recovery=True, perfetto_out=str(out))
    payload = json.loads(out.read_text())
    names = {event.get("cat") for event in payload["traceEvents"]}
    assert "fault_injected" in names


def test_min_gap_matches_fault_model_zero_misses():
    # Acceptance (d): plans spaced at the analysed interarrival keep
    # every deadline when recovery is enabled.
    result = fault_campaign(n_runs=3, seed=0, recovery=True, min_gap=100_000)
    assert sum(row["deadline_misses"] for row in result.rows) == 0
    assert sum(row["faults_fired"] for row in result.rows) > 0


# ------------------------------------------------------------------- CLI
def test_cli_plan_prints_json(capsys):
    assert cli.main(["plan", "--seed", "3", "--faults", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 3
    assert len(payload["events"]) == 2


def test_cli_campaign_runs(capsys):
    assert cli.main(["campaign", "--runs", "1", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "deadline_misses" in out
    assert "campaign: 1 run(s)" in out


def test_cli_no_command_prints_help():
    assert cli.main([]) == 2
