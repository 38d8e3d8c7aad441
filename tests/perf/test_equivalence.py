"""Parallel/serial and cold/warm-cache equivalence.

The acceptance bar for the perf tier: fanning work out over worker
processes, or serving it from the run cache, must be *invisible* in
the results -- identical rows, identical samples, identical Figure 4
cells.
"""

import pytest

import repro.experiments.figure4 as figure4
from repro.experiments.figure4 import figure4_sweep
from repro.experiments.runner import sweep
from repro.obs.ledger import Ledger
from repro.perf.cache import RunCache
from repro.perf.executor import Telemetry
from repro.simulators.batch import replicate


def fake_measure(a, b):
    return {"sum": a + b, "product": a * b}


def fake_sample(seed):
    return 10.0 + 0.25 * seed


class TestSweepEquivalence:
    def test_rows_identical_across_worker_counts(self):
        grid = {"a": [1, 2, 3], "b": [10, 20]}
        serial = sweep(fake_measure, grid, max_workers=1)
        parallel = sweep(fake_measure, grid, max_workers=4)
        assert parallel.rows == serial.rows
        assert parallel.parameters == serial.parameters

    def test_cache_hits_skip_the_measure(self, tmp_path):
        cache = RunCache(tmp_path)
        grid = {"a": [1, 2, 3], "b": [10, 20]}
        cold = sweep(fake_measure, grid, cache=cache, cache_tag="equiv")
        assert cache.stats()["misses"] == 6 and cache.stats()["hits"] == 0

        def exploding_measure(a, b):
            raise AssertionError("warm run must not compute")

        warm = sweep(exploding_measure, grid, cache=cache, cache_tag="equiv")
        assert warm.rows == cold.rows
        assert cache.stats()["hits"] == 6
        assert cache.hit_rate == 0.5

    def test_summaries_surface_cache_stats(self, tmp_path):
        cache = RunCache(tmp_path)
        grid = {"a": [1, 2, 3], "b": [10]}
        cold = sweep(fake_measure, grid, cache=cache, cache_tag="stats")
        warm = sweep(fake_measure, grid, cache=cache, cache_tag="stats")
        assert cold.cache_stats == {"hits": 0, "misses": 3, "hit_rate": 0.0}
        assert warm.cache_stats == {"hits": 3, "misses": 0, "hit_rate": 1.0}
        assert "3 hit(s)" in warm.format()

    def test_partial_warm_only_computes_new_cells(self, tmp_path):
        cache = RunCache(tmp_path)
        sweep(fake_measure, {"a": [1, 2], "b": [10]}, cache=cache, cache_tag="grow")
        grown = sweep(fake_measure, {"a": [1, 2, 3], "b": [10]},
                      cache=cache, cache_tag="grow")
        assert cache.stats()["hits"] == 2
        assert cache.stats()["misses"] == 2 + 1
        assert grown.column("sum") == [11, 12, 13]


class TestReplicationEquivalence:
    def test_samples_identical_across_worker_counts(self):
        serial = replicate("eq", fake_sample, 8, max_workers=1)
        parallel = replicate("eq", fake_sample, 8, max_workers=4)
        assert parallel.samples == serial.samples
        assert parallel.mean == serial.mean

    def test_cache_hit_determinism(self, tmp_path):
        cache = RunCache(tmp_path)
        cold = replicate("rep", fake_sample, 5, cache=cache)

        def exploding_sample(seed):
            raise AssertionError("warm run must not compute")

        warm = replicate("rep", exploding_sample, 5, cache=cache)
        assert warm.samples == cold.samples
        assert cache.stats()["hits"] == 5

    def test_closure_measure_still_parallel_safe(self):
        base = 3.0
        serial = replicate("cl", lambda s: base + s, 4, max_workers=1)
        parallel = replicate("cl", lambda s: base + s, 4, max_workers=4)
        assert parallel.samples == serial.samples


@pytest.mark.slow
class TestFigure4Equivalence:
    def test_cells_identical_serial_parallel_and_cached(self, tmp_path):
        cache = RunCache(tmp_path)
        serial = figure4_sweep(cpus=(2,), utilizations=(0.40, 0.50),
                               max_workers=1, cache=cache)
        parallel = figure4_sweep(cpus=(2,), utilizations=(0.40, 0.50),
                                 max_workers=4)
        assert parallel == serial

        # Warm re-run: every cell must come from the cache, not a sim.
        def exploding_cell(*args, **kwargs):
            raise AssertionError("warm run must not simulate")

        with pytest.MonkeyPatch.context() as patcher:
            patcher.setattr(figure4, "run_cell", exploding_cell)
            warm = figure4_sweep(cpus=(2,), utilizations=(0.40, 0.50),
                                 max_workers=1, cache=cache)
        assert warm == serial
        assert cache.stats()["hits"] == 2
        assert all(cell.real_s > cell.theoretical_s for cell in serial)


class TestFigure4SpecKeys:
    """Figure 4 cells are keyed by their spec: tag ``figure4``, every
    ``run_cell`` argument (fidelity rung included) and the version."""

    GRID = dict(cpus=(2,), utilizations=(0.40, 0.50))

    def test_rungs_never_alias(self, tmp_path):
        cache = RunCache(tmp_path)
        tlm = figure4_sweep(fidelity="tlm", cache=cache, **self.GRID)
        theoretical = figure4_sweep(fidelity="theoretical", cache=cache,
                                    **self.GRID)
        assert (cache.hits, cache.misses) == (0, 4)
        assert all(cell.real_s == cell.theoretical_s for cell in theoretical)
        assert all(cell.real_s > cell.theoretical_s for cell in tlm)

    def test_unchanged_spec_hits_every_cell(self, tmp_path, monkeypatch):
        cache = RunCache(tmp_path)
        cold = figure4_sweep(fidelity="tlm", cache=cache, **self.GRID)

        def exploding_cell(*args, **kwargs):
            raise AssertionError("warm run must not simulate")

        monkeypatch.setattr(figure4, "run_cell", exploding_cell)
        warm = figure4_sweep(fidelity="tlm", cache=cache, **self.GRID)
        assert warm == cold
        assert (cache.hits, cache.misses) == (2, 2)

    def test_changed_scale_misses_every_cell(self, tmp_path):
        cache = RunCache(tmp_path)
        figure4_sweep(fidelity="theoretical", cache=cache, **self.GRID)
        figure4_sweep(fidelity="theoretical", cache=cache, scale=500,
                      **self.GRID)
        assert (cache.hits, cache.misses) == (0, 4)

    def test_ledger_entry_and_span_tree(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        telemetry = Telemetry()
        cells = figure4_sweep(fidelity="tlm", telemetry=telemetry,
                              ledger=ledger, **self.GRID)
        (entry,) = ledger.entries()
        assert (entry.kind, entry.label, entry.cells) == ("figure4", "figure4", 2)
        slowdowns = [cell.slowdown_pct for cell in cells]
        assert entry.results == {
            "max_slowdown_pct": round(max(slowdowns), 4),
            "mean_slowdown_pct": round(sum(slowdowns) / len(slowdowns), 4),
        }

        spans = list(telemetry.spans)
        (root,) = [span for span in spans if span.parent_id is None]
        assert (root.name, root.attrs["tag"]) == ("sweep", "figure4")
        cell_spans = [span for span in spans if span.name == "cell"]
        assert len(cell_spans) == 2
        for cell in cell_spans:
            assert cell.parent_id == root.span_id
            children = [span.name for span in spans
                        if span.parent_id == cell.span_id]
            assert children == ["measure"]
