"""Run ledger: atomic appends, history, directional diffing."""

import json

import pytest

from repro.obs.cli import main
from repro.obs.ledger import (
    LEDGER_ENV,
    Ledger,
    LedgerEntry,
    diff_numeric,
    flatten_numeric,
    format_diff,
    format_history,
)


def entry(**overrides):
    base = dict(kind="sweep", label="demo", config_hash="abc123",
                fidelity="prototype", wall_time_s=1.5, cells=4,
                cache={"hits": 2, "misses": 2, "hit_rate": 0.5},
                metrics_digest="d" * 16,
                results={"mean_response_s": 10.5})
    base.update(overrides)
    return LedgerEntry(**base)


class TestLedger:
    def test_append_stamps_when_and_round_trips(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        appended = ledger.append(entry())
        assert appended.when > 0
        rows = ledger.entries()
        assert len(rows) == 1
        assert rows[0].to_dict() == appended.to_dict()

    def test_appends_accumulate_oldest_first(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        for index in range(3):
            ledger.append(entry(label=f"run-{index}"))
        assert [e.label for e in ledger.entries()] == ["run-0", "run-1", "run-2"]
        assert [e.label for e in ledger.tail(2)] == ["run-1", "run-2"]
        assert len(ledger) == 3

    def test_lines_are_single_compact_json_objects(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        ledger.append(entry())
        text = (tmp_path / "ledger.jsonl").read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        assert json.loads(text)["kind"] == "sweep"

    def test_corrupt_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = Ledger(path)
        ledger.append(entry())
        with open(path, "a") as handle:
            handle.write('{"kind": "trunc')  # torn tail
        rows = ledger.entries()
        assert len(rows) == 1 and ledger.corrupt == 1

    def test_append_after_truncated_tail_starts_a_fresh_line(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = Ledger(path)
        ledger.append(entry(label="a"))
        ledger.append(entry(label="b"))
        data = path.read_bytes()
        path.write_bytes(data[:-20])  # a crash mid-write of "b"
        ledger.append(entry(label="c"))
        assert [e.label for e in ledger.entries()] == ["a", "c"]
        assert ledger.corrupt == 1

    def test_missing_file_reads_empty(self, tmp_path):
        ledger = Ledger(tmp_path / "absent.jsonl")
        assert ledger.entries() == [] and len(ledger) == 0

    def test_env_override(self, tmp_path, monkeypatch):
        target = tmp_path / "custom.jsonl"
        monkeypatch.setenv(LEDGER_ENV, str(target))
        ledger = Ledger()
        ledger.append(entry())
        assert target.exists()

    def test_from_dict_tolerates_missing_fields(self):
        sparse = LedgerEntry.from_dict({"kind": "bench"})
        assert sparse.kind == "bench" and sparse.label == "?"
        assert sparse.results == {} and sparse.timestamp() == "-"


#: Valid JSON whose field types are wrong: each must be a corrupt line.
BAD_ROWS = [
    {"kind": "sweep", "label": "a", "when": "yesterday"},
    {"kind": "sweep", "label": "a", "when": True},
    {"kind": "sweep", "label": "a", "when": float("inf")},
    {"kind": "sweep", "label": "a", "wall_time_s": "1.5"},
    {"kind": "sweep", "label": "a", "wall_time_s": None},
    {"kind": "sweep", "label": "a", "cells": 4.0},
    {"kind": "sweep", "label": "a", "cells": False},
    {"kind": "sweep", "label": "a", "cells": "4"},
    {"kind": 7, "label": "a"},
    {"kind": "sweep", "label": ["a"]},
    {"kind": "sweep", "label": "a", "config_hash": 123},
    {"kind": "sweep", "label": "a", "cache": [1, 2]},
    ["sweep", "a"],
]


class TestMalformedRows:
    @pytest.mark.parametrize("row", BAD_ROWS, ids=lambda row: json.dumps(row))
    def test_from_dict_rejects_wrong_types(self, row):
        with pytest.raises(ValueError):
            LedgerEntry.from_dict(row)

    @pytest.mark.parametrize("row", BAD_ROWS, ids=lambda row: json.dumps(row))
    def test_history_skips_and_counts_the_line(self, row, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        Ledger(path).append(entry(label="good"))
        with open(path, "a") as handle:
            handle.write(json.dumps(row) + "\n")
        assert main(["history", "--ledger", str(path)]) == 0
        out = capsys.readouterr().out
        assert "good" in out
        assert "(1 corrupt line(s) skipped)" in out

    def test_integer_seconds_are_accepted(self):
        row = {"kind": "sweep", "label": "a", "wall_time_s": 2, "when": 1_700_000_000}
        parsed = LedgerEntry.from_dict(row)
        assert parsed.wall_time_s == 2 and parsed.timestamp() != "-"


class TestFlatten:
    def test_nested_paths_and_list_indices(self):
        flat = flatten_numeric({"a": {"b": 1}, "c": [2, {"d": 3}], "s": "x"})
        assert flat == {"a.b": 1.0, "c[0]": 2.0, "c[1].d": 3.0}

    def test_bools_are_not_numbers(self):
        assert flatten_numeric({"ok": True, "n": 1}) == {"n": 1.0}


class TestDiff:
    def test_regression_in_bad_direction(self):
        report = diff_numeric({"wall_time_s": 1.0}, {"wall_time_s": 1.5})
        assert report["regressions"] == ["wall_time_s"]

    def test_improvement_not_flagged(self):
        report = diff_numeric({"wall_time_s": 1.5, "events_per_s": 100},
                              {"wall_time_s": 1.0, "events_per_s": 200})
        assert report["regressions"] == []

    def test_higher_is_better_keys_regress_downward(self):
        report = diff_numeric({"events_per_s": 200}, {"events_per_s": 100})
        assert report["regressions"] == ["events_per_s"]

    def test_threshold_gates_movement(self):
        small = diff_numeric({"wall_time_s": 1.0}, {"wall_time_s": 1.05})
        big = diff_numeric({"wall_time_s": 1.0}, {"wall_time_s": 1.05},
                           threshold=0.01)
        assert small["regressions"] == [] and big["regressions"] == ["wall_time_s"]

    def test_neutral_keys_reported_never_regress(self):
        report = diff_numeric({"cells": 4}, {"cells": 400})
        (row,) = report["rows"]
        assert row["direction"] == 0 and not row["regressed"]
        assert report["regressions"] == []

    def test_zero_baseline(self):
        report = diff_numeric({"misses": 0}, {"misses": 3})
        (row,) = report["rows"]
        assert row["delta"] == float("inf") and row["regressed"]

    def test_disjoint_keys_surface(self):
        report = diff_numeric({"a_s": 1}, {"b_s": 2})
        assert report["only_a"] == ["a_s"] and report["only_b"] == ["b_s"]


class TestRendering:
    def test_history_lines_and_offsets(self):
        rows = [entry(label=f"run-{i}", when=1_700_000_000 + i)
                for i in range(2)]
        text = format_history(rows, corrupt=1)
        assert "[ -2]" in text and "[ -1]" in text
        assert "run-0" in text and "run-1" in text
        assert "1 corrupt line(s) skipped" in text
        assert format_history([], 0) == "(empty ledger)"

    def test_format_diff_verdict(self):
        report = diff_numeric({"wall_time_s": 1.0}, {"wall_time_s": 2.0})
        text = format_diff(report)
        assert "REGRESSED" in text and "1 regression(s)" in text
        clean = format_diff(diff_numeric({"wall_time_s": 1.0},
                                         {"wall_time_s": 1.0}))
        assert "no regressions" in clean
