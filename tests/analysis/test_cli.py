"""Tests for the analysis command-line tool."""

import pytest

from repro.analysis.cli import load_task_csv, main, run_analysis

CSV = """# name,wcet,period[,deadline]
name,wcet,period,deadline
ctrl,10000,100000,80000
poll,20000,200000
diag,5000,50000
"""


@pytest.fixture
def csv_file(tmp_path):
    path = tmp_path / "tasks.csv"
    path.write_text(CSV)
    return str(path)


def test_load_task_csv(csv_file):
    ts = load_task_csv(csv_file)
    assert len(ts.periodic) == 3
    ctrl = ts.by_name("ctrl")
    assert ctrl.wcet == 10_000
    assert ctrl.deadline == 80_000
    poll = ts.by_name("poll")
    assert poll.deadline == poll.period  # implicit deadline
    # Deadline-monotonic priorities were assigned.
    assert ts.by_name("diag").high_priority > ctrl.high_priority


def test_run_analysis_pipeline(csv_file):
    ts = load_task_csv(csv_file)
    analysed, report, rows = run_analysis(ts, n_cpus=2, tick=10_000)
    assert report.schedulable
    assert len(rows) == 3
    analysed.require_analysed()
    assert all(t.promotion % 10_000 == 0 for t in analysed.periodic)


def test_main_prints_tables(csv_file, capsys):
    assert main([csv_file, "--cpus", "2", "--tick", "10000"]) == 0
    out = capsys.readouterr().out
    assert "schedulable: True" in out
    assert "ctrl" in out
    assert "U=D-W" in out


@pytest.mark.parametrize("text, message", [
    ("a\n", "missing wcet"),
    ("a,10\n", "missing period"),
    ("", "task table has no rows"),
    ("# only a comment\n", "task table has no rows"),
])
def test_main_rejects_short_rows_and_empty_tables(tmp_path, capsys, text,
                                                  message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert main([str(path)]) == 1
    err = capsys.readouterr().err
    assert "TASK001" in err and message in err


def test_main_unreadable_file_is_one_line(tmp_path, capsys):
    path = tmp_path / "missing.csv"
    assert main([str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read {path}")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_main_reports_failure(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("a,90000,100000\nb,90000,100000\n")
    assert main([str(path), "--cpus", "1"]) == 1
    assert "analysis failed" in capsys.readouterr().err
