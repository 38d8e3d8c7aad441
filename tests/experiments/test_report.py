"""Tests for the report generator."""

import pytest

from repro.experiments.report import build_report, main


def test_quick_report_contains_sections():
    text = build_report(quick=True)
    assert "# Reproduction report" in text
    assert "Figure 3" in text
    assert "Figure 4" in text
    assert "Offline analysis" in text
    assert "PASS" in text
    assert "FAIL" not in text
    assert "Verdict: prototype slower than simulation in every" in text


def test_main_writes_file(tmp_path, capsys):
    out = tmp_path / "report.md"
    assert main([str(out), "--quick"]) == 0
    assert out.read_text().startswith("# Reproduction report")


def test_main_stdout(capsys):
    assert main(["-", "--quick"]) == 0
    assert "# Reproduction report" in capsys.readouterr().out


def test_main_rejects_negative_workers(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["-", "--quick", "--workers", "-1"])
    assert exit_info.value.code == 2
    assert "error: --workers must be >= 0" in capsys.readouterr().err
