"""The repro-lint command line front end."""

import json

import pytest

from repro.lint.cli import main
from repro.trace.export import trace_to_json
from repro.trace.recorder import TraceRecorder

GOOD_ASM = """
    addi r3, r0, 5
loop:
    addi r3, r3, -1
    bnez r3, loop
    halt
"""

BAD_ASM = "add r3, r4, r5\nhalt"

GOOD_CSV = "name,wcet,period,deadline\na,10,100,\nb,5,50,40\n"
BAD_CSV = "name,wcet,period,deadline\na,0,100,\na,5,50,\n"


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content)
    return str(path)


class TestAsmCommand:
    def test_clean_file(self, tmp_path, capsys):
        assert main(["asm", write(tmp_path, "good.s", GOOD_ASM)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_bad_file_fails(self, tmp_path, capsys):
        assert main(["asm", write(tmp_path, "bad.s", BAD_ASM)]) == 1
        assert "ASM001" in capsys.readouterr().out

    def test_syntax_error_is_asm000(self, tmp_path, capsys):
        assert main(["asm", write(tmp_path, "syn.s", "bogus r1")]) == 1
        assert "ASM000" in capsys.readouterr().err

    def test_params_silence_argument_reads(self, tmp_path):
        path = write(tmp_path, "p.s", BAD_ASM)
        assert main(["asm", path, "--param", "r4", "--param", "r5"]) == 0

    def test_wcet_with_bound(self, tmp_path, capsys):
        path = write(tmp_path, "loop.s", GOOD_ASM)
        assert main(["asm", path, "--wcet", "--loop-bound", "loop=5"]) == 0
        assert "static WCET bound:" in capsys.readouterr().out

    def test_wcet_missing_bound_fails(self, tmp_path, capsys):
        path = write(tmp_path, "loop.s", GOOD_ASM)
        assert main(["asm", path, "--wcet"]) == 1
        assert "unbounded" in capsys.readouterr().out


class TestTasksCommand:
    def test_clean_table(self, tmp_path, capsys):
        assert main(["tasks", write(tmp_path, "ok.csv", GOOD_CSV), "--cpus", "2"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_bad_rows_fail(self, tmp_path, capsys):
        assert main(["tasks", write(tmp_path, "bad.csv", BAD_CSV), "--cpus", "2"]) == 1
        out = capsys.readouterr().out
        assert "TASK001" in out and "TASK009" in out

    def test_overload_fails(self, tmp_path, capsys):
        csv = "a,60,100,\nb,60,100,\n"
        assert main(["tasks", write(tmp_path, "hot.csv", csv), "--cpus", "1"]) == 1
        assert "TASK002" in capsys.readouterr().out


class TestTraceCommand:
    def test_racy_trace_fails(self, tmp_path, capsys):
        trace = TraceRecorder()
        trace.record(10, "access", cpu=0, info="addr=0x40010000 op=write")
        trace.record(20, "access", cpu=1, info="addr=0x40010000 op=write")
        path = write(tmp_path, "racy.json", trace_to_json(trace))
        assert main(["trace", path]) == 1
        assert "RACE001" in capsys.readouterr().out

    def test_clean_trace(self, tmp_path, capsys):
        trace = TraceRecorder()
        trace.record(0, "acquire", cpu=0, info="lock=1")
        trace.record(1, "access", cpu=0, info="addr=0x40010000 op=write")
        trace.record(2, "unlock", cpu=0, info="lock=1")
        path = write(tmp_path, "ok.json", trace_to_json(trace))
        assert main(["trace", path]) == 0


def test_no_command_prints_help():
    assert main([]) == 2


@pytest.mark.parametrize("command", ["asm", "tasks", "trace"])
def test_missing_file_is_an_operational_error(command, tmp_path, capsys):
    """Exit 2 (tool could not run), distinct from exit 1 (findings)."""
    assert main([command, str(tmp_path / "missing")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_empty_asm_file_reports_asm005(tmp_path, capsys):
    assert main(["asm", write(tmp_path, "empty.s", "")]) == 1
    assert "ASM005" in capsys.readouterr().out


class TestJsonFormat:
    def test_clean_asm_json(self, tmp_path, capsys):
        path = write(tmp_path, "good.s", GOOD_ASM)
        assert main(["asm", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "asm"
        assert payload["report"] == {
            "diagnostics": [],
            "errors": 0,
            "warnings": 0,
            "ok": True,
        }

    def test_findings_carry_stable_schema(self, tmp_path, capsys):
        path = write(tmp_path, "bad.s", BAD_ASM)
        assert main(["asm", path, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        diag = payload["report"]["diagnostics"][0]
        assert set(diag) == {"rule", "severity", "message", "location", "hint"}
        assert diag["rule"] == "ASM001" and diag["severity"] == "error"

    def test_trace_json(self, tmp_path, capsys):
        trace = TraceRecorder()
        trace.record(10, "access", cpu=0, info="addr=0x40010000 op=write")
        trace.record(20, "access", cpu=1, info="addr=0x40010000 op=write")
        path = write(tmp_path, "racy.json", trace_to_json(trace))
        assert main(["trace", path, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        rules = [d["rule"] for d in payload["report"]["diagnostics"]]
        assert "RACE001" in rules

    def test_tasks_json(self, tmp_path, capsys):
        path = write(tmp_path, "ok.csv", GOOD_CSV)
        assert main(["tasks", path, "--cpus", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"]["ok"] and payload["taskset"]["ok"]


class TestVerifiedFlag:
    ANNOTATED = (
        "    addi r3, r0, 5\n"
        "loop:   #@ bound=5\n"
        "    addi r3, r3, -1\n"
        "    bnez r3, loop\n"
        "    halt\n"
    )

    def test_verified_bound_printed(self, tmp_path, capsys):
        path = write(tmp_path, "ann.s", self.ANNOTATED)
        assert main(["asm", path, "--verified"]) == 0
        assert "verified WCET bound:" in capsys.readouterr().out

    def test_verified_json_payload(self, tmp_path, capsys):
        path = write(tmp_path, "ann.s", self.ANNOTATED)
        assert main(["asm", path, "--verified", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        verified = payload["verified"]
        assert verified["ok"]
        assert verified["verified_cycles"] <= verified["annotated_cycles"]

    def test_unsound_annotation_fails(self, tmp_path, capsys):
        source = self.ANNOTATED.replace("bound=5", "bound=3")
        path = write(tmp_path, "bad.s", source)
        assert main(["asm", path, "--verified"]) == 1


class TestAuditCommand:
    def test_single_kernel_audit(self, capsys):
        assert main(["audit", "--kernel", "popcount32"]) == 0
        out = capsys.readouterr().out
        assert "popcount32" in out and "ver/meas" in out

    def test_unknown_kernel_is_operational_error(self, capsys):
        assert main(["audit", "--kernel", "nope"]) == 2
        assert "unknown kernel" in capsys.readouterr().err

    def test_audit_json(self, capsys):
        assert main(["audit", "--kernel", "popcount32", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        audit = payload["audits"][0]
        assert audit["measured"] <= audit["verified"] <= audit["annotated"]
        assert all(check["ok"] for check in audit["checks"])

    def test_routine_mode(self, capsys):
        assert main(["audit", "--kernel", "crc32_word", "--routines"]) == 0
        out = capsys.readouterr().out
        assert "routine audit: crc32_word" in out and "counted=True" in out


class TestDeterminismCommand:
    def test_default_paths_are_clean(self, capsys):
        assert main(["determinism"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_bad_file_fails(self, tmp_path, capsys):
        path = write(tmp_path, "bad.py", "import time\nx = time.time()\n")
        assert main(["determinism", path]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        path = write(tmp_path, "bad.py", "for x in set(items):\n    pass\n")
        assert main(["determinism", path, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["diagnostics"][0]["rule"] == "DET003"

    def test_missing_path_is_operational_error(self, tmp_path, capsys):
        assert main(["determinism", str(tmp_path / "missing.py")]) == 2
        assert "cannot read" in capsys.readouterr().err


def test_internal_crash_exits_2(tmp_path, capsys):
    """Malformed trace JSON crashes the loader: exit 2, not a finding."""
    path = write(tmp_path, "broken.json", "{not json")
    assert main(["trace", path]) == 2
    assert "internal error" in capsys.readouterr().err
