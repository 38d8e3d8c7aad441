"""Repo-determinism AST lint: the DET rules on fixtures, and the live
guarantee that the simulator's own hot paths stay clean."""

import pytest

from repro.lint.determinism import (
    DEFAULT_PATHS,
    lint_paths,
    lint_python_source,
)


def rules_of(source):
    return lint_python_source(source, "fixture.py").rules()


class TestDet001WallClock:
    @pytest.mark.parametrize(
        "call",
        [
            "time.time()",
            "time.time_ns()",
            "time.monotonic()",
            "time.perf_counter()",
            "time.process_time()",
        ],
    )
    def test_time_module_reads_flagged(self, call):
        assert rules_of(f"import time\nx = {call}\n") == ["DET001"]

    def test_datetime_now_flagged(self):
        src = "import datetime\nd = datetime.datetime.now()\n"
        assert rules_of(src) == ["DET001"]

    def test_unrelated_time_attribute_is_fine(self):
        # An object with a .time() method is not the time module.
        assert rules_of("x = event.time()\n") == []


class TestDet002UnseededRandom:
    def test_module_level_calls_flagged(self):
        assert rules_of("import random\nx = random.random()\n") == ["DET002"]
        assert rules_of("import random\nx = random.randint(0, 9)\n") == ["DET002"]

    def test_unseeded_constructor_flagged(self):
        assert rules_of("import random\nr = random.Random()\n") == ["DET002"]

    def test_seeded_constructor_is_fine(self):
        assert rules_of("import random\nr = random.Random(42)\n") == []

    def test_instance_methods_are_fine(self):
        src = "import random\nr = random.Random(1)\nx = r.randint(0, 9)\n"
        assert rules_of(src) == []


class TestDet003SetIteration:
    def test_for_over_set_display_flagged(self):
        assert rules_of("for x in {1, 2, 3}:\n    pass\n") == ["DET003"]

    def test_for_over_set_call_flagged(self):
        assert rules_of("for x in set(items):\n    pass\n") == ["DET003"]

    def test_comprehension_over_set_flagged(self):
        assert rules_of("ys = [y for y in {1, 2}]\n") == ["DET003"]

    def test_sorted_set_is_fine(self):
        assert rules_of("for x in sorted({1, 2, 3}):\n    pass\n") == []

    def test_list_iteration_is_fine(self):
        assert rules_of("for x in [1, 2, 3]:\n    pass\n") == []


class TestHarness:
    def test_syntax_error_is_det000(self):
        report = lint_python_source("def f(:\n", "broken.py")
        assert report.rules() == ["DET000"] and not report.ok

    def test_locations_carry_file_and_line(self):
        report = lint_python_source("import time\nx = time.time()\n", "mod.py")
        assert report.diagnostics[0].location == "mod.py:2"

    def test_missing_file_is_det000(self, tmp_path):
        report = lint_paths([tmp_path / "missing.py"])
        assert report.rules() == ["DET000"]

    def test_directory_scan(self, tmp_path):
        (tmp_path / "a.py").write_text("import time\nx = time.time()\n")
        (tmp_path / "b.py").write_text("x = 1\n")
        report = lint_paths([tmp_path])
        assert report.rules() == ["DET001"]


def test_simulator_hot_paths_are_clean():
    """The live guarantee: every tree in DEFAULT_PATHS stays deterministic."""
    import repro

    from pathlib import Path

    base = Path(repro.__file__).parent
    paths = [base / Path(p).name for p in DEFAULT_PATHS]
    report = lint_paths(paths)
    assert report.clean, report.format()
