import copy
import json

import pytest

from bench import compare
from bench.run import load_benchmark

BENCHMARK = load_benchmark()
SPECS = BENCHMARK["end_to_end"]


def results(seed, scale=None, fail_share=0.0, digest="d" * 64):
    """A results file whose metrics read 100 (times ``scale[name]``)."""
    scale = scale or {}
    metrics = {spec["name"]: 100.0 * scale.get(spec["name"], 1.0)
               for spec in SPECS}
    workload = {"metrics": metrics, "fail_share": fail_share,
                "outputs_sha256": digest}
    return {"seed": seed, "seconds": BENCHMARK["run_seconds"], "trace": False,
            "workloads": {"isa-kernels": workload}}


def write_set(tmp_path, name, runs):
    paths = []
    for index, run in enumerate(runs):
        path = tmp_path / f"{name}{index}.json"
        path.write_text(json.dumps(run))
        paths.append(str(path))
    return paths


def jitter(run, factor):
    run = copy.deepcopy(run)
    for name in run["workloads"]["isa-kernels"]["metrics"]:
        run["workloads"]["isa-kernels"]["metrics"][name] *= factor
    return run


def test_identical_sets_pass(tmp_path, capsys):
    runs = [jitter(results(0), 1 + 0.002 * i) for i in range(5)]
    base = write_set(tmp_path, "a", runs)
    head = write_set(tmp_path, "b", runs)
    assert compare.main(base, head) == 0
    assert "identical" in capsys.readouterr().out


@pytest.mark.parametrize("spec", SPECS, ids=[spec["name"] for spec in SPECS])
def test_a_twenty_percent_regression_is_flagged(spec, tmp_path, capsys):
    worse = 1.2 if spec["better"] == "lower" else 1 / 1.2
    base = write_set(tmp_path, "a", [jitter(results(0), 1 + 0.002 * i)
                                     for i in range(5)])
    head = write_set(tmp_path, "b", [jitter(results(0, {spec["name"]: worse}),
                                            1 + 0.002 * i) for i in range(5)])
    assert compare.main(base, head) == 1
    row = [line for line in capsys.readouterr().out.splitlines()
           if line.startswith(spec["name"] + " ")]
    assert row and row[0].endswith("regression")


def test_noisy_metric_is_unresolved_not_flagged(tmp_path, capsys):
    base = write_set(tmp_path, "a", [jitter(results(0), f)
                                     for f in (0.7, 0.9, 1.0, 1.1, 1.3)])
    head = write_set(tmp_path, "b", [jitter(results(0), f)
                                     for f in (0.8, 0.9, 1.0, 1.1, 1.4)])
    assert compare.main(base, head) == 0
    assert "unresolved" in capsys.readouterr().out


def test_fail_share_rise_is_flagged(tmp_path, capsys):
    base = write_set(tmp_path, "a", [results(0)] * 3)
    head = write_set(tmp_path, "b", [results(0, fail_share=0.1)] * 3)
    assert compare.main(base, head) == 1
    assert "fail_share" in capsys.readouterr().out


def test_digest_difference_is_flagged(tmp_path, capsys):
    base = write_set(tmp_path, "a", [results(0)] * 3)
    head = write_set(tmp_path, "b", [results(0, digest="e" * 64)] * 3)
    assert compare.main(base, head) == 1
    assert "outputs differ" in capsys.readouterr().out


def test_bad_input_exits_2(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    good = write_set(tmp_path, "a", [results(0)])
    assert compare.main([str(broken)], good) == 2
    assert compare.main([str(tmp_path / "missing.json")], good) == 2
    traced = write_set(tmp_path, "t", [dict(results(0), trace=True)])
    assert compare.main(traced, good) == 2
    other_budget = write_set(tmp_path, "s", [dict(results(0), seconds=1)])
    assert compare.main(other_budget, good) == 2
