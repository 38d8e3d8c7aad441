"""Figure 4 reproduction: shape checks on a reduced grid.

The full nine-cell sweep lives in the benchmarks; here a subset runs
quickly and the paper's qualitative claims are asserted:

- the theoretical response sits near the standalone execution time
  (around the 10.32 s worst case the paper quotes);
- the prototype is slower than the simulation in every cell;
- the real-vs-theoretical gap grows with periodic utilization.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.experiments.figure4 import (
    APERIODIC_STANDALONE_S,
    PAPER_SLOWDOWNS,
    Figure4Cell,
    main,
    run_cell,
    slowdown_table,
)

#: One faster arrival phase for test-speed; benchmarks use all three.
FAST = dict(scale=1_000, arrival_phases_s=(1.0,), horizon_margin_s=16.0)


@pytest.fixture(scope="module")
def cells():
    grid = {}
    for n_cpus in (2, 3):
        for util in (0.40, 0.60):
            grid[(n_cpus, util)] = run_cell(n_cpus, util, **FAST)
    return grid


def test_theoretical_near_standalone(cells):
    for cell in cells.values():
        assert cell.theoretical_s == pytest.approx(
            APERIODIC_STANDALONE_S * 1.02, rel=0.02
        )


def test_prototype_always_slower(cells):
    for cell in cells.values():
        assert cell.real_s > cell.theoretical_s


def test_gap_grows_with_utilization(cells):
    for n_cpus in (2, 3):
        low = cells[(n_cpus, 0.40)].slowdown_pct
        high = cells[(n_cpus, 0.60)].slowdown_pct
        assert high > low * 0.9  # monotone up to small noise


def test_slowdowns_in_paper_band(cells):
    """Within a loose band around the paper's 7-27 % range."""
    for cell in cells.values():
        assert 0.0 < cell.slowdown_pct < 45.0


def test_slowdown_table_renders(cells):
    text = slowdown_table(list(cells.values()))
    assert "theoretical" in text
    assert "%" in text


def test_paper_reference_matrix():
    assert PAPER_SLOWDOWNS[(2, 0.40)] == 7.0
    assert PAPER_SLOWDOWNS[(3, 0.60)] == 27.0


def test_cell_math():
    cell = Figure4Cell(n_cpus=2, utilization=0.5, theoretical_s=10.0, real_s=11.0)
    assert cell.slowdown_pct == pytest.approx(10.0)
    assert "2P" in cell.row()


def test_module_entry_point_warns_nothing():
    """``python -m repro.experiments.figure4`` runs without the
    RuntimeWarning runpy gives when the package imports the module
    before it executes as ``__main__``."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-m", "repro.experiments.figure4", "--help"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr
    assert "Figure 4" in done.stdout


@pytest.mark.parametrize("argv, message", [
    (["--cpus", "0"], "--cpus"),
    (["--cpus", "2", "-1"], "--cpus"),
    (["--utilizations", "0"], "--utilizations"),
    (["--utilizations", "0.5", "1.0"], "--utilizations"),
    (["--scale", "0", "--fidelity", "theoretical"], "--scale"),
    (["--workers", "-1"], "--workers"),
])
def test_main_rejects_out_of_range_arguments(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err
