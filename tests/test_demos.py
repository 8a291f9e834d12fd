"""Every demo runs end to end."""

import os
import subprocess
import sys
from itertools import takewhile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "demos" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_reservoir_playground_writes_the_untolled_series(tmp_path):
    series = tmp_path / "series.csv"
    proc = run_demo("01_reservoir_playground.py", "--out", str(series))
    assert proc.returncode == 0, proc.stderr
    lines = series.read_text().splitlines()
    assert lines[0] == "t_s,n,k,q"
    assert len(lines) == 1 + 7200


def test_surrogate_fit_demo_shows_reinterpolation_removes_ei_at_the_samples():
    proc = run_demo("03_surrogate_fit.py")
    assert proc.returncode == 0, proc.stderr
    # the paper's caveat (ii)
    assert "with re-interpolation: max 0.000e+00" in proc.stdout


def test_feedback_controller_demo():
    proc = run_demo("02_feedback_controller.py")
    assert proc.returncode == 0, proc.stderr
    assert "iter   0" in proc.stdout
    assert "best mean density offset after 60 evaluations" in proc.stdout


def test_partition_search_demo_writes_the_tiling(tmp_path):
    cells = tmp_path / "cells.csv"
    proc = run_demo("04_partition_search.py", "--budget", "200", "--cells-out", str(cells))
    assert proc.returncode == 0, proc.stderr
    assert "after 200 evaluations" in proc.stdout
    lines = cells.read_text().splitlines()
    assert lines[0] == "center_1,center_2,depth_1,depth_2,value,d"
    assert len(lines) > 1


def _table_rows(stdout):
    """The first cell of each row of compare's final table."""
    lines = stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("solver  "))
    assert lines[start + 1].startswith("------")
    return [line.split()[0] for line in takewhile(bool, lines[start + 2:])]


def test_simple_shootout_prints_a_row_per_solver(tmp_path):
    proc = run_demo("05_simple_shootout.py", "--budget", "12", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert _table_rows(proc.stdout) == ["pi", "rk", "spsa", "direct"]


def test_complex_shootout_prints_a_row_per_solver(tmp_path):
    proc = run_demo("06_complex_shootout.py", "--budget", "30", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert _table_rows(proc.stdout) == ["rk", "spsa", "direct"]


def test_composition_shift_demo_prints_the_flow_given_up():
    proc = run_demo("07_composition_shift.py", "--budget", "30")
    assert proc.returncode == 0, proc.stderr
    assert "flow given up by targeting the shifted critical density: " in proc.stdout
