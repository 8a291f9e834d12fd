"""The demos that read the per-iteration records, and the two shootouts that
print ``compare``'s table, run end to end."""

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
