"""Only the kriging surrogate loads scipy, on its first call.

The child process installs an import hook that refuses every scipy
module, then imports the package and runs the harness, the penalty
solvers, PI, ``compare`` and the CLI.  Any scipy import on that path
fails the run.  With the hook removed, an rk run must load scipy and
finish.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = textwrap.dedent("""
    import importlib.abc
    import json
    import sys
    from pathlib import Path


    class RefuseScipy(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] == "scipy":
                raise ImportError(f"refused: {name}")
            return None


    def scipy_loaded():
        return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")


    out = Path(sys.argv[1])
    hook = RefuseScipy()
    sys.meta_path.insert(0, hook)

    import sbopt
    import sbopt.bench.cli as cli
    import sbopt.bench.harness as harness

    reports = {}
    for problem, solver in [("simple", "direct"), ("simple", "spsa"), ("simple", "pi"),
                            ("complex", "direct"), ("complex", "spsa")]:
        config = harness.ExperimentConfig(problem=problem, solver=solver, budget=10,
                                          seeds=(0,), output_dir=str(out / "runs"))
        report = harness.run_experiment(config)
        assert [s["n_evals"] for s in report["per_seed"]] == [10], report["per_seed"]
        reports[problem, solver] = report
    result = harness.compare(reports["simple", "direct"], reports["simple", "pi"])
    assert result.problem == "simple"
    result.final_table()
    result.plot(out / "compare.svg")

    config_path = out / "run.json"
    config_path.write_text(json.dumps({
        "problem": "simple", "solver": "direct", "budget": 10, "seeds": [1],
        "output_dir": str(out / "cli")}))
    assert cli.main(["run", "--config", str(config_path)]) == 0
    assert cli.main(["compare", str(out / "runs" / "report_simple_direct.json"),
                     str(out / "runs" / "report_simple_spsa.json"),
                     "--out", str(out / "compare.csv")]) == 0
    assert scipy_loaded() == [], scipy_loaded()

    # the hook really refuses: a surrogate run fails while it is installed
    simple = sbopt.bench.get_problem("simple")
    try:
        harness.run_single(simple, "rk", 14, 0)
    except ImportError as exc:
        assert "refused: scipy" in str(exc), exc
    else:
        raise AssertionError("rk ran without importing scipy")

    sys.meta_path.remove(hook)
    trace = harness.run_single(simple, "rk", 14, 0)
    assert len(trace) == 14 and len(trace.iterations) == 2
    assert "scipy.linalg" in scipy_loaded()
    print("scipy-free path ok")
""")


def test_only_kriging_loads_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "scipy-free path ok"
