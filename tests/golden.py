"""Golden outputs: the digest of every file each valid experiment writes.

``golden.json`` beside this file holds, for every problem x solver pair the
harness accepts, run at budget ``BUDGET`` on ``SEEDS``, the sha256 of each
file ``run_experiment`` writes and each seed's ``best_value``, plus the
numpy, scipy and BLAS versions the table was frozen with.  Its ``compare``
entry holds, for ``compare`` over each problem's reports in sorted solver
order and over one report passed twice, the sha256 of the table, the curves
CSV and the figure.  ``tests/test_golden.py`` reruns the pairs and compares.

A change that alters outputs on purpose rewrites the table and commits its
diff, which shows which pairs moved and how their best values moved::

    PYTHONPATH=src python tests/golden.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

TABLE = Path(__file__).with_name("golden.json")
BUDGET = 30
SEEDS = (0, 1)


def versions() -> dict:
    """numpy, scipy and the BLAS each was built against; the digests depend
    on the bits of numpy's ufuncs and of LAPACK."""
    import numpy
    import scipy

    def blas(module) -> str:
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (KeyError, TypeError):
            return "unknown"
        return f"{info.get('name')} {info.get('version')}"

    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy), "scipy_blas": blas(scipy)}


def valid_pairs() -> list:
    """Every (problem, solver) pair ``ExperimentConfig`` accepts, sorted."""
    from sbopt.bench import ConfigError, ExperimentConfig, available_problems
    from sbopt.bench.harness import SOLVERS

    pairs = []
    for problem in available_problems():
        for solver in sorted(SOLVERS):
            try:
                ExperimentConfig(problem=problem, solver=solver, budget=BUDGET,
                                 seeds=SEEDS).validate()
            except ConfigError:
                continue
            pairs.append((problem, solver))
    return pairs


def run_pairs(out_dir) -> dict:
    """Run every valid pair into out_dir/<problem>_<solver>; returns the table's
    ``pairs`` entry: per pair, file name -> sha256 and seed -> best_value."""
    from sbopt.bench import ExperimentConfig, run_experiment

    table = {}
    for problem, solver in valid_pairs():
        pair_dir = Path(out_dir) / f"{problem}_{solver}"
        report = run_experiment(ExperimentConfig(
            problem=problem, solver=solver, budget=BUDGET, seeds=SEEDS,
            output_dir=str(pair_dir)))
        table[f"{problem}_{solver}"] = {
            "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in sorted(pair_dir.iterdir())},
            "best_value": {str(s["seed"]): s["best_value"] for s in report["per_seed"]},
        }
    return table


def _report(out_dir, problem, solver) -> Path:
    return Path(out_dir) / f"{problem}_{solver}" / f"report_{problem}_{solver}.json"


def compare_pairs(out_dir) -> dict:
    """Compare the reports ``run_pairs`` wrote into out_dir; returns the
    table's ``compare`` entry: per call, the sha256 of ``final_table()``, of
    the ``write_curves_csv`` file and of the ``plot`` SVG."""
    from sbopt.bench import compare

    pairs = valid_pairs()
    calls = {problem: [_report(out_dir, p, s) for p, s in pairs if p == problem]
             for problem in dict.fromkeys(p for p, _ in pairs)}
    once = _report(out_dir, *pairs[0])
    calls[f"{pairs[0][0]}_{pairs[0][1]} twice"] = [once, once]  # the _2 suffix
    cmp_dir = Path(out_dir) / "compare"
    cmp_dir.mkdir(exist_ok=True)
    table = {}
    for name, reports in calls.items():
        result = compare(*reports)
        csv_path = result.write_curves_csv(cmp_dir / "curves.csv")
        svg_path = result.plot(cmp_dir / "curves.svg")
        table[name] = {
            "final_table": hashlib.sha256(result.final_table().encode()).hexdigest(),
            "curves_csv": hashlib.sha256(csv_path.read_bytes()).hexdigest(),
            "plot_svg": hashlib.sha256(svg_path.read_bytes()).hexdigest(),
        }
    return table


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        pairs = run_pairs(tmp)
        compared = compare_pairs(tmp)
    table = {"budget": BUDGET, "seeds": list(SEEDS), "versions": versions(),
             "compare": compared, "pairs": pairs}
    TABLE.write_text(json.dumps(table, indent=2) + "\n")
    n_files = sum(len(p["files"]) for p in pairs.values())
    print(f"wrote {TABLE}: {len(pairs)} pairs, {n_files} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
