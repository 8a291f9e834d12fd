"""Experiment runner: seed-replicated solver runs with files on disk.

A run is (problem, solver, budget, seeds).  Every seed produces a trace
CSV; the experiment produces a report JSON holding per-seed summaries and
the per-evaluation best curves, plus plot-data CSVs.  Reports from
different solvers on the same problem and budget feed ``compare``.
Each solver is declared once, in ``SOLVERS``.
"""

import json
import os
from collections.abc import Callable
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..constraints import violations
from ..core import Evaluator, SboError, Trace, _write_csv, write_trace_csv
from ..direct import run_direct
from ..kriging import run_rk
from ..mfdsim import run_reservoir
from ..pi_control import run_pi
from ..spsa import SpsaGains, run_spsa
from .plotting import plot_curve_bands, write_best_curve_csv, write_nfd_scatter
from .problems import Problem, available_problems, get_problem


class ConfigError(SboError):
    """Bad experiment configuration; maps to CLI exit code 2."""


class Solver(NamedTuple):
    """One row of SOLVERS: the params a config may set, each with its JSON
    type (a key of ``PARAM_TYPES``), the runner, and an optional
    check(problem) returning why the solver cannot run on it."""

    params: dict
    run: Callable  # (evaluator, problem, seed, params) -> Trace
    check: Callable | None = None


def _is_finite_number(v) -> bool:
    return type(v) is int or (type(v) is float and bool(np.isfinite(v)))


# JSON type of a solver param -> the test its values must pass; type()
# rather than isinstance(), so JSON true does not pass as the number 1
PARAM_TYPES = {
    "boolean": lambda v: type(v) is bool,
    "positive integer": lambda v: type(v) is int and v >= 1,
    "finite number": _is_finite_number,
    "list of finite numbers": lambda v: (type(v) in (list, tuple)
                                         and all(map(_is_finite_number, v))),
}

# Each runner passes params straight to its solver, which owns every
# default and range check; no runner changes the params it is given.
# The runners look up run_rk, run_spsa, run_direct and run_pi in this
# module's globals at call time, so a wrapper rebound over those names
# (perfbench's tracer does this) sees every solver run.

def _run_rk(evaluator, problem, seed, params):
    params = {"n_init": problem.rk_n_init, **params}
    return run_rk(evaluator, problem.bounds, seed=seed, sampler=problem.infill_sampler,
                  **params)


_SPSA_GAINS = ("a", "big_a", "alpha", "c", "gamma")


def _run_spsa(evaluator, problem, seed, params):
    params = {"tau_0": problem.spsa_tau_0, **params}
    if params["tau_0"] is None:
        raise ConfigError(
            f"problem {problem.name!r} has no default SPSA start; pass params.tau_0")
    gains = SpsaGains(**{k: params.pop(k) for k in _SPSA_GAINS if k in params})
    return run_spsa(evaluator, bounds=problem.bounds, gains=gains,
                    penalty=problem.penalty, seed=seed, **params)


def _run_direct(evaluator, problem, seed, params):
    return run_direct(evaluator, problem.bounds, penalty=problem.penalty, **params)


def _pi_check(problem):
    if problem.pi_config is None:
        return ("the controller needs per-interval density feedback and has no "
                "way to honor general constraints")
    return None


def _run_pi(evaluator, problem, seed, params):
    return run_pi(evaluator, replace(problem.pi_config, **params), problem.bounds)


SOLVERS = {
    "pi": Solver({"n_max": "positive integer"}, _run_pi, _pi_check),
    "rk": Solver({"n_init": "positive integer", "use_reinterp": "boolean"}, _run_rk),
    "direct": Solver({"epsilon": "finite number", "max_iterations": "positive integer"},
                     _run_direct),
    "spsa": Solver({**dict.fromkeys(_SPSA_GAINS, "finite number"),
                    "max_iterations": "positive integer",
                    "tau_0": "list of finite numbers"}, _run_spsa),
}


def _check_budget(budget) -> None:
    """Reject anything but a positive integer."""
    # type() rather than isinstance(): JSON true must not pass as 1
    if type(budget) is not int or budget < 1:
        raise ConfigError(f"budget must be a positive integer, got {budget!r}")


def _check_seeds(seeds) -> None:
    """Reject anything but a non-empty sequence of distinct non-negative integers."""
    # type() rather than isinstance(): JSON true must not pass as 1
    if (not isinstance(seeds, (list, tuple)) or not seeds
            or any(type(s) is not int for s in seeds) or len(set(seeds)) < len(seeds)):
        raise ConfigError(
            f"seeds must be a non-empty list of distinct integers, got {seeds!r}")
    negative = [s for s in seeds if s < 0]
    if negative:
        raise ConfigError(f"seeds must be non-negative, got {negative}")


def _check_params(solver: str, params) -> None:
    """Reject params that are not an object, keys the solver does not take,
    and values that are not of the key's type in ``SOLVERS``."""
    if not isinstance(params, dict):
        raise ConfigError("params must be an object")
    types = SOLVERS[solver].params
    bad = sorted(set(params) - set(types))
    if bad:
        raise ConfigError(
            f"params {bad} not recognized for solver {solver!r}; "
            f"allowed: {sorted(types)}")
    for key, value in params.items():
        if not PARAM_TYPES[types[key]](value):
            raise ConfigError(f"params.{key}: expected {types[key]}, got {value!r}")


def _check_run(problem: Problem, solver: str, budget, seeds, params) -> None:
    """Raise ConfigError unless ``solver`` can run on ``problem`` as asked.

    Checks the solver name, the budget, the seeds, the params' keys and
    types, and the solver-problem pairing, in that order.  Then it runs
    the solver through ``_run`` with a zero budget: every solver checks its
    arguments before its first evaluation and evaluates nothing without
    budget, so this applies exactly the solver's own range checks.
    """
    if solver not in SOLVERS:
        raise ConfigError(f"unknown solver {solver!r}; known: {list(SOLVERS)}")
    _check_budget(budget)
    _check_seeds(seeds)
    _check_params(solver, params)
    check = SOLVERS[solver].check
    reason = None if check is None else check(problem)
    if reason is not None:
        raise ConfigError(f"solver {solver!r} cannot run on problem {problem.name!r}: "
                          f"{reason}")
    try:
        _run(problem, solver, 0, seeds[0], params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad parameters for solver {solver!r}: {exc}") from exc


@dataclass
class ExperimentConfig:
    """One experiment: a problem, a solver, a budget, and seeds to replicate."""

    problem: str
    solver: str
    budget: int
    seeds: tuple = (0,)
    output_dir: str = "."
    params: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        missing = sorted(f.name for f in fields(cls) if f.name not in raw
                         and f.default is MISSING and f.default_factory is MISSING)
        if missing:
            raise ConfigError(f"missing config keys: {missing}")
        # copy the containers; validate() rejects anything of the wrong type
        seeds, params = raw.get("seeds", (0,)), raw.get("params", {})
        cfg = cls(
            problem=raw["problem"],
            solver=raw["solver"],
            budget=raw["budget"],
            seeds=tuple(seeds) if isinstance(seeds, (list, tuple)) else seeds,
            output_dir=raw.get("output_dir", "."),
            params=dict(params) if isinstance(params, dict) else params,
        )
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def validate(self) -> None:
        if self.problem not in available_problems():
            raise ConfigError(
                f"unknown problem {self.problem!r}; known: {available_problems()}")
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")
        _check_run(get_problem(self.problem), self.solver, self.budget, self.seeds,
                   self.params)


def run_single(problem: Problem, solver: str, budget: int, seed: int,
               params: dict = None) -> Trace:
    """Run one solver on one problem for one seed; returns the trace.

    Raises ConfigError, with ``ExperimentConfig.validate``'s message, for
    anything ``validate`` rejects: an unknown solver, a budget that is not
    a positive integer, a seed that is negative or not an integer, params
    the solver does not take or of the wrong type, a problem the solver
    cannot run on, and params out of the solver's own range.  Errors
    raised during the run itself, by the objective say, keep their type.
    """
    params = {} if params is None else params
    _check_run(problem, solver, budget, (seed,), params)
    return _run(problem, solver, budget, seed, params)


def _run(problem: Problem, solver: str, budget: int, seed: int, params: dict) -> Trace:
    """Run a checked solver on a fresh evaluator of the problem (its sense and
    feasibility mask) with ``budget`` evaluations on ``seed``."""
    evaluator = Evaluator(problem.objective, budget=budget, sense=problem.sense,
                          seed=seed, feasible=problem.feasibility_predicate())
    return SOLVERS[solver].run(evaluator, problem, seed, params)


def _summarize_seed(problem: Problem, trace: Trace, seed: int) -> dict:
    hit = trace.best_feasible()
    feasible = hit is not None
    tau, ev = hit if feasible else trace.best_so_far()
    max_violation = 0.0
    if problem.smoothing is not None:
        v = violations(tau, problem.smoothing)
        max_violation = float(v.max()) if v.size else 0.0
    return {
        "seed": seed,
        "n_evals": len(trace),
        "best_value": float(ev.value),
        "best_tau": [float(x) for x in tau],
        "best_eval_index": int(ev.eval_index),
        "feasible": bool(feasible),
        "max_violation": max_violation,
    }


def _aligned_curve(curve, budget: int) -> list:
    """A best curve padded with its last value, or cut, to ``budget`` floats."""
    curve = list(curve)
    if len(curve) < budget:
        curve = curve + [curve[-1]] * (budget - len(curve))
    return [float(v) for v in curve[:budget]]


def run_experiment(config: ExperimentConfig) -> dict:
    """Run all seeds, write traces, plot data, and the report JSON.

    Per-seed runs are independent of each other (fresh evaluator, seeded
    generators), so their order never changes the results; all files are
    written from this single process.  ``config.validate()`` checks all the
    seeds at once.  Returns the report dict, which is exactly what lands in
    report_<problem>_<solver>.json.
    """
    config.validate()
    problem = get_problem(config.problem)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{config.problem}_{config.solver}"

    per_seed, curves, traces = [], {}, {}
    for seed in config.seeds:
        trace = _run(problem, config.solver, config.budget, seed, config.params)
        if len(trace) == 0:
            raise SboError(f"solver {config.solver!r} produced an empty trace")
        trace_path = out_dir / f"trace_{tag}_seed{seed}.csv"
        write_trace_csv(trace, trace_path)
        summary = _summarize_seed(problem, trace, seed)
        summary["trace_csv"] = trace_path.name
        per_seed.append(summary)
        curves[str(seed)] = _aligned_curve(trace.best_curve, config.budget)
        traces[seed] = trace

    best_values = np.array([s["best_value"] for s in per_seed])
    q1, med, q3 = np.percentile(best_values, [25.0, 50.0, 75.0])
    report = {
        "problem": config.problem,
        "solver": config.solver,
        "sense": problem.sense,
        "budget": config.budget,
        "seeds": list(config.seeds),
        "params": config.params,
        "per_seed": per_seed,
        "summary": {
            "median_best": float(med),
            "iqr_best": [float(q1), float(q3)],
            "n_feasible": int(sum(s["feasible"] for s in per_seed)),
            "n_seeds": len(per_seed),
        },
        "curves": curves,
    }

    with open(out_dir / f"report_{tag}.json", "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    grid = np.arange(1, config.budget + 1)
    stack = np.array([curves[str(s)] for s in config.seeds])
    write_best_curve_csv(grid, np.median(stack, axis=0),
                         out_dir / f"curve_{tag}.csv")

    scenario = problem.scenario
    if {"config", "curve", "template"} <= set(scenario):
        # replay the best seed's solution for a density-flow scatter
        ranked = sorted(per_seed, key=lambda s: s["best_value"],
                        reverse=(problem.sense == "maximize"))
        top = ranked[0]
        scheme = scenario["template"].with_tau(np.array(top["best_tau"]))
        out = run_reservoir(scenario["config"], scenario["curve"], scheme,
                            seed=top["seed"])
        write_nfd_scatter(out, out_dir / f"nfd_{tag}.csv")

    return report


def _is_number(x) -> bool:
    # type() checks: JSON true must not pass as the number 1
    return type(x) in (int, float)


def load_report(path) -> dict:
    """Read a report JSON written by run_experiment, checking what compare reads.

    Raises ConfigError unless the file holds JSON that ``_check_report``
    accepts.
    """
    try:
        with open(path) as fh:
            report = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"report {path} is not valid JSON: {exc}") from exc
    return _check_report(report, f"report {path}")


def _check_report(report, name: str) -> dict:
    """Return ``report`` if it holds what compare reads, else raise ConfigError.

    The keys must be present, ``budget`` a positive integer, ``curves`` a
    map from seeds to non-empty lists of numbers and ``per_seed`` a
    non-empty list of objects with a numeric ``best_value``, an integer
    ``n_evals`` and a boolean ``feasible``.  ``name`` starts each message.
    """
    if not isinstance(report, dict):
        raise ConfigError(f"{name} must be a JSON object")
    want = {"problem", "solver", "sense", "budget", "seeds", "per_seed", "curves"}
    missing = sorted(want - set(report))
    if missing:
        raise ConfigError(f"{name} is missing keys: {missing}")
    if not all(isinstance(report[k], str) for k in ("problem", "solver", "sense")):
        raise ConfigError(f"{name}: problem, solver and sense must be strings")
    if type(report["budget"]) is not int or report["budget"] < 1:
        raise ConfigError(f"{name}: budget must be a positive integer")
    curves = report["curves"]
    if (not isinstance(curves, dict) or not curves
            or not all(isinstance(c, list) and c and all(map(_is_number, c))
                       for c in curves.values())):
        raise ConfigError(
            f"{name}: curves must map seeds to non-empty lists of numbers")
    per_seed = report["per_seed"]
    if (not isinstance(per_seed, list) or not per_seed
            or not all(isinstance(s, dict) and _is_number(s.get("best_value"))
                       and type(s.get("n_evals")) is int
                       and type(s.get("feasible")) is bool for s in per_seed)):
        raise ConfigError(
            f"{name}: per_seed must be a non-empty list of objects with a "
            "numeric best_value, an integer n_evals and a boolean feasible")
    return report


@dataclass
class ComparisonReport:
    """Aligned cross-solver statistics on a shared problem and budget."""

    problem: str
    sense: str
    budget: int
    solvers: list
    grid: np.ndarray
    median_curves: dict
    iqr_curves: dict
    final_values: dict
    evals_used: dict
    feasibility: dict

    def final_table(self) -> str:
        """Plain-text summary table, one row per solver."""
        rows = [("solver", "median best", "iqr", "evals", "feasible")]
        for name in self.solvers:
            finals = np.array(self.final_values[name])
            q1, med, q3 = np.percentile(finals, [25.0, 50.0, 75.0])
            feas = self.feasibility[name]
            rows.append((
                name,
                f"{med:.6g}",
                f"[{q1:.6g}, {q3:.6g}]",
                f"{int(np.median(self.evals_used[name]))}",
                f"{feas['n_feasible']}/{feas['n_seeds']}",
            ))
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                 for row in rows]
        lines.insert(1, "  ".join("-" * w for w in widths))
        return "\n".join(lines)

    def write_curves_csv(self, path) -> Path:
        """Aligned median/quartile curves for every solver, one wide CSV."""
        path = Path(path)
        header = ["eval_index"]
        columns = []
        for name in self.solvers:
            header += [f"{name}_median", f"{name}_q1", f"{name}_q3"]
            columns += [self.median_curves[name], *self.iqr_curves[name]]
        _write_csv(path, header,
                   ([int(g), *(c[i] for c in columns)]
                    for i, g in enumerate(self.grid)))
        return path

    def plot(self, path) -> Path:
        """SVG of the median curves with interquartile bands; returns its path."""
        ylab = ("best objective (maximized)" if self.sense == "maximize"
                else "best objective")
        return plot_curve_bands(self.grid, self.median_curves, self.iqr_curves,
                                path, ylabel=ylab)


def compare(*reports) -> ComparisonReport:
    """Align experiment reports on a common evaluation grid.

    Accepts report dicts or paths to report JSON files; either kind is
    checked as ``load_report`` checks a file.  All reports must
    share the problem and the budget; per-seed best curves are already
    carry-forward monotone, so alignment just pads short traces.
    """
    if len(reports) == 1 and isinstance(reports[0], (list, tuple)):
        reports = tuple(reports[0])
    if not reports:
        raise ConfigError("compare needs at least one report")
    loaded = [_check_report(r, f"report {i}") if isinstance(r, dict) else load_report(r)
              for i, r in enumerate(reports)]

    first = loaded[0]
    for rep in loaded[1:]:
        if rep["problem"] != first["problem"]:
            raise ConfigError(
                f"mismatched problems: {first['problem']!r} vs {rep['problem']!r}")
        if rep["budget"] != first["budget"]:
            raise ConfigError(
                f"mismatched budgets: {first['budget']} vs {rep['budget']}")

    budget = first["budget"]
    grid = np.arange(1, budget + 1)
    solvers, median_curves, iqr_curves = [], {}, {}
    final_values, evals_used, feasibility = {}, {}, {}
    for rep in loaded:
        name = rep["solver"]
        if name in median_curves:  # same solver twice: keep both, suffixed
            k = 2
            while f"{name}_{k}" in median_curves:
                k += 1
            name = f"{name}_{k}"
        stack = np.array([_aligned_curve(c, budget) for c in rep["curves"].values()])
        solvers.append(name)
        median_curves[name] = np.median(stack, axis=0)
        iqr_curves[name] = (np.percentile(stack, 25.0, axis=0),
                            np.percentile(stack, 75.0, axis=0))
        final_values[name] = [s["best_value"] for s in rep["per_seed"]]
        evals_used[name] = [s["n_evals"] for s in rep["per_seed"]]
        feasibility[name] = {
            "n_feasible": int(sum(s["feasible"] for s in rep["per_seed"])),
            "n_seeds": len(rep["per_seed"]),
        }
    return ComparisonReport(
        problem=first["problem"], sense=first["sense"], budget=budget,
        solvers=solvers, grid=grid, median_curves=median_curves,
        iqr_curves=iqr_curves, final_values=final_values,
        evals_used=evals_used, feasibility=feasibility)
