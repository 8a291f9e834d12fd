"""Experiment runner: seed-replicated solver runs with files on disk.

A run is (problem, solver, budget, seeds).  Every seed produces a trace
CSV; the experiment produces a report JSON holding per-seed summaries and
the per-evaluation best curves, plus plot-data CSVs.  Reports from
different solvers on the same problem and budget feed ``compare``.
Each solver is declared once, in ``SOLVERS``.
"""

import json
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..constraints import violations
from ..core import Evaluator, SboError, Trace, _write_csv, write_trace_csv
from ..direct import run_direct
from ..kriging import FitConfig, InfillConfig, run_rk
from ..mfdsim import run_reservoir
from ..pi_control import run_pi
from ..spsa import SpsaGains, StopRule, run_spsa
from .plotting import plot_curve_bands, write_best_curve_csv, write_nfd_scatter
from .problems import Problem, available_problems, get_problem


class ConfigError(SboError):
    """Bad experiment configuration; maps to CLI exit code 2."""


class Solver(NamedTuple):
    """One row of SOLVERS: the params a config may set, the runner, and an
    optional check(problem) returning why the solver cannot run on it."""

    params: frozenset
    run: Callable  # (evaluator, problem, seed, params) -> Trace
    check: Callable | None = None


# The runners look up run_rk, run_spsa, run_direct and run_pi in this
# module's globals at call time, so a wrapper rebound over those names
# (perfbench's tracer does this) sees every solver run.

def _run_rk(evaluator, problem, seed, params):
    return run_rk(
        evaluator, problem.bounds,
        n_init=int(params.get("n_init", problem.rk_n_init)),
        feasibility_predicate=problem.feasibility_mask(),
        use_reinterp=bool(params.get("use_reinterp", True)),
        fit_config=FitConfig(seed=seed),
        infill_config=InfillConfig(seed=seed, sampler=problem.infill_sampler),
        seed=seed)


_SPSA_GAINS = ("a", "big_a", "alpha", "c", "gamma")


def _run_spsa(evaluator, problem, seed, params):
    tau_0 = params.get("tau_0", problem.spsa_tau_0)
    if tau_0 is None:
        raise ConfigError(
            f"problem {problem.name!r} has no default SPSA start; pass params.tau_0")
    gain_args = {k: params[k] for k in _SPSA_GAINS if k in params}
    stop = None
    if "max_iterations" in params:
        stop = StopRule(max_iterations=int(params["max_iterations"]))
    return run_spsa(evaluator, np.asarray(tau_0, dtype=float), problem.bounds,
                    gains=SpsaGains(**gain_args) if gain_args else None, stop=stop,
                    penalty=problem.penalty,
                    gradient_scale=float(params.get("gradient_scale", 1.0)),
                    seed=seed)


def _run_direct(evaluator, problem, seed, params):
    max_it = params.get("max_iterations")
    return run_direct(evaluator, problem.bounds,
                      epsilon=float(params.get("epsilon", 1e-4)),
                      max_iterations=None if max_it is None else int(max_it),
                      penalty=problem.penalty)


def _pi_check(problem):
    if problem.pi_config is None:
        return ("the controller needs per-interval density feedback and has no "
                "way to honor general constraints")
    return None


def _run_pi(evaluator, problem, seed, params):
    cfg = problem.pi_config
    if "n_max" in params:
        cfg = replace(cfg, n_max=int(params["n_max"]))
    return run_pi(evaluator, cfg, problem.bounds, seed=seed)


SOLVERS = {
    "pi": Solver(frozenset({"n_max"}), _run_pi, _pi_check),
    "rk": Solver(frozenset({"n_init", "use_reinterp"}), _run_rk),
    "direct": Solver(frozenset({"epsilon", "max_iterations"}), _run_direct),
    "spsa": Solver(frozenset({*_SPSA_GAINS, "max_iterations", "gradient_scale", "tau_0"}),
                   _run_spsa),
}


def _check_problem(solver: str, problem: Problem) -> None:
    check = SOLVERS[solver].check
    reason = None if check is None else check(problem)
    if reason is not None:
        raise ConfigError(f"solver {solver!r} cannot run on problem {problem.name!r}: "
                          f"{reason}")


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
        known = {"problem", "solver", "budget", "seeds", "output_dir", "params"}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        missing = sorted({"problem", "solver", "budget"} - set(raw))
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
        if self.solver not in SOLVERS:
            raise ConfigError(f"unknown solver {self.solver!r}; known: {list(SOLVERS)}")
        # type() rather than isinstance(): JSON true must not pass as 1
        if type(self.budget) is not int or self.budget < 1:
            raise ConfigError(f"budget must be a positive integer, got {self.budget!r}")
        seeds = self.seeds
        if (not isinstance(seeds, (list, tuple)) or not seeds
                or any(type(s) is not int for s in seeds) or len(set(seeds)) < len(seeds)):
            raise ConfigError(
                f"seeds must be a non-empty list of distinct integers, got {seeds!r}")
        if not isinstance(self.params, dict):
            raise ConfigError("params must be an object")
        allowed = SOLVERS[self.solver].params
        bad = sorted(set(self.params) - allowed)
        if bad:
            raise ConfigError(
                f"params {bad} not recognized for solver {self.solver!r}; "
                f"allowed: {sorted(allowed)}")
        # solver-problem compatibility is structural, so reject it here
        # rather than at run time
        _check_problem(self.solver, get_problem(self.problem))


def run_single(problem: Problem, solver: str, budget: int, seed: int,
               params: dict = None) -> Trace:
    """Run one solver on one problem for one seed; returns the trace."""
    evaluator = Evaluator(problem.objective, budget=budget, sense=problem.sense,
                          seed=seed)
    if solver not in SOLVERS:
        raise ConfigError(f"unknown solver {solver!r}")
    _check_problem(solver, problem)
    try:
        return SOLVERS[solver].run(evaluator, problem, seed, dict(params or {}))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad parameters for solver {solver!r}: {exc}") from exc


def _summarize_seed(problem: Problem, trace: Trace, seed: int) -> dict:
    predicate = problem.feasibility_predicate()
    feasible = True
    if predicate is None:
        tau, ev = trace.best_so_far()
    else:
        hit = trace.best_feasible(predicate)
        if hit is None:
            tau, ev = trace.best_so_far()
            feasible = False
        else:
            tau, ev = hit
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


def _aligned_curve(trace: Trace, budget: int) -> list:
    curve = list(trace.best_curve)
    if len(curve) < budget:
        curve = curve + [curve[-1]] * (budget - len(curve))
    return [float(v) for v in curve[:budget]]


def run_experiment(config: ExperimentConfig) -> dict:
    """Run all seeds, write traces, plot data, and the report JSON.

    Per-seed runs are independent of each other (fresh evaluator, seeded
    generators), so their order never changes the results; all files are
    written from this single process.  Returns the report dict, which is
    exactly what lands in report_<problem>_<solver>.json.
    """
    config.validate()
    problem = get_problem(config.problem)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{config.problem}_{config.solver}"

    per_seed, curves, traces = [], {}, {}
    for seed in config.seeds:
        trace = run_single(problem, config.solver, config.budget, seed, config.params)
        if len(trace) == 0:
            raise SboError(f"solver {config.solver!r} produced an empty trace")
        trace_path = out_dir / f"trace_{tag}_seed{seed}.csv"
        write_trace_csv(trace, trace_path)
        summary = _summarize_seed(problem, trace, seed)
        summary["trace_csv"] = trace_path.name
        per_seed.append(summary)
        curves[str(seed)] = _aligned_curve(trace, config.budget)
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


def load_report(path) -> dict:
    """Read a report JSON written by run_experiment, with shape checks."""
    try:
        with open(path) as fh:
            report = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"report {path} is not valid JSON: {exc}") from exc
    want = {"problem", "solver", "sense", "budget", "seeds", "per_seed", "curves"}
    missing = sorted(want - set(report))
    if missing:
        raise ConfigError(f"report {path} is missing keys: {missing}")
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

    def to_dict(self) -> dict:
        return {
            "problem": self.problem,
            "sense": self.sense,
            "budget": self.budget,
            "solvers": list(self.solvers),
            "final_values": {k: list(map(float, v))
                             for k, v in self.final_values.items()},
            "median_final": {k: float(np.median(v))
                             for k, v in self.final_values.items()},
            "feasibility": self.feasibility,
        }


def compare(*reports) -> ComparisonReport:
    """Align experiment reports on a common evaluation grid.

    Accepts report dicts or paths to report JSON files.  All reports must
    share the problem and the budget; per-seed best curves are already
    carry-forward monotone, so alignment just pads short traces.
    """
    if len(reports) == 1 and isinstance(reports[0], (list, tuple)):
        reports = tuple(reports[0])
    if not reports:
        raise ConfigError("compare needs at least one report")
    loaded = [r if isinstance(r, dict) else load_report(r) for r in reports]

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
        curves = []
        for c in rep["curves"].values():
            c = list(c) + [c[-1]] * (budget - len(c))
            curves.append(c[:budget])
        stack = np.array(curves)
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
