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
from ..pi_control import run_pi
from ..spsa import SpsaGains, run_spsa
from .plotting import plot_curve_bands, write_best_curve_csv, write_nfd_scatter
from .problems import Problem, available_problems, get_problem


class ConfigError(SboError):
    """Bad experiment configuration; maps to CLI exit code 2."""


class Solver(NamedTuple):
    """One row of SOLVERS: the params a config may set, each with its JSON
    type (a key of ``PARAM_TYPES``), the runner, and the fewest evaluations
    one run needs to record any.  The runner raises ConfigError, before any
    evaluation, on a problem it cannot run on."""

    params: dict
    run: Callable  # (evaluator, problem, seed, params) -> Trace
    min_budget: int = 1


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
    return run_rk(evaluator, problem.bounds, seed=seed, **params)


_SPSA_GAINS = tuple(f.name for f in fields(SpsaGains))


def _run_spsa(evaluator, problem, seed, params):
    params = {"tau_0": problem.spsa_tau_0, **params}
    if params["tau_0"] is None:
        raise ConfigError(
            f"problem {problem.name!r} has no default SPSA start; pass params.tau_0")
    gains = SpsaGains(**{k: params.pop(k) for k in _SPSA_GAINS if k in params})
    return run_spsa(evaluator, bounds=problem.bounds, gains=gains, seed=seed, **params)


def _run_direct(evaluator, problem, seed, params):
    return run_direct(evaluator, problem.bounds, **params)


def _run_pi(evaluator, problem, seed, params):
    if problem.pi_config is None:
        raise ConfigError(
            f"solver 'pi' cannot run on problem {problem.name!r}: the controller needs "
            "per-interval density feedback and has no way to honor general constraints")
    return run_pi(evaluator, replace(problem.pi_config, **params), problem.bounds)


SOLVERS = {
    "pi": Solver({"n_max": "positive integer"}, _run_pi),
    "rk": Solver({"n_init": "positive integer", "use_reinterp": "boolean"}, _run_rk),
    "direct": Solver({"epsilon": "finite number", "max_iterations": "positive integer"},
                     _run_direct),
    "spsa": Solver({**dict.fromkeys(_SPSA_GAINS, "finite number"),
                    "max_iterations": "positive integer",
                    "tau_0": "list of finite numbers"}, _run_spsa,
                   min_budget=2),  # evaluations come in pairs
}


def _check_budget(solver: str, budget) -> None:
    """Reject anything but a positive integer, and a budget below the
    solver's ``min_budget``."""
    # type() rather than isinstance(): JSON true must not pass as 1
    if type(budget) is not int or budget < 1:
        raise ConfigError(f"budget must be a positive integer, got {budget!r}")
    least = SOLVERS[solver].min_budget
    if budget < least:
        raise ConfigError(
            f"solver {solver!r} needs a budget of at least {least}, got {budget}")


def _check_seeds(seeds) -> None:
    """Reject anything but a non-empty sequence of distinct integers in
    [0, 2**63), the range the simulator's noise hash packs a seed in."""
    # type() rather than isinstance(): JSON true must not pass as 1
    if (not isinstance(seeds, (list, tuple)) or not seeds
            or any(type(s) is not int for s in seeds) or len(set(seeds)) < len(seeds)):
        raise ConfigError(
            f"seeds must be a non-empty list of distinct integers, got {seeds!r}")
    negative = [s for s in seeds if s < 0]
    if negative:
        raise ConfigError(f"seeds must be non-negative, got {negative}")
    too_big = [s for s in seeds if s >= 2 ** 63]
    if too_big:
        raise ConfigError(f"seeds must be below 2**63, got {too_big}")


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

    Checks the solver name, the budget, the seeds and the params' keys and
    types, in that order.  Then it runs the solver through ``_run`` with a
    zero budget: the runner refuses a problem it cannot run on, and every
    solver checks its arguments before its first evaluation and evaluates
    nothing without budget, so this applies exactly the runner's refusal
    and the solver's own range checks.
    """
    # isinstance first: a list or dict as the name would raise TypeError here
    if not isinstance(solver, str) or solver not in SOLVERS:
        raise ConfigError(f"unknown solver {solver!r}; known: {list(SOLVERS)}")
    _check_budget(solver, budget)
    _check_seeds(seeds)
    _check_params(solver, params)
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
        cfg = cls(**raw)
        # copy the containers; validate() rejects anything of the wrong type
        if isinstance(cfg.seeds, (list, tuple)):
            cfg.seeds = tuple(cfg.seeds)
        if isinstance(cfg.params, dict):
            cfg.params = dict(cfg.params)
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(_read_json(path, "config", f"config file {path}"))

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
    a positive integer or is below the solver's ``min_budget``, a seed that
    is not an integer in [0, 2**63), params the solver does not take or of
    the wrong type, a problem the solver cannot run on, and params out of
    the solver's own range.  Errors raised during the run itself, by the
    objective say, keep their type.
    """
    params = {} if params is None else params
    _check_run(problem, solver, budget, (seed,), params)
    return _run(problem, solver, budget, seed, params)


def _run(problem: Problem, solver: str, budget: int, seed: int, params: dict) -> Trace:
    """Run a checked solver on a fresh evaluator of the problem with ``budget``
    evaluations on ``seed``: the one place a problem's constraint enters a run."""
    evaluator = Evaluator(problem.objective, budget=budget, sense=problem.sense,
                          seed=seed, feasible=problem.feasibility_predicate(),
                          penalty=problem.penalty, sampler=problem.infill_sampler)
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


class SeedStats(NamedTuple):
    """One run's statistics over its seeds: the median and quartile best
    curves at evaluations 1..budget, the median and quartiles of the final
    best values, the feasible and total seed counts, and the median
    evaluation count."""

    median_curve: np.ndarray
    iqr_curve: tuple
    median_best: float
    iqr_best: tuple
    n_feasible: int
    n_seeds: int
    n_evals: int


def _seed_stats(per_seed: list, curves, budget: int) -> SeedStats:
    """The one place statistics over seeds are taken: ``per_seed`` holds
    the report's per-seed summaries, ``curves`` each seed's best curve."""
    stack = np.array([_aligned_curve(c, budget) for c in curves])
    q1, med, q3 = np.percentile([s["best_value"] for s in per_seed], [25.0, 50.0, 75.0])
    return SeedStats(
        median_curve=np.median(stack, axis=0),
        iqr_curve=(np.percentile(stack, 25.0, axis=0), np.percentile(stack, 75.0, axis=0)),
        median_best=float(med),
        iqr_best=(float(q1), float(q3)),
        n_feasible=int(sum(s["feasible"] for s in per_seed)),
        n_seeds=len(per_seed),
        n_evals=int(np.median([s["n_evals"] for s in per_seed])),
    )


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

    per_seed, curves = [], {}
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

    stats = _seed_stats(per_seed, curves.values(), config.budget)
    report = {
        "problem": config.problem,
        "solver": config.solver,
        "sense": problem.sense,
        "budget": config.budget,
        "seeds": list(config.seeds),
        "params": config.params,
        "per_seed": per_seed,
        "summary": {
            "median_best": stats.median_best,
            "iqr_best": list(stats.iqr_best),
            "n_feasible": stats.n_feasible,
            "n_seeds": stats.n_seeds,
        },
        "curves": curves,
    }

    with open(out_dir / f"report_{tag}.json", "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    write_best_curve_csv(np.arange(1, config.budget + 1), stats.median_curve,
                         out_dir / f"curve_{tag}.csv")

    simulate = getattr(problem.objective, "simulate", None)
    if simulate is not None:
        # replay the best seed's solution for a density-flow scatter
        ranked = sorted(per_seed, key=lambda s: s["best_value"],
                        reverse=(problem.sense == "maximize"))
        top = ranked[0]
        out = simulate(np.array(top["best_tau"]), top["seed"])
        write_nfd_scatter(out, out_dir / f"nfd_{tag}.csv")

    return report


def _read_json(path, kind: str, name: str):
    """The JSON value in the UTF-8 file at ``path``.  Raises ConfigError when
    the file is missing, cannot be read or does not decode; ``kind`` names
    the file in the first message, ``name`` starts the others."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{kind} file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"{name} cannot be read: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"{name} is not valid JSON: {exc}") from exc


def load_report(path) -> dict:
    """Read a report JSON written by run_experiment, checking what compare reads.

    Raises ConfigError unless the file can be read and holds JSON that
    ``_check_report`` accepts.
    """
    return _check_report(_read_json(path, "report", f"report {path}"), f"report {path}")


def _check_report(report, name: str) -> dict:
    """Return ``report`` if it holds what compare reads, else raise ConfigError.

    The keys must be present, ``budget`` a positive integer, ``curves`` a
    map from seeds to non-empty lists of finite numbers and ``per_seed`` a
    non-empty list of objects with a finite numeric ``best_value``, an integer
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
            or not all(isinstance(c, list) and c and all(map(_is_finite_number, c))
                       for c in curves.values())):
        raise ConfigError(
            f"{name}: curves must map seeds to non-empty lists of finite numbers")
    per_seed = report["per_seed"]
    if (not isinstance(per_seed, list) or not per_seed
            or not all(isinstance(s, dict) and _is_finite_number(s.get("best_value"))
                       and type(s.get("n_evals")) is int
                       and type(s.get("feasible")) is bool for s in per_seed)):
        raise ConfigError(
            f"{name}: per_seed must be a non-empty list of objects with a "
            "finite numeric best_value, an integer n_evals and a boolean feasible")
    return report


@dataclass
class ComparisonReport:
    """Cross-solver statistics on a shared problem and budget: ``stats``
    maps each solver, in report order, to its ``SeedStats``."""

    problem: str
    sense: str
    budget: int
    stats: dict

    @property
    def grid(self) -> np.ndarray:
        return np.arange(1, self.budget + 1)

    def final_table(self) -> str:
        """Plain-text summary table, one row per solver."""
        rows = [("solver", "median best", "iqr", "evals", "feasible")]
        for name, s in self.stats.items():
            q1, q3 = s.iqr_best
            rows.append((name, f"{s.median_best:.6g}", f"[{q1:.6g}, {q3:.6g}]",
                         f"{s.n_evals}", f"{s.n_feasible}/{s.n_seeds}"))
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
        for name, s in self.stats.items():
            header += [f"{name}_median", f"{name}_q1", f"{name}_q3"]
            columns += [s.median_curve, *s.iqr_curve]
        _write_csv(path, header,
                   ([int(g), *(c[i] for c in columns)]
                    for i, g in enumerate(self.grid)))
        return path

    def plot(self, path) -> Path:
        """SVG of the median curves with interquartile bands; returns its path."""
        ylab = ("best objective (maximized)" if self.sense == "maximize"
                else "best objective")
        return plot_curve_bands(self.grid,
                                {name: s.median_curve for name, s in self.stats.items()},
                                {name: s.iqr_curve for name, s in self.stats.items()},
                                path, ylabel=ylab)


def compare(*reports) -> ComparisonReport:
    """Align experiment reports on a common evaluation grid.

    Accepts report dicts or paths to report JSON files; either kind is
    checked as ``load_report`` checks a file.  All reports must
    share the problem and the budget; per-seed best curves are already
    carry-forward monotone, so alignment just pads short traces.
    """
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
    stats = {}
    for rep in loaded:
        name = rep["solver"]
        if name in stats:  # same solver twice: keep both, suffixed
            k = 2
            while f"{name}_{k}" in stats:
                k += 1
            name = f"{name}_{k}"
        stats[name] = _seed_stats(rep["per_seed"], rep["curves"].values(), budget)
    return ComparisonReport(first["problem"], first["sense"], budget, stats)
