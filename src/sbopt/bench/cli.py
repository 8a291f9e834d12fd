"""Command-line front end.

Three subcommands: ``run`` executes one experiment from a JSON config,
``compare`` aligns finished reports into a summary table (with ``--out``,
also a curves CSV and an SVG figure), ``plot`` turns a trace CSV into a
best-curve CSV and SVG.  Exit codes: 0 ok, 2 configuration error, 3
runtime error.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from ..core import SboError
from .harness import SOLVERS, ConfigError, ExperimentConfig, compare, run_experiment
from .plotting import emit_plot_data
from .problems import available_problems

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbo",
        description="Budgeted solver runs on calibrated toll-pricing and "
                    "analytic test problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment from a JSON config")
    solvers = "; ".join(f"{name} ({', '.join(sorted(spec.params))})"
                        for name, spec in SOLVERS.items())
    run.add_argument("--config", required=True, metavar="FILE",
                     help="experiment config (problem, solver, budget, seeds, "
                          f"params); problems: {', '.join(available_problems())}; "
                          f"solvers and their params: {solvers}")
    run.add_argument("--seed", type=int, default=None,
                     help="replace the config's seed list with this one seed")
    run.add_argument("--budget", type=int, default=None,
                     help="override the config's evaluation budget")
    run.add_argument("--out", default=None, metavar="DIR",
                     help="override the config's output directory")

    comp = sub.add_parser("compare",
                          help="align reports from one problem into a table")
    comp.add_argument("reports", nargs="+", metavar="REPORT",
                      help="report JSON files written by 'sbo run'")
    comp.add_argument("--out", default=None, metavar="CSV",
                      help="also write aligned median/quartile curves here")

    plot = sub.add_parser("plot", help="emit plot data from a trace CSV")
    plot.add_argument("trace", help="trace CSV written by 'sbo run'")
    plot.add_argument("--out", default=None, metavar="DIR",
                      help="output directory (default: next to the trace)")
    return parser


def _cmd_run(args) -> int:
    try:
        config = ExperimentConfig.from_json(args.config)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {args.config}")
    if args.seed is not None:
        config = replace(config, seeds=(args.seed,))
    if args.budget is not None:
        config = replace(config, budget=args.budget)
    if args.out is not None:
        config = replace(config, output_dir=args.out)
    config.validate()
    report = run_experiment(config)
    for s in report["per_seed"]:
        flag = "" if s["feasible"] else "  [infeasible]"
        print(f"seed {s['seed']}: best {s['best_value']:.6g} "
              f"after {s['n_evals']} evaluations{flag}")
    summary = report["summary"]
    print(f"{report['solver']} on {report['problem']}: median best "
          f"{summary['median_best']:.6g}, iqr [{summary['iqr_best'][0]:.6g}, "
          f"{summary['iqr_best'][1]:.6g}], feasible "
          f"{summary['n_feasible']}/{summary['n_seeds']}")
    print(f"report: {Path(config.output_dir) / f'report_{config.problem}_{config.solver}.json'}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    for path in args.reports:
        if not Path(path).exists():
            raise ConfigError(f"report file not found: {path}")
    result = compare(*args.reports)
    print(f"problem: {result.problem}  budget: {result.budget}  "
          f"sense: {result.sense}")
    print(result.final_table())
    if args.out:
        csv_path = result.write_curves_csv(args.out)
        print(f"curves: {csv_path}")
        print(f"figure: {result.plot(Path(args.out).with_suffix('.svg'))}")
    return EXIT_OK


def _cmd_plot(args) -> int:
    trace = Path(args.trace)
    if not trace.exists():
        raise SboError(f"trace file not found: {trace}")
    out_dir = Path(args.out) if args.out else trace.parent
    for path in emit_plot_data(trace, out_dir):
        print(f"wrote {path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_plot(args)
    except ConfigError as exc:
        print(f"sbo: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SboError, OSError) as exc:
        print(f"sbo: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
