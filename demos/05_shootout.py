"""The solvers' shootout on a tolling fixture, through the benchmark harness.

Runs every solver the harness accepts for the problem (the feedback
controller, the surrogate loop, the stochastic-approximation solver and
the partition search) at the same evaluation budget, then prints the
aligned comparison table.

``--problem simple`` is the small two-interval fixture: every solver
should land in the same ballpark, well under the non-tolling objective.
``--problem complex`` is the eight-interval joint-toll problem.  It is
16-dimensional, carries hash noise of about 0.41 flow sd, maximizes mean
flow, and couples successive intervals through jump constraints (the
surrogate gets them as a feasibility row mask, the other two as an
exterior penalty); the controller cannot run on it.  Expect the
surrogate loop to pull ahead at a 100-evaluation budget and the
partition search to trail; add seeds for a sturdier comparison.
"""

import argparse
import tempfile

import numpy as np

import sbopt.bench as bench


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--problem", choices=("simple", "complex"), default="simple")
    parser.add_argument("--budget", type=int, default=100)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--out", default=None,
                        help="output directory (default: a temp dir)")
    args = parser.parse_args()

    out_dir = args.out or tempfile.mkdtemp(prefix=f"{args.problem}_shootout_")
    problem = bench.get_problem(args.problem)
    baseline = problem.objective(np.zeros(problem.bounds.m_dim), 0)[0]
    print(f"non-tolling objective: {baseline:.4f}\n")

    reports = []
    for solver in ("pi", "rk", "spsa", "direct"):
        cfg = bench.ExperimentConfig(problem=args.problem, solver=solver,
                                     budget=args.budget, seeds=tuple(args.seeds),
                                     output_dir=out_dir)
        try:
            cfg.validate()
        except bench.ConfigError as exc:
            print(f"skipping {solver}: {exc}")
            continue
        print(f"running {solver} ...")
        reports.append(bench.run_experiment(cfg))

    print()
    print(bench.compare(*reports).final_table())
    print(f"\nreports and traces in {out_dir}")


if __name__ == "__main__":
    main()
