"""Surrogate vs partition vs stochastic approximation on the hard fixture.

The eight-interval joint-toll problem is 16-dimensional, carries hash
noise of about 0.41 flow sd, maximizes mean flow, and couples successive
intervals through jump constraints (the surrogate gets them as a
feasibility row mask, the other two as an exterior penalty).  Expect the surrogate
loop to pull ahead at a 100-evaluation budget and the partition search
to trail; add seeds for a sturdier comparison.
"""

import argparse
import tempfile

import sbopt.bench as bench


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=100)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--out", default=None,
                        help="output directory (default: a temp dir)")
    args = parser.parse_args()

    out_dir = args.out or tempfile.mkdtemp(prefix="complex_shootout_")
    reports = []
    for solver in ("rk", "spsa", "direct"):
        cfg = bench.ExperimentConfig(problem="complex", solver=solver,
                                     budget=args.budget,
                                     seeds=tuple(args.seeds),
                                     output_dir=out_dir)
        print(f"running {solver} ...")
        reports.append(bench.run_experiment(cfg))

    comparison = bench.compare(*reports)
    print()
    print(comparison.final_table())
    print(f"\nreports and traces in {out_dir}")


if __name__ == "__main__":
    main()
