"""Follow the deterministic partition search into a narrow valley.

Runs the rectangle-splitting solver on the 2D test surface whose global
optimum hides in a thin curved strip, printing the iteration log (cells,
selections, incumbent) and the final gap to the known optimum.  The
final tiling can be dumped to CSV for plotting the cell structure.
"""

import argparse

import sbopt as sb
from sbopt.bench import strip_problem


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=700)
    parser.add_argument("--cells-out", default=None,
                        help="write the final tiling CSV here")
    args = parser.parse_args()

    problem = strip_problem()
    ev = sb.Evaluator(problem.objective, budget=args.budget, seed=0,
                      sense=problem.sense)
    trace = sb.run_direct(ev, problem.bounds)

    rows = trace.iterations
    print("iter  cells  selected  incumbent")
    step = max(1, len(rows) // 12)
    for row in rows[::step] + ([rows[-1]] if (len(rows) - 1) % step else []):
        print(f"{row['iteration']:4d}  {row['n_rects']:5d}  "
              f"{row['n_selected']:8d}  {row['y_min']:.9f}")

    tau, best = trace.best_so_far()
    ref = problem.scenario["reference_value"]
    gap = abs(best.value - ref) / abs(ref)
    print(f"\nbest value {best.value:.9f} at ({tau[0]:.4f}, {tau[1]:.4f})")
    print(f"known optimum {ref:.9f}, relative gap {gap:.2e} "
          f"after {len(trace)} evaluations")

    if args.cells_out:
        sb.write_records_csv(trace.annotations["direct_cells"], args.cells_out)
        print(f"tiling written to {args.cells_out}")


if __name__ == "__main__":
    main()
