"""Watch the PI toll controller settle onto the critical density.

First on a linear toy plant where every iteration is easy to follow by
hand, then on the reservoir simulator, printing the toll vector and the
per-interval mean densities as the loop walks them toward the target.
Pass --hot to see what overly aggressive gains do to the same plant.
"""

import argparse

import sbopt as sb
from sbopt.bench import plant_problem, simple_toll_problem


def show_run(trace, every=5):
    rows = trace.iterations
    for row in rows[::every] + ([rows[-1]] if (len(rows) - 1) % every else []):
        tau = ", ".join(f"{t:6.3f}" for t in row["tau"])
        k = ", ".join(f"{x:6.2f}" for x in row["k_bar"])
        print(f"  iter {row['iteration']:3d}  tau [{tau}]  k_bar [{k}]"
              f"  value {row['value']:8.4f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hot", action="store_true",
                        help="use oscillating gains (0.1, 0.03) on the plant")
    args = parser.parse_args()

    plant = plant_problem()
    gains = (0.1, 0.03) if args.hot else (plant.pi_config.p_p,
                                          plant.pi_config.p_i)
    cfg = sb.PIConfig(gains[0], gains[1], plant.pi_config.k_cr, n_max=30)
    print(f"linear plant, gains P={gains[0]}, I={gains[1]}, "
          f"target k_cr={cfg.k_cr}")
    ev = sb.Evaluator(plant.objective, budget=None, seed=0, sense=plant.sense)
    show_run(sb.run_pi(ev, cfg, plant.bounds))

    print("\nreservoir fixture, stock gains")
    toll = simple_toll_problem()
    ev = sb.Evaluator(toll.objective, budget=60, seed=0, sense=toll.sense)
    trace = sb.run_pi(ev, toll.pi_config, toll.bounds)
    show_run(trace, every=10)
    _, best = trace.best_so_far()
    print(f"\nbest mean density offset after {len(trace)} evaluations: "
          f"{best.value:.4f}")


if __name__ == "__main__":
    main()
