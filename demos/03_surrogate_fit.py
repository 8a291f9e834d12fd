"""Fit the regressing surrogate to noisy samples and inspect it.

Samples a wavy 1D function with hash noise, fits the model twice (lambda
searched, lambda pinned to zero), prints the hyperparameters and the
leave-one-out diagnostics, then tabulates expected improvement along the
axis to show why the re-interpolation variance matters: with it, EI is
exactly zero at the sample sites and the infill search cannot stall on
already-visited points.
"""

import numpy as np

import sbopt as sb


def target(x, seed=0):
    base = np.sin(9.0 * x) + 0.6 * x
    return sb.apply_numerical_noise(float(base), [x], 0.08, seed)


def main():
    X = sb.maximin_lhs(12, 1, seed=5)
    y = np.array([target(x) for x in X[:, 0]])

    model = sb.fit(X, y)
    print(f"searched fit: theta={model.theta[0]:.3f} lambda={model.lam:.2e} "
          f"ll={model.log_likelihood:.2f}")
    pinned = sb.fit(X, y, sb.FitConfig(lam=0.0))
    print(f"interpolating fit: theta={pinned.theta[0]:.3f} lambda=0 "
          f"ll={pinned.log_likelihood:.2f}")

    print("\nleave-one-out diagnostics (searched fit):")
    for rec in sb.loo_cv(model):
        flag = " <- outlier" if rec.outlier else ""
        print(f"  x={X[rec.index, 0]:.3f} predicted {rec.prediction:7.3f} "
              f"actual {y[rec.index]:7.3f} "
              f"std resid {rec.standardized_residual:6.2f}{flag}")

    y_min = float(y.min())
    print("\nexpected improvement at the sample sites:")
    ei_ri = sb.expected_improvement(model, X, y_min, use_reinterp=True)
    ei_plain = sb.expected_improvement(model, X, y_min, use_reinterp=False)
    print(f"  with re-interpolation: max {ei_ri.max():.3e}")
    print(f"  plain error estimate:  max {ei_plain.max():.3e}")

    prop = sb.propose_infill(model, y_min, None,
                             sb.Bounds(np.zeros(1), np.ones(1)), seed=0)
    print(f"\ninfill proposal: x={prop.x[0]:.4f} EI={prop.ei:.4f}")
    print(f"nearest sample distance: "
          f"{np.min(np.abs(X[:, 0] - prop.x[0])):.4f}")


if __name__ == "__main__":
    main()
