"""Headline acceptance checks, one criterion per test.

Each test prints a single pass/fail line with the measured numbers
(visible under ``pytest -s``; pytest's own pass/fail report carries the
same verdict per criterion either way).  The two reservoir shootouts
dominate the runtime of this file; everything else is seconds.
"""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import mannwhitneyu

import sbopt as sb
import sbopt.bench as bench


def report(n: int, ok: bool, detail: str):
    print(f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n:02d}: {detail}"


def smooth_2d(x):
    return np.sin(5 * x[:, 0]) * np.cos(3 * x[:, 1]) + 0.3 * x[:, 1]


@pytest.fixture(scope="module")
def complex_runs():
    """Budget-100 runs of the three black-box solvers, seeds 0..9."""
    problem = bench.get_problem("complex")
    predicate = problem.feasibility_predicate()
    out = {}
    for solver in ("rk", "spsa", "direct"):
        finals, taus = [], []
        for seed in range(10):
            trace = bench.run_single(problem, solver, 100, seed)
            tau, ev = trace.best_feasible(predicate)
            finals.append(ev.value)
            taus.append(tau)
        out[solver] = (finals, taus)
    return out


@pytest.fixture(scope="module")
def simple_runs():
    """Budget-100 runs of all four solvers on the small fixture, seed 0."""
    problem = bench.get_problem("simple")
    best = {}
    for solver in ("pi", "rk", "spsa", "direct"):
        trace = bench.run_single(problem, solver, 100, 0)
        _, ev = trace.best_so_far()
        best[solver] = ev.value
    return best


def test_criterion_01_interpolation_limit():
    X = sb.maximin_lhs(11, 2, seed=3)
    y = smooth_2d(X)
    model = sb.fit(X, y, sb.FitConfig(lam=0.0))
    mu, s2 = sb.predict(model, X)
    err = float(np.max(np.abs(mu - y)))
    var = float(np.max(np.abs(s2)))
    report(1, err < 1e-8 and var < 1e-8,
           f"lambda=0 on 11 design points: max |pred - y| {err:.2e}, "
           f"max error var {var:.2e} (both < 1e-8)")


def test_criterion_02_ei_matches_quadrature():
    X = sb.maximin_lhs(14, 2, seed=3)
    y = smooth_2d(X)
    model = sb.fit(X, y, sb.FitConfig(lam=1e-3))
    y_min = float(np.median(y))
    pts = np.random.default_rng(11).random((40, 2))
    mu, s2 = sb.predict(model, pts)
    ei = sb.expected_improvement(model, pts, y_min, use_reinterp=False)
    worst = 0.0
    checked = 0
    for i in range(40):
        if checked == 20:
            break
        s = np.sqrt(s2[i])
        if s < 1e-12:
            continue
        want, _ = quad(
            lambda t: max(y_min - t, 0.0)
            * np.exp(-0.5 * ((t - mu[i]) / s) ** 2) / (s * np.sqrt(2 * np.pi)),
            mu[i] - 12 * s, y_min, limit=200)
        if want > 1e-9:
            worst = max(worst, abs(ei[i] - want) / want)
            checked += 1
    report(2, checked == 20 and worst < 1e-6,
           f"closed form vs quadrature on {checked} triples: "
           f"worst rel err {worst:.2e} (< 1e-6)")


def test_criterion_03_reinterp_error_vanishes_at_samples():
    X = sb.maximin_lhs(11, 2, seed=3)
    y = smooth_2d(X)
    worst_var = 0.0
    worst_ei = 0.0
    for lam in (1e-6, 1e-2, 0.1):
        model = sb.fit(X, y, sb.FitConfig(lam=lam))
        worst_var = max(worst_var, float(np.max(sb.reinterp_error(model, X))))
        ei = sb.expected_improvement(model, X, float(y.min()), use_reinterp=True)
        worst_ei = max(worst_ei, float(np.max(ei)))
    report(3, worst_var < 1e-8 and worst_ei == 0.0,
           f"lambda in {{1e-6, 1e-2, 0.1}}: max at-sample error var "
           f"{worst_var:.2e} (< 1e-8), max at-sample EI {worst_ei} (= 0)")


def test_criterion_04_gradient_estimate_exact_and_unbiased():
    def square(tau, seed):
        return float(np.dot(tau, tau))

    ev = sb.Evaluator(square, budget=None, seed=0)
    acc = np.zeros(2)
    for delta in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
        g, _, _ = sb.approx_gradient(ev, [1.0, 0.0], 0.1,
                                     np.array(delta, dtype=float))
        acc += g
    exact_err = float(np.max(np.abs(acc / 4 - np.array([2.0, 0.0]))))

    center = np.array([0.3, 0.5, 0.7, 0.2, 0.8])

    def quartic(tau, seed):
        return float(np.sum((np.asarray(tau) - center) ** 4))

    tau_0 = np.full(5, 0.55)
    true_g = 4 * (tau_0 - center) ** 3
    ev = sb.Evaluator(quartic, budget=None, seed=0)
    rng = np.random.default_rng(42)
    n = 100_000
    acc = np.zeros(5)
    acc_sq = np.zeros(5)
    for _ in range(n):
        g, _, _ = sb.approx_gradient(ev, tau_0, 0.02, sb.perturbation(5, rng))
        acc += g
        acc_sq += g * g
    mean = acc / n
    se = np.sqrt((acc_sq / n - mean**2) / n)
    z = float(np.max(np.abs(mean - true_g) / se))
    report(4, exact_err < 1e-12 and z <= 3.0,
           f"exhaustive average off [2, 0] by {exact_err:.1e} (< 1e-12); "
           f"quartic MC mean within {z:.2f} SE (<= 3)")


def test_criterion_05_spsa_converges_with_default_gains():
    opt = np.array([0.3, 0.7])

    def quadratic(tau, seed):
        return float((tau[0] - 0.3) ** 2 + (tau[1] - 0.7) ** 2)

    bounds = sb.Bounds.unit(2)
    errs = []
    for seed in range(20):
        ev = sb.Evaluator(quadratic, budget=None, seed=0)
        trace = sb.run_spsa(ev, [0.5, 0.5], bounds,
                            max_iterations=200, seed=seed)
        errs.append(float(np.linalg.norm(
            trace.iterations[-1]["tau_next"] - opt)))
    med = float(np.median(errs))
    report(5, med < 0.02,
           f"default gains, 200 iterations, 20 seeds: "
           f"median final error {med:.4f} (< 0.02)")


def test_criterion_06_partition_counts_and_coordinates():
    def bowl(tau, seed):
        return float((tau[0] - 0.21) ** 2 + (tau[1] - 0.64) ** 2)

    bounds = sb.Bounds.unit(2)
    trace = sb.run_direct(sb.Evaluator(bowl, budget=5, seed=0), bounds)
    got = sorted(tuple(np.round(r.tau, 9)) for r in trace.records)
    want = sorted([(0.5, 0.5), (1 / 6, 0.5), (5 / 6, 0.5),
                   (0.5, 1 / 6), (0.5, 5 / 6)])
    points_ok = bool(np.allclose(got, want))

    worst_vol = 0.0
    coords_ok = True
    for k in range(1, 21):
        ev = sb.Evaluator(bowl, budget=None, seed=0)
        trace = sb.run_direct(ev, bounds, max_iterations=k)
        cells = trace.annotations["direct_cells"]
        vol = sum(3.0 ** (-float(np.sum(c["depth"]))) for c in cells)
        worst_vol = max(worst_vol, abs(vol - 1.0))
        for cell in cells:
            for x, depth in zip(cell["center"], cell["depth"]):
                scaled = x * 2 * 3.0 ** int(depth)
                coords_ok &= (abs(scaled - round(scaled)) < 1e-9
                              and round(scaled) % 2 == 1)
    report(6, points_ok and worst_vol < 1e-9 and coords_ok,
           f"iteration 1 evaluates the 5 canonical points; tiling volume "
           f"off 1 by at most {worst_vol:.1e} over 20 iterations; all "
           f"centers of the form (2k+1)/(2*3^p)")


def test_criterion_07_partition_finds_the_strip():
    problem = bench.get_problem("strip")
    trace = bench.run_single(problem, "direct", 700, 0)
    _, best = trace.best_so_far()
    ref = problem.scenario["reference_value"]
    gap = abs(best.value - ref) / abs(ref)
    report(7, gap < 0.01,
           f"700 evaluations: best {best.value:.9f} vs optimum {ref:.9f}, "
           f"rel gap {gap:.2e} (< 1%)")


def test_criterion_08_controller_settles_and_hot_gains_oscillate():
    problem = bench.get_problem("plant")

    def run_with(p_p, p_i):
        cfg = sb.PIConfig(p_p, p_i, 15.0, n_max=49)
        ev = sb.Evaluator(problem.objective, budget=50, seed=0,
                          sense=problem.sense)
        return sb.run_pi(ev, cfg, problem.bounds)

    calm = run_with(0.02, 0.005)
    rows = calm.iterations
    resid = min(abs(r["k_bar"][0] - 15.0) for r in rows)
    evals = len(calm)

    def diff_var(trace):
        vals = np.array([r["value"] for r in trace.iterations])
        return float(np.var(np.diff(vals[10:])))

    ratio = diff_var(run_with(0.1, 0.03)) / diff_var(calm)
    report(8, resid < 0.5 and evals <= 50 and ratio >= 3.0,
           f"best |k_bar - k_cr| {resid:.3f} (< 0.5) within {evals} "
           f"evaluations; hot-gain difference variance ratio {ratio:.0f}x "
           f"(>= 3x)")


def test_criterion_09_final_solutions_feasible(complex_runs):
    spec = sb.SmoothingSpec(alpha_smooth=0.33, beta_smooth=5.0, m_intervals=8)
    worst = 0.0
    count = 0
    for solver, (_, taus) in complex_runs.items():
        for tau in taus:
            worst = max(worst, float(sb.violations(tau, spec).max()))
            count += 1
    report(9, count == 30 and worst <= 1e-6,
           f"{count} final solutions across rk/spsa/direct x 10 seeds: "
           f"max jump violation {worst:.2e} (<= 1e-6)")


def test_criterion_10_solver_ordering_on_the_hard_fixture(complex_runs):
    med = {s: float(np.median(v)) for s, (v, _) in complex_runs.items()}
    p = float(mannwhitneyu(complex_runs["rk"][0], complex_runs["direct"][0],
                           alternative="greater").pvalue)
    ok = med["rk"] > med["spsa"] > med["direct"] and p < 0.05
    report(10, ok,
           f"median final flow over 10 seeds: rk {med['rk']:.1f} > "
           f"spsa {med['spsa']:.1f} > direct {med['direct']:.1f}; "
           f"rk > direct one-sided rank test p {p:.1e} (< 0.05)")


def test_criterion_11_simple_problem_parity(simple_runs):
    problem = bench.get_problem("simple")
    base = problem.objective(np.zeros(2), 0)
    base = base[0] if isinstance(base, tuple) else base
    threshold = 0.1 * base
    worst = max(simple_runs.values())
    detail = ", ".join(f"{s} {v:.3f}" for s, v in simple_runs.items())
    report(11, worst < threshold,
           f"non-tolling objective {base:.3f}, threshold {threshold:.3f}; "
           f"best at budget 100: {detail} (all below)")


def test_criterion_12_composition_shift_costs_flow():
    flow_p = bench.get_problem("composition_flow")
    dens_p = bench.get_problem("composition_density")
    trace_f = bench.run_single(flow_p, "rk", 100, 0)
    _, best_f = trace_f.best_so_far()
    trace_d = bench.run_single(dens_p, "rk", 100, 0)
    tau_d, _ = trace_d.best_so_far()
    q_d = flow_p.objective(tau_d, 0)
    q_d = q_d[0] if isinstance(q_d, tuple) else q_d
    gap = 1.0 - q_d / best_f.value
    report(12, gap >= 0.15,
           f"mean flow {best_f.value:.1f} at the flow optimum vs "
           f"{q_d:.1f} at the shifted-density optimum: gap {100 * gap:.1f}% "
           f"(>= 15%)")
