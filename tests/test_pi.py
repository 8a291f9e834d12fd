"""Per-interval PI toll controller."""

import numpy as np
import pytest

import sbopt as sb
from sbopt.bench import plant_problem, simple_toll_problem

CFG = sb.PIConfig(p_p=0.02, p_i=0.005, k_cr=15.0)


def linear_plant(k0):
    k0 = np.array(k0, dtype=float)

    def objective(tau, seed):
        k_bar = k0 - 25.0 * np.asarray(tau)
        return float(np.mean(np.abs(k_bar - 15.0))), {"k_bar": k_bar}

    return objective


def test_first_toll_is_integral_on_baseline():
    assert np.allclose(sb.pi_init(CFG, [35.0, 35.0]), [0.1, 0.1])
    assert np.allclose(sb.pi_init(CFG, [15.0, 15.0]), [0.0, 0.0])
    # below-critical densities push the raw toll negative; the loop clamps
    assert np.allclose(sb.pi_init(CFG, [5.0, 5.0]), [-0.05, -0.05])


def test_step_combines_both_corrections():
    out = sb.pi_step(CFG, [0.1], [30.0], [35.0])
    # 0.1 + 0.02 * (30 - 35) + 0.005 * (30 - 15)
    assert out[0] == pytest.approx(0.075)


def test_step_fixed_point_at_critical_density():
    out = sb.pi_step(CFG, [0.4], [15.0], [15.0])
    assert out[0] == pytest.approx(0.4)


def test_gains_must_be_positive():
    with pytest.raises(ValueError):
        sb.PIConfig(0.0, 0.005, 15.0)
    with pytest.raises(ValueError):
        sb.PIConfig(0.02, -0.1, 15.0)


@pytest.mark.parametrize("args, message", [
    ((float("nan"), 0.005, 15.0), "p_p must be positive and finite"),
    ((0.02, float("inf"), 15.0), "p_i must be positive and finite"),
    ((0.02, 0.005, float("nan")), "k_cr must be finite"),
    ((0.02, 0.005, 15.0, 2.5), "n_max must be an integer"),
], ids=["p_p-nan", "p_i-inf", "k_cr-nan", "n_max-fraction"])
def test_config_rejects_impossible_settings(args, message):
    with pytest.raises(ValueError, match=message):
        sb.PIConfig(*args)


def test_single_iteration_costs_two_evaluations():
    p = plant_problem()
    ev = sb.Evaluator(p.objective, budget=50, seed=0, sense=p.sense)
    trace = sb.run_pi(ev, sb.PIConfig(0.02, 0.005, 15.0, n_max=1),
                      p.bounds)
    assert len(trace) == 2


def test_missing_density_aux_raises():
    def bare(tau, seed):
        return float(np.sum(tau))

    with pytest.raises(sb.EvaluationError):
        sb.run_pi(sb.Evaluator(bare, budget=5, seed=0), CFG,
                  sb.Bounds.unit(2))


def test_plant_settles_within_fifty_evaluations():
    p = plant_problem()
    ev = sb.Evaluator(p.objective, budget=50, seed=0, sense=p.sense)
    trace = sb.run_pi(ev, p.pi_config, p.bounds)
    rows = trace.iterations
    assert len(trace) == 50
    residuals = [abs(r["k_bar"][0] - 15.0) for r in rows]
    assert min(residuals) < 0.5


def test_plant_residual_decays_geometrically():
    p = plant_problem()
    ev = sb.Evaluator(p.objective, budget=50, seed=0, sense=p.sense)
    trace = sb.run_pi(ev, p.pi_config, p.bounds)
    rows = trace.iterations
    residuals = [abs(r["k_bar"][0] - 15.0) for r in rows]
    ratios = [residuals[i + 1] / residuals[i] for i in range(1, 13)]
    assert all(0.85 < r < 0.98 for r in ratios)
    assert max(ratios) - min(ratios) < 0.1


def test_hot_gains_oscillate():
    p = plant_problem()

    def run_with(p_p, p_i):
        cfg = sb.PIConfig(p_p, p_i, 15.0, n_max=49)
        ev = sb.Evaluator(p.objective, budget=50, seed=0, sense=p.sense)
        trace = sb.run_pi(ev, cfg, p.bounds)
        vals = np.array([r["value"] for r in trace.iterations])
        return float(np.var(np.diff(vals[10:])))

    assert run_with(0.1, 0.03) >= 3.0 * run_with(0.02, 0.005)


def test_intervals_are_independent_loops():
    cfg = sb.PIConfig(0.02, 0.005, 15.0, n_max=20)
    bounds = sb.Bounds.unit(2)
    a = sb.run_pi(sb.Evaluator(linear_plant([35.0, 28.0]), budget=25, seed=0),
                  cfg, bounds)
    b = sb.run_pi(sb.Evaluator(linear_plant([28.0, 35.0]), budget=25, seed=0),
                  cfg, bounds)
    taus_a = np.array([r["tau"] for r in a.iterations])
    taus_b = np.array([r["tau"] for r in b.iterations])
    assert np.allclose(taus_a, taus_b[:, ::-1], atol=1e-12)


def test_reaches_low_objective_on_reservoir():
    p = simple_toll_problem()
    ev = sb.Evaluator(p.objective, budget=50, seed=0, sense=p.sense)
    trace = sb.run_pi(ev, p.pi_config, p.bounds)
    _, best = trace.best_so_far()
    assert len(trace) == 50
    assert best.value < 1.0


def test_iteration_log_csv(tmp_path):
    p = plant_problem()
    ev = sb.Evaluator(p.objective, budget=10, seed=0, sense=p.sense)
    trace = sb.run_pi(ev, p.pi_config, p.bounds)
    path = tmp_path / "pi.csv"
    sb.write_records_csv(trace.iterations, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,evals,tau_1,tau_2,k_bar_1,k_bar_2,value"
    assert len(lines) == 1 + len(trace)
