"""Design, fit, infill loop behavior on toy objectives."""

import numpy as np
import pytest

import sbopt as sb

UNIT2 = sb.Bounds(np.zeros(2), np.ones(2))


def quadratic(tau, seed):
    return float((tau[0] - 0.3) ** 2 + (tau[1] - 0.7) ** 2)


def noisy_quadratic(tau, seed):
    base = (tau[0] - 0.3) ** 2 + (tau[1] - 0.7) ** 2
    return float(sb.apply_numerical_noise(base, tau, 0.05, seed))


def test_converges_on_smooth_quadratic():
    ev = sb.Evaluator(quadratic, budget=40, seed=0)
    trace = sb.run_rk(ev, UNIT2, n_init=11, seed=0)
    tau, best = trace.best_so_far()
    assert best.value < 1e-6
    assert np.linalg.norm(tau - np.array([0.3, 0.7])) < 1e-2


def test_consumes_budget_exactly():
    ev = sb.Evaluator(quadratic, budget=40, seed=0)
    trace = sb.run_rk(ev, UNIT2, n_init=11, seed=0)
    assert len(trace) == 40
    assert ev.used == 40
    with pytest.raises(sb.BudgetExhausted):
        ev.evaluate(np.array([0.5, 0.5]))


def test_ei_values_logged_per_infill():
    ev = sb.Evaluator(quadratic, budget=40, seed=0)
    trace = sb.run_rk(ev, UNIT2, n_init=11, seed=0)
    ei = [rec["ei"] for rec in trace.iterations]
    assert len(ei) == 40 - 11
    assert all(v >= 0.0 for v in ei)


def test_budget_equal_to_design_is_pure_doe():
    ev = sb.Evaluator(noisy_quadratic, budget=11, seed=3)
    trace = sb.run_rk(ev, UNIT2, n_init=11, seed=3)
    assert len(trace) == 11
    assert trace.iterations == []
    design = sb.maximin_lhs(11, 2, seed=3)
    for rec, point in zip(trace.records, design):
        assert np.array_equal(rec.tau, point)


def test_ei_decays_as_search_closes_in():
    ev = sb.Evaluator(noisy_quadratic, budget=50, seed=0)
    trace = sb.run_rk(ev, UNIT2, n_init=11, seed=0)
    ei = [rec["ei"] for rec in trace.iterations]
    assert max(ei[-5:]) < 0.05 * max(ei[:5])
    tau, best = trace.best_so_far()
    # noise floor sits below the noise-free minimum
    assert best.value < 0.0
    assert np.linalg.norm(tau - np.array([0.3, 0.7])) < 0.15


def test_constrained_run_respects_predicate():
    spec = sb.SmoothingSpec(alpha_smooth=0.2, beta_smooth=5.0, m_intervals=2)
    predicate = lambda tau: sb.feasible_mask(tau, spec)
    bounds = sb.Bounds(np.array([0, 0, 0, 0.0]), np.array([1, 1, 5, 5.0]))

    def objective(tau, seed):
        # unconstrained optimum (0.1, 0.9, 1, 4) breaks the 0.2 jump cap
        return float((tau[0] - 0.1) ** 2 + (tau[1] - 0.9) ** 2
                     + 0.1 * (tau[2] - 1.0) ** 2 + 0.1 * (tau[3] - 4.0) ** 2)

    ev = sb.Evaluator(objective, budget=45, seed=0)
    trace = sb.run_rk(ev, bounds, n_init=15,
                      feasibility_predicate=predicate, seed=0)
    assert all(predicate(rec.tau) for rec in trace.records[15:])
    tau, best = trace.best_feasible(predicate)
    assert predicate(tau)
    # constrained optimum pins the jump at the cap: eta (0.4, 0.6), value 0.18
    assert best.value == pytest.approx(0.18, abs=0.02)
    assert abs(tau[0] - tau[1]) <= 0.2 + 1e-9


def test_rerun_is_bit_identical():
    a = sb.run_rk(sb.Evaluator(quadratic, budget=30, seed=0), UNIT2,
                  n_init=11, seed=0)
    b = sb.run_rk(sb.Evaluator(quadratic, budget=30, seed=0), UNIT2,
                  n_init=11, seed=0)
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.tau, rb.tau)
        assert ra.evaluation.value == rb.evaluation.value


def test_rejects_bad_setup():
    with pytest.raises(ValueError):
        sb.run_rk(sb.Evaluator(quadratic, budget=None, seed=0), UNIT2, n_init=5)
    with pytest.raises(ValueError):
        sb.run_rk(sb.Evaluator(quadratic, budget=30, seed=0), UNIT2, n_init=1)
