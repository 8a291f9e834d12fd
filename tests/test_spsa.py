"""Simultaneous-perturbation gradient estimates and the descent loop."""

import numpy as np
import pytest

import sbopt as sb

UNIT2 = sb.Bounds.unit(2)
OPT = np.array([0.3, 0.7])


def quadratic(tau, seed):
    return float((tau[0] - 0.3) ** 2 + (tau[1] - 0.7) ** 2)


def noisy_quadratic(tau, seed):
    base = (tau[0] - 0.3) ** 2 + (tau[1] - 0.7) ** 2
    return float(sb.apply_numerical_noise(base, tau, 0.2, seed))


def linear(tau, seed):
    return float(2.0 * tau[0])


# ------------------------------------------------------------- perturbations


def test_perturbation_support_and_self_inverse():
    rng = np.random.default_rng(0)
    delta = sb.perturbation(6, rng)
    assert set(np.unique(delta)) <= {-1.0, 1.0}
    assert np.array_equal(1.0 / delta, delta)
    with pytest.raises(ValueError):
        sb.perturbation(0, rng)


def test_perturbation_coordinates_are_fair():
    rng = np.random.default_rng(1)
    draws = np.array([sb.perturbation(4, rng) for _ in range(4000)])
    assert np.abs(draws.mean(axis=0)).max() < 0.06


# ---------------------------------------------------------- gradient estimate


def test_gradient_single_pair_arithmetic():
    ev = sb.Evaluator(linear, budget=None, seed=0)
    g, y_plus, y_minus = sb.approx_gradient(ev, [0.5, 0.5], 0.1, [1.0, 1.0])
    assert y_plus == pytest.approx(1.2)
    assert y_minus == pytest.approx(0.8)
    assert np.allclose(g, [2.0, 2.0])
    g2, _, _ = sb.approx_gradient(ev, [0.5, 0.5], 0.1, [1.0, -1.0])
    assert np.allclose(g2, [2.0, -2.0])


def test_gradient_averages_to_truth_over_all_directions():
    ev = sb.Evaluator(linear, budget=None, seed=0)
    acc = np.zeros(2)
    for delta in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
        g, _, _ = sb.approx_gradient(ev, [0.5, 0.5], 0.1,
                                     np.array(delta, dtype=float))
        acc += g
    assert np.allclose(acc / 4, [2.0, 0.0])


def test_gradient_estimate_is_unbiased_on_quartic():
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
        delta = sb.perturbation(5, rng)
        g, _, _ = sb.approx_gradient(ev, tau_0, 0.02, delta)
        acc += g
        acc_sq += g * g
    mean = acc / n
    std_err = np.sqrt((acc_sq / n - mean**2) / n)
    assert np.all(np.abs(mean - true_g) <= 3.0 * std_err)


def test_gradient_rejects_bad_inputs():
    ev = sb.Evaluator(linear, budget=None, seed=0)
    with pytest.raises(ValueError):
        sb.approx_gradient(ev, [0.5, 0.5], 0.0, [1.0, 1.0])
    with pytest.raises(ValueError):
        sb.approx_gradient(ev, [0.5, 0.5], 0.1, [1.0, 0.5])


# -------------------------------------------------------------------- gains


def test_gain_sequences_decay_monotonically():
    gains = sb.SpsaGains()
    a = [gains.a_at(i) for i in range(1, 101)]
    c = [gains.c_at(i) for i in range(1, 101)]
    assert all(x > y > 0 for x, y in zip(a, a[1:]))
    assert all(x > y > 0 for x, y in zip(c, c[1:]))


def test_gain_validation():
    with pytest.raises(ValueError):
        sb.SpsaGains(a=0.0)
    with pytest.raises(ValueError):
        sb.SpsaGains(c=-0.1)
    with pytest.raises(ValueError):
        sb.SpsaGains(alpha=0.1, gamma=0.5)


# ------------------------------------------------------------------ the loop


def test_two_evaluations_per_iteration():
    ev = sb.Evaluator(quadratic, budget=40, seed=0)
    trace = sb.run_spsa(ev, [0.5, 0.5], UNIT2, seed=0)
    rows = trace.iterations
    assert len(trace) == 2 * len(rows)


def test_odd_budget_leaves_one_unused():
    ev = sb.Evaluator(quadratic, budget=3, seed=0)
    trace = sb.run_spsa(ev, [0.5, 0.5], UNIT2, seed=0)
    assert len(trace) == 2
    assert ev.used == 2


def test_logged_updates_reconstruct_the_path():
    ev = sb.Evaluator(quadratic, budget=40, seed=0)
    trace = sb.run_spsa(ev, [0.5, 0.5], UNIT2, seed=0)
    u = np.array([0.5, 0.5])
    for row in trace.iterations:
        g_hat = (row["y_plus"] - row["y_minus"]) / (2 * row["c_i"] * row["delta"])
        u = np.clip(u - row["a_i"] * g_hat, 0.0, 1.0)
        assert np.allclose(u, row["tau_next"], atol=1e-12)


def test_iterates_stay_inside_the_box():
    ev = sb.Evaluator(quadratic, budget=30, seed=0)
    trace = sb.run_spsa(ev, [1.0, 1.0], UNIT2, seed=2)
    for rec in trace.records:
        assert np.all(rec.tau >= 0.0) and np.all(rec.tau <= 1.0)


def test_clamping_is_logged(caplog):
    ev = sb.Evaluator(quadratic, budget=4, seed=0)
    with caplog.at_level("INFO", logger="sbopt.spsa"):
        sb.run_spsa(ev, [1.0, 1.0], UNIT2, seed=2)
    assert "perturbed point clamped to bounds" in caplog.text
    caplog.clear()
    with caplog.at_level("INFO", logger="sbopt.spsa"):
        sb.run_spsa(sb.Evaluator(quadratic, budget=2, seed=0), [0.5, 0.5], UNIT2, seed=2)
    assert "clamped" not in caplog.text


def test_converges_on_smooth_quadratic():
    ev = sb.Evaluator(quadratic, budget=None, seed=0)
    trace = sb.run_spsa(ev, [0.5, 0.5], UNIT2,
                        max_iterations=200, seed=0)
    err = np.linalg.norm(trace.iterations[-1]["tau_next"] - OPT)
    assert err < 0.05


def test_small_perturbation_drowns_in_noise():
    # the two-point difference must clear the noise floor; a c of 0.02
    # against noise amplitude 0.2 leaves the sign of the difference random
    def final_err(c, seed):
        ev = sb.Evaluator(noisy_quadratic, budget=None, seed=0)
        trace = sb.run_spsa(ev, [0.75, 0.75], UNIT2,
                            gains=sb.SpsaGains(a=0.5, c=c),
                            max_iterations=40, seed=seed)
        return np.linalg.norm(trace.iterations[-1]["tau_next"] - OPT)

    coarse = [final_err(0.2, s) for s in range(20)]
    fine = [final_err(0.02, s) for s in range(20)]
    assert np.median(coarse) < 0.5 * np.median(fine)
    assert sum(c < f for c, f in zip(coarse, fine)) >= 15


def test_iteration_log_csv(tmp_path):
    ev = sb.Evaluator(quadratic, budget=20, seed=0)
    trace = sb.run_spsa(ev, [0.5, 0.5], UNIT2, seed=0)
    path = tmp_path / "spsa.csv"
    sb.write_records_csv(trace.iterations, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("iteration,evals,a_i,c_i,delta_1,delta_2,y_plus,y_minus,"
                        "g_norm,tau_next_1,tau_next_2")
    assert len(lines) == 1 + len(trace.iterations)
