"""Evaluator, bounds, and trace bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sbopt as sb


def test_clamp_projects_out_of_box_points():
    b = sb.Bounds(np.zeros(2), np.ones(2))
    assert np.allclose(sb.clamp([1.5, -0.2], b), [1.0, 0.0])
    assert np.allclose(sb.clamp([0.5, 0.5], b), [0.5, 0.5])
    assert np.allclose(sb.clamp([0.19, 0.93], b), [0.19, 0.93])


def test_bounds_validation():
    with pytest.raises(ValueError):
        sb.Bounds(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    b = sb.Bounds(np.array([0.0, -1.0]), np.array([2.0, 3.0]))
    assert b.m_dim == 2
    assert np.allclose(b.span, [2.0, 4.0])
    assert b.contains([1.0, 0.0])
    assert not b.contains([2.5, 0.0])


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_unit_roundtrip(u):
    u = np.array(u)
    b = sb.Bounds(np.full(u.size, -2.0), np.full(u.size, 5.0))
    assert np.allclose(b.to_unit(b.from_unit(u)), u, atol=1e-12)


def test_from_unit_maps_stacks_row_by_row():
    b = sb.Bounds(np.array([0.0, -1.0, 2.0]), np.array([1.0, 3.0, 17.0]))
    U = np.random.default_rng(4).random((50, 3))
    stacked = b.from_unit(U)
    assert np.array_equal(stacked, np.array([b.from_unit(u) for u in U]))
    U[7, 1] = np.nan
    with pytest.raises(sb.EvaluationError):
        b.from_unit(U)
    with pytest.raises(sb.DimensionMismatch):
        b.from_unit(np.zeros((4, 2)))


def test_evaluator_determinism():
    def f(tau, seed):
        return sb.apply_numerical_noise(float(np.sum(tau)), tau, 0.5, seed)

    ev = sb.Evaluator(f, budget=4, seed=7)
    a = ev.evaluate([0.3, 0.4])
    b = ev.evaluate([0.3, 0.4])
    assert a.value == b.value
    c = ev.evaluate([0.3, 0.4], seed=8)
    assert c.value != a.value


def test_budget_exhausted():
    ev = sb.Evaluator(lambda t, s: 0.0, budget=1)
    ev.evaluate([0.0])
    with pytest.raises(sb.BudgetExhausted):
        ev.evaluate([0.0])


def test_constant_zero_objective():
    ev = sb.Evaluator(lambda t, s: 0.0, budget=1)
    ev.evaluate([0.5])
    assert ev.trace.best_curve == [0.0]


def test_best_so_far_minimize_and_ties():
    ev = sb.Evaluator(lambda t, s: float(t[0]), budget=3)
    for v in (3.0, 1.0, 2.0):
        ev.evaluate([v])
    tau, best = sb.best_so_far(ev.trace)
    assert best == 1.0
    assert ev.trace.best_so_far()[1].eval_index == 1

    tie = sb.Evaluator(lambda t, s: 1.0, budget=2)
    tie.evaluate([0.0])
    tie.evaluate([1.0])
    assert tie.trace.best_so_far()[1].eval_index == 0  # earliest tie wins


def test_best_so_far_maximize():
    ev = sb.Evaluator(lambda t, s: float(t[0]), budget=2, sense="maximize")
    ev.evaluate([285.0])
    ev.evaluate([320.0])
    assert sb.best_so_far(ev.trace)[1] == 320.0


def test_non_finite_value_rejected():
    ev = sb.Evaluator(lambda t, s: float("nan"), budget=1)
    with pytest.raises(sb.EvaluationError):
        ev.evaluate([0.0])


def test_aux_must_be_dict():
    ev = sb.Evaluator(lambda t, s: (0.0, [1, 2]), budget=1)
    with pytest.raises(sb.EvaluationError):
        ev.evaluate([0.0])


def test_n_reps_averages_seeds():
    ev = sb.Evaluator(lambda t, s: float(s), budget=2, seed=10, n_reps=3)
    assert ev.evaluate([0.0]).value == pytest.approx(11.0)  # mean(10, 11, 12)
    assert ev.used == 1  # the aggregate counts once


def test_best_feasible_filters_records():
    ev = sb.Evaluator(lambda t, s: float(t[0]), budget=3)
    for v in (0.1, 0.5, 0.3):
        ev.evaluate([v])
    hit = ev.trace.best_feasible(lambda tau: tau[0] >= 0.25)
    assert hit is not None
    assert hit[1].value == 0.3
    assert ev.trace.best_feasible(lambda tau: False) is None


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
       st.sampled_from(["minimize", "maximize"]))
@settings(max_examples=40)
def test_best_curve_monotone(values, sense):
    ev = sb.Evaluator(lambda t, s: float(t[0]), budget=len(values), sense=sense)
    for v in values:
        ev.evaluate([v])
    curve = np.array(ev.trace.best_curve)
    step = np.diff(curve)
    assert np.all(step <= 0) if sense == "minimize" else np.all(step >= 0)


def test_replay_reproduces_recorded_values():
    def f(tau, seed):
        return sb.apply_numerical_noise(float(np.dot(tau, tau)), tau, 1.0, seed)

    ev = sb.Evaluator(f, budget=10, seed=3)
    rng = np.random.default_rng(0)
    for _ in range(10):
        ev.evaluate(rng.random(2))
    for rec in ev.trace.records:
        assert f(rec.tau, rec.evaluation.seed) == rec.evaluation.value


def test_trace_csv_roundtrip(tmp_path):
    from sbopt.bench.plotting import read_trace_csv

    ev = sb.Evaluator(lambda t, s: float(t[0] - t[1]), budget=5, seed=2)
    rng = np.random.default_rng(1)
    for _ in range(5):
        ev.evaluate(rng.random(2))
    path = tmp_path / "trace.csv"
    sb.write_trace_csv(ev.trace, path)
    data = read_trace_csv(path)
    assert data["tau"].shape == (5, 2)
    got = [rec.evaluation.value for rec in ev.trace.records]
    assert np.array_equal(data["value"], np.array(got))
    assert np.array_equal(data["best_value"], np.array(ev.trace.best_curve))

    twin = tmp_path / "again.csv"
    sb.write_trace_csv(ev.trace, twin)
    assert path.read_bytes() == twin.read_bytes()
