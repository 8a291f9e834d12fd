"""Deterministic partitioning search over the unit cube."""

import numpy as np
import pytest

import sbopt as sb
from sbopt.bench import strip_problem

UNIT1 = sb.Bounds(np.zeros(1), np.ones(1))
UNIT2 = sb.Bounds.unit(2)


def bowl(tau, seed):
    return float((tau[0] - 0.21) ** 2 + (tau[1] - 0.64) ** 2)


def test_first_evaluation_is_the_center():
    trace = sb.run_direct(sb.Evaluator(bowl, budget=1, seed=0), UNIT2)
    assert len(trace) == 1
    assert np.allclose(trace.records[0].tau, [0.5, 0.5])


def test_first_iteration_samples_axis_thirds():
    trace = sb.run_direct(sb.Evaluator(bowl, budget=5, seed=0), UNIT2)
    got = sorted(tuple(np.round(r.tau, 9)) for r in trace.records)
    want = sorted([(0.5, 0.5), (1 / 6, 0.5), (5 / 6, 0.5),
                   (0.5, 1 / 6), (0.5, 5 / 6)])
    assert np.allclose(got, want)


def test_trisection_thirds_and_depths():
    root = sb.Hyperrect(np.array([0.5]), np.array([0]), 5.0)
    table = {round(1 / 6, 9): 2.0, round(5 / 6, 9): 7.0}
    children, exhausted = sb.trisect(root, lambda c: table[round(c[0], 9)])
    assert not exhausted
    assert len(children) == 3
    centers = sorted(float(ch.center[0]) for ch in children)
    assert np.allclose(centers, [1 / 6, 0.5, 5 / 6])
    assert all(ch.depth[0] == 1 for ch in children)
    assert all(ch.longest_side == pytest.approx(1 / 3) for ch in children)
    assert sum(3.0 ** -ch.depth.sum() for ch in children) == pytest.approx(1.0)


def _budget_runs_out_on_call(n):
    """An eval_unit that returns 1.0, 2.0, ... and raises BudgetExhausted on call n."""
    calls = []

    def eval_unit(c):
        calls.append(c.copy())
        if len(calls) == n:
            raise sb.BudgetExhausted("no evaluations left")
        return float(len(calls))

    return eval_unit


def test_trisection_cut_short_by_the_budget_fills_the_gap_with_inf():
    root = sb.Hyperrect(np.array([0.5, 0.5]), np.array([0, 0]), 5.0)
    children, exhausted = sb.trisect(root, _budget_runs_out_on_call(2))
    assert exhausted
    assert [ch.value for ch in children] == [1.0, np.inf, 5.0]
    assert sum(3.0 ** -ch.depth.sum() for ch in children) == pytest.approx(1.0)
    assert np.allclose(children[-1].center, root.center)


def test_trisection_with_no_budget_keeps_the_box():
    root = sb.Hyperrect(np.array([0.5, 0.5]), np.array([0, 0]), 5.0)
    children, exhausted = sb.trisect(root, _budget_runs_out_on_call(1))
    assert exhausted
    assert len(children) == 1 and children[0] is root


@pytest.mark.parametrize("budget, n_inf", [(8, 1), (9, 0)])
def test_run_cut_short_mid_trisection_keeps_a_complete_tiling(budget, n_inf):
    p = strip_problem()
    trace = sb.run_direct(sb.Evaluator(p.objective, budget=budget, seed=0,
                                       sense=p.sense), p.bounds)
    cells = trace.annotations["direct_cells"]
    assert len(trace) == budget
    assert len(cells) == 9
    assert sum(np.isinf(c["value"]) for c in cells) == n_inf
    assert sum(3.0 ** (-float(np.sum(c["depth"]))) for c in cells) == pytest.approx(1.0)


def test_half_diagonal_depth_permutation_stable():
    a = sb.half_diagonal([2, 0, 1])
    b = sb.half_diagonal([0, 1, 2])
    assert a == b
    assert sb.half_diagonal([0]) == 0.5
    assert sb.half_diagonal([1]) == pytest.approx(1 / 6)


def test_selection_matches_lipschitz_brute_force():
    def brute_force(rects, y_min, epsilon):
        ds = np.array([r.d for r in rects])
        vs = np.array([r.value for r in rects])
        selected = set()
        for k in np.logspace(-8, 8, 4001):
            lows = vs - k * ds
            cut = min(lows.min(), y_min - epsilon * abs(y_min))
            for i in np.where(lows <= cut + 1e-12)[0]:
                selected.add(int(i))
        return selected

    rng = np.random.default_rng(0)
    for _ in range(200):
        rects = [
            sb.Hyperrect(rng.random(2), rng.integers(0, 4, size=2),
                         float(rng.normal()))
            for _ in range(rng.integers(2, 12))
        ]
        y_min = min(r.value for r in rects)
        got = set(sb.identify_potentially_optimal(rects, y_min, 1e-4))
        assert got == brute_force(rects, y_min, 1e-4)


def test_selection_keeps_value_ties_at_equal_size():
    r1 = sb.Hyperrect(np.array([1 / 6]), np.array([1]), 1.0)
    r2 = sb.Hyperrect(np.array([5 / 6]), np.array([1]), 1.0)
    r3 = sb.Hyperrect(np.array([0.5]), np.array([1]), 2.0)
    assert sorted(sb.identify_potentially_optimal([r1, r2, r3], 1.0, 1e-4)) == [0, 1]


def test_epsilon_guard_vanishes_at_zero_incumbent():
    rects = [sb.Hyperrect(np.array([0.5]), np.array([0]), 0.0),
             sb.Hyperrect(np.array([1 / 6]), np.array([1]), 0.5)]
    tight = sb.identify_potentially_optimal(rects, 0.0, 1e-7)
    loose = sb.identify_potentially_optimal(rects, 0.0, 1e-3)
    assert tight == loose


def test_epsilon_outside_working_range_rejected():
    for eps in (0.0, 1e-2):
        with pytest.raises(ValueError):
            sb.run_direct(sb.Evaluator(bowl, budget=5, seed=0), UNIT2,
                          epsilon=eps)


@pytest.mark.parametrize("max_iterations", [0, -3])
def test_iteration_cap_below_one_rejected(max_iterations):
    ev = sb.Evaluator(bowl, budget=5, seed=0)
    with pytest.raises(ValueError, match="max_iterations must be >= 1"):
        sb.run_direct(ev, UNIT2, max_iterations=max_iterations)
    assert ev.used == 0


def test_a_run_with_no_budget_and_no_iteration_cap_is_refused():
    def objective(tau, seed):
        calls.append(1)
        if len(calls) > 2000:
            raise RuntimeError("still running after 2,000 evaluations")
        return bowl(tau, seed)

    calls = []
    with pytest.raises(ValueError,
                       match="run_direct needs a budgeted evaluator or max_iterations"):
        sb.run_direct(sb.Evaluator(objective), UNIT2)
    assert calls == []


def test_one_dim_run_costs_two_evals_per_selection():
    def wavy(tau, seed):
        return float(np.sin(7 * tau[0]) + 0.5 * tau[0])

    ev = sb.Evaluator(wavy, budget=None, seed=0)
    trace = sb.run_direct(ev, UNIT1, max_iterations=15)
    rows = trace.iterations
    assert len(trace) == 1 + 2 * sum(r["n_selected"] for r in rows)


def test_tiling_stays_a_partition_of_the_cube():
    p = strip_problem()
    ev = sb.Evaluator(p.objective, budget=700, seed=0, sense=p.sense)
    trace = sb.run_direct(ev, p.bounds)
    cells = trace.annotations["direct_cells"]
    volume = sum(3.0 ** (-float(np.sum(c["depth"]))) for c in cells)
    assert volume == pytest.approx(1.0, abs=1e-9)
    # every center coordinate has the form (2k+1) / (2 * 3**p)
    for cell in cells:
        for x, depth in zip(cell["center"], cell["depth"]):
            scaled = x * 2 * 3.0 ** int(depth)
            assert abs(scaled - round(scaled)) < 1e-9
            assert round(scaled) % 2 == 1


def test_incumbent_log_is_monotone():
    p = strip_problem()
    ev = sb.Evaluator(p.objective, budget=400, seed=0, sense=p.sense)
    trace = sb.run_direct(ev, p.bounds)
    y = [row["y_min"] for row in trace.iterations]
    assert all(a >= b for a, b in zip(y, y[1:]))


def test_finds_the_narrow_strip_optimum():
    p = strip_problem()
    ev = sb.Evaluator(p.objective, budget=700, seed=0, sense=p.sense)
    trace = sb.run_direct(ev, p.bounds)
    _, best = trace.best_so_far()
    ref = p.scenario["reference_value"]
    assert abs(best.value - ref) / abs(ref) < 0.01


def test_rerun_is_bit_identical():
    p = strip_problem()
    a = sb.run_direct(sb.Evaluator(p.objective, budget=300, seed=0,
                                   sense=p.sense), p.bounds)
    b = sb.run_direct(sb.Evaluator(p.objective, budget=300, seed=0,
                                   sense=p.sense), p.bounds)
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.tau, rb.tau)
        assert ra.evaluation.value == rb.evaluation.value


def test_cells_csv_layout(tmp_path):
    trace = sb.run_direct(sb.Evaluator(bowl, budget=30, seed=0), UNIT2)
    path = tmp_path / "cells.csv"
    sb.write_records_csv(trace.annotations["direct_cells"], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "center_1,center_2,depth_1,depth_2,value,d"
    assert len(lines) == 1 + len(trace.annotations["direct_cells"])
