"""Evaluator, bounds, and trace bookkeeping."""

import os
import subprocess
import sys
import textwrap
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sbopt as sb
from sbopt.bench import get_problem, run_single
from sbopt.bench.problems import FEASIBILITY_TOL
from sbopt.core import _rules_of


def test_clamp_projects_out_of_box_points():
    b = sb.Bounds(np.zeros(2), np.ones(2))
    assert np.allclose(b.clamp([1.5, -0.2]), [1.0, 0.0])
    assert np.allclose(b.clamp([0.5, 0.5]), [0.5, 0.5])
    assert np.allclose(b.clamp([0.19, 0.93]), [0.19, 0.93])


def test_bounds_validation():
    with pytest.raises(ValueError):
        sb.Bounds(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    b = sb.Bounds(np.array([0.0, -1.0]), np.array([2.0, 3.0]))
    assert b.m_dim == 2
    assert np.allclose(b.span, [2.0, 4.0])


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
    assert a.value == b.value and a.seed == b.seed == 7
    c = sb.Evaluator(f, budget=1, seed=8).evaluate([0.3, 0.4])
    assert c.value != a.value and c.seed == 8


def test_budget_exhausted():
    ev = sb.Evaluator(lambda t, s: 0.0, budget=1)
    ev.evaluate([0.0])
    with pytest.raises(sb.BudgetExhausted):
        ev.evaluate([0.0])


@pytest.mark.parametrize("budget", [float("nan"), 2.5], ids=["nan", "fraction"])
def test_evaluator_rejects_a_budget_that_is_no_count(budget):
    # a NaN budget made run_direct stop after no evaluation, without an error
    with pytest.raises(ValueError, match="budget must be an integer >= 0 or None"):
        sb.Evaluator(lambda t, s: 0.0, budget=budget)


@pytest.mark.parametrize("seed", [2.5, True, -1, 2 ** 63], ids=repr)
def test_evaluator_refuses_a_seed_outside_the_seed_rule(seed):
    # 2.5 ran on seed 2 and True on seed 1, silently
    with pytest.raises(ValueError, match="^seed must be "):
        sb.Evaluator(lambda t, s: float(s), budget=2, seed=seed)


def test_evaluator_runs_a_numpy_integer_seed_as_that_integer():
    ev = sb.Evaluator(lambda t, s: float(s), budget=2, seed=np.int64(3))
    assert type(ev.seed) is int
    assert ev.evaluate([0.0]).value == 3.0


def _unit_bowl(tau, seed):
    return float(np.sum((np.asarray(tau) - 0.3) ** 2))


@pytest.mark.parametrize("build, message", [
    (lambda: sb.Evaluator(_unit_bowl, budget=True), "budget must be an integer >= 0 or None"),
    (lambda: sb.run_spsa(sb.Evaluator(_unit_bowl, budget=None), np.full(2, 0.5),
                         sb.Bounds.unit(2), max_iterations=True),
     "max_iterations must be an integer"),
    (lambda: sb.run_direct(sb.Evaluator(_unit_bowl, budget=None), sb.Bounds.unit(2),
                           max_iterations=True), "max_iterations must be an integer"),
    (lambda: sb.FitConfig(n_starts=True), "n_starts must be an integer >= 1"),
    (lambda: sb.FitConfig(n_probe=False), "n_probe must be an integer >= 0"),
    (lambda: sb.FitConfig(max_sweeps=True), "max_sweeps must be an integer >= 1"),
    (lambda: sb.random_lhs(True, 2, np.random.default_rng(0)), "^n must be an integer >= 1"),
    (lambda: sb.random_lhs(2, True, np.random.default_rng(0)), "^m_dim must be an integer >= 1"),
    (lambda: sb.run_rk(sb.Evaluator(_unit_bowl, budget=10), sb.Bounds.unit(2), n_init=True),
     "n_init must be an integer"),
    (lambda: sb.PIConfig(p_p=0.02, p_i=0.005, k_cr=15.0, n_max=True),
     "n_max must be an integer >= 1"),
    (lambda: sb.SmoothingSpec(0.33, 5.0, True), "m_intervals must be an integer >= 1"),
], ids=["budget", "spsa-max_iterations", "direct-max_iterations", "n_starts", "n_probe",
        "max_sweeps", "lhs-n", "lhs-m_dim", "n_init", "n_max", "m_intervals"])
def test_counts_refuse_a_bool(build, message):
    # True and False are Integral, so every count check once took them as 1 and 0
    with pytest.raises(ValueError, match=message):
        build()


# every public config dataclass, with the arguments of a valid instance; each
# field that holds a number there is swept
CONFIGS = {
    sb.NfdCurve: dict(k_cr_low=15.0, k_cr_high=20.0, k_jam=60.0, q_max=600.0),
    sb.TollScheme: dict(horizon_start_min=30.0, horizon_end_min=90.0,
                        interval_length_min=30.0, eta=np.zeros(2)),
    sb.ReservoirConfig: dict(lane_km=40.0, avg_trip_length_km=5.0,
                             demand_segments=((30.0, 1000.0),), toll_elasticity=0.3),
    sb.SpsaGains: {},
    sb.PIConfig: dict(p_p=0.02, p_i=0.005, k_cr=15.0),
    sb.FitConfig: dict(lam=1e-3),
    sb.SmoothingSpec: dict(alpha_smooth=0.33, beta_smooth=5.0, m_intervals=2),
    sb.PenaltyTransform: dict(spec=sb.SmoothingSpec(0.33, 5.0, 2), weight=10.0),
}
# the values just outside each rule, by the phrase its refusal uses
OUTSIDE = {
    "finite": [],
    "positive and finite": [0.0, -1.0],
    "non-negative and finite": [-5e-324, -1.0],
    "an integer >= 0": [-1, 0.5, 3.0],
    "an integer >= 1": [0, 1.5, 3.0],
    "an integer >= 0 and below 2**63": [-1, 2 ** 63, 0.5, 3.0],
}


def _numeric_fields():
    for cls, args in CONFIGS.items():
        instance = cls(**args)
        for f in fields(cls):
            value = getattr(instance, f.name)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                yield pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}")


def test_the_sweep_covers_every_config_that_states_a_rule():
    ruled = {cls for cls in vars(sb).values() if is_dataclass(cls) and _rules_of(cls)}
    assert ruled == set(CONFIGS)


@pytest.mark.parametrize("cls, name, valid", _numeric_fields())
def test_every_numeric_config_field_refuses_what_its_rule_refuses(cls, name, valid):
    rules = dict(_rules_of(cls))
    assert name in rules, f"{cls.__name__}.{name} states no rule"
    bad = [float("nan"), float("inf"), -float("inf"), True, False, "1",
           *OUTSIDE[rules[name].phrase.removesuffix(" or None")]]
    refusals = {}
    for value in bad:
        try:
            cls(**{**CONFIGS[cls], name: value})
            refusals[repr(value)] = None
        except ValueError as exc:
            refusals[repr(value)] = str(exc)
    assert all(r is not None and r.startswith(f"{name} must be ")
               for r in refusals.values()), refusals
    numpy_scalar = np.int64(valid) if isinstance(valid, int) else np.float64(valid)
    assert getattr(cls(**{**CONFIGS[cls], name: numpy_scalar}), name) == valid


def test_can_evaluate_answers_the_budget_question():
    unlimited = sb.Evaluator(lambda t, s: 0.0, budget=None)
    assert unlimited.can_evaluate() and unlimited.can_evaluate(10 ** 9)
    ev = sb.Evaluator(lambda t, s: 0.0, budget=2)
    assert ev.can_evaluate() and ev.can_evaluate(2) and not ev.can_evaluate(3)
    ev.evaluate([0.0])
    assert ev.can_evaluate() and not ev.can_evaluate(2)
    ev.evaluate([0.0])
    assert not ev.can_evaluate()
    assert not sb.Evaluator(lambda t, s: 0.0, budget=0).can_evaluate()


SPEC2 = sb.SmoothingSpec(alpha_smooth=0.33, beta_smooth=5.0, m_intervals=2)
BOX2 = sb.Bounds(np.zeros(4), np.array([1.0, 1.0, 15.0, 15.0]))


def _wavy(tau, seed):
    return float(123.456 * np.sum(np.sin(7.0 * tau)) + 17.0)


def test_unit_cube_objective_negates_then_penalizes():
    # the solvers used to penalize in the problem's sense, then flip the sign:
    # -(v - pen) when maximizing; adding pen to -v gives the same bits
    penalty = sb.PenaltyTransform(SPEC2, 100.0)
    ev = sb.Evaluator(_wavy, budget=None, sense="maximize", penalty=penalty)
    f = ev.on_unit_cube(BOX2)
    U = np.random.default_rng(3).random((300, 4))
    n_infeasible = 0
    for i, u in enumerate(U):
        got = f(u)
        tau = BOX2.from_unit(u)
        v = _wavy(tau, 0)
        pen = 100.0 * float(np.sum(sb.violations(tau, SPEC2) ** 2))
        n_infeasible += pen > 0
        assert np.float64(got).tobytes() == np.float64(-(v - pen)).tobytes()
        assert ev.trace.records[i].evaluation.value == v  # the trace keeps raw v
        assert np.array_equal(ev.trace.records[i].tau, tau)
    assert n_infeasible > 100
    # maximization pushes the value down: -(10 - 100 * 0.17 ** 2)
    const = sb.Evaluator(lambda t, s: 10.0, sense="maximize",
                         penalty=penalty).on_unit_cube(BOX2)
    assert const([0.0, 0.5, 0.0, 0.0]) == pytest.approx(-(10.0 - 100.0 * 0.17 ** 2))


def test_unit_cube_pair_gives_what_two_calls_give():
    # _wavy pickles, so on two CPUs the second point of each pair runs in
    # the pair helper process
    penalty = sb.PenaltyTransform(SPEC2, 100.0)
    paired = sb.Evaluator(_wavy, budget=None, sense="maximize", penalty=penalty)
    single = sb.Evaluator(_wavy, budget=None, sense="maximize", penalty=penalty)
    f_pair, f = paired.on_unit_cube(BOX2).pair, single.on_unit_cube(BOX2)
    U = np.random.default_rng(5).random((20, 2, 4))
    for u_a, u_b in U:
        assert f_pair(u_a, u_b) == (f(u_a), f(u_b))
    assert [(r.tau.tobytes(), r.evaluation) for r in paired.trace.records] == \
        [(r.tau.tobytes(), r.evaluation) for r in single.trace.records]


def test_an_evaluators_penalty_reaches_only_its_unit_cube_objective():
    penalty = sb.PenaltyTransform(SPEC2, 100.0)
    ev = sb.Evaluator(_wavy, budget=None, penalty=penalty)
    a, b = np.array([0.0, 0.5, 0.0, 0.0]), np.array([0.9, 0.1, 0.0, 15.0])
    assert sb.violations(a, SPEC2).max() > 0 and sb.violations(b, SPEC2).max() > 0
    values = [ev.evaluate(a).value, *(e.value for e in ev.evaluate_pair(a, b))]
    assert values == [_wavy(a, 0), _wavy(a, 0), _wavy(b, 0)]
    assert [rec.evaluation.value for rec in ev.trace.records] == values
    f = ev.on_unit_cube(BOX2)
    assert f(BOX2.to_unit(b)) == penalty.apply(_wavy(b, 0), b) > _wavy(b, 0)
    assert ev.trace.records[-1].evaluation.value == _wavy(b, 0)


def test_pair_with_room_for_one_evaluates_the_first_then_stops():
    ev = sb.Evaluator(_wavy, budget=3)
    first, second = ev.evaluate_pair([0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8])
    assert (first.eval_index, second.eval_index) == (0, 1)
    with pytest.raises(sb.BudgetExhausted):
        ev.evaluate_pair([0.2, 0.2, 0.2, 0.2], [0.9, 0.9, 0.9, 0.9])
    assert len(ev.trace) == 3
    assert np.array_equal(ev.trace.records[2].tau, [0.2, 0.2, 0.2, 0.2])


def test_unit_cube_objective_keeps_minimized_values():
    ev = sb.Evaluator(_wavy, budget=None)
    f = ev.on_unit_cube(BOX2)
    for u in np.random.default_rng(4).random((20, 4)):
        assert f(u) == _wavy(BOX2.from_unit(u), 0) == ev.trace.records[-1].evaluation.value


def test_constant_zero_objective():
    ev = sb.Evaluator(lambda t, s: 0.0, budget=1)
    ev.evaluate([0.5])
    assert ev.trace.best_curve == [0.0]


def test_best_so_far_minimize_and_ties():
    ev = sb.Evaluator(lambda t, s: float(t[0]), budget=3)
    for v in (3.0, 1.0, 2.0):
        ev.evaluate([v])
    tau, best = ev.trace.best_so_far()
    assert best.value == 1.0
    assert tau[0] == 1.0
    assert best.eval_index == 1

    tie = sb.Evaluator(lambda t, s: 1.0, budget=2)
    tie.evaluate([0.0])
    tie.evaluate([1.0])
    assert tie.trace.best_so_far()[1].eval_index == 0  # earliest tie wins


def test_best_so_far_maximize():
    ev = sb.Evaluator(lambda t, s: float(t[0]), budget=2, sense="maximize")
    ev.evaluate([285.0])
    ev.evaluate([320.0])
    assert ev.trace.best_so_far()[1].value == 320.0


def test_non_finite_value_rejected():
    ev = sb.Evaluator(lambda t, s: float("nan"), budget=1)
    with pytest.raises(sb.EvaluationError):
        ev.evaluate([0.0])


def test_aux_must_be_dict():
    ev = sb.Evaluator(lambda t, s: (0.0, [1, 2]), budget=1)
    with pytest.raises(sb.EvaluationError):
        ev.evaluate([0.0])


def test_best_feasible_filters_records():
    def run(feasible):
        ev = sb.Evaluator(lambda t, s: float(t[0]), budget=3, feasible=feasible)
        for v in (0.1, 0.5, 0.3):
            ev.evaluate([v])
        return ev.trace

    hit = run(lambda T: T[:, 0] >= 0.25).best_feasible()
    assert hit is not None
    assert hit[1].value == 0.3
    assert run(lambda T: np.zeros(len(T), dtype=bool)).best_feasible() is None
    # the records are stacked into one (k, m) array; a per-point answer is a contract error
    with pytest.raises(ValueError, match="booleans"):
        run(lambda tau: tau[0] >= 0.25).best_feasible()


def per_point_best_feasible(trace, predicate):
    """The incumbent as it was found before the row mask: the earliest best
    record whose tau passes a per-point predicate, records taken in turn."""
    best = None
    for rec in trace.records:
        if not predicate(rec.tau):
            continue
        v, b = rec.evaluation.value, None if best is None else best.evaluation.value
        if b is None or (v < b if trace.sense == "minimize" else v > b):
            best = rec
    return None if best is None else (best.tau, best.evaluation)


def assert_same_hit(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert got[1] is want[1]
        assert np.array_equal(got[0], want[0])


# (values, feasible flags): a tie between feasible records, an infeasible
# best that beats the feasible best, no feasible record at all
HAND_BUILT = [
    ([3.0, 1.0, 2.0, 1.0, 5.0, 3.0], [True, True, True, True, False, True]),
    ([4.0, 0.5, 3.0, 9.0, 0.1], [True, False, True, True, False]),
    ([2.0, 1.0], [False, False]),
]


@pytest.mark.parametrize("sense", ["minimize", "maximize"])
@pytest.mark.parametrize("values, flags", HAND_BUILT)
def test_best_feasible_matches_per_point_loop(values, flags, sense):
    # tau = (value, flag): the mask reads the flag column
    mask = lambda T: T[:, 1] > 0.5
    trace = sb.Trace(sense, mask)
    for i, (v, ok) in enumerate(zip(values, flags)):
        trace.append([v, float(ok)], sb.Evaluation(value=v, seed=0, eval_index=i))
    want = per_point_best_feasible(trace, lambda tau: mask(tau[None])[0])
    got = trace.best_feasible()
    assert_same_hit(got, want)
    if any(flags):
        best = (min if sense == "minimize" else max)(
            v for v, ok in zip(values, flags) if ok)
        first = [i for i, (v, ok) in enumerate(zip(values, flags)) if ok and v == best][0]
        assert got[1].eval_index == first
    else:
        assert got is None


@pytest.mark.parametrize("sense", ["minimize", "maximize"])
def test_best_feasible_without_a_mask_is_best_so_far(sense):
    trace = sb.Trace(sense)
    for i, v in enumerate([2.0, 0.5, 3.0, 0.5, 3.0]):
        trace.append([v], sb.Evaluation(value=v, seed=0, eval_index=i))
    assert_same_hit(trace.best_feasible(), trace.best_so_far())
    assert sb.Trace(sense, lambda T: T[:, 0] > 0).best_feasible() is None


@pytest.mark.parametrize("solver", ["rk", "direct", "spsa"])
def test_best_feasible_matches_per_point_loop_on_complex(solver):
    problem = get_problem("complex")
    predicate = lambda tau: sb.is_feasible(tau, problem.smoothing, FEASIBILITY_TOL)
    for seed in (0, 1):
        trace = run_single(problem, solver, 30, seed)
        assert_same_hit(trace.best_feasible(), per_point_best_feasible(trace, predicate))


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


@pytest.mark.parametrize("problem, solver, budget, fields", [
    ("plant", "pi", 8, ["tau", "k_bar", "value"]),
    ("quadratic", "rk", 14, ["ei", "theta", "lam", "log_likelihood"]),
    ("quadratic", "direct", 30, ["n_rects", "n_selected", "y_min"]),
    ("quadratic", "spsa", 20,
     ["a_i", "c_i", "delta", "y_plus", "y_minus", "g_norm", "tau_next"]),
])
def test_iteration_records_share_one_format(tmp_path, problem, solver, budget, fields):
    from sbopt.bench import get_problem, run_single

    trace = run_single(get_problem(problem), solver, budget, 0)
    records = trace.iterations
    assert records
    for rec in records:
        assert list(rec) == ["iteration", "evals", *fields]
    evals = [rec["evals"] for rec in records]
    assert all(a < b for a, b in zip(evals, evals[1:]))
    assert evals[-1] == len(trace)

    path = tmp_path / "records.csv"
    sb.write_records_csv(records, path)
    header = []
    for key, value in records[0].items():
        header += ([key] if np.ndim(value) == 0
                   else [f"{key}_{i + 1}" for i in range(len(value))])
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(header)
    assert len(lines) == 1 + len(records)

    extra = {**records[-1], "note": 1.0}
    with pytest.raises(ValueError, match="keys"):
        sb.write_records_csv(records + [extra], path)


def test_write_records_csv_checks_shapes(tmp_path):
    path = tmp_path / "rows.csv"
    sb.write_records_csv([{"i": 1, "x": np.array([0.5, 2.0]), "flag": True, "s": "a"}],
                         path)
    assert path.read_text().splitlines() == ["i,x_1,x_2,flag,s", "1,0.5,2.0,1,a"]
    good = {"i": 0, "x": np.zeros(2)}
    with pytest.raises(ValueError, match="length 2"):
        sb.write_records_csv([good, {"i": 1, "x": np.zeros(3)}], path)
    with pytest.raises(ValueError, match="scalar"):
        sb.write_records_csv([good, {"i": np.zeros(2), "x": np.zeros(2)}], path)
    with pytest.raises(ValueError, match="keys"):
        sb.write_records_csv([good, {"x": np.zeros(2), "i": 1}], path)
    sb.write_records_csv([], path)
    assert path.read_bytes() == b""


SETUP_ONLY = textwrap.dedent("""
    import sys

    import sbopt
    from sbopt.bench import available_problems, get_problem
    from sbopt.bench.harness import SOLVERS, ConfigError, _check_run

    for name in available_problems():
        problem = get_problem(name)
        for solver in SOLVERS:
            try:
                _check_run(problem, solver, 10, (0,), {})
            except ConfigError:
                pass  # pi on a problem it cannot drive
    loaded = sorted(m for m in sys.modules
                    if m.partition(".")[0] == "multiprocessing" or m == "sbopt._pair")
    print(loaded)
""")


def test_setup_loads_no_process_machinery():
    # the pair helper starts on the first evaluated pair, never at set-up
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SETUP_ONLY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
