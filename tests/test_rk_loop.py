"""Design, fit, infill loop behavior on toy objectives, and on the pair helper."""

import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import sbopt as sb
from sbopt import _pair, bench, kriging
from sbopt.bench import harness

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

    ev = sb.Evaluator(objective, budget=45, seed=0, feasible=predicate)
    trace = sb.run_rk(ev, bounds, n_init=15, seed=0)
    assert all(predicate(rec.tau) for rec in trace.records[15:])
    tau, best = trace.best_feasible()
    assert predicate(tau)
    # constrained optimum pins the jump at the cap: eta (0.4, 0.6), value 0.18
    assert best.value == pytest.approx(0.18, abs=0.02)
    assert abs(tau[0] - tau[1]) <= 0.2 + 1e-9


def test_an_evaluators_penalty_leaves_rk_unchanged():
    spec = sb.SmoothingSpec(alpha_smooth=0.33, beta_smooth=5.0, m_intervals=2)
    bounds = sb.Bounds(np.zeros(4), np.array([1.0, 1.0, 15.0, 15.0]))

    def bowl(tau, seed):
        return float(np.sum((tau / bounds.upper - [0.1, 0.9, 0.2, 0.8]) ** 2))

    plain, penalized = (
        sb.run_rk(sb.Evaluator(bowl, budget=12, seed=0, penalty=penalty), bounds,
                  n_init=8, seed=0)
        for penalty in (None, sb.PenaltyTransform(spec, 100.0)))
    assert len(plain) == len(penalized) == 12
    assert any(sb.violations(rec.tau, spec).max() > 0 for rec in plain.records)
    assert [(r.tau.tobytes(), r.evaluation) for r in plain.records] == \
        [(r.tau.tobytes(), r.evaluation) for r in penalized.records]
    assert repr(plain.iterations) == repr(penalized.iterations)


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


@pytest.mark.parametrize("n_init", [2.5, 4.0, float("nan")])
def test_a_fractional_design_size_is_refused(n_init):
    ev = sb.Evaluator(quadratic, budget=10, seed=0)
    with pytest.raises(ValueError, match="n_init must be an integer"):
        sb.run_rk(ev, UNIT2, n_init=n_init)
    assert ev.used == 0


# ------------------------------------------------- the pair helper's halves

needs_two_cpus = pytest.mark.skipif(not _pair.two_cpus(),
                                    reason="the pair helper needs two CPUs")


def registry_rk(problem, budget, out_dir, monkeypatch):
    """An rk run through the harness: its trace's records and iteration log as
    bytes, and the bytes of every file it writes."""
    traces = []
    run = harness._run
    monkeypatch.setattr(harness, "_run", lambda *args: traces.append(run(*args)) or traces[-1])
    bench.run_experiment(bench.ExperimentConfig(problem=problem, solver="rk", budget=budget,
                                                seeds=(0,), output_dir=str(out_dir)))
    files = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
    return pickle.dumps((traces[0].records, traces[0].iterations)), files


@needs_two_cpus
@pytest.mark.parametrize("problem, budget", [("complex", 40), ("simple", 100)])
def test_the_helpers_halves_give_the_callers_bits(kriging_helper, monkeypatch, tmp_path,
                                                  problem, budget):
    split = registry_rk(problem, budget, tmp_path / "split", monkeypatch)
    # three jobs per iteration: a fit's starts, the probe and the pattern search
    assert kriging_helper.jobs == 3 * (budget - bench.get_problem(problem).rk_n_init)
    monkeypatch.setattr(_pair, "two_cpus", lambda: False)
    whole = registry_rk(problem, budget, tmp_path / "whole", monkeypatch)
    assert split == whole


@needs_two_cpus
def test_a_helper_killed_in_a_job_leaves_the_same_trace(kriging_helper, monkeypatch):
    helper, problem = kriging_helper, bench.get_problem("complex")
    ei, calls, in_job = kriging.expected_improvement, [], []

    def killing_ei(*args):
        # the caller computes EI only in its own half, while the helper holds the other
        calls.append(1)
        if len(calls) == 150:
            in_job.append(helper.lock.locked())
            helper.process.kill()
            helper.process.wait(10)
        return ei(*args)

    monkeypatch.setattr(kriging, "expected_improvement", killing_ei)
    killed = bench.run_single(problem, "rk", 40, 0)
    assert in_job == [True] and not helper.alive and 0 < helper.jobs < 45
    monkeypatch.setattr(_pair, "two_cpus", lambda: False)
    whole = bench.run_single(problem, "rk", 40, 0)
    assert pickle.dumps((killed.records, killed.iterations)) == \
        pickle.dumps((whole.records, whole.iterations))


@needs_two_cpus
@pytest.mark.parametrize("one_thread", [True, False])
def test_rk_warms_the_helper_before_its_design(monkeypatch, one_thread):
    # where rk's hold keeps BLAS to one thread the helper boots and loads scipy
    # while the design is evaluated; otherwise rk keeps all of its work here
    # and starts none
    if not one_thread:
        monkeypatch.setattr(kriging, "_openblas_threads", lambda: ())  # another BLAS
    elif not kriging._openblas_threads():
        pytest.skip("no OpenBLAS thread setter is loaded")
    monkeypatch.setattr(_pair, "_helper", None)
    at_first_call = []

    def objective(tau, seed):
        if not at_first_call:
            at_first_call.append(_pair._helper)
        return quadratic(tau, seed)

    try:
        sb.run_rk(sb.Evaluator(objective, budget=8, seed=0), UNIT2, n_init=6)
    finally:
        if _pair._helper is not None:
            _pair._helper.close()
    if one_thread:
        helper, = at_first_call
        assert helper is not None and kriging._scipy in helper.prepared
    else:
        assert at_first_call == [None] and _pair._helper is None


# ------------------------------------------------- rk's hold on BLAS threads

needs_openblas = pytest.mark.skipif(not kriging._openblas_threads(),
                                    reason="no OpenBLAS thread setter is loaded")


class CountsThreads:
    """quadratic, noting each loaded OpenBLAS copy's thread count at each call;
    it raises at call ``fail_at`` (1-based), if given."""

    def __init__(self, fail_at=None):
        self.seen, self.fail_at = [], fail_at

    def __call__(self, tau, seed):
        self.seen.append([get() for _, get in kriging._openblas_threads()])
        if len(self.seen) == self.fail_at:
            raise ValueError("the objective failed")
        return quadratic(tau, seed)


@needs_openblas
@pytest.mark.parametrize("fail_at", [None, 9])
def test_rk_holds_blas_to_one_thread_and_restores_the_counts(fail_at):
    copies = kriging._openblas_threads()
    assert len(copies) == 2  # numpy's and scipy's
    before = [get() for _, get in copies]
    try:
        for set_, _ in copies:
            set_(2)
        objective = CountsThreads(fail_at)
        ev = sb.Evaluator(objective, budget=10, seed=0)
        if fail_at is None:
            sb.run_rk(ev, UNIT2, n_init=6)
        else:
            with pytest.raises(ValueError, match="the objective failed"):
                sb.run_rk(ev, UNIT2, n_init=6)
        assert objective.seen == [[1, 1]] * (fail_at or 10)
        assert [get() for _, get in copies] == [2, 2] and not kriging._one_blas_thread()
    finally:
        for (set_, _), count in zip(copies, before):
            set_(count)


@needs_openblas
def test_rk_runs_in_several_threads_share_the_hold():
    # every run sees one thread while any run is inside; the last one out restores
    copies = kriging._openblas_threads()
    before = [get() for _, get in copies]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for set_, _ in copies:
            set_(2)
        objectives = [CountsThreads() for _ in range(6)]
        with ThreadPoolExecutor(6) as pool:
            traces = list(pool.map(
                lambda f: sb.run_rk(sb.Evaluator(f, budget=9, seed=0), UNIT2, n_init=6),
                objectives))
        assert all(len(t) == 9 for t in traces)
        assert all(f.seen == [[1, 1]] * 9 for f in objectives)
        assert [get() for _, get in copies] == [2, 2] and not kriging._one_blas_thread()
    finally:
        sys.setswitchinterval(interval)
        for (set_, _), count in zip(copies, before):
            set_(count)


@needs_two_cpus
@needs_openblas
def test_rk_splits_with_no_blas_thread_variable(fresh_helper, monkeypatch):
    for var in _pair.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    problem = bench.get_problem("complex")
    _pair.prepare(kriging._scipy)
    split = bench.run_single(problem, "rk", problem.rk_n_init + 5, 0)
    assert fresh_helper.jobs > 0
    monkeypatch.setattr(_pair, "two_cpus", lambda: False)
    whole = bench.run_single(problem, "rk", problem.rk_n_init + 5, 0)
    assert pickle.dumps((split.records, split.iterations)) == \
        pickle.dumps((whole.records, whole.iterations))


def test_the_zero_budget_dry_run_starts_no_process(monkeypatch):
    # validate() runs rk with no budget, which returns before its hold and helper
    monkeypatch.setattr(_pair, "_helper", None)
    monkeypatch.setattr(kriging, "_openblas_threads", lambda: pytest.fail("held"))
    bench.ExperimentConfig(problem="complex", solver="rk", budget=30).validate()
    assert _pair._helper is None and not kriging._one_blas_thread()
