"""Simultaneous-perturbation gradient estimates and the descent loop."""

import ast
import dataclasses
import gc
import importlib
import inspect
import json
import os
import signal
import subprocess
import sys
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import sbopt as sb
import sbopt.bench as bench
from sbopt import _pair, core, kriging

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


@pytest.mark.parametrize("c_i", [float("nan"), float("inf"), 0.0])
def test_gradient_refuses_a_step_that_is_not_positive_and_finite(c_i):
    # NaN and inf pass a c_i <= 0 test; they must fail before any evaluation
    ev = sb.Evaluator(linear, budget=None, seed=0)
    with pytest.raises(ValueError, match="c_i must be positive and finite"):
        sb.approx_gradient(ev, [0.5, 0.5], c_i, [1.0, 1.0])
    assert ev.trace.records == [] and ev.used == 0


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


def test_a_run_with_no_budget_and_no_iteration_cap_is_refused():
    def objective(tau, seed):
        calls.append(1)
        if len(calls) > 2000:
            raise RuntimeError("still running after 2,000 evaluations")
        return quadratic(tau, seed)

    calls = []
    with pytest.raises(ValueError,
                       match="run_spsa needs a budgeted evaluator or max_iterations"):
        sb.run_spsa(sb.Evaluator(objective), [0.5, 0.5], UNIT2)
    assert calls == []


@pytest.mark.parametrize("max_iterations, message", [
    (2.5, "an integer"), (3.0, "an integer"), (float("nan"), "an integer"), (0, ">= 1"),
])
def test_an_iteration_cap_that_is_not_a_positive_integer_is_refused(max_iterations, message):
    ev = sb.Evaluator(quadratic, budget=10, seed=0)
    with pytest.raises(ValueError, match=f"max_iterations must be .*{message}"):
        sb.run_spsa(ev, [0.5, 0.5], UNIT2, max_iterations=max_iterations)
    assert ev.used == 0


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


# ------------------------------------------------- the pair helper process

needs_two_cpus = pytest.mark.skipif(not _pair.two_cpus(),
                                    reason="the pair helper needs two CPUs")


class TwoPartError(Exception):
    """An exception that pickles but does not load again: its args are one string."""

    def __init__(self, what, value):
        super().__init__(f"{what}, got {value!r}")


def fails_low(tau, seed):
    """Picklable objective that raises below tau[0] = 0.45."""
    if tau[0] < 0.45:
        raise ValueError(f"no value below 0.45, got {tau[0]!r}")
    return quadratic(tau, seed)


def fails_low_oddly(tau, seed):
    if tau[0] < 0.45:
        raise TwoPartError("no value below 0.45", tau[0])
    return quadratic(tau, seed)


def behind_a_closure(problem):
    """The problem with an objective that does not pickle: the sequential path."""
    objective = problem.objective
    return dataclasses.replace(problem, objective=lambda tau, seed: objective(tau, seed))


def bits(x):
    """x as nested tuples of types and exact bytes, so equal bits compare equal."""
    if isinstance(x, dict):
        return tuple((k, bits(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return tuple(bits(v) for v in x)
    if isinstance(x, (sb.Evaluation, core.TraceRecord)):
        return type(x).__name__, bits(dataclasses.astuple(x, tuple_factory=list))
    if isinstance(x, (np.ndarray, np.generic)):
        return type(x).__name__, x.dtype.str, x.shape, x.tobytes()
    return type(x).__name__, repr(x)


def trace_bits(trace):
    return bits((trace.records, trace.best_curve, trace.iterations))


@needs_two_cpus
@pytest.mark.parametrize("name, budget", [("complex", 40), ("simple", 60)])
def test_pair_helper_gives_the_sequential_bits(fresh_helper, monkeypatch, name, budget):
    # the gate stays open, so the counts below do not hang on the host's load
    monkeypatch.setattr(_pair.Gate, "opens", lambda self: True)
    problem = bench.get_problem(name)
    concurrent = bench.run_single(problem, "spsa", budget, 3)
    assert fresh_helper.jobs == budget // 2
    sequential = bench.run_single(behind_a_closure(problem), "spsa", budget, 3)
    assert fresh_helper.jobs == budget // 2
    assert trace_bits(concurrent) == trace_bits(sequential)


@needs_two_cpus
@pytest.mark.parametrize("failing", ["minus", "plus"])
@pytest.mark.parametrize("fails", [fails_low, fails_low_oddly])
def test_pair_helper_errors_match_the_sequential_run(fresh_helper, failing, fails):
    # the first iteration's points are 0.5 +- c_1 * delta_1, about 0.5 +- 0.093
    seed = next(s for s in range(20) if sb.perturbation(2, np.random.default_rng(s))[0]
                == (1.0 if failing == "minus" else -1.0))
    outcomes = []
    for objective in (fails, lambda tau, s: fails(tau, s)):
        ev = sb.Evaluator(objective, budget=10, seed=0)
        with pytest.raises(Exception) as raised:
            sb.run_spsa(ev, [0.5, 0.5], UNIT2, seed=seed)
        outcomes.append((type(raised.value), str(raised.value), trace_bits(ev.trace)))
    assert outcomes[0] == outcomes[1]
    assert "no value below 0.45" in outcomes[0][1]
    assert len(outcomes[0][2][0]) == (1 if failing == "minus" else 0)  # records left
    # the helper answers with the error, or leaves a TwoPartError to the caller
    assert fresh_helper.jobs == (failing == "minus" and fails is fails_low)
    # it stays in step: a reply left pending by the error was drained, so a
    # new run through it answers every pair with that run's own values
    answered = fresh_helper.jobs
    runs = []
    for objective in (noisy_quadratic, lambda tau, s: noisy_quadratic(tau, s)):
        ev = sb.Evaluator(objective, budget=10, seed=0)
        sb.run_spsa(ev, [0.5, 0.5], UNIT2, seed=seed)
        runs.append(trace_bits(ev.trace))
    assert runs[0] == runs[1]
    assert fresh_helper.jobs == answered + 5


@needs_two_cpus
def test_pairs_of_two_objectives_interleave_on_one_helper(fresh_helper):
    # each switch sends the other objective; a stale one would show in the bits
    problems = [bench.get_problem("complex"), bench.get_problem("simple")]
    rng = np.random.default_rng(0)
    points = [[(p.bounds.from_unit(rng.random(p.bounds.m_dim)),
                p.bounds.from_unit(rng.random(p.bounds.m_dim))) for _ in range(10)]
              for p in problems]
    traces = []
    for twin in (lambda p: p, behind_a_closure):
        evaluators = [sb.Evaluator(twin(p).objective, budget=20, seed=3) for p in problems]
        for pairs in zip(*points):
            for ev, (tau_a, tau_b) in zip(evaluators, pairs):
                ev.evaluate_pair(tau_a, tau_b)
        traces.append([trace_bits(ev.trace) for ev in evaluators])
        assert fresh_helper.jobs == 20
    assert traces[0] == traces[1]


@needs_two_cpus
def test_two_objectives_of_one_scenario_keep_their_own_pickles(fresh_helper, monkeypatch):
    # the same scenario and dimension, scored differently: a helper or a caller
    # that reused the other's function would give the other's values
    monkeypatch.setattr(_pair.Gate, "opens", lambda self: True)
    problems = [bench.get_problem(name)
                for name in ("composition_density", "composition_flow")]
    assert problems[0].bounds.m_dim == problems[1].bounds.m_dim
    assert problems[0].scenario["config"] == problems[1].scenario["config"]
    rng = np.random.default_rng(4)
    evaluators = [sb.Evaluator(p.objective, budget=None, seed=1) for p in problems]
    for _ in range(6):
        for p, ev in zip(problems, evaluators):
            ev.evaluate_pair(*p.bounds.from_unit(rng.random((2, p.bounds.m_dim))))
    assert fresh_helper.jobs == 12
    for p, ev in zip(problems, evaluators):
        sequential = sb.Evaluator(p.objective, budget=None, seed=1)
        for record in ev.trace.records:
            sequential.evaluate(record.tau)
        assert trace_bits(ev.trace) == trace_bits(sequential.trace)


@needs_two_cpus
def test_dead_pair_helper_leaves_the_work_here(fresh_helper):
    problem = bench.get_problem("simple")
    first = bench.run_single(problem, "spsa", 20, 0)
    helper = fresh_helper
    assert helper.jobs == 10
    helper.process.kill()
    helper.process.wait(10)
    assert helper.process.poll() is not None
    second = bench.run_single(problem, "spsa", 20, 0)
    assert trace_bits(second) == trace_bits(first)
    assert not helper.alive and _pair.process_helper() is None
    assert helper.jobs == 10


def test_the_gate_sends_while_the_cost_here_exceeds_the_round_trip():
    gate = _pair.Gate()
    for n in range(_pair.GATE_SAMPLES):  # sent whatever they cost
        assert gate.opens()
        gate.measured(1e-5, 0.02 if n == 0 else 1e-4)  # the first job imports
    assert gate.round_trip == 1e-4 and not gate.opens()
    gate.cost = 2e-4  # measured here while it stays here
    assert gate.opens()
    gate.measured(3e-4, 5e-4)
    assert (gate.cost, gate.round_trip) == (3e-4, 1e-4) and gate.opens()


@needs_two_cpus
def test_a_cheap_objective_stays_here_after_the_gates_samples(fresh_helper):
    # a pair of a 2-D quadratic costs less than its round trip through the helper
    ev = sb.Evaluator(quadratic, budget=None, seed=0)
    pairs = np.random.default_rng(0).random((80, 2, 2))
    for tau_a, tau_b in pairs:
        ev.evaluate_pair(tau_a, tau_b)
    # a preempted timing may send a job more; the cost here is measured again
    assert _pair.GATE_SAMPLES <= fresh_helper.jobs < 40
    assert [r.evaluation.value for r in ev.trace.records] == \
        [quadratic(tau, 0) for tau in pairs.reshape(160, 2)]


@needs_two_cpus
def test_pairs_run_here_until_the_helper_has_booted(monkeypatch):
    monkeypatch.setattr(_pair, "_helper", None)
    ev = sb.Evaluator(quadratic, budget=None)
    ev.evaluate_pair([0.1, 0.2], [0.3, 0.4])  # starts the helper, which is still booting
    helper = _pair._helper
    try:
        assert (helper.jobs, helper.idle()) == (0, False)
        assert helper.conn.poll(60)
        ev.evaluate_pair([0.1, 0.2], [0.3, 0.4])
        assert (helper.jobs, helper.idle()) == (1, True)
    finally:
        helper.close()
    # one that dies before it has booted is closed at the next pair
    monkeypatch.setattr(_pair, "_helper", None)
    ev.evaluate_pair([0.1, 0.2], [0.3, 0.4])
    helper = _pair._helper
    helper.process.kill()
    helper.process.wait(10)
    ev.evaluate_pair([0.1, 0.2], [0.3, 0.4])
    assert not helper.alive and helper.jobs == 0
    assert [r.evaluation.value for r in ev.trace.records] == \
        [quadratic(np.array(t), 0) for t in [[0.1, 0.2], [0.3, 0.4]] * 4]


SRC = Path(__file__).resolve().parents[1] / "src"

STDIN_RUN = """
from sbopt import _pair, core
from sbopt.bench import get_problem, run_single
helper = _pair.process_helper()
if helper is not None:
    helper.conn.poll(60)  # pairs run here until it has booted
trace = run_single(get_problem("complex"), "spsa", 20, 0)
print(repr(trace_bits(trace)))
print(helper.jobs if helper else 0)
"""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def test_a_script_on_stdin_does_not_hang():
    # the helper starts without the caller's __main__, which it could not
    # re-run for a script read from stdin
    script = "\n".join(["import dataclasses", "import numpy as np", "import sbopt as sb",
                         inspect.getsource(bits), inspect.getsource(trace_bits), STDIN_RUN])
    done = subprocess.run([sys.executable, "-"], input=script, env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    got, pairs = done.stdout.splitlines()
    sequential = bench.run_single(behind_a_closure(bench.get_problem("complex")),
                                  "spsa", 20, 0)
    assert got == repr(trace_bits(sequential))
    assert int(pairs) == (10 if _pair.two_cpus() else 0)


MAIN_OBJECTIVE = """
import numpy as np
import sbopt as sb
from sbopt import _pair

def bowl(tau, seed):
    return float(np.sum((tau - 0.3) ** 2))

_pair.process_helper().conn.poll(60)
ev = sb.Evaluator(bowl, budget=20)
sb.run_spsa(ev, [0.5, 0.5], sb.Bounds.unit(2), seed=0)
print(repr([(r.tau.tolist(), r.evaluation) for r in ev.trace.records]))
print(_pair._helper.jobs, _pair._helper.alive)
"""


@needs_two_cpus
@pytest.mark.parametrize("name", ["bowl", "boot", "serve"])
def test_an_objective_defined_in_main_runs_in_the_caller(name):
    # the helper starts without the caller's __main__, so it cannot load the
    # objective, and holds none of its own boot code's names there
    done = subprocess.run([sys.executable, "-c", MAIN_OBJECTIVE.replace("bowl", name)],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    records, helper = done.stdout.splitlines()
    ev = sb.Evaluator(lambda tau, seed: float(np.sum((tau - 0.3) ** 2)), budget=20)
    sb.run_spsa(ev, [0.5, 0.5], UNIT2, seed=0)
    assert records == repr([(r.tau.tolist(), r.evaluation) for r in ev.trace.records])
    assert helper == "0 True"


def sbo_run_leaves_no_helper(tmp_path, solver, budget, env):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"problem": "simple", "solver": solver, "budget": budget,
                                  "output_dir": str(tmp_path / "out")}))
    # the helper is one plain child on a socket pair: no multiprocessing
    # machinery, such as spawn or its resource tracker process, is loaded
    run = ("import sys\nfrom sbopt import _pair\nfrom sbopt.bench.cli import main\n"
           "code = main(sys.argv[1:])\n"
           "assert not [m for m in sys.modules if m.startswith('multiprocessing')]\n"
           "print(_pair._helper.process.pid)\n"
           "sys.exit(code)\n")
    done = subprocess.run([sys.executable, "-c", run, "run", "--config", str(config)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    with pytest.raises(ProcessLookupError):
        os.kill(int(done.stdout.split()[-1]), 0)


@needs_two_cpus
def test_pair_helper_ends_with_sbo_run(tmp_path):
    sbo_run_leaves_no_helper(tmp_path, "spsa", 10, child_env())


@needs_two_cpus
def test_pair_helper_ends_with_sbo_run_of_rk(tmp_path):
    # rk starts the helper as it starts, with no BLAS thread variable set,
    # where its hold keeps the loaded OpenBLAS copies to one thread
    if not kriging._openblas_threads():
        pytest.skip("no OpenBLAS thread setter is loaded")
    env = {k: v for k, v in child_env().items() if k not in _pair.BLAS_THREAD_VARS}
    sbo_run_leaves_no_helper(tmp_path, "rk", 30, env)


INTERRUPTED = """
from sbopt import _pair
from sbopt.bench import get_problem, run_single
print(_pair.process_helper().process.pid, flush=True)
run_single(get_problem("complex"), "spsa", 2000, 0)
"""


@pytest.mark.parametrize("delay", [0.02, 0.1])
def test_ctrl_c_while_the_helper_boots_reaches_only_the_caller(delay):
    # SIGINT goes to the script's whole process group, as Ctrl-C at a terminal
    # does, while the helper is still booting; the helper runs in its own session
    script = subprocess.Popen([sys.executable, "-c", INTERRUPTED], env=child_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              start_new_session=True)
    try:
        helper_pid = int(script.stdout.readline())
        time.sleep(delay)
        os.killpg(script.pid, signal.SIGINT)
        _, err = script.communicate(timeout=120)
    finally:
        if script.poll() is None:
            script.kill()
            script.communicate()
    assert err.count("Traceback (most recent call last)") == 1, err
    assert err.rstrip().endswith("KeyboardInterrupt"), err
    assert "Fatal Python error" not in err
    with pytest.raises(ProcessLookupError):
        os.kill(helper_pid, 0)


WARNER = """
import warnings
import numpy as np

def warns_low(tau, seed):
    if tau[0] < 0.45:
        warnings.warn(f"no value below 0.45, got {tau[0]!r}", RuntimeWarning)
    return float(np.sum((tau - 0.3) ** 2))
"""

WARNING_RUN = """
from sbopt import _pair, core
from warner import warns_low

# the first pair's minus point, the helper's, is the one below 0.45
seed = next(s for s in range(20) if sb.perturbation(2, np.random.default_rng(s))[0] == 1.0)
_pair.process_helper().conn.poll(60)  # pairs run here until it has booted
for objective in (warns_low, lambda tau, s: warns_low(tau, s)):
    ev = sb.Evaluator(objective, budget=10, seed=0)
    raised = None
    try:
        sb.run_spsa(ev, [0.5, 0.5], sb.Bounds.unit(2), seed=seed)
    except Exception as exc:
        raised = (type(exc).__name__, str(exc))
    print(repr((raised, len(ev.trace.records), trace_bits(ev.trace))))
print(_pair._helper.jobs)
"""


@needs_two_cpus
def test_interpreter_options_reach_the_helper(tmp_path):
    # under -W error the helper raises where the caller raises; without the
    # flag it would print the warning and answer with a value
    (tmp_path / "warner.py").write_text(WARNER)
    script = "\n".join(["import dataclasses", "import numpy as np", "import sbopt as sb",
                         inspect.getsource(bits), inspect.getsource(trace_bits), WARNING_RUN])
    env = child_env()
    env["PYTHONPATH"] += os.pathsep + str(tmp_path)
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", script],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    helper_run, closure_run, pairs = done.stdout.splitlines()
    assert helper_run == closure_run
    raised, records, _ = ast.literal_eval(helper_run)
    assert raised[0] == "RuntimeWarning" and "no value below 0.45" in raised[1]
    assert records == 1
    assert pairs == "1"


@needs_two_cpus
def test_pair_helper_gets_the_callers_sys_path(tmp_path, monkeypatch):
    # the objective's module is importable only through a sys.path entry made
    # at run time, which the helper's environment does not carry
    (tmp_path / "runtime_bowl.py").write_text(
        "import numpy as np\n\n"
        "def bowl(tau, seed):\n    return float(np.sum((tau - 0.3) ** 2))\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    bowl = importlib.import_module("runtime_bowl").bowl
    monkeypatch.setattr(_pair, "_helper", None)
    helper = _pair.process_helper()
    try:
        assert helper.conn.poll(60)
        concurrent = sb.Evaluator(bowl, budget=20)
        sb.run_spsa(concurrent, [0.5, 0.5], UNIT2, seed=0)
        assert helper.jobs == 10
    finally:
        helper.close()
        del sys.modules["runtime_bowl"]
    sequential = sb.Evaluator(lambda tau, seed: bowl(tau, seed), budget=20)
    sb.run_spsa(sequential, [0.5, 0.5], UNIT2, seed=0)
    assert trace_bits(concurrent.trace) == trace_bits(sequential.trace)


@needs_two_cpus
def test_the_helpers_command_line_carries_every_str_path_entry(monkeypatch):
    # each str entry is one argument, unchanged: empty, non-ASCII or undecodable
    odd = ["/tmp/café dir", Path("/tmp/a path"), "/tmp/bad\udcff", ""]
    monkeypatch.setattr(sys, "path", [*sys.path, *odd])
    monkeypatch.setattr(_pair, "_helper", None)
    helper = _pair.process_helper()
    try:
        assert helper.conn.poll(60)
        _, got = _pair.run_call(eval, ("__import__('sys').path",), lambda: None)
    finally:
        helper.close()
    assert helper.jobs == 1
    assert got == [entry for entry in sys.path if isinstance(entry, str)]
    assert got[-3:] == ["/tmp/café dir", "/tmp/bad\udcff", ""]


def no_process(*args, **kwargs):
    raise OSError("no process can be started")


@needs_two_cpus
@pytest.mark.parametrize("cannot_start", ["popen_fails", "not_posix"])
def test_a_helper_that_cannot_start_leaves_the_pairs_here(monkeypatch, cannot_start):
    monkeypatch.setattr(_pair, "_helper", None)
    if cannot_start == "popen_fails":
        monkeypatch.setattr(_pair.subprocess, "Popen", no_process)
    else:  # the check reads only the platform's name
        monkeypatch.setattr(_pair, "os", types.SimpleNamespace(name="nt"))
    problem = bench.get_problem("simple")
    fds = len(os.listdir("/dev/fd"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        concurrent = bench.run_single(problem, "spsa", 20, 0)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert len(os.listdir("/dev/fd")) == fds  # both ends of the channel are closed
    if cannot_start == "popen_fails":
        assert _pair._helper is not None and _pair.process_helper() is None
    else:
        assert _pair._helper is None  # no helper was made
    sequential = bench.run_single(behind_a_closure(problem), "spsa", 20, 0)
    assert trace_bits(concurrent) == trace_bits(sequential)
