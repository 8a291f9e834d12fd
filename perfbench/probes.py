"""Fixed-size layer probes, independent of any solver trajectory.

Each probe times one public layer call on inputs drawn from the run's
seed and reports the median of REPS timed calls after one untimed call.
"""

import statistics
from time import perf_counter

import numpy as np

from sbopt.bench.problems import get_problem
from sbopt.kriging import FitConfig, expected_improvement, fit
from sbopt.mfdsim import run_reservoir

REPS = 5
K_POINTS = 4096


def _median_s(call) -> float:
    call()
    times = []
    for _ in range(REPS):
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
    return statistics.median(times)


def _samples(rng, n, m):
    X = rng.random((n, m))
    y = np.sin(3.0 * X).sum(axis=1) + 0.1 * rng.standard_normal(n)
    return X, y


def run_probes(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    out = {}
    for m in (2, 16):
        for n in (25, 50, 100):
            X, y = _samples(rng, n, m)
            # the warm-started search run_rk performs on every iteration after
            # its first; a cold search at n=100, m=16 takes seconds
            cfg = FitConfig(n_starts=2, n_probe=4, max_sweeps=3, seed=seed,
                            warm_start=np.concatenate([np.zeros(m), [-6.0]]))
            out[f"kriging.fit.ms_n{n}_m{m}"] = _median_s(lambda: fit(X, y, cfg)) * 1e3

    X, y = _samples(rng, 100, 16)
    model = fit(X, y, FitConfig(theta=np.ones(16), lam=1e-6))
    Xq = rng.random((K_POINTS, 16))
    y_min = float(np.min(y))
    out["kriging.ei.us_per_point_k4096"] = _median_s(
        lambda: expected_improvement(model, Xq, y_min)) / K_POINTS * 1e6

    complex_problem = get_problem("complex")
    bounds = complex_problem.bounds
    taus = bounds.lower + complex_problem.infill_sampler(rng, K_POINTS, bounds) * bounds.span
    predicate = complex_problem.feasibility_predicate()
    out["constraints.predicate.us_per_call_k4096"] = _median_s(
        lambda: [predicate(t) for t in taus]) / K_POINTS * 1e6

    for name in ("simple", "complex", "composition_flow"):
        problem = get_problem(name)
        scn = problem.scenario
        tau = problem.bounds.lower + rng.random(problem.bounds.m_dim) * problem.bounds.span
        scheme = scn["template"].with_tau(tau)
        out[f"mfdsim.ms_{name}"] = _median_s(
            lambda: run_reservoir(scn["config"], scn["curve"], scheme, seed)) * 1e3
    return out
