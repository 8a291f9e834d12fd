"""Feedback toll controller driving interval densities to a critical value.

Each tolling interval gets an independent proportional-integral loop fed
by the simulated mean density of that interval.  The first toll comes
from the integral term against a non-tolling baseline run; every later
iteration re-runs the simulation and nudges the tolls by the density
change (proportional) and the remaining offset from the critical density
(integral).  One controller iteration therefore costs one simulation.

The controller state kept between iterations is the clamped toll vector,
which is what stops integral wind-up at the box edge: once the density
error changes sign the toll moves back immediately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Bounds, EvaluationError, Evaluator, Trace, _write_csv, as_vector


@dataclass(frozen=True)
class PIConfig:
    """Gains (both positive), critical density target, and iteration cap."""

    p_p: float
    p_i: float
    k_cr: float
    n_max: int = 35

    def __post_init__(self):
        if self.p_p <= 0 or self.p_i <= 0:
            raise ValueError("controller gains must be positive")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")


def pi_init(config: PIConfig, k_bar_baseline) -> np.ndarray:
    """First toll vector: integral action on the non-tolling densities."""
    k_bar = as_vector(k_bar_baseline)
    return config.p_i * (k_bar - config.k_cr)


def pi_step(config: PIConfig, tau_prev, k_bar_now, k_bar_prev) -> np.ndarray:
    """One update: previous tolls plus proportional and integral corrections."""
    tau_prev = as_vector(tau_prev)
    k_bar_now = as_vector(k_bar_now, tau_prev.size)
    k_bar_prev = as_vector(k_bar_prev, tau_prev.size)
    return (tau_prev
            + config.p_p * (k_bar_now - k_bar_prev)
            + config.p_i * (k_bar_now - config.k_cr))


def _k_bar_from(ev, m_dim: int) -> np.ndarray:
    if ev.aux is None or "k_bar" not in ev.aux:
        raise EvaluationError(
            "PI control needs per-interval densities; objective returned no k_bar aux")
    k_bar = as_vector(ev.aux["k_bar"], m_dim)
    return k_bar


def run_pi(evaluator: Evaluator, config: PIConfig, bounds: Bounds,
           seed: int | None = None) -> Trace:
    """Baseline run plus up to n_max controller iterations.

    Evaluation count is n_max + 1 unless the budget ends the run early.
    Tolls are clamped to the bounds after every update and the clamped
    value is carried as state.  Iteration details land in
    ``trace.annotations["pi_iterations"]``.
    """
    m = bounds.m_dim
    log = evaluator.trace.annotations.setdefault("pi_iterations", [])

    def room_for_one():
        return evaluator.remaining is None or evaluator.remaining > 0

    if not room_for_one():
        return evaluator.trace
    ev = evaluator.evaluate(np.zeros(m), seed)
    k_prev = _k_bar_from(ev, m)
    log.append({"iteration": 0, "tau": np.zeros(m), "k_bar": k_prev,
                "value": ev.value})

    tau = bounds.clamp(pi_init(config, k_prev))
    for i in range(1, config.n_max + 1):
        if not room_for_one():
            break
        ev = evaluator.evaluate(tau, seed)
        k_now = _k_bar_from(ev, m)
        log.append({"iteration": i, "tau": tau.copy(), "k_bar": k_now,
                    "value": ev.value})
        if i == config.n_max:
            break
        tau = bounds.clamp(pi_step(config, tau, k_now, k_prev))
        k_prev = k_now
    return evaluator.trace


def write_pi_log(trace: Trace, path) -> None:
    """Per-iteration CSV: iteration, tau_h..., k_bar_h..., objective value."""
    rows = trace.annotations.get("pi_iterations", [])
    m = rows[0]["tau"].size if rows else 0
    header = (["iteration"] + [f"tau_{h + 1}" for h in range(m)]
              + [f"k_bar_{h + 1}" for h in range(m)] + ["value"])
    _write_csv(path, header, ([row["iteration"], *row["tau"], *row["k_bar"], row["value"]]
                              for row in rows))
