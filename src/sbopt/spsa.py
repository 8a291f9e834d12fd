"""Simultaneous-perturbation stochastic approximation.

Each iteration draws one Bernoulli +-1 perturbation direction, evaluates
the objective at the two symmetric perturbed points, and forms a full
gradient estimate from that single pair, so the cost per iteration is
two evaluations regardless of dimension.  Gain sequences decay as
``a_i = a / (A + i)**alpha`` and ``c_i = c / (i + 1)**gamma``.

Perturbed points are clamped to the box before evaluation while the
divided difference keeps the nominal step in its denominator; clamping
events are reported on this module's logger since they bias the
estimate.  The best solution is tracked over the perturbed points, the
only ones actually evaluated.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import Bounds, BudgetExhausted, Evaluator, Trace, _write_csv, as_vector

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SpsaGains:
    """Gain sequence constants; defaults follow common practice."""

    a: float = 0.1
    big_a: float = 5.0
    alpha: float = 0.602
    c: float = 0.1
    gamma: float = 0.101

    def __post_init__(self):
        if self.a <= 0 or self.c <= 0:
            raise ValueError("a and c must be positive")
        if self.big_a < 0:
            raise ValueError("A must be non-negative")
        if not (0 < self.gamma < self.alpha <= 1):
            raise ValueError("need 0 < gamma < alpha <= 1")

    def a_at(self, i: int, scale: float = 1.0) -> float:
        """Step gain at iteration i >= 1; scale folds in gradient_scale."""
        return (self.a * scale) / (self.big_a + i) ** self.alpha

    def c_at(self, i: int) -> float:
        """Perturbation size at iteration i >= 1."""
        return self.c / (i + 1) ** self.gamma


def perturbation(m_dim: int, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli +-1 direction with independent fair coordinates."""
    if m_dim < 1:
        raise ValueError("m_dim must be >= 1")
    return rng.integers(0, 2, size=m_dim) * 2.0 - 1.0


def approx_gradient(evaluator: Evaluator, tau, c_i: float, delta,
                    bounds: Bounds | None = None, transform=None):
    """Two-point simultaneous-perturbation gradient estimate.

    Evaluates at tau +- c_i * delta (clamped to bounds when given; the
    divided difference keeps the nominal denominator and the clamping is
    logged).  ``transform(value, tau)`` maps raw objective values onto
    the scale the gradient should descend, e.g. a sign flip for
    maximization or a penalty wrap.  Returns (g_hat, y_plus, y_minus).
    """
    tau = as_vector(tau)
    delta = as_vector(delta, tau.size)
    if c_i <= 0:
        raise ValueError("c_i must be positive")
    if np.any(np.abs(delta) != 1.0):
        raise ValueError("delta must be a +-1 vector")
    return _two_point(evaluator, tau, c_i, delta,
                      clamp=None if bounds is None else bounds.clamp,
                      to_tau=lambda x: x,
                      transform=transform or (lambda v, _: v),
                      clamp_note=("perturbed point clamped to bounds at tau=%s", tau))


def _two_point(evaluator: Evaluator, x, c_i: float, delta, clamp, to_tau,
               transform, clamp_note):
    """Evaluate the pair x +- c_i * delta and form the divided difference.

    ``clamp`` (None for no clamping) projects each point before
    ``to_tau`` maps it to decision space; ``clamp_note`` is logged when
    clamping moved either point.  The denominator keeps the nominal step.
    Returns (g_hat, y_plus, y_minus) on the ``transform``-ed scale.
    """
    x_plus, x_minus = x + c_i * delta, x - c_i * delta
    if clamp is not None:
        clipped_plus, clipped_minus = clamp(x_plus), clamp(x_minus)
        if not (np.array_equal(clipped_plus, x_plus)
                and np.array_equal(clipped_minus, x_minus)):
            logger.info(*clamp_note)
        x_plus, x_minus = clipped_plus, clipped_minus
    tau_plus, tau_minus = to_tau(x_plus), to_tau(x_minus)
    y_plus = evaluator.evaluate(tau_plus).value
    y_minus = evaluator.evaluate(tau_minus).value
    y_plus, y_minus = transform(y_plus, tau_plus), transform(y_minus, tau_minus)
    return (y_plus - y_minus) / (2.0 * c_i * delta), y_plus, y_minus


@dataclass(frozen=True)
class StopRule:
    """Iteration cap and stall detector on the gradient estimate."""

    max_iterations: int | None = None
    g_tol: float = 0.0
    k_stall: int = 5

    def __post_init__(self):
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.g_tol < 0 or self.k_stall < 1:
            raise ValueError("g_tol must be >= 0 and k_stall >= 1")


def run_spsa(evaluator: Evaluator, tau_0, bounds: Bounds,
             gains: SpsaGains | None = None, stop: StopRule | None = None,
             penalty=None, gradient_scale: float = 1.0, seed: int = 0) -> Trace:
    """Iterate until the budget, the iteration cap, or a gradient stall.

    The iterate lives in unit-box coordinates internally, so one set of
    gains works for decision vectors mixing scales (distance rates in
    [0, 1] next to delay rates in [0, 15]); evaluations and the trace
    stay in original coordinates.  Two evaluations per iteration; a
    remaining budget of one is left unused rather than half-stepping.
    The iterate path is stored in ``trace.annotations["spsa_iterations"]``
    and the final iterate in ``trace.annotations["spsa_final_tau"]``; the
    best evaluated point is the trace's running best as usual.
    """
    gains = gains or SpsaGains()
    stop = stop or StopRule()
    if gradient_scale <= 0:
        raise ValueError("gradient_scale must be positive")
    rng = np.random.default_rng(seed)
    sign = 1.0 if evaluator.sense == "minimize" else -1.0

    def transform(v: float, tau: np.ndarray) -> float:
        if penalty is not None:
            v = penalty.apply(v, tau, evaluator.sense)
        return sign * v

    u = bounds.to_unit(bounds.clamp(as_vector(tau_0, bounds.m_dim)))
    log = evaluator.trace.annotations.setdefault("spsa_iterations", [])
    stall = 0
    i = 1
    while stop.max_iterations is None or i <= stop.max_iterations:
        if evaluator.remaining is not None and evaluator.remaining < 2:
            break
        delta = perturbation(bounds.m_dim, rng)
        c_i = gains.c_at(i)
        try:
            g_hat, y_plus, y_minus = _two_point(
                evaluator, u, c_i, delta, clamp=lambda x: np.clip(x, 0.0, 1.0),
                to_tau=bounds.from_unit, transform=transform,
                clamp_note=("perturbed point clamped to bounds at iteration %d", i))
        except BudgetExhausted:
            break
        a_i = gains.a_at(i, gradient_scale)
        u = np.clip(u - a_i * g_hat, 0.0, 1.0)
        g_norm = float(np.max(np.abs(g_hat)))
        log.append({"iteration": i, "a_i": a_i, "c_i": c_i, "delta": delta,
                    "y_plus": y_plus, "y_minus": y_minus, "g_norm": g_norm,
                    "tau_next": bounds.from_unit(u)})
        stall = stall + 1 if (stop.g_tol > 0 and g_norm < stop.g_tol) else 0
        if stall >= stop.k_stall:
            break
        i += 1
    evaluator.trace.annotations["spsa_final_tau"] = bounds.from_unit(u)
    return evaluator.trace


def write_spsa_log(trace: Trace, path) -> None:
    """Per-iteration CSV: gains, perturbed values, gradient norm, next iterate."""
    rows = trace.annotations.get("spsa_iterations", [])
    m = rows[0]["tau_next"].size if rows else 0
    header = (["iteration", "a_i", "c_i", "y_plus", "y_minus", "g_norm"]
              + [f"delta_{h + 1}" for h in range(m)]
              + [f"tau_next_{h + 1}" for h in range(m)])
    _write_csv(path, header,
               ([row["iteration"], row["a_i"], row["c_i"], row["y_plus"],
                 row["y_minus"], row["g_norm"], *row["delta"], *row["tau_next"]]
                for row in rows))
