"""Simultaneous-perturbation stochastic approximation.

Each iteration draws one Bernoulli +-1 perturbation direction, evaluates
the objective at the two symmetric perturbed points, and forms a full
gradient estimate from that single pair, so the cost per iteration is
two evaluations regardless of dimension.  The two are independent, so
they go through ``Evaluator.evaluate_pair``, whose one call into
``sbopt._pair`` runs them concurrently on POSIX when the objective pickles
and two CPUs are available, with the same result as running them in turn.
Gain sequences decay as ``a_i = a / (A + i)**alpha`` and
``c_i = c / (i + 1)**gamma``.

``run_spsa`` descends ``Evaluator.on_unit_cube``: the iterate lives in
the unit cube, and a maximized objective is negated and then penalized
there by the evaluator's ``penalty``.  Perturbed points are clamped to
the cube before evaluation while the divided difference keeps the
nominal step in its denominator; clamping events are reported on this
module's logger since they bias the estimate.  The best solution is
tracked over the perturbed points, the only ones actually evaluated.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import (_NON_NEGATIVE, _POSITIVE, Bounds, Evaluator, Trace, _check, _check_fields,
                   _check_run_bounds, _ruled, as_vector)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SpsaGains:
    """Gain sequence constants; defaults follow common practice."""

    a: float = _ruled(_POSITIVE, default=0.1)
    big_a: float = _ruled(_NON_NEGATIVE, default=5.0)
    alpha: float = _ruled(_POSITIVE, default=0.602)
    c: float = _ruled(_POSITIVE, default=0.1)
    gamma: float = _ruled(_POSITIVE, default=0.101)

    def __post_init__(self):
        _check_fields(self)
        if not (0 < self.gamma < self.alpha <= 1):
            raise ValueError("need 0 < gamma < alpha <= 1")

    def a_at(self, i: int) -> float:
        """Step gain at iteration i >= 1."""
        return self.a / (self.big_a + i) ** self.alpha

    def c_at(self, i: int) -> float:
        """Perturbation size at iteration i >= 1."""
        return self.c / (i + 1) ** self.gamma


def perturbation(m_dim: int, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli +-1 direction with independent fair coordinates."""
    if m_dim < 1:
        raise ValueError("m_dim must be >= 1")
    return rng.integers(0, 2, size=m_dim) * 2.0 - 1.0


def approx_gradient(evaluator: Evaluator, tau, c_i: float, delta):
    """Two-point simultaneous-perturbation gradient estimate of the raw objective.

    Evaluates at tau +- c_i * delta, unclamped.  Returns (g_hat, y_plus,
    y_minus).
    """
    tau = as_vector(tau)
    delta = as_vector(delta, tau.size)
    _check("c_i", c_i, _POSITIVE)
    if np.any(np.abs(delta) != 1.0):
        raise ValueError("delta must be a +-1 vector")
    return _two_point(lambda a, b: [ev.value for ev in evaluator.evaluate_pair(a, b)],
                      tau, c_i, delta)


def _two_point(pair, x, c_i: float, delta, clamp=None):
    """Evaluate the pair x +- c_i * delta and form the divided difference.

    ``pair(x_plus, x_minus)`` returns both values; it goes through
    ``Evaluator.evaluate_pair``, which may run the two points concurrently.
    ``clamp`` (None for no clamping) projects each point before ``pair``
    sees it; clamping either point is logged.  The denominator keeps the
    nominal step.  Returns (g_hat, y_plus, y_minus).
    """
    x_plus, x_minus = x + c_i * delta, x - c_i * delta
    if clamp is not None:
        clipped_plus, clipped_minus = clamp(x_plus), clamp(x_minus)
        if not (np.array_equal(clipped_plus, x_plus)
                and np.array_equal(clipped_minus, x_minus)):
            logger.info("perturbed point clamped to bounds at x=%s", x)
        x_plus, x_minus = clipped_plus, clipped_minus
    y_plus, y_minus = pair(x_plus, x_minus)
    return (y_plus - y_minus) / (2.0 * c_i * delta), y_plus, y_minus


def run_spsa(evaluator: Evaluator, tau_0, bounds: Bounds,
             gains: SpsaGains | None = None, max_iterations: int | None = None,
             seed: int = 0) -> Trace:
    """Iterate until the budget or ``max_iterations`` (None: no cap) runs out.

    One of the two must bound the run: with neither, ValueError is raised
    before the first evaluation.

    The iterate lives in unit-box coordinates internally, so one set of
    gains works for decision vectors mixing scales (distance rates in
    [0, 1] next to delay rates in [0, 15]); the gradient is taken of
    ``evaluator.on_unit_cube(bounds)``, and evaluations and the trace stay
    in original coordinates.  Two evaluations per iteration; a remaining
    budget of one is left unused rather than half-stepping.
    Each iteration appends one record to ``trace.iterations`` with fields
    ``a_i``, ``c_i``, ``delta``, ``y_plus``, ``y_minus`` (on the minimized,
    penalized scale), ``g_norm`` and ``tau_next``; the last record's
    ``tau_next`` is the final iterate.  The best evaluated point is the
    trace's running best as usual.
    """
    gains = gains or SpsaGains()
    _check_run_bounds("run_spsa", evaluator, max_iterations)
    rng = np.random.default_rng(seed)
    f = evaluator.on_unit_cube(bounds)
    u = bounds.to_unit(bounds.clamp(as_vector(tau_0, bounds.m_dim)))
    log = evaluator.trace.iterations
    i = 1
    while (max_iterations is None or i <= max_iterations) and evaluator.can_evaluate(2):
        delta = perturbation(bounds.m_dim, rng)
        c_i = gains.c_at(i)
        g_hat, y_plus, y_minus = _two_point(f.pair, u, c_i, delta,
                                            clamp=lambda x: np.clip(x, 0.0, 1.0))
        a_i = gains.a_at(i)
        u = np.clip(u - a_i * g_hat, 0.0, 1.0)
        log.append({"iteration": i, "evals": evaluator.used, "a_i": a_i, "c_i": c_i,
                    "delta": delta, "y_plus": y_plus, "y_minus": y_minus,
                    "g_norm": float(np.max(np.abs(g_hat))),
                    "tau_next": bounds.from_unit(u)})
        i += 1
    return evaluator.trace
