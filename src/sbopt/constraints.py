"""Inter-interval smoothing constraints on toll profiles.

A joint toll profile stacks the per-interval distance rates and delay
rates as ``tau = [eta_1..eta_m, omega_1..omega_m]``.  Successive tolls
may not jump by more than ``alpha_smooth`` (distance) or ``beta_smooth``
(delay), which keeps schedules drivers can anticipate.  ``_chains`` states
the band once, two chains with a free seam between them: ``_excess`` reads
it for the feasibility test and the exterior penalty ``weight * sum(v ** 2)``
DIRECT and SPSA add, ``band_map`` to map unit-cube rows into the band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatch, _is_int

# penalty_weight_from_probe: weight per unit of typical objective magnitude
_PROBE_FACTOR = 100.0


@dataclass(frozen=True)
class SmoothingSpec:
    """Maximum allowed change between consecutive tolling intervals."""

    alpha_smooth: float
    beta_smooth: float
    m_intervals: int

    def __post_init__(self):
        # a comparison with NaN is False, so NaN fails the test
        if not (self.alpha_smooth > 0 and self.beta_smooth > 0):
            raise ValueError(f"smoothing limits must be positive, got "
                             f"{self.alpha_smooth!r} and {self.beta_smooth!r}")
        if not (_is_int(self.m_intervals) and self.m_intervals >= 1):
            raise ValueError(f"m_intervals must be an integer >= 1, got {self.m_intervals!r}")


def _chains(spec: SmoothingSpec) -> tuple:
    """(first column, end column, jump limit) of the distance chain, then the delay chain."""
    m = spec.m_intervals
    return (0, m, spec.alpha_smooth), (m, 2 * m, spec.beta_smooth)


def _excess(taus: np.ndarray, spec: SmoothingSpec) -> np.ndarray:
    """Violation magnitudes along the last axis of profiles of checked width."""
    jumps = [np.abs(taus[..., a + 1:b] - taus[..., a:b - 1]) - limit
             for a, b, limit in _chains(spec)]
    out = np.concatenate(jumps, axis=-1)
    return np.maximum(out, 0.0, out=out)


def band_map(U, spec: SmoothingSpec, bounds) -> np.ndarray:
    """Unit-cube rows (one profile or a (k, 2m) stack) mapped into the band: a new
    C-ordered array of feasible rows in ``bounds``' unit coordinates.  Each chain's
    first rate is kept; a later rate u goes to ``lo + u (hi - lo)`` on the window
    ``[p - w, p + w] ∩ [0, 1]``, p the mapped rate before it and w the chain's limit
    over the column's span, less 1e-12 of it."""
    U, span = np.asarray(U, dtype=float), bounds.span
    _check_width(U.shape, spec)
    _check_width(span.shape, spec, ndims=(1,))
    out = np.empty(U.shape)
    for a, b, limit in _chains(spec):
        prev = out[..., a] = U[..., a]
        for j in range(a + 1, b):
            w = limit / (span[j] if span[j] > 0 else 1.0) * (1 - 1e-12)
            lo = np.maximum(0.0, prev - w)
            hi = np.minimum(1.0, prev + w)
            prev = out[..., j] = lo + U[..., j] * (hi - lo)
    return out


def _check_width(shape, spec: SmoothingSpec, ndims=(1, 2)) -> None:
    """Refuse anything but one profile or, where ndims allows, a (k, 2m) stack."""
    if len(shape) not in ndims or shape[-1] != 2 * spec.m_intervals:
        raise DimensionMismatch(f"joint toll profile needs {2 * spec.m_intervals} entries "
                                f"([eta..., omega...]), got shape {shape}")


def violations(tau, spec: SmoothingSpec) -> np.ndarray:
    """Constraint violation magnitudes, zero where satisfied.

    Returns a vector of length ``2 * (m_intervals - 1)``: the distance-rate
    entries first, then the delay-rate entries.  Entry values are
    ``max(0, |jump| - limit)``.
    """
    tau = np.asarray(tau, dtype=float)
    _check_width(tau.shape, spec, ndims=(1,))
    return _excess(tau, spec)


def is_feasible(tau, spec: SmoothingSpec, tol: float = 0.0) -> bool:
    """True when every violation of one profile is within tol: ``feasible_mask`` on a 1-D tau."""
    tau = np.asarray(tau, dtype=float)
    _check_width(tau.shape, spec, ndims=(1,))
    return bool(feasible_mask(tau, spec, tol))


def feasible_mask(taus, spec: SmoothingSpec, tol: float = 0.0) -> np.ndarray:
    """The feasibility test: a length-k boolean row mask over a (k, 2m) stack,
    True where every violation is within tol.  A 1-D profile gives a 0-d result.
    """
    if not tol >= 0:  # NaN fails the test too
        raise ValueError(f"tol must be non-negative, got {tol!r}")
    taus = np.asarray(taus, dtype=float)
    _check_width(taus.shape, spec)
    return np.all(_excess(taus, spec) <= tol, axis=-1)


def penalize(value: float, tau, spec: SmoothingSpec, weight: float) -> float:
    """Objective value pushed away from infeasible profiles.

    Adds ``weight * sum(v ** 2)``, so the penalized value is meant to be
    minimized: a maximized objective is negated first (see
    ``Evaluator.on_unit_cube``).  Feasible profiles are returned unchanged.
    """
    _check_weight(weight)
    v = violations(tau, spec)
    if v.size == 0:
        return float(value)
    return float(value) + weight * float(np.sum(v ** 2))


def _check_weight(weight) -> None:
    # an infinite weight times a zero violation is NaN, not zero
    if not 0 < weight < math.inf:
        raise ValueError(f"penalty weight must be positive and finite, got {weight!r}")


def penalty_weight_from_probe(values) -> float:
    """Penalty weight scaled to the objective: 100 x typical magnitude.

    ``values`` is a probe of objective values at feasible points (twenty
    is plenty).  Falls back to 1.0 when the probe is identically zero.
    Raises ValueError on an empty probe or a non-finite value in it.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("probe values must be non-empty")
    if not np.isfinite(values).all():
        raise ValueError("probe values must be finite")
    mag = float(np.median(np.abs(values)))
    if mag == 0.0:
        mag = float(np.max(np.abs(values)))
    if mag == 0.0:
        mag = 1.0
    return _PROBE_FACTOR * mag


@dataclass(frozen=True)
class PenaltyTransform:
    """Spec + weight (positive, finite): the ``Evaluator`` ``penalty`` DIRECT and SPSA add."""

    spec: SmoothingSpec
    weight: float

    def __post_init__(self):
        _check_weight(self.weight)

    def apply(self, value: float, tau) -> float:
        return penalize(value, tau, self.spec, self.weight)
