"""Inter-interval smoothing constraints on toll profiles.

A joint toll profile stacks the per-interval distance rates and delay
rates as ``tau = [eta_1..eta_m, omega_1..omega_m]``.  Successive tolls
may not jump by more than ``alpha_smooth`` (distance) or ``beta_smooth``
(delay), which keeps schedules drivers can anticipate.  Solvers without
native constraint handling use the quadratic exterior penalty
``weight * sum(v ** 2)``; the kriging solver instead restricts its infill
search to feasible points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .core import DimensionMismatch

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
        if not (isinstance(self.m_intervals, Integral) and self.m_intervals >= 1):
            raise ValueError(f"m_intervals must be an integer >= 1, got {self.m_intervals!r}")


def _excess(taus: np.ndarray, spec: SmoothingSpec) -> np.ndarray:
    """Violation magnitudes along the last axis of profiles of checked width."""
    m = spec.m_intervals
    v = np.abs(taus[..., 1:] - taus[..., :-1])  # entry m-1 crosses eta/omega
    out = np.empty(taus.shape[:-1] + (2 * (m - 1),))
    np.maximum(v[..., : m - 1] - spec.alpha_smooth, 0.0, out=out[..., : m - 1])
    np.maximum(v[..., m:] - spec.beta_smooth, 0.0, out=out[..., m - 1:])
    return out


def _profile_error(shape, spec: SmoothingSpec) -> DimensionMismatch:
    return DimensionMismatch(
        f"joint toll profile needs {2 * spec.m_intervals} entries "
        f"([eta..., omega...]), got shape {shape}")


def violations(tau, spec: SmoothingSpec) -> np.ndarray:
    """Constraint violation magnitudes, zero where satisfied.

    Returns a vector of length ``2 * (m_intervals - 1)``: the distance-rate
    entries first, then the delay-rate entries.  Entry values are
    ``max(0, |jump| - limit)``.
    """
    tau = np.asarray(tau, dtype=float)
    if tau.ndim != 1 or tau.size != 2 * spec.m_intervals:
        raise _profile_error(tau.shape, spec)
    return _excess(tau, spec)


def is_feasible(tau, spec: SmoothingSpec, tol: float = 0.0) -> bool:
    """True when every violation of one profile is within tol: ``feasible_mask`` on a 1-D tau."""
    tau = np.asarray(tau, dtype=float)
    ok = feasible_mask(tau, spec, tol)
    if ok.ndim:
        raise _profile_error(tau.shape, spec)
    return bool(ok)


def feasible_mask(taus, spec: SmoothingSpec, tol: float = 0.0) -> np.ndarray:
    """The feasibility test: a length-k boolean row mask over a (k, 2m) stack,
    True where every violation is within tol.  A 1-D profile gives a 0-d result.
    """
    if not tol >= 0:  # NaN fails the test too
        raise ValueError(f"tol must be non-negative, got {tol!r}")
    taus = np.asarray(taus, dtype=float)
    if taus.ndim not in (1, 2) or taus.shape[-1] != 2 * spec.m_intervals:
        raise _profile_error(taus.shape, spec)
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
