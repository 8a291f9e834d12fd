"""Single-reservoir traffic simulator with a network fundamental diagram.

The reservoir holds ``n`` vehicles over ``lane_km`` lane-kilometers, so
density is ``K = n / lane_km`` (veh per lane-km).  An NFD maps density to
flow per lane-km; trip completion drains the reservoir at
``Q(K) * lane_km / avg_trip_length``.  Inflow follows a piecewise-constant
demand profile scaled by a toll response ``exp(-toll_elasticity * toll)``
where the expected trip toll combines a distance rate (eta, $/km) and a
delay rate (omega, $/h of delay).  Forward Euler with a 1 s step is exact
enough at these scales and keeps runs reproducible.

Two noise layers make the black box realistic.  Numerical noise is a
deterministic hash of the quantized toll vector and the seed: re-running
the same tolls gives the same wiggle, but any toll change beyond the
1e-4 quantum re-rolls it, which is how micro-simulators behave when a
parameter change perturbs event ordering.  Stochastic noise depends on
the seed alone, so a fixed seed yields one smooth sample path.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .core import SboError, _write_csv, as_vector


class SimulationError(SboError):
    """Simulation state became invalid (non-finite or out of domain)."""


_TOLL_QUANTUM = 1e-4


@dataclass(frozen=True)
class NfdCurve:
    """Trapezoidal flow-density relation, triangular when the plateau is a point.

    Flow rises linearly from 0 to q_max on [0, k_cr_low], stays at q_max
    up to k_cr_high, then falls linearly to 0 at k_jam.  Units: densities
    in veh per lane-km, q_max in veh/h per lane-km.
    """

    k_cr_low: float
    k_cr_high: float
    k_jam: float
    q_max: float

    def __post_init__(self):
        if not (0 < self.k_cr_low <= self.k_cr_high < self.k_jam):
            raise ValueError("need 0 < k_cr_low <= k_cr_high < k_jam")
        if self.q_max <= 0:
            raise ValueError("q_max must be positive")

    @property
    def shape(self) -> str:
        return "triangular" if self.k_cr_low == self.k_cr_high else "trapezoidal"

    @property
    def free_flow_speed(self) -> float:
        """km/h on the uncongested branch."""
        return self.q_max / self.k_cr_low


def nfd_flow(k, curve: NfdCurve):
    """Flow at density k (scalar or array). Densities outside [0, k_jam] raise."""
    k_arr = np.asarray(k, dtype=float)
    if np.any(k_arr < 0) or np.any(k_arr > curve.k_jam):
        raise SimulationError(f"density outside [0, {curve.k_jam}]")
    q = np.where(
        k_arr <= curve.k_cr_low,
        curve.q_max * k_arr / curve.k_cr_low,
        np.where(
            k_arr <= curve.k_cr_high,
            curve.q_max,
            curve.q_max * (curve.k_jam - k_arr) / (curve.k_jam - curve.k_cr_high),
        ),
    )
    return float(q) if np.isscalar(k) or k_arr.ndim == 0 else q


@dataclass(frozen=True)
class TollScheme:
    """Tolling horizon split into equal intervals with per-interval rates.

    ``eta`` is the distance rate in $/km per interval.  ``omega`` is the
    delay rate in $/h and may be empty for distance-only tolling; when
    present it must match ``eta`` in length.  Times are minutes from the
    start of the simulation.
    """

    horizon_start_min: float
    horizon_end_min: float
    interval_length_min: float
    eta: np.ndarray
    omega: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        object.__setattr__(self, "eta", np.atleast_1d(np.asarray(self.eta, dtype=float)))
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float).reshape(-1))
        if self.interval_length_min <= 0:
            raise ValueError("interval_length_min must be positive")
        if self.horizon_end_min <= self.horizon_start_min:
            raise ValueError("tolling horizon must have positive length")
        n_int = (self.horizon_end_min - self.horizon_start_min) / self.interval_length_min
        m = int(round(n_int))
        if abs(n_int - m) > 1e-9 or m != self.eta.size:
            raise ValueError(
                f"horizon/interval_length gives {n_int} intervals, eta has {self.eta.size}")
        if self.omega.size not in (0, m):
            raise ValueError("omega must be empty or match eta in length")

    @property
    def m_intervals(self) -> int:
        return self.eta.size

    @property
    def joint(self) -> bool:
        return self.omega.size > 0

    def tau(self) -> np.ndarray:
        """The decision vector this scheme encodes: [eta] or [eta, omega]."""
        return np.concatenate([self.eta, self.omega])

    def with_tau(self, tau) -> "TollScheme":
        """Same horizon, rates replaced by the decision vector."""
        m = self.m_intervals
        want = 2 * m if self.joint else m
        tau = as_vector(tau, want)
        omega = tau[m:] if self.joint else self.omega
        return replace(self, eta=tau[:m], omega=omega)

    def interval_at(self, t_min: float) -> int | None:
        """Tolling interval index at a clock time, None outside the horizon."""
        if not (self.horizon_start_min <= t_min < self.horizon_end_min):
            return None
        return int((t_min - self.horizon_start_min) // self.interval_length_min)


@dataclass(frozen=True)
class ReservoirConfig:
    """Reservoir geometry, demand profile, and demand response settings.

    ``demand_segments`` is a list of (duration_min, veh_per_h) pairs covering
    warm-up, peak, and cool-down; their durations define the horizon.
    ``toll_elasticity`` is the demand sensitivity per $ of expected trip toll.
    ``demand_composition_gain`` > 0 enables the composition effect: high
    tolls (measured against ``value_of_time``) shift who travels, narrowing
    the NFD plateau from the top edge down.
    """

    lane_km: float
    avg_trip_length_km: float
    demand_segments: tuple
    toll_elasticity: float
    value_of_time: float = 15.0
    dt_s: float = 1.0
    noise_amplitude: float = 0.0
    stochastic_noise_sd: float = 0.0
    demand_composition_gain: float = 0.0

    def __post_init__(self):
        segs = tuple((float(d), float(r)) for d, r in self.demand_segments)
        object.__setattr__(self, "demand_segments", segs)
        if self.lane_km <= 0 or self.avg_trip_length_km <= 0:
            raise ValueError("lane_km and avg_trip_length_km must be positive")
        if any(d <= 0 or r < 0 for d, r in segs) or not segs:
            raise ValueError("demand segments need positive durations, non-negative rates")
        if self.toll_elasticity < 0:
            raise ValueError("toll_elasticity must be non-negative")
        if self.value_of_time <= 0:
            raise ValueError("value_of_time must be positive")
        if self.dt_s <= 0:
            raise ValueError("dt_s must be positive")
        if self.noise_amplitude < 0 or self.stochastic_noise_sd < 0:
            raise ValueError("noise levels must be non-negative")
        if self.demand_composition_gain < 0:
            raise ValueError("demand_composition_gain must be non-negative")

    @property
    def horizon_min(self) -> float:
        return sum(d for d, _ in self.demand_segments)


@dataclass(frozen=True)
class SimOutput:
    """Time series plus per-interval aggregates ready for an objective."""

    t_s: np.ndarray
    n: np.ndarray
    k: np.ndarray
    q: np.ndarray
    k_bar: np.ndarray
    q_bar: np.ndarray
    k_bar_clean: np.ndarray
    q_bar_clean: np.ndarray

    def aux(self) -> dict:
        return {"k_bar": self.k_bar, "q_bar": self.q_bar}


def _hash_unit(payload: bytes) -> float:
    """Deterministic uniform in [-1, 1) from arbitrary bytes."""
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2.0 ** 64 * 2.0 - 1.0


def _derived_seed(seed: int, tag: str) -> int:
    digest = hashlib.blake2b(
        struct.pack("<q", seed) + tag.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") % (2 ** 63)

def apply_numerical_noise(value: float, tau, amplitude: float, seed: int) -> float:
    """Add deterministic hash noise in [-amplitude, amplitude) to value.

    The noise is a pure function of the toll vector quantized to a 1e-4
    grid and the seed.  Amplitude zero returns the value untouched.
    """
    if amplitude < 0:
        raise ValueError("amplitude must be non-negative")
    if amplitude == 0:
        return float(value)
    tau = as_vector(tau)
    quantized = np.round(tau / _TOLL_QUANTUM).astype("<i8")
    payload = quantized.tobytes() + struct.pack("<q", int(seed))
    return float(value) + amplitude * _hash_unit(payload)


def run_reservoir(config: ReservoirConfig, curve: NfdCurve, scheme: TollScheme,
                  seed: int = 0) -> SimOutput:
    """Simulate one sample path and aggregate per tolling interval.

    Identical (scheme, seed) pairs give bit-identical outputs.  Raises
    SimulationError if the state goes non-finite, and ValueError if the
    tolling horizon sticks out of the demand profile.
    """
    if scheme.horizon_end_min > config.horizon_min + 1e-9:
        raise ValueError("tolling horizon extends beyond the demand profile")

    dt_h = config.dt_s / 3600.0
    n_steps = int(round(config.horizon_min * 60.0 / config.dt_s))
    lane_km = config.lane_km
    trip_km = config.avg_trip_length_km
    v_free = curve.free_flow_speed
    t_free = trip_km / v_free
    k_lo, k_hi, k_jam, q_max = curve.k_cr_low, curve.k_cr_high, curve.k_jam, curve.q_max
    n_max = k_jam * lane_km

    # per-step demand and tolling interval index (-1 outside the horizon)
    step_min = config.dt_s / 60.0
    t_min = (np.arange(n_steps) + 0.5) * step_min
    demand = np.zeros(n_steps)
    edge = 0.0
    for dur, rate in config.demand_segments:
        demand[(t_min >= edge) & (t_min < edge + dur)] = rate
        edge += dur
    interval = np.full(n_steps, -1, dtype=int)
    in_horizon = (t_min >= scheme.horizon_start_min) & (t_min < scheme.horizon_end_min)
    interval[in_horizon] = (
        (t_min[in_horizon] - scheme.horizon_start_min) // scheme.interval_length_min
    ).astype(int)
    interval[interval >= scheme.m_intervals] = scheme.m_intervals - 1

    eta = scheme.eta
    omega = scheme.omega if scheme.joint else np.zeros(scheme.m_intervals)
    elast = config.toll_elasticity
    comp_gain = config.demand_composition_gain
    vot = config.value_of_time

    n_series = np.empty(n_steps)
    k_series = np.empty(n_steps)
    q_series = np.empty(n_steps)

    n = 0.0
    for i in range(n_steps):
        k = n / lane_km
        # flow at k on the base curve; it also sets the speed the delay toll sees
        if k <= k_lo:
            q = q_max * k / k_lo
        elif k <= k_hi:
            q = q_max
        else:
            q = q_max * (k_jam - k) / (k_jam - k_hi)
        toll = 0.0
        h = interval[i]
        if h >= 0:
            v = max(q / k, 1e-6) if k > 1e-12 else v_free
            delay_h = max(0.0, trip_km / v - t_free)
            toll = eta[h] * trip_km + omega[h] * delay_h
            if comp_gain > 0.0 and toll > 0.0:
                # the composition shift lowers the plateau's top edge to
                # k_hi_eff <= k_hi, which rounding can put just below k_lo
                s = min(1.0, comp_gain * (1.0 - np.exp(-toll / vot)))
                k_hi_eff = k_hi - s * (k_hi - k_lo)
                if k > k_lo and k > k_hi_eff:
                    q = q_max * (k_jam - k) / (k_jam - k_hi_eff)
        outflow = min(q * lane_km / trip_km, n / dt_h)
        inflow = demand[i] * (np.exp(-elast * toll) if toll > 0.0 else 1.0)
        # receiving capacity: extra arrivals beyond jam accumulation are turned away
        inflow = min(inflow, (n_max - n) / dt_h + outflow)
        n = n + dt_h * (inflow - outflow)
        if not (0.0 <= n <= 1e15):
            raise SimulationError(f"reservoir state became invalid at step {i} (n={n})")
        n_series[i] = n
        k_series[i] = n / lane_km
        q_series[i] = q

    m = scheme.m_intervals
    k_bar_clean = np.empty(m)
    q_bar_clean = np.empty(m)
    for h in range(m):
        mask = interval == h
        if not np.any(mask):
            raise ValueError(f"tolling interval {h} contains no simulation steps")
        k_bar_clean[h] = float(np.mean(k_series[mask]))
        q_bar_clean[h] = float(np.mean(q_series[mask]))

    tau = scheme.tau()
    k_bar = k_bar_clean.copy()
    q_bar = q_bar_clean.copy()
    if config.stochastic_noise_sd > 0:
        rng = np.random.default_rng(_derived_seed(seed, "stochastic"))
        k_bar = k_bar + config.stochastic_noise_sd * rng.standard_normal(m)
        q_bar = q_bar + config.stochastic_noise_sd * rng.standard_normal(m)
    if config.noise_amplitude > 0:
        for h in range(m):
            k_bar[h] = apply_numerical_noise(
                k_bar[h], tau, config.noise_amplitude, _derived_seed(seed, f"k{h}"))
            q_bar[h] = apply_numerical_noise(
                q_bar[h], tau, config.noise_amplitude, _derived_seed(seed, f"q{h}"))
    k_bar = np.maximum(k_bar, 0.0)
    q_bar = np.maximum(q_bar, 0.0)

    return SimOutput(
        t_s=(np.arange(n_steps) + 1.0) * config.dt_s,
        n=n_series, k=k_series, q=q_series,
        k_bar=k_bar, q_bar=q_bar,
        k_bar_clean=k_bar_clean, q_bar_clean=q_bar_clean,
    )


def _per_interval(out) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(out, SimOutput):
        return out.k_bar, out.q_bar
    k_bar, q_bar = out
    return np.asarray(k_bar, dtype=float), np.asarray(q_bar, dtype=float)


def objective_density(out, k_cr: float) -> float:
    """Mean absolute deviation of interval densities from the critical density."""
    k_bar, _ = _per_interval(out)
    return float(np.mean(np.abs(k_bar - k_cr)))


def objective_flow(out) -> float:
    """Mean interval flow, to be maximized."""
    _, q_bar = _per_interval(out)
    return float(np.mean(q_bar))


def network_average(per_link) -> tuple[np.ndarray, np.ndarray]:
    """Lane-km-weighted mean of per-link (lane_km, k_bar, q_bar) triples."""
    per_link = list(per_link)
    if not per_link:
        raise ValueError("need at least one link")
    weights = np.array([float(w) for w, _, _ in per_link])
    if np.any(weights <= 0):
        raise ValueError("lane_km weights must be positive")
    k_stack = np.stack([np.asarray(k, dtype=float) for _, k, _ in per_link])
    q_stack = np.stack([np.asarray(q, dtype=float) for _, _, q in per_link])
    wsum = weights.sum()
    return (weights @ k_stack) / wsum, (weights @ q_stack) / wsum


def write_series_csv(out: SimOutput, path) -> None:
    """Time series as t_s, n, k, q rows."""
    _write_csv(path, ["t_s", "n", "k", "q"], zip(out.t_s, out.n, out.k, out.q))


def save_scenario(path, config: ReservoirConfig, curve: NfdCurve,
                  scheme: TollScheme | None = None) -> None:
    """Dump a reservoir scenario (and optionally a toll scheme) to JSON."""
    doc = {
        "reservoir": {
            "lane_km": config.lane_km,
            "avg_trip_length_km": config.avg_trip_length_km,
            "demand_segments": [list(s) for s in config.demand_segments],
            "toll_elasticity": config.toll_elasticity,
            "value_of_time": config.value_of_time,
            "dt_s": config.dt_s,
            "noise_amplitude": config.noise_amplitude,
            "stochastic_noise_sd": config.stochastic_noise_sd,
            "demand_composition_gain": config.demand_composition_gain,
        },
        "nfd": {
            "k_cr_low": curve.k_cr_low,
            "k_cr_high": curve.k_cr_high,
            "k_jam": curve.k_jam,
            "q_max": curve.q_max,
        },
    }
    if scheme is not None:
        doc["scheme"] = {
            "horizon_start_min": scheme.horizon_start_min,
            "horizon_end_min": scheme.horizon_end_min,
            "interval_length_min": scheme.interval_length_min,
            "eta": scheme.eta.tolist(),
            "omega": scheme.omega.tolist(),
        }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


def load_scenario(path) -> tuple[ReservoirConfig, NfdCurve, TollScheme | None]:
    """Inverse of save_scenario."""
    with open(path) as fh:
        doc = json.load(fh)
    res = dict(doc["reservoir"])
    res["demand_segments"] = tuple(tuple(s) for s in res["demand_segments"])
    config = ReservoirConfig(**res)
    curve = NfdCurve(**doc["nfd"])
    scheme = None
    if "scheme" in doc:
        s = dict(doc["scheme"])
        s["eta"] = np.asarray(s["eta"], dtype=float)
        s["omega"] = np.asarray(s["omega"], dtype=float)
        scheme = TollScheme(**s)
    return config, curve, scheme
