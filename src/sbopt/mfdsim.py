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

A solver calls the simulator once per evaluation, so its step loop sets
the wall time of every solver.  What the tolls cannot change is built
once per scenario and tolling horizon and cached (``_step_plan``): the
steps grouped into runs of constant demand and tolling interval, and the
m + 1 segments a call walks, the untolled warm-up and then each tolling
interval's contiguous slice of steps.  The state is Markov, so a
segment's steps depend only on the bits of the state before it and of
its interval's (eta_h, omega_h).  Beside each plan sits an LRU memo of
segment slices keyed by exactly those bits: a call copies every segment
it finds there and steps the others, so an exact repeat steps nothing, a
call that shares leading intervals with an earlier one steps from the
first that differs, and a call whose state before an interval returns to
an earlier run's, with the same tolls from there, copies its steps again.
No objective reads a step after the tolling horizon, so a call stops
there: the untolled cool-down is stepped on the first read of the
output's series, from the state at the horizon's end.  Inside a run of
constant demand and interval, a step that leaves the state exactly where
it was repeats every later step of the run, so the loop fills the rest
of the run with it.

The loop (``_advance``) steps every run with one body.  A run outside
the tolling horizon, or in an interval whose delay rate ``omega[h]`` is
0.0, has a toll no state can change: the distance toll alone, or none.
Its inflow and, under the composition effect, the lowered top edge of
the plateau are computed once before its steps, so the warm-up, the
cool-down and every interval of a distance-only scheme step without
recomputing a toll.  Only a run with a nonzero delay rate computes the
speed, delay, toll and response at each step.

The loop keeps only the state ``n``: density and flow are functions of
it and the step's tolls, so one array pass derives them afterwards
(``_density_flow``) from the loop's own expressions.  The state stays a
Python float and the toll response ``np.exp`` rather than
``math.exp``, whose last bits differ on some inputs: the tests hold
every output bit for bit to a reference loop on numpy scalars.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from array import array
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from .core import SboError, _write_csv, as_vector


class SimulationError(SboError):
    """Simulation state became invalid (non-finite or out of domain)."""


_TOLL_QUANTUM = 1e-4
# the segment memo of a step plan holds this many calls' worth of slices,
# _MEMO_RUNS * (m + 1), about 1 MB on `complex`
_MEMO_RUNS = 16


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
        if not math.isfinite(self.k_jam):
            raise ValueError(f"k_jam must be finite, got {self.k_jam!r}")
        if not (0 < self.k_cr_low <= self.k_cr_high < self.k_jam):
            raise ValueError("need 0 < k_cr_low <= k_cr_high < k_jam")
        if not 0 < self.q_max < math.inf:
            raise ValueError("q_max must be positive and finite")

    @property
    def free_flow_speed(self) -> float:
        """km/h on the uncongested branch."""
        return self.q_max / self.k_cr_low


def nfd_flow(k, curve: NfdCurve):
    """Flow at density k (scalar or array). Densities outside [0, k_jam] or NaN raise."""
    k_arr = np.asarray(k, dtype=float)
    if not np.all((k_arr >= 0) & (k_arr <= curve.k_jam)):
        raise SimulationError(f"density outside [0, {curve.k_jam}]")
    q = _curve_flow(k_arr, curve)
    return float(q) if np.isscalar(k) or k_arr.ndim == 0 else q


def _curve_flow(k: np.ndarray, curve: NfdCurve) -> np.ndarray:
    """The curve over an array of densities, with the step loop's expressions."""
    return np.where(
        k <= curve.k_cr_low,
        curve.q_max * k / curve.k_cr_low,
        np.where(
            k <= curve.k_cr_high,
            curve.q_max,
            curve.q_max * (curve.k_jam - k) / (curve.k_jam - curve.k_cr_high),
        ),
    )


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
        for name in ("horizon_start_min", "horizon_end_min", "interval_length_min"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
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
        if not (np.isfinite(self.eta).all() and np.isfinite(self.omega).all()):
            raise ValueError("toll rates eta and omega must be finite")

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
        # a comparison with NaN is False, so each check rejects NaN too; a NaN
        # demand rate passes, and the step loop raises SimulationError on it.
        # A trip's delay, below trip_km / 1e-6 hours at the speed floor, stays
        # finite, so a zero delay rate adds a zero toll (see _advance).
        inf = math.inf
        if not (0 < self.lane_km < inf and 0 < self.avg_trip_length_km / 1e-6 < inf):
            raise ValueError("lane_km and avg_trip_length_km / 1e-6 must be positive and finite")
        if not segs or not all(0 < d < inf and not r < 0 for d, r in segs):
            raise ValueError(
                "demand segments need positive finite durations, non-negative rates")
        if not 0 <= self.toll_elasticity < inf:
            raise ValueError("toll_elasticity must be non-negative and finite")
        if not 0 < self.value_of_time < inf:
            raise ValueError("value_of_time must be positive and finite")
        if not 0 < self.dt_s < inf:
            raise ValueError("dt_s must be positive and finite")
        if not (0 <= self.noise_amplitude < inf and 0 <= self.stochastic_noise_sd < inf):
            raise ValueError("noise levels must be non-negative and finite")
        if not 0 <= self.demand_composition_gain < inf:
            raise ValueError("demand_composition_gain must be non-negative and finite")

    @property
    def horizon_min(self) -> float:
        return sum(d for d, _ in self.demand_segments)


class SimOutput:
    """Time series plus per-interval aggregates ready for an objective.

    ``t_s`` holds the end time of every step, ``n`` and ``k`` the vehicles
    and density after it and ``q`` the flow during it.  ``k_bar`` and
    ``q_bar`` are the per-interval means that objectives read, with the
    scenario's noise; ``k_bar_clean`` and ``q_bar_clean`` are the same
    means without it.

    An output of ``run_reservoir`` has stepped only to the end of the
    tolling horizon, and has kept only ``n``.  The first read of ``n``,
    ``k`` or ``q`` steps the rest and derives ``k`` and ``q`` from ``n``,
    so that read can raise SimulationError; a read after a failed one steps
    the rest again.
    """

    def __init__(self, t_s, n, k, q, k_bar, q_bar, k_bar_clean, q_bar_clean):
        self.t_s = t_s
        self._series = (n, k, q)
        self._pending = None  # run_reservoir's callable that returns (n, k, q)
        self.k_bar = k_bar
        self.q_bar = q_bar
        self.k_bar_clean = k_bar_clean
        self.q_bar_clean = q_bar_clean

    def _stepped(self) -> tuple:
        if self._pending is not None:
            self._series = self._pending()
            self._pending = None
        return self._series

    @property
    def n(self) -> np.ndarray:
        return self._stepped()[0]

    @property
    def k(self) -> np.ndarray:
        return self._stepped()[1]

    @property
    def q(self) -> np.ndarray:
        return self._stepped()[2]

    def aux(self) -> dict:
        return {"k_bar": self.k_bar, "q_bar": self.q_bar}


def _digest_unit(digest: bytes) -> float:
    """Uniform in [-1, 1) from an 8-byte hash digest."""
    return int.from_bytes(digest, "little") / 2.0 ** 64 * 2.0 - 1.0


@functools.lru_cache(maxsize=1024)
def _derived_seed(seed: int, tag: str) -> int:
    digest = hashlib.blake2b(
        struct.pack("<q", seed) + tag.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") % (2 ** 63)


def _quantize(tau) -> bytes:
    """The toll vector on the 1e-4 grid, as the bytes the noise hash reads."""
    return np.round(as_vector(tau) / _TOLL_QUANTUM).astype("<i8").tobytes()


@functools.lru_cache(maxsize=64)
def _noise_seeds(seed: int, m: int) -> tuple:
    """Packed derived seeds of the k noise of intervals 0..m-1, then of the q noise."""
    return tuple(struct.pack("<q", _derived_seed(seed, f"{series}{h}"))
                 for series in "kq" for h in range(m))


def _interval_noise(quantized: bytes, seed: int, m: int) -> np.ndarray:
    """Hash noise units of every interval, shape (2, m): the k row, then the q row.

    Entry (0, h) has the bits of the unit ``apply_numerical_noise`` draws
    for the derived seed ``k{h}``, and likewise for ``q{h}``: the toll bytes
    are hashed once, and the hash state is copied for each packed seed.
    """
    base = hashlib.blake2b(quantized, digest_size=8)
    units = []
    for packed in _noise_seeds(seed, m):
        state = base.copy()
        state.update(packed)
        units.append(_digest_unit(state.digest()))
    return np.array(units).reshape(2, m)


def _check_amplitude(amplitude) -> None:
    # a comparison with NaN is False, so NaN fails the test
    if not 0 <= amplitude < math.inf:
        raise ValueError(f"amplitude must be non-negative and finite, got {amplitude!r}")


def apply_numerical_noise(value: float, tau, amplitude: float, seed: int) -> float:
    """Add deterministic hash noise in [-amplitude, amplitude) to value.

    The noise is a pure function of the toll vector quantized to a 1e-4
    grid and the seed.  Amplitude zero returns the value untouched.
    """
    _check_amplitude(amplitude)
    if amplitude == 0:
        return float(value)
    digest = hashlib.blake2b(_quantize(tau) + struct.pack("<q", int(seed)),
                             digest_size=8).digest()
    return float(value) + amplitude * _digest_unit(digest)


@functools.lru_cache(maxsize=16)
def _step_plan(config: ReservoirConfig, curve: NfdCurve, start_min: float,
               end_min: float, interval_min: float, m: int) -> tuple:
    """Everything about a run that the tolls cannot change.

    Returns (n_steps, runs, segments, slices, interval, width, memo).
    ``runs`` lists every step as (first step, end step, demand veh/h,
    interval index or -1) runs of constant demand and interval.
    ``segments`` holds the (first step, end step, first run, end run) of
    the untolled warm-up, then of each tolling interval; the runs from the
    last segment's end run on are the untolled cool-down.  ``slices[h]`` is
    interval h's (first, end) step range; the slices are contiguous.
    ``interval`` holds each step's interval index, -1 outside the horizon,
    and ``width`` the length the slices share, 0 when they differ.
    ``memo`` starts empty; run_reservoir keeps there the n slices of the
    segments it stepped on this plan, as immutable bytes keyed by the
    segment, the bits of the state before it and the bits of its interval's
    tolls, so that no caller can write into the cache.  Raises ValueError
    if a tolling interval holds no step.  A process uses a few scenarios,
    so 16 plans are kept.
    """
    n_steps = int(round(config.horizon_min * 60.0 / config.dt_s))
    step_min = config.dt_s / 60.0
    t_min = (np.arange(n_steps) + 0.5) * step_min
    demand = np.zeros(n_steps)
    edge = 0.0
    for dur, rate in config.demand_segments:
        demand[(t_min >= edge) & (t_min < edge + dur)] = rate
        edge += dur
    interval = np.full(n_steps, -1, dtype=int)
    in_horizon = (t_min >= start_min) & (t_min < end_min)
    interval[in_horizon] = ((t_min[in_horizon] - start_min) // interval_min).astype(int)
    interval[interval >= m] = m - 1
    interval.setflags(write=False)  # every call on the plan reads it

    cuts = np.flatnonzero((np.diff(demand) != 0) | (np.diff(interval) != 0)) + 1
    edges = [0, *cuts.tolist(), n_steps]
    runs = tuple((a, b, float(demand[a]), int(interval[a]))
                 for a, b in zip(edges, edges[1:]) if a < b)
    slices = []
    for h in range(m):
        steps = np.flatnonzero(interval == h)  # contiguous: interval rises with t
        if not steps.size:
            raise ValueError(f"tolling interval {h} contains no simulation steps")
        slices.append((int(steps[0]), int(steps[-1]) + 1))
    # every segment edge is an interval change, so a run starts there
    starts = [run[0] for run in runs] + [n_steps]
    bounds = [0, *(a for a, _ in slices), slices[-1][1]]
    segments = tuple((a, b, starts.index(a), starts.index(b))
                     for a, b in zip(bounds, bounds[1:]))
    widths = {b - a for a, b in slices}
    width = widths.pop() if len(widths) == 1 else 0
    return n_steps, runs, segments, tuple(slices), interval, width, OrderedDict()


def _advance(n: float, runs, config: ReservoirConfig, curve: NfdCurve, eta, omega,
             n_out: array) -> None:
    """Forward-Euler steps over ``runs`` from state ``n``.

    Writes the state after each step into ``n_out``, and fills the rest of
    a run at once from a step that leaves n unchanged; ``_density_flow``
    derives k and q from the result.  The state stays a Python float, and
    min/max are spelled as the conditionals they reduce to, so every step
    rounds exactly like the numpy-scalar reference loop.

    A run outside the horizon (``h < 0``) or with ``omega[h] == 0.0`` has a
    toll the state cannot change, the distance toll ``eta[h] * trip_km``
    or none, so its inflow and, with the composition gain on, the plateau's
    lowered top edge are computed once before its steps.  Only a run with a
    delay rate recomputes speed, delay, toll and response at each step,
    which bend the flow and set the inflow; the outflow, the drain and room
    clamps, the range check and the store follow for every run.  The
    expressions and operand order are the reference's, and the toll
    response stays ``np.exp``: ``math.exp`` differs from it in the last
    bits on some inputs, which moves the outputs.
    """
    exp = np.exp
    dt_h = config.dt_s / 3600.0
    lane_km = config.lane_km
    trip_km = config.avg_trip_length_km
    elast = config.toll_elasticity
    comp_gain = config.demand_composition_gain
    vot = config.value_of_time
    k_lo, k_hi, k_jam, q_max = curve.k_cr_low, curve.k_cr_high, curve.k_jam, curve.q_max
    v_free = curve.free_flow_speed
    t_free = trip_km / v_free
    n_max = k_jam * lane_km
    jam_span = k_jam - k_hi
    plateau = k_hi - k_lo

    # a run with a delay rate reuses the toll response while the toll repeats
    last_toll = resp = k_hi_eff = None
    k = n / lane_km
    for first, end, d, h in runs:
        om = omega[h] if h >= 0 else 0.0
        dist_toll = eta[h] * trip_km if h >= 0 else 0.0
        # the composition shift, if any, lowers the plateau's top edge from k_hi
        # to `top`, and the flow falls over `span` above it
        inflow_run, top, span = d, k_hi, jam_span
        if not om and dist_toll > 0.0:
            # a constant toll: its response and shift hold for the whole run
            inflow_run = d * float(exp(-elast * dist_toll))
            if comp_gain > 0.0:
                # rounding can put the lowered edge just below k_lo
                s = comp_gain * (1.0 - float(exp(-dist_toll / vot)))
                top = k_hi - (s if s < 1.0 else 1.0) * plateau
                span = k_jam - top
        for i in range(first, end):
            if k <= k_lo:
                q = q_max * k / k_lo
            elif k <= top:
                q = q_max
            else:
                q = q_max * (k_jam - k) / span
            inflow = inflow_run
            if om:
                # q is the base curve's flow here; it sets the speed the delay toll sees
                if k > 1e-12:
                    v = q / k
                    if v < 1e-6:
                        v = 1e-6
                else:
                    v = v_free
                delay_h = trip_km / v - t_free
                toll = dist_toll + om * (delay_h if delay_h > 0.0 else 0.0)
                if toll > 0.0:
                    if toll != last_toll:
                        last_toll = toll
                        resp = float(exp(-elast * toll))
                        if comp_gain > 0.0:
                            # the same shift, to k_hi_eff, for this step's toll
                            s = comp_gain * (1.0 - float(exp(-toll / vot)))
                            k_hi_eff = k_hi - (s if s < 1.0 else 1.0) * plateau
                    if comp_gain > 0.0 and k > k_lo and k > k_hi_eff:
                        q = q_max * (k_jam - k) / (k_jam - k_hi_eff)
                    inflow = d * resp
            outflow = q * lane_km / trip_km
            drain = n / dt_h
            if drain < outflow:
                outflow = drain
            # receiving capacity: extra arrivals beyond jam accumulation are turned away
            room = (n_max - n) / dt_h + outflow
            if room < inflow:
                inflow = room
            n_next = n + dt_h * (inflow - outflow)
            if not (0.0 <= n_next <= 1e15):
                raise SimulationError(
                    f"reservoir state became invalid at step {i} (n={n_next})")
            n_out[i] = n_next
            if n_next == n:
                # a fixed point: k, q, the toll and the inflow are functions of
                # n and the run's constants, so every later step repeats this one
                n_out[i + 1:end] = array("d", (n,)) * (end - i - 1)
                break
            n = n_next
            k = n / lane_km


def _density_flow(n: np.ndarray, first: int, end: int, interval: np.ndarray,
                  config: ReservoirConfig, curve: NfdCurve, eta: np.ndarray,
                  omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """k after and q during each step in [first, end) of the state series ``n``.

    The array form of ``_advance``'s k and q, with its expressions in the
    same order, so every value has the same bits: q is the curve's flow at
    the density before the step (zero before step 0), bent down where the
    step's toll shifts the demand composition.  ``np.exp`` over an array
    rounds as it does on the loop's scalars.
    """
    lane_km = config.lane_km
    if first:
        k = n[first - 1:end] / lane_km
    else:
        k = np.concatenate(((0.0,), n[:end] / lane_km))
    before = k[:-1]
    q = _curve_flow(before, curve)
    gain = config.demand_composition_gain
    if gain > 0.0:
        k_lo, k_hi, k_jam = curve.k_cr_low, curve.k_cr_high, curve.k_jam
        h = interval[first:end]
        # the bend needs k > k_lo on a step whose toll is positive
        steps = np.flatnonzero((h >= 0) & (before > k_lo))
        kb, hb = before[steps], h[steps]
        trip_km = config.avg_trip_length_km
        v_free = curve.free_flow_speed
        v = q[steps] / kb
        v = np.where(kb > 1e-12, np.where(v < 1e-6, 1e-6, v), v_free)
        delay_h = trip_km / v - trip_km / v_free
        toll = eta[hb] * trip_km + omega[hb] * np.where(delay_h > 0.0, delay_h, 0.0)
        tolled = toll > 0.0
        steps, kb = steps[tolled], kb[tolled]
        s = gain * (1.0 - np.exp(-toll[tolled] / config.value_of_time))
        k_hi_eff = k_hi - np.where(s < 1.0, s, 1.0) * (k_hi - k_lo)
        bent = kb > k_hi_eff
        q[steps[bent]] = curve.q_max * (k_jam - kb[bent]) / (k_jam - k_hi_eff[bent])
    return k[1:], q


def run_reservoir(config: ReservoirConfig, curve: NfdCurve, scheme: TollScheme,
                  seed: int = 0) -> SimOutput:
    """Simulate one sample path and aggregate per tolling interval.

    Identical (scheme, seed) pairs give bit-identical outputs.  Raises
    SimulationError if the state goes non-finite, and ValueError if the
    tolling horizon sticks out of the demand profile or an interval holds
    no step.

    The step plan (the steps as runs of constant demand and interval, and
    the call's segments: the untolled warm-up, then each interval's
    contiguous slice of steps) is cached per scenario and horizon, with a
    memo of the n slices of the segments its recent calls stepped.  The
    state is Markov, so a segment's steps depend only on the bits of the
    state before it and of its interval's tolls: the call walks the
    segments in order and, for each, copies the memo's slice under those
    bits or steps the segment and stores its slice.  An exact repeat, a
    shared prefix of intervals and a state that returns to an earlier
    run's before equal later tolls all come from that one lookup.  The
    memo keeps the slices of the last ``_MEMO_RUNS`` calls' worth of
    segments, evicting the least recently used.  Density and flow over
    the horizon then come from one array pass over the n series, each
    interval is averaged over its slice (one reshaped mean when the slices
    share a length), and the toll vector is quantized and hashed once for
    the noise of every interval (``_interval_noise``).

    The call steps only to the end of the tolling horizon, since the
    aggregates read nothing after it.  The untolled steps after the horizon
    run on the first read of the output's ``n``, ``k`` or ``q``, from the
    output's own state at the horizon's end, not from the memo; a
    SimulationError there is raised by that read, not by this call, and a
    segment whose steps raise leaves no memo entry.
    """
    if scheme.horizon_end_min > config.horizon_min + 1e-9:
        raise ValueError("tolling horizon extends beyond the demand profile")

    m = scheme.m_intervals
    n_steps, runs, segments, slices, interval, width, memo = _step_plan(
        config, curve, scheme.horizon_start_min, scheme.horizon_end_min,
        scheme.interval_length_min, m)
    eta = scheme.eta
    omega = scheme.omega if scheme.joint else np.zeros(m)
    eta_list, omega_list = eta.tolist(), omega.tolist()
    bits = np.column_stack((eta, omega)).tobytes()
    tolls = (b"", *(bits[16 * h:16 * h + 16] for h in range(m)))  # per segment
    start, end = slices[0][0], slices[-1][1]

    n = array("d", bytes(8 * end))
    state = bytes(8)  # the bits of the state before the segment, n = 0 at first
    for s, (first, stop, run, run_end) in enumerate(segments):
        key = (s, state, tolls[s])
        seg = memo.get(key)
        if seg is None:
            _advance(n[first - 1] if first else 0.0, runs[run:run_end], config, curve,
                     eta_list, omega_list, n)
            seg = memo[key] = n[first:stop].tobytes()
            if len(memo) > _MEMO_RUNS * len(segments):
                memo.popitem(last=False)
        else:
            memo.move_to_end(key)
            n[first:stop] = array("d", seg)
        state = seg[-8:] or state  # an empty warm-up leaves the state at 0
    k, q = _density_flow(np.frombuffer(n, dtype=float), start, end, interval, config,
                         curve, eta, omega)

    if width:
        k_bar_clean = k.reshape(m, width).mean(axis=1)
        q_bar_clean = q.reshape(m, width).mean(axis=1)
    else:
        k_bar_clean = np.array([np.mean(k[a - start:b - start]) for a, b in slices])
        q_bar_clean = np.array([np.mean(q[a - start:b - start]) for a, b in slices])

    k_bar = k_bar_clean.copy()
    q_bar = q_bar_clean.copy()
    if config.stochastic_noise_sd > 0:
        rng = np.random.default_rng(_derived_seed(seed, "stochastic"))
        k_bar = k_bar + config.stochastic_noise_sd * rng.standard_normal(m)
        q_bar = q_bar + config.stochastic_noise_sd * rng.standard_normal(m)
    amplitude = config.noise_amplitude
    if amplitude > 0:
        noise = amplitude * _interval_noise(_quantize(scheme.tau()), seed, m)
        k_bar = k_bar + noise[0]
        q_bar = q_bar + noise[1]
    k_bar = np.maximum(k_bar, 0.0)
    q_bar = np.maximum(q_bar, 0.0)

    out = SimOutput(
        t_s=(np.arange(n_steps) + 1.0) * config.dt_s,
        n=None, k=None, q=None,
        k_bar=k_bar, q_bar=q_bar,
        k_bar_clean=k_bar_clean, q_bar_clean=q_bar_clean,
    )
    # copies: scheme.eta and omega can be views of the caller's toll vector
    out._pending = functools.partial(_full_series, n, runs[segments[-1][3]:], interval,
                                     config, curve, eta.copy(), omega.copy())
    return out


def _full_series(n: array, runs, interval: np.ndarray, config: ReservoirConfig,
                 curve: NfdCurve, eta: np.ndarray, omega: np.ndarray) -> tuple:
    """n, k and q over every step: the stepped ``n``, ``runs`` stepped on, k and q derived.

    ``runs`` are the untolled runs after the horizon, so the loop needs no
    tolls.  They are stepped into a copy, which leaves ``n`` as it was if a
    step raises.
    """
    if runs:
        first = runs[0][0]
        n = n + array("d", bytes(8 * (runs[-1][1] - first)))
        _advance(n[first - 1], runs, config, curve, (), (), n)
    n = np.frombuffer(n, dtype=float)
    return (n, *_density_flow(n, 0, n.size, interval, config, curve, eta, omega))


def objective_density(out: SimOutput, k_cr: float) -> float:
    """Mean absolute deviation of interval densities from the critical density."""
    return float(np.mean(np.abs(out.k_bar - k_cr)))


def objective_flow(out: SimOutput) -> float:
    """Mean interval flow, to be maximized."""
    return float(np.mean(out.q_bar))


def write_series_csv(out: SimOutput, path) -> None:
    """Time series as t_s, n, k, q rows."""
    _write_csv(path, ["t_s", "n", "k", "q"], zip(out.t_s, out.n, out.k, out.q))
