"""Reservoir dynamics, noise model, and the flow-density curve."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sbopt as sb
from sbopt import bench
from sbopt.bench.problems import (complex_toll_scenario, composition_scenario,
                                  simple_toll_scenario)
from sbopt import mfdsim
from sbopt.mfdsim import _MEMO_RUNS, _derived_seed, _step_plan

TRAPEZOID = sb.NfdCurve(k_cr_low=20.0, k_cr_high=30.0, k_jam=80.0, q_max=600.0)


def noiseless(cfg, **overrides):
    fields = dict(lane_km=cfg.lane_km, avg_trip_length_km=cfg.avg_trip_length_km,
                  demand_segments=cfg.demand_segments,
                  toll_elasticity=cfg.toll_elasticity,
                  value_of_time=cfg.value_of_time, dt_s=cfg.dt_s,
                  demand_composition_gain=cfg.demand_composition_gain)
    fields.update(overrides)
    return sb.ReservoirConfig(**fields)


def test_nfd_flow_shape():
    assert sb.nfd_flow(0.0, TRAPEZOID) == 0.0
    assert sb.nfd_flow(80.0, TRAPEZOID) == 0.0
    assert sb.nfd_flow(25.0, TRAPEZOID) == 600.0  # plateau membership
    assert sb.nfd_flow(10.0, TRAPEZOID) == pytest.approx(300.0)
    assert sb.nfd_flow(55.0, TRAPEZOID) == pytest.approx(300.0)
    with pytest.raises(sb.SimulationError):
        sb.nfd_flow(-1.0, TRAPEZOID)
    with pytest.raises(sb.SimulationError):
        sb.nfd_flow(81.0, TRAPEZOID)


@pytest.mark.parametrize("scenario", [simple_toll_scenario, complex_toll_scenario,
                                      composition_scenario])
def test_simulator_flows_sit_on_nfd_flow(scenario):
    # each step's flow is nfd_flow at the density before the step, bit for bit
    cfg, curve, template = scenario()
    out = sb.run_reservoir(cfg, curve, template.with_tau(np.zeros(template.tau().size)), 0)
    assert out.q[0] == sb.nfd_flow(0.0, curve)
    assert np.array_equal(out.q[1:], sb.nfd_flow(out.k[:-1], curve))
    assert out.k.max() == curve.k_jam


def test_nfd_curve_validation_and_speed():
    assert TRAPEZOID.free_flow_speed == pytest.approx(30.0)
    with pytest.raises(ValueError):
        sb.NfdCurve(30.0, 20.0, 80.0, 600.0)
    with pytest.raises(ValueError):
        sb.NfdCurve(20.0, 90.0, 80.0, 600.0)


def test_numerical_noise_contract():
    tau = np.array([0.3, 0.7])
    assert sb.apply_numerical_noise(5.0, tau, 0.0, 3) == 5.0
    a = sb.apply_numerical_noise(5.0, tau, 0.5, 3)
    assert a == sb.apply_numerical_noise(5.0, tau, 0.5, 3)
    assert a != sb.apply_numerical_noise(5.0, tau, 0.5, 4)
    assert abs(a - 5.0) <= 0.5
    with pytest.raises(ValueError):
        sb.apply_numerical_noise(5.0, tau, -0.1, 3)


def test_numerical_noise_decorrelates_nearby_inputs():
    rng = np.random.default_rng(0)
    taus = rng.random((1000, 2))
    u = np.array([sb.apply_numerical_noise(0.0, t, 1.0, 0) for t in taus])
    v = np.array([sb.apply_numerical_noise(0.0, t + 1e-2, 1.0, 0) for t in taus])
    assert abs(np.corrcoef(u, v)[0, 1]) < 0.1


@pytest.mark.parametrize("name", ["simple", "complex"])
def test_interval_noise_matches_apply_numerical_noise_bit_for_bit(name):
    # run_reservoir hashes the tolls once per call; each interval's noise must
    # keep the bits of the public per-value function
    problem = bench.get_problem(name)
    cfg, curve, template = (problem.scenario[key] for key in ("config", "curve", "template"))
    assert cfg.noise_amplitude > 0 and cfg.stochastic_noise_sd > 0
    lo, hi = problem.bounds.lower, problem.bounds.upper
    rng = np.random.default_rng(11)
    profiles = [lo, hi] + [lo + rng.random(lo.size) * (hi - lo) for _ in range(4)]
    for tau in profiles:
        scheme = template.with_tau(tau)
        m = scheme.m_intervals
        for seed in range(4):
            out = sb.run_reservoir(cfg, curve, scheme, seed)
            normal = np.random.default_rng(_derived_seed(seed, "stochastic"))
            k_bar = out.k_bar_clean + cfg.stochastic_noise_sd * normal.standard_normal(m)
            q_bar = out.q_bar_clean + cfg.stochastic_noise_sd * normal.standard_normal(m)
            for h in range(m):
                k_bar[h] = sb.apply_numerical_noise(
                    k_bar[h], tau, cfg.noise_amplitude, _derived_seed(seed, f"k{h}"))
                q_bar[h] = sb.apply_numerical_noise(
                    q_bar[h], tau, cfg.noise_amplitude, _derived_seed(seed, f"q{h}"))
            assert np.maximum(k_bar, 0.0).tobytes() == out.k_bar.tobytes()
            assert np.maximum(q_bar, 0.0).tobytes() == out.q_bar.tobytes()


def test_zero_demand_stays_empty():
    cfg = sb.ReservoirConfig(lane_km=40.0, avg_trip_length_km=5.0,
                             demand_segments=((90.0, 0.0),), toll_elasticity=0.3)
    out = sb.run_reservoir(cfg, TRAPEZOID, sb.TollScheme(30.0, 60.0, 30.0, [0.4]), 0)
    assert np.all(out.n == 0.0)
    assert np.all(out.k_bar == 0.0)


def test_extreme_elasticity_chokes_inflow():
    cfg, curve, template = simple_toll_scenario()
    hard = noiseless(cfg, toll_elasticity=50.0)
    tolled = sb.run_reservoir(hard, curve, template.with_tau([1.0, 1.0]), 0)
    free = sb.run_reservoir(hard, curve, template, 0)
    assert np.all(tolled.k_bar_clean < 0.15 * free.k_bar_clean)


def test_accumulation_matches_flow_balance():
    """Final accumulation equals total inflow minus total outflow."""
    curve = sb.NfdCurve(15.0, 15.0, 60.0, 600.0)
    cfg = sb.ReservoirConfig(lane_km=40.0, avg_trip_length_km=5.0,
                             demand_segments=((30.0, 2000.0), (30.0, 4000.0), (30.0, 0.0)),
                             toll_elasticity=0.3)
    out = sb.run_reservoir(cfg, curve, sb.TollScheme(30.0, 90.0, 30.0, np.zeros(2)), 0)
    assert out.k.max() < curve.k_jam  # uncongested path: no capacity caps bind
    dt_h = cfg.dt_s / 3600.0
    t_min = (np.arange(out.t_s.size) + 0.5) * cfg.dt_s / 60.0
    demand = np.zeros(out.t_s.size)
    edge = 0.0
    for dur, rate in cfg.demand_segments:
        demand[(t_min >= edge) & (t_min < edge + dur)] = rate
        edge += dur
    total_in = demand.sum() * dt_h  # zero toll, so inflow is the raw demand
    total_out = out.q.sum() * cfg.lane_km / cfg.avg_trip_length_km * dt_h
    assert out.n[-1] == pytest.approx(total_in - total_out, rel=1e-6)


def test_raising_distance_tolls_weakly_lowers_density():
    cfg, curve, template = simple_toll_scenario()
    clean = noiseless(cfg)
    k_soft = sb.run_reservoir(clean, curve, template.with_tau([0.2, 0.2]), 0).k_bar_clean
    k_hard = sb.run_reservoir(clean, curve, template.with_tau([0.5, 0.5]), 0).k_bar_clean
    assert np.all(k_hard <= k_soft + 1e-9)
    assert np.any(k_hard < k_soft - 1.0)


def test_delay_toll_relieves_congestion():
    cfg, curve, template = complex_toll_scenario()
    clean = noiseless(cfg)
    k_free = sb.run_reservoir(clean, curve, template, 0).k_bar_clean
    tau = np.concatenate([np.zeros(8), np.full(8, 15.0)])
    k_toll = sb.run_reservoir(clean, curve, template.with_tau(tau), 0).k_bar_clean
    assert np.all(k_toll <= k_free + 1e-9)
    assert np.sum(k_toll < k_free - 0.5) >= 6


def test_untolled_fixtures_cross_critical_density():
    cfg, curve, template = simple_toll_scenario()
    out = sb.run_reservoir(noiseless(cfg), curve, template, 0)
    assert out.k_bar_clean.max() > 15.0

    cfg, curve, template = complex_toll_scenario()
    out = sb.run_reservoir(noiseless(cfg), curve, template, 0)
    assert out.k_bar_clean.max() > 30.0


def test_noiseless_output_continuous_in_tau():
    cfg, curve, template = simple_toll_scenario()
    clean = noiseless(cfg)

    def f(tau):
        out = sb.run_reservoir(clean, curve, template.with_tau(tau), 0)
        return sb.objective_density(out, 15.0)

    rng = np.random.default_rng(5)
    tau0 = rng.random(2)
    d = rng.random(2)
    d /= np.linalg.norm(d)
    base = f(tau0)
    diffs = [abs(f(tau0 + delta * d) - base) for delta in (1e-2, 1e-3, 1e-4, 1e-5)]
    assert diffs[-1] < 1e-3
    assert diffs[0] < 1.0
    assert all(b < a for a, b in zip(diffs, diffs[1:]))  # shrinks with delta


def test_amplitude_noise_breaks_continuity_by_design():
    cfg, curve, template = simple_toll_scenario()
    clean = noiseless(cfg)
    noisy = noiseless(cfg, noise_amplitude=0.5)

    def f(config, tau):
        out = sb.run_reservoir(config, curve, template.with_tau(tau), 0)
        return sb.objective_density(out, 15.0)

    tau0 = np.array([0.30003, 0.40003])  # interior of a quantization cell
    # below the hash grid resolution the perturbation is unchanged
    assert abs(f(noisy, tau0 + 1e-6) - f(noisy, tau0)) < 1e-4
    # across cells the rough term dominates the smooth trend
    cross = [abs(f(noisy, tau0 + (i + 1) * 2.2e-4) - f(noisy, tau0)) for i in range(8)]
    smooth = [abs(f(clean, tau0 + (i + 1) * 2.2e-4) - f(clean, tau0)) for i in range(8)]
    assert max(smooth) < 0.1
    assert max(cross) > 0.2


def test_stochastic_noise_is_seeded_and_separate():
    cfg, curve, template = simple_toll_scenario()
    stoch = noiseless(cfg, stochastic_noise_sd=0.5)
    a = sb.run_reservoir(stoch, curve, template, 7)
    b = sb.run_reservoir(stoch, curve, template, 7)
    c = sb.run_reservoir(stoch, curve, template, 8)
    assert np.array_equal(a.k_bar, b.k_bar)
    assert not np.allclose(a.k_bar, c.k_bar)
    # the clean aggregates are untouched by either noise source
    assert np.array_equal(a.k_bar_clean, c.k_bar_clean)


def test_composition_narrows_the_productive_plateau():
    curve = sb.NfdCurve(20.0, 30.0, 38.0, 700.0)
    segments = ((30.0, 4400.0), (120.0, 6000.0), (30.0, 0.0))
    template = sb.TollScheme(30.0, 150.0, 30.0, np.zeros(4), np.zeros(4))
    tau = np.concatenate([np.full(4, 0.2), np.full(4, 25.0)])
    base = dict(lane_km=40.0, avg_trip_length_km=10.0, demand_segments=segments,
                toll_elasticity=0.3)
    q_off = sb.run_reservoir(sb.ReservoirConfig(**base), curve,
                             template.with_tau(tau), 0).q_bar_clean
    q_on = sb.run_reservoir(sb.ReservoirConfig(**base, demand_composition_gain=8.0),
                            curve, template.with_tau(tau), 0).q_bar_clean
    assert q_on.mean() < q_off.mean() - 50.0


def test_objective_arithmetic():
    out = sb.SimOutput(t_s=np.zeros(1), n=np.zeros(1), k=np.zeros(1), q=np.zeros(1),
                       k_bar=np.array([20.0, 10.0]), q_bar=np.array([600.0, 300.0]),
                       k_bar_clean=np.array([20.0, 10.0]),
                       q_bar_clean=np.array([600.0, 300.0]))
    assert sb.objective_density(out, 15.0) == pytest.approx(5.0)
    assert sb.objective_density(out, 20.0) == pytest.approx(5.0)
    assert sb.objective_flow(out) == pytest.approx(450.0)


def test_objective_translation_and_permutation_invariance():
    k = np.array([22.0, 14.0, 31.0])
    out = lambda kk: sb.SimOutput(np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1),
                                  kk, kk, kk, kk)
    v = sb.objective_density(out(k), 15.0)
    assert sb.objective_density(out(k + 3.0), 18.0) == pytest.approx(v)
    assert sb.objective_flow(out(k[::-1].copy())) == pytest.approx(
        sb.objective_flow(out(k)))


def test_interval_without_steps_is_rejected():
    curve = sb.NfdCurve(15.0, 15.0, 60.0, 600.0)
    cfg = sb.ReservoirConfig(lane_km=40.0, avg_trip_length_km=5.0,
                             demand_segments=((30.0, 1000.0), (60.0, 2000.0), (30.0, 0.0)),
                             toll_elasticity=0.3, dt_s=1200.0)
    for _ in range(2):  # a plan that raises is never cached
        with pytest.raises(ValueError, match="contains no simulation steps"):
            sb.run_reservoir(cfg, curve, sb.TollScheme(30.0, 90.0, 10.0, np.zeros(6)), 0)
    # the plan raises before any step: a NaN demand never gets to the state
    nan_cfg = replace(cfg, demand_segments=((30.0, float("nan")),) + cfg.demand_segments[1:])
    with pytest.raises(ValueError, match="interval 1 contains no simulation steps"):
        sb.run_reservoir(nan_cfg, curve, sb.TollScheme(30.0, 90.0, 10.0, np.zeros(6)), 0)


def test_horizon_must_fit_demand_profile():
    cfg, curve, _ = simple_toll_scenario()
    for _ in range(2):
        with pytest.raises(ValueError, match="beyond the demand profile"):
            sb.run_reservoir(cfg, curve, sb.TollScheme(30.0, 200.0, 17.0, np.zeros(10)), 0)


def test_toll_scheme_validation():
    with pytest.raises(ValueError):
        sb.TollScheme(30.0, 90.0, 25.0, np.zeros(2))  # not an integer split
    with pytest.raises(ValueError):
        sb.TollScheme(30.0, 90.0, 30.0, np.zeros(2), np.zeros(3))
    scheme = sb.TollScheme(30.0, 90.0, 30.0, [0.1, 0.2], [1.0, 2.0])
    assert scheme.joint and scheme.m_intervals == 2
    assert np.allclose(scheme.tau(), [0.1, 0.2, 1.0, 2.0])
    swapped = scheme.with_tau([0.2, 0.1, 2.0, 1.0])
    assert np.allclose(swapped.eta, [0.2, 0.1])


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("name, value", [("eta", float("nan")), ("eta", float("inf")),
                                         ("omega", float("nan"))])
def test_non_finite_toll_rates_are_rejected(noisy, name, value):
    # without the check a NaN rate simulated as no toll on a noiseless
    # scenario and failed only in the noise hash on a noisy one
    cfg, curve, template = simple_toll_scenario()
    if not noisy:
        cfg = noiseless(cfg)
    rates = {"eta": np.array([0.2, 0.4]), "omega": np.array([1.0, 2.0])}
    rates[name][1] = value
    with pytest.raises(ValueError, match="eta and omega must be finite"):
        sb.run_reservoir(cfg, curve, replace(template, **rates), 0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["lane_km", "avg_trip_length_km", "duration",
                                  "toll_elasticity", "value_of_time", "dt_s",
                                  "noise_amplitude", "stochastic_noise_sd",
                                  "demand_composition_gain", "q_max"])
def test_non_finite_settings_are_rejected(name, value):
    fields = dict(lane_km=40.0, avg_trip_length_km=5.0,
                  demand_segments=((30.0, 1000.0), (60.0, 2000.0)), toll_elasticity=0.3)
    with pytest.raises(ValueError, match="finite"):
        if name == "q_max":
            sb.NfdCurve(15.0, 15.0, 60.0, value)
        elif name == "duration":
            sb.ReservoirConfig(**{**fields, "demand_segments": ((value, 1000.0),)})
        else:
            sb.ReservoirConfig(**{**fields, name: value})


def test_a_trip_length_whose_delay_overflows_is_rejected():
    # at the 1e-6 km/h speed floor a trip of 1e303 km takes an infinite time,
    # which would turn a zero delay rate's toll into NaN
    with pytest.raises(ValueError, match="finite"):
        sb.ReservoirConfig(lane_km=40.0, avg_trip_length_km=1e303,
                           demand_segments=((30.0, 1000.0),), toll_elasticity=0.3)


def test_series_csv_row_count(tmp_path):
    cfg, curve, template = simple_toll_scenario()
    out = sb.run_reservoir(noiseless(cfg, dt_s=60.0), curve, template, 0)
    path = tmp_path / "series.csv"
    sb.write_series_csv(out, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t_s,n,k,q"
    assert len(lines) == out.t_s.size + 1


# A plain step loop on numpy scalars over every step: the bit-exact reference
# for run_reservoir's Python-float loop and cached step plan.
def reference_run_reservoir(config, curve, scheme, seed=0):
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
                s = min(1.0, comp_gain * (1.0 - np.exp(-toll / vot)))
                k_hi_eff = k_hi - s * (k_hi - k_lo)
                if k > k_lo and k > k_hi_eff:
                    q = q_max * (k_jam - k) / (k_jam - k_hi_eff)
        outflow = min(q * lane_km / trip_km, n / dt_h)
        inflow = demand[i] * (np.exp(-elast * toll) if toll > 0.0 else 1.0)
        inflow = min(inflow, (n_max - n) / dt_h + outflow)
        n = n + dt_h * (inflow - outflow)
        if not (0.0 <= n <= 1e15):
            raise sb.SimulationError(f"reservoir state became invalid at step {i} (n={n})")
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
            k_bar[h] = sb.apply_numerical_noise(
                k_bar[h], tau, config.noise_amplitude, _derived_seed(seed, f"k{h}"))
            q_bar[h] = sb.apply_numerical_noise(
                q_bar[h], tau, config.noise_amplitude, _derived_seed(seed, f"q{h}"))
    k_bar = np.maximum(k_bar, 0.0)
    q_bar = np.maximum(q_bar, 0.0)

    return sb.SimOutput(
        t_s=(np.arange(n_steps) + 1.0) * config.dt_s,
        n=n_series, k=k_series, q=q_series,
        k_bar=k_bar, q_bar=q_bar,
        k_bar_clean=k_bar_clean, q_bar_clean=q_bar_clean,
    )


SIM_FIELDS = ("t_s", "n", "k", "q", "k_bar", "q_bar", "k_bar_clean", "q_bar_clean")


def assert_same_output(got, want):
    # bytes, not values: the CSV writers print repr, which tells -0.0 from 0.0
    for name in SIM_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


@pytest.mark.parametrize("name", ["simple", "complex", "composition_flow",
                                  "composition_density"])
def test_step_loop_matches_reference_bit_for_bit(name):
    problem = bench.get_problem(name)
    cfg, curve, template = (problem.scenario[key] for key in ("config", "curve", "template"))
    lo, hi = problem.bounds.lower, problem.bounds.upper
    rng = np.random.default_rng(sum(map(ord, name)))
    profiles = [lo + u * (hi - lo) for u in (0.0, 0.3, 0.7, 1.0)]
    profiles += [lo + rng.random(lo.size) * (hi - lo) for _ in range(16)]
    for tau in profiles:
        scheme = template.with_tau(tau)
        for seed in (0, 5):
            assert_same_output(sb.run_reservoir(cfg, curve, scheme, seed),
                               reference_run_reservoir(cfg, curve, scheme, seed))


def test_horizon_from_minute_zero_has_no_warm_up():
    cfg, curve, _ = simple_toll_scenario()
    for scheme in (sb.TollScheme(0.0, 60.0, 30.0, [0.4, 0.2]),
                   sb.TollScheme(0.0, 120.0, 20.0, np.linspace(0.0, 1.0, 6),
                                 np.full(6, 5.0))):
        assert_same_output(sb.run_reservoir(cfg, curve, scheme, 1),
                           reference_run_reservoir(cfg, curve, scheme, 1))


def test_warm_up_demand_is_part_of_the_scenario():
    cfg, curve, template = simple_toll_scenario()
    scheme = template.with_tau([0.3, 0.6])
    lighter = noiseless(cfg, demand_segments=((30.0, 2000.0),) + cfg.demand_segments[1:])
    a = sb.run_reservoir(cfg, curve, scheme, 0)
    b = sb.run_reservoir(lighter, curve, scheme, 0)
    assert not np.array_equal(a.n, b.n)
    assert not np.array_equal(a.k_bar_clean, b.k_bar_clean)
    assert_same_output(b, reference_run_reservoir(lighter, curve, scheme, 0))


def test_returned_series_do_not_alias_the_step_plan():
    cfg, curve, template = complex_toll_scenario()
    _step_plan.cache_clear()
    tau = np.concatenate([np.full(8, 0.2), np.full(8, 4.0)])
    scheme = template.with_tau(tau)
    first = sb.run_reservoir(cfg, curve, scheme, 0)
    want = {name: getattr(first, name).copy() for name in SIM_FIELDS}
    for name in ("n", "k", "q"):
        getattr(first, name)[:] = -1.0
    again = sb.run_reservoir(cfg, curve, scheme, 0)  # every interval matches
    for name in SIM_FIELDS:
        assert np.array_equal(getattr(again, name), want[name]), name
        getattr(again, name)[:] = -1.0
    tau[7] = 0.5  # shares the warm-up and the first seven intervals with the memo
    other = template.with_tau(tau)
    assert_same_output(sb.run_reservoir(cfg, curve, other, 0),
                       reference_run_reservoir(cfg, curve, other, 0))


def test_series_read_after_the_caller_reuses_its_toll_vector():
    # with_tau keeps a view of tau, and k and q are derived on the first read
    cfg, curve, template = composition_scenario()
    tau = np.concatenate([np.full(4, 0.2), np.full(4, 25.0)])
    scheme = template.with_tau(tau)
    want = reference_run_reservoir(cfg, curve, scheme, 0)
    out = sb.run_reservoir(cfg, curve, scheme, 0)
    tau[:] = 0.0
    assert_same_output(out, want)


def test_zero_toll_run_skips_its_fixed_points():
    cfg, curve, template = complex_toll_scenario()
    scheme = template.with_tau(np.zeros(16))
    _step_plan.cache_clear()
    out = sb.run_reservoir(cfg, curve, scheme, 0)
    # 7036 of the 9000 steps after the warm-up leave the state exactly where it
    # was: the reservoir sits at k_jam through the peak and empty at the end
    assert np.count_nonzero(out.n[1800:] == out.n[1799:-1]) == 7036
    assert_same_output(out, reference_run_reservoir(cfg, curve, scheme, 0))


def _mixed_regime_profiles(problem):
    """Toll vectors whose intervals mix the step loop's two bodies.

    Each puts some delay rates at exactly zero (a constant-toll run, with or
    without a distance toll) and others at the upper bound or in between (a
    delay-toll run), including delay rates on intervals with no distance toll.
    """
    lo, hi = problem.bounds.lower, problem.bounds.upper
    m = lo.size // 2
    rng = np.random.default_rng(11)
    profiles = []
    for j in range(6):
        tau = lo + rng.random(lo.size) * (hi - lo)
        eta, omega = tau[:m], tau[m:]
        off, on = j % 2, 1 - j % 2  # alternate intervals with and without a delay rate
        omega[off::2] = 0.0
        if j < 4:
            omega[on::2] = hi[m + on::2]
        if j % 3 == 1:
            eta[on::2] = 0.0  # a delay rate alone
        profiles.append(tau)
    profiles[-1][m] = -0.0  # a zero of either sign picks the constant-toll body
    return profiles


@pytest.mark.parametrize("name", ["complex", "composition_flow"])
def test_constant_and_delay_toll_runs_match_reference_bit_for_bit(name):
    problem = bench.get_problem(name)
    cfg, curve, template = (problem.scenario[key] for key in ("config", "curve", "template"))
    m = template.m_intervals
    for tau in _mixed_regime_profiles(problem):
        omega = tau[m:]
        assert (omega == 0.0).any() and (omega > 0.0).any()
        scheme = template.with_tau(tau)
        for seed in (0, 5):
            assert_same_output(sb.run_reservoir(cfg, curve, scheme, seed),
                               reference_run_reservoir(cfg, curve, scheme, seed))


@pytest.mark.parametrize("scenario, eta, interval, repeats", [
    (complex_toll_scenario, 0.05, 2, 454),
    (composition_scenario, 0.3, 0, 929),
])
def test_tolled_constant_toll_run_fills_from_its_fixed_point(scenario, eta, interval,
                                                             repeats):
    """A distance toll with no delay rate that still jams the reservoir."""
    cfg, curve, template = scenario()
    m = template.m_intervals
    scheme = template.with_tau(np.concatenate([np.full(m, eta), np.zeros(m)]))
    _step_plan.cache_clear()
    out = sb.run_reservoir(cfg, curve, scheme, 0)
    first, end = _step_plan(cfg, curve, template.horizon_start_min, template.horizon_end_min,
                            template.interval_length_min, m)[3][interval]
    # the state reaches k_jam inside the interval and stays there for the rest of it
    assert np.count_nonzero(out.n[first:end] == out.n[first - 1:end - 1]) == repeats
    assert out.n[end - 1] == curve.k_jam * cfg.lane_km
    assert_same_output(out, reference_run_reservoir(cfg, curve, scheme, 0))


def test_constant_toll_response_rounds_like_np_exp():
    """The distance toll's response is np.exp's, which math.exp misses on some inputs.

    The tolls come first from those on which the two disagree on this host.
    """
    cfg, curve, template = simple_toll_scenario()
    grid = np.linspace(0.01, 1.0, 400).tolist()
    apart = [eta for eta in grid
             if math.exp(-cfg.toll_elasticity * (eta * cfg.avg_trip_length_km))
             != float(np.exp(-cfg.toll_elasticity * (eta * cfg.avg_trip_length_km)))]
    etas = (apart + grid)[:8]
    for tau in zip(etas[::2], etas[1::2]):
        scheme = template.with_tau(tau)
        assert_same_output(sb.run_reservoir(cfg, curve, scheme, 0),
                           reference_run_reservoir(cfg, curve, scheme, 0))


# DIRECT-like toll sequences on a 10 s step version of `complex`: each new
# vector takes an earlier one and changes one coordinate, or repeats it, and
# the late moves change the tolls of intervals 5-7 only.  The zero-toll start
# jams the reservoir, so its runs pass through fixed points, and a call that
# changes one interval often returns to an earlier call's state after it.
_COMPLEX = bench.get_problem("complex")
_COARSE = replace(complex_toll_scenario()[0], dt_s=10.0)
_LATE = (5, 6, 7, 13, 14, 15)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 99), st.integers(-1, 15),
                          st.floats(0.0, 1.0)),
                min_size=1, max_size=8),
       st.lists(st.tuples(st.integers(0, 99), st.sampled_from(_LATE),
                          st.floats(0.0, 1.0)),
                max_size=4),
       st.integers(0, 3))
def test_checkpoints_match_a_cold_cache_bit_for_bit(moves, late, seed):
    _, curve, template = complex_toll_scenario()
    lo, hi = _COMPLEX.bounds.lower, _COMPLEX.bounds.upper
    taus = [lo.copy(), lo + 0.5 * (hi - lo)]
    for source, coord, u in moves + late:
        tau = taus[source % len(taus)].copy()
        if coord >= 0:
            tau[coord] = lo[coord] + u * (hi[coord] - lo[coord])
        taus.append(tau)
    _step_plan.cache_clear()
    warm = [sb.run_reservoir(_COARSE, curve, template.with_tau(t), seed) for t in taus]
    # evict every tolled slice before any series is read: each of these vectors
    # puts both rates of every interval at the fraction (j + 0.5) / calls of the
    # range, never lo or the middle, so each call stores m new slices, and
    # enough calls run to fill the memo's _MEMO_RUNS * (m + 1) slices
    m = template.m_intervals
    calls = -(-_MEMO_RUNS * (m + 1) // m)
    for j in range(calls):
        evict = lo + (j + 0.5) / calls * (hi - lo)
        sb.run_reservoir(_COARSE, curve, template.with_tau(evict), seed)
    for tau, got in zip(taus, warm):
        scheme = template.with_tau(tau)
        want = reference_run_reservoir(_COARSE, curve, scheme, seed)
        assert_same_output(got, want)
        _step_plan.cache_clear()
        assert_same_output(sb.run_reservoir(_COARSE, curve, scheme, seed), want)


@pytest.fixture
def stepped(monkeypatch):
    """The step count of every _advance call made while the test runs."""
    counts = []
    advance = mfdsim._advance

    def counting(n, runs, *args):
        counts.append(sum(end - first for first, end, *_ in runs))
        advance(n, runs, *args)

    monkeypatch.setattr(mfdsim, "_advance", counting)
    return counts


@pytest.mark.parametrize("coord", [2, 5, 13])
def test_reconverged_state_resumes_from_a_checkpoint(stepped, coord):
    """A call whose state returns to an earlier call's copies the steps after it."""
    cfg, curve, template = complex_toll_scenario()
    lo, hi = _COMPLEX.bounds.lower, _COMPLEX.bounds.upper
    tau = lo.copy()
    tau[coord] = 0.5 * hi[coord]
    scheme = template.with_tau(tau)
    plan = (cfg, curve, template.horizon_start_min, template.horizon_end_min,
            template.interval_length_min, template.m_intervals)
    _step_plan.cache_clear()
    sb.run_reservoir(cfg, curve, template.with_tau(lo), 0)
    slices = _step_plan(*plan)[3]
    h = coord % template.m_intervals
    # the zero-toll run jams through interval h, and so does this one: its
    # state before interval h + 1 has the same bits, so it steps interval h alone
    stepped.clear()
    out = sb.run_reservoir(cfg, curve, scheme, 0)  # a series read would step the cool-down
    assert sum(stepped) == slices[h][1] - slices[h][0]
    assert sum(stepped) < slices[-1][1] - slices[h][0]  # what a prefix resume alone steps
    assert_same_output(out, reference_run_reservoir(cfg, curve, scheme, 0))
    # the only earlier call shares the intervals before h and no later one,
    # so the same call steps every interval from h on
    _step_plan.cache_clear()
    prefix = hi.copy()
    prefix[:h] = prefix[8:8 + h] = 0.0
    sb.run_reservoir(cfg, curve, template.with_tau(prefix), 0)
    stepped.clear()
    again = sb.run_reservoir(cfg, curve, scheme, 0)
    assert sum(stepped) == slices[-1][1] - slices[h][0]
    assert_same_output(again, out)


def test_unequal_interval_slices_are_averaged_one_by_one():
    cfg, curve, template = simple_toll_scenario()
    coarse = replace(cfg, dt_s=11.0)  # 30 min intervals of 163 and 164 steps
    scheme = template.with_tau([0.3, 0.6])
    _step_plan.cache_clear()
    out = sb.run_reservoir(coarse, curve, scheme, 2)
    slices = _step_plan(coarse, curve, template.horizon_start_min, template.horizon_end_min,
                        template.interval_length_min, template.m_intervals)[3]
    assert len({end - first for first, end in slices}) > 1
    assert_same_output(out, reference_run_reservoir(coarse, curve, scheme, 2))


@pytest.mark.parametrize("solver, most", [("direct", 330_300), ("spsa", 711_000)])
def test_memo_steps_no_more_than_prefix_resume_and_rejoin(stepped, solver, most):
    """Budget-100 runs on `complex` step no more than the two rules the memo replaced.

    ``most`` is what the longest-prefix resume plus the rejoin of a
    reconverged state handed to the step loop on the same run.
    """
    _step_plan.cache_clear()
    bench.run_single(_COMPLEX, solver, 100, 0)
    assert sum(stepped) <= most


def test_memo_holds_one_slice_per_segment_key():
    cfg, curve, template = complex_toll_scenario()
    lo, hi = _COMPLEX.bounds.lower, _COMPLEX.bounds.upper
    m = template.m_intervals
    _step_plan.cache_clear()
    rng = np.random.default_rng(3)
    for _ in range(_MEMO_RUNS + 4):
        sb.run_reservoir(cfg, curve, template.with_tau(lo + rng.random(16) * (hi - lo)), 0)
    _, _, segments, *_, memo = _step_plan(
        cfg, curve, template.horizon_start_min, template.horizon_end_min,
        template.interval_length_min, m)
    assert len(segments) == m + 1
    assert len(memo) == _MEMO_RUNS * (m + 1)
    for (s, state, tolls), buf in memo.items():
        first, end = segments[s][:2]
        assert (len(state), len(tolls)) == (8, 16 if s else 0)
        assert type(buf) is bytes and len(buf) == 8 * (end - first)


@pytest.mark.parametrize("nan_segment, omega", [
    pytest.param(0, (), id="0"),
    pytest.param(1, (), id="1"),
    pytest.param(1, (5.0,), id="1-delay-toll"),
])
def test_non_finite_state_raises_in_warm_up_and_horizon(nan_segment, omega):
    """A NaN demand rate makes the state NaN, before or inside the horizon.

    The bad step falls in a constant-toll run, untolled or with a distance
    toll alone, or in a delay-toll run.
    """
    curve = sb.NfdCurve(15.0, 15.0, 60.0, 600.0)
    rates = [1000.0, 2000.0, 0.0]
    rates[nan_segment] = float("nan")
    cfg = sb.ReservoirConfig(lane_km=40.0, avg_trip_length_km=5.0,
                             demand_segments=tuple((30.0, r) for r in rates),
                             toll_elasticity=0.3)
    scheme = sb.TollScheme(30.0, 60.0, 30.0, [0.2], omega)
    with pytest.raises(sb.SimulationError) as want:
        reference_run_reservoir(cfg, curve, scheme)
    _step_plan.cache_clear()
    for _ in range(2):  # the failed segment left no memo entry, so it raises again
        with pytest.raises(sb.SimulationError) as got:
            sb.run_reservoir(cfg, curve, scheme)
        assert str(got.value) == str(want.value)
        memo = _step_plan(cfg, curve, 30.0, 60.0, 30.0, 1)[-1]
        # the warm-up before a NaN horizon stays cached; the failed segment does not
        assert [key[0] for key in memo] == list(range(nan_segment))


def test_cool_down_is_stepped_on_the_first_series_read():
    """The steps after the horizon run when n, k or q is first read."""
    curve = sb.NfdCurve(15.0, 15.0, 60.0, 600.0)

    def config(cool_down):
        return sb.ReservoirConfig(lane_km=40.0, avg_trip_length_km=5.0,
                                  demand_segments=((30.0, 1000.0), (30.0, 2000.0),
                                                   (30.0, cool_down)),
                                  toll_elasticity=0.3)

    scheme = sb.TollScheme(30.0, 60.0, 30.0, [0.2])
    finite = sb.run_reservoir(config(0.0), curve, scheme)
    broken = config(float("nan"))
    out = sb.run_reservoir(broken, curve, scheme)
    assert out.t_s.size == 5400
    for name in ("k_bar", "q_bar", "k_bar_clean", "q_bar_clean"):
        assert np.array_equal(getattr(out, name), getattr(finite, name)), name
    with pytest.raises(sb.SimulationError) as want:
        reference_run_reservoir(broken, curve, scheme)
    for name in ("n", "k", "q"):  # a read after a failed one steps the tail again
        with pytest.raises(sb.SimulationError) as got:
            getattr(out, name)
        assert str(got.value) == str(want.value)
