"""Calibrated benchmark problems shared by the harness, demos, and tests.

Each builder returns a :class:`Problem` bundling an objective callable with
the search box, solver presets, and (for tolling problems) the smoothing
constraint, its exterior-penalty transform and infill sampler, which the
harness hands to a run's ``Evaluator``.  All fixture constants are frozen
here so that runs are reproducible across machines; recalibrating a
fixture means editing this module, nothing else.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from ..constraints import PenaltyTransform, SmoothingSpec, feasible_mask
from ..core import Bounds
from ..mfdsim import (
    NfdCurve,
    ReservoirConfig,
    TollScheme,
    apply_numerical_noise,
    objective_density,
    objective_flow,
    run_reservoir,
)
from ..pi_control import PIConfig

# Exterior-penalty weight for the 16-interval joint-toll problem, frozen
# from a probe of 20 constant profiles (eta = u, omega = 15 u for u on a
# uniform grid in [0, 1], seed 0) via penalty_weight_from_probe.  See
# recompute_complex_penalty_weight for the exact recipe.
COMPLEX_PENALTY_WEIGHT = 36326.5570225375

# Largest smoothing violation a constrained problem still counts as feasible.
FEASIBILITY_TOL = 1e-6


@dataclass
class Problem:
    """An objective plus everything a solver needs to run on it.

    ``objective`` follows the evaluator contract: ``f(tau, seed)`` returning
    a float or ``(float, aux_dict)``.  ``pi_config`` is None for problems
    the density-feedback controller cannot drive (no per-interval density
    output, or active smoothing constraints it has no way to respect).
    The harness hands the constraint to the run's ``Evaluator``: the row
    mask ``feasibility_predicate()``, ``penalty`` and ``infill_sampler``.
    ``scenario`` carries simulator pieces and reference values for probes,
    tests and demos; neither the solvers nor the harness read it.  The
    harness replays a best point through ``objective.simulate`` when the
    objective has one, as a toll fixture's does.
    """

    name: str
    objective: object
    bounds: Bounds
    sense: str = "minimize"
    smoothing: SmoothingSpec | None = None
    penalty: PenaltyTransform | None = None
    rk_n_init: int = 12
    spsa_tau_0: np.ndarray | None = None
    pi_config: PIConfig | None = None
    infill_sampler: object = None
    scenario: dict = field(default_factory=dict)

    def feasibility_predicate(self):
        """``feasible_mask`` at ``FEASIBILITY_TOL`` (a (k, m) stack to k booleans,
        one profile to a 0-d one), the Evaluator's ``feasible``; None if unconstrained."""
        if self.smoothing is None:
            return None
        return functools.partial(feasible_mask, spec=self.smoothing, tol=FEASIBILITY_TOL)


def quadratic_problem(m: int = 2, amplitude: float = 0.05) -> Problem:
    """Separable quadratic bowl on the unit box, optionally roughened.

    The minimizer alternates 0.3 / 0.7 across coordinates, so it is interior
    for any dimension.  ``amplitude`` adds deterministic input-hashed noise,
    which makes the surface non-smooth while keeping f(tau, seed) a pure
    function; set it to 0 for the clean bowl.
    """
    center = np.array([0.3 if j % 2 == 0 else 0.7 for j in range(m)])

    def objective(tau, seed):
        value = float(np.sum((np.asarray(tau, dtype=float) - center) ** 2))
        if amplitude > 0:
            value = apply_numerical_noise(value, tau, amplitude, seed)
        return value

    return Problem(
        name="quadratic",
        objective=objective,
        bounds=Bounds.unit(m),
        rk_n_init=max(8, 2 * m + 4),
        spsa_tau_0=np.full(m, 0.5),
        scenario={"center": center, "amplitude": amplitude},
    )


# Narrow-strip test surface: the global optimum sits on a thin sinuous
# valley, with two off-strip decoy basins that trap purely local searches.
_STRIP_W = 0.04
_STRIP_REF_VALUE = -1.0000000119760728
_STRIP_REF_X = np.array([0.61999991, 0.44355499])


def _strip_center(x1):
    return 0.55 + 0.25 * np.sin(3.0 * np.pi * x1)


def strip_value(x) -> np.ndarray:
    """Vectorized strip surface; accepts (..., 2) arrays."""
    x = np.asarray(x, dtype=float)
    amp = 0.8 + 0.2 * np.exp(-((x[..., 0] - 0.62) ** 2) / (2 * 0.12 ** 2))
    f = -amp * np.exp(-((x[..., 1] - _strip_center(x[..., 0])) ** 2) / (2 * _STRIP_W ** 2))
    f = f - 0.5 * np.exp(
        -((x[..., 0] - 0.15) ** 2 + (x[..., 1] - 0.15) ** 2) / (2 * 0.07 ** 2))
    f = f - 0.45 * np.exp(
        -((x[..., 0] - 0.85) ** 2 + (x[..., 1] - 0.10) ** 2) / (2 * 0.07 ** 2))
    return f


def strip_problem() -> Problem:
    """2D multimodal surface whose optimum lies on a narrow curved strip."""

    def objective(tau, seed):
        return float(strip_value(tau))

    return Problem(
        name="strip",
        objective=objective,
        bounds=Bounds.unit(2),
        rk_n_init=12,
        spsa_tau_0=np.array([0.75, 0.75]),
        scenario={
            "reference_value": _STRIP_REF_VALUE,
            "reference_x": _STRIP_REF_X,
            "strip_width": _STRIP_W,
            "strip_center": _strip_center,
        },
    )


def plant_problem() -> Problem:
    """Linear two-interval plant: density responds instantly to the toll.

    K_h = K0 - g * tau_h with K0 = 35, g = 25, target density 15, so the
    exact solution is tau = 0.8 in both intervals.  The closed loop under
    the preset gains is a stable linear recursion, which makes this the
    controller's reference check; it also exercises any solver cheaply.
    """
    k0, gain, k_cr = 35.0, 25.0, 15.0

    def objective(tau, seed):
        k = k0 - gain * np.asarray(tau, dtype=float)
        return float(np.mean(np.abs(k - k_cr))), {"k_bar": k}

    return Problem(
        name="plant",
        objective=objective,
        bounds=Bounds.unit(2),
        rk_n_init=8,
        spsa_tau_0=np.array([0.5, 0.5]),
        pi_config=PIConfig(p_p=0.02, p_i=0.005, k_cr=k_cr, n_max=49),
        scenario={"k0": k0, "gain": gain, "k_cr": k_cr},
    )


class _TollObjective:
    """The simulator objective of a toll fixture: ``f(tau, seed) -> (value, aux)``,
    where ``score`` maps the run's ``SimOutput`` to the value.

    A module-level class rather than a closure so that it pickles, which
    lets ``Evaluator.evaluate_pair`` hand it to its helper process; so
    ``score`` is a module-level function or a ``functools.partial`` of one.
    """

    def __init__(self, cfg, curve, template, score):
        self.cfg, self.curve, self.template, self.score = cfg, curve, template, score

    def simulate(self, tau, seed):
        """The simulator's run of the toll profile ``tau`` on ``seed``, a ``SimOutput``."""
        return run_reservoir(self.cfg, self.curve, self.template.with_tau(tau), seed)

    def __call__(self, tau, seed):
        out = self.simulate(tau, seed)
        return self.score(out), out.aux()


def simple_toll_scenario():
    """Two-interval distance-toll fixture: curve, reservoir config, scheme."""
    curve = NfdCurve(k_cr_low=15.0, k_cr_high=15.0, k_jam=60.0, q_max=600.0)
    cfg = ReservoirConfig(
        lane_km=40.0,
        avg_trip_length_km=5.0,
        demand_segments=((30.0, 3000.0), (30.0, 6000.0), (30.0, 9000.0), (30.0, 0.0)),
        toll_elasticity=0.3,
        noise_amplitude=0.15,
        stochastic_noise_sd=0.1,
    )
    template = TollScheme(30.0, 90.0, 30.0, np.zeros(2))
    return cfg, curve, template


def simple_toll_problem() -> Problem:
    """Track density 15 with two distance-toll intervals; mildly noisy."""
    cfg, curve, template = simple_toll_scenario()
    k_cr = 15.0
    return Problem(
        name="simple",
        objective=_TollObjective(cfg, curve, template,
                                 functools.partial(objective_density, k_cr=k_cr)),
        bounds=Bounds(np.zeros(2), np.ones(2)),
        rk_n_init=12,
        spsa_tau_0=np.array([0.5, 0.5]),
        pi_config=PIConfig(p_p=0.02, p_i=0.005, k_cr=k_cr, n_max=99),
        scenario={"config": cfg, "curve": curve, "template": template, "k_cr": k_cr},
    )


def smoothing_band_sampler(bounds: Bounds, spec: SmoothingSpec):
    """Candidate generator that walks inside the smoothing band.

    Draws the first distance rate uniformly, then each later rate uniformly
    within the allowed jump from its predecessor (the delay chain restarts
    fresh, mirroring the constraint structure: the distance-to-delay seam is
    unconstrained).  Output is in unit coordinates of ``bounds``, ready for
    the ``sampler`` of rk's ``Evaluator``.  Feasible by construction up to
    rounding, so a rejection step after it almost never discards anything.
    """
    m = spec.m_intervals
    limits = [spec.alpha_smooth] * (m - 1) + [None] + [spec.beta_smooth] * (m - 1)
    span = bounds.span

    def sampler(rng, n, box):
        out = np.empty((n, bounds.m_dim))
        col = rng.random(n)
        out[:, 0] = col
        for j in range(1, 2 * m):
            lim = limits[j - 1]
            if lim is None:
                col = rng.random(n)
            else:
                w = lim / (span[j] if span[j] > 0 else 1.0) * (1 - 1e-12)
                lo = np.maximum(0.0, col - w)
                hi = np.minimum(1.0, col + w)
                col = lo + rng.random(n) * (hi - lo)
            out[:, j] = col
        return out

    return sampler


def complex_toll_scenario():
    """Eight-interval joint-toll fixture with strong demand and rough output."""
    curve = NfdCurve(k_cr_low=20.0, k_cr_high=30.0, k_jam=45.0, q_max=700.0)
    cfg = ReservoirConfig(
        lane_km=40.0,
        avg_trip_length_km=5.0,
        demand_segments=(
            (30.0, 4000.0), (30.0, 7000.0), (60.0, 10000.0),
            (30.0, 7000.0), (30.0, 0.0),
        ),
        toll_elasticity=0.3,
        noise_amplitude=2.0,
        stochastic_noise_sd=1.0,
    )
    template = TollScheme(30.0, 150.0, 15.0, np.zeros(8), np.zeros(8))
    return cfg, curve, template


def recompute_complex_penalty_weight() -> float:
    """Re-derive COMPLEX_PENALTY_WEIGHT from the frozen probe recipe."""
    from ..constraints import penalty_weight_from_probe

    cfg, curve, template = complex_toll_scenario()
    objective = _TollObjective(cfg, curve, template, objective_flow)
    values = []
    for u in np.linspace(0.0, 1.0, 20):
        tau = np.concatenate([np.full(8, u), np.full(8, 15.0 * u)])
        values.append(objective(tau, 0)[0])
    return penalty_weight_from_probe(values)


def complex_toll_problem() -> Problem:
    """Maximize average flow with eight joint-toll intervals under smoothing.

    The smoothing band caps jumps between consecutive distance rates at
    0.33 and consecutive delay rates at 5.  DIRECT and SPSA add the
    exterior penalty; the surrogate loop instead filters infill through
    the feasibility row mask and seeds its search with the band-walking
    sampler.
    """
    cfg, curve, template = complex_toll_scenario()
    spec = SmoothingSpec(alpha_smooth=0.33, beta_smooth=5.0, m_intervals=8)
    bounds = Bounds(np.zeros(16), np.concatenate([np.ones(8), np.full(8, 15.0)]))
    penalty = PenaltyTransform(spec, COMPLEX_PENALTY_WEIGHT)
    return Problem(
        name="complex",
        objective=_TollObjective(cfg, curve, template, objective_flow),
        bounds=bounds,
        sense="maximize",
        smoothing=spec,
        penalty=penalty,
        rk_n_init=25,
        spsa_tau_0=np.concatenate([np.full(8, 0.3), np.full(8, 3.0)]),
        infill_sampler=smoothing_band_sampler(bounds, spec),
        scenario={"config": cfg, "curve": curve, "template": template},
    )


def composition_scenario():
    """Four-interval joint-toll fixture with toll-sensitive demand mix.

    High tolls push short trips out of the flow mix, narrowing the plateau
    of the effective flow-density curve (demand_composition_gain), so the
    flow-maximizing tolls and the tolls that pin density at 25 part ways.
    Long trips (10 km) strengthen the delay-toll feedback enough to hold
    the congested branch steady; the run is noiseless so the two optima
    are attributable to the model, not to luck.
    """
    curve = NfdCurve(k_cr_low=20.0, k_cr_high=30.0, k_jam=38.0, q_max=700.0)
    cfg = ReservoirConfig(
        lane_km=40.0,
        avg_trip_length_km=10.0,
        demand_segments=((30.0, 4400.0), (120.0, 6000.0), (30.0, 0.0)),
        toll_elasticity=0.3,
        demand_composition_gain=8.0,
    )
    template = TollScheme(30.0, 150.0, 30.0, np.zeros(4), np.zeros(4))
    return cfg, curve, template


def _composition_problem(name: str, sense: str, score, k_cr: float | None) -> Problem:
    cfg, curve, template = composition_scenario()
    bounds = Bounds(np.zeros(8), np.concatenate([np.ones(4), np.full(4, 25.0)]))
    return Problem(
        name=name,
        objective=_TollObjective(cfg, curve, template, score),
        bounds=bounds,
        sense=sense,
        rk_n_init=16,
        spsa_tau_0=np.concatenate([np.full(4, 0.25), np.full(4, 10.0)]),
        scenario={"config": cfg, "curve": curve, "template": template, "k_cr": k_cr},
    )


def composition_density_problem() -> Problem:
    """Pin density at 25 on the composition-shift fixture."""
    k_cr = 25.0
    return _composition_problem("composition_density", "minimize",
                                functools.partial(objective_density, k_cr=k_cr), k_cr)


def composition_flow_problem() -> Problem:
    """Maximize flow on the composition-shift fixture."""
    return _composition_problem("composition_flow", "maximize", objective_flow, None)


_BUILDERS = {
    "quadratic": quadratic_problem,
    "strip": strip_problem,
    "plant": plant_problem,
    "simple": simple_toll_problem,
    "complex": complex_toll_problem,
    "composition_density": composition_density_problem,
    "composition_flow": composition_flow_problem,
}


def available_problems() -> list[str]:
    return sorted(_BUILDERS)


def get_problem(name: str) -> Problem:
    """Build a registered problem with its frozen defaults."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        known = ", ".join(available_problems())
        raise KeyError(f"unknown problem {name!r}; known problems: {known}") from None
    return builder()
