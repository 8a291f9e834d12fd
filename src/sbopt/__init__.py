"""Simulation-based optimization of time-varying tolls.

Four derivative-free solvers (a density-feedback PI controller,
regressing kriging with expected-improvement infill, DIRECT
partitioning, and SPSA) share one budgeted black-box objective contract,
plus a single-reservoir traffic simulator to optimize against and a
benchmark harness for seed-replicated solver comparisons.
"""

from .core import (
    Bounds,
    BudgetExhausted,
    DimensionMismatch,
    Evaluation,
    EvaluationError,
    Evaluator,
    SboError,
    Trace,
    write_records_csv,
    write_trace_csv,
)
from .constraints import (
    PenaltyTransform,
    SmoothingSpec,
    feasible_mask,
    is_feasible,
    penalize,
    penalty_weight_from_probe,
    violations,
)
from .kriging import (
    EIProposal,
    FitConfig,
    FitError,
    InfillSearchError,
    KrigingModel,
    expected_improvement,
    fit,
    loo_cv,
    maximin_lhs,
    predict,
    propose_infill,
    random_lhs,
    reinterp_error,
    run_rk,
)
from .pi_control import PIConfig, pi_init, pi_step, run_pi
from .direct import (
    Hyperrect,
    half_diagonal,
    identify_potentially_optimal,
    run_direct,
    trisect,
)
from .spsa import SpsaGains, approx_gradient, perturbation, run_spsa
from .mfdsim import (
    NfdCurve,
    ReservoirConfig,
    SimOutput,
    SimulationError,
    TollScheme,
    apply_numerical_noise,
    nfd_flow,
    objective_density,
    objective_flow,
    run_reservoir,
    write_series_csv,
)

__version__ = "0.1.0"
