"""Benchmark harness: calibrated problems, solver runs, comparisons, plots."""

from .problems import (
    COMPLEX_PENALTY_WEIGHT,
    Problem,
    available_problems,
    complex_toll_problem,
    composition_density_problem,
    composition_flow_problem,
    get_problem,
    plant_problem,
    quadratic_problem,
    simple_toll_problem,
    strip_problem,
)
from .harness import (
    ComparisonReport,
    ConfigError,
    ExperimentConfig,
    compare,
    load_report,
    run_experiment,
    run_single,
)
from .plotting import emit_plot_data, read_trace_csv
