"""Concentration bounds and monitoring for sums of Negative Binomial counts.

The package evaluates and inverts tail bounds on maximal partial-sum
deviations of overdispersed count variables, both independent and coupled
through a shared Gamma mixing rate; runs the seeded Monte Carlo
experiments that validate them; and drives a cumulative control-limit
monitoring protocol for multi-region count surveillance.
"""

from ._version import __version__
from .bounds import (
    BoundResult,
    OptimizerDiagnostics,
    OracleTail,
    bernstein_dependent_bound,
    chernoff_mean_deviation_bound,
    control_limit,
    dependent_kolmogorov_bound,
    exact_max_deviation_tail_oracle,
    exact_mean_deviation_tail,
    invert_bound,
    kolmogorov_independent_bound,
    tweedie_variance,
)
from .distributions import (
    GammaMixture,
    NB2Params,
    NBParams,
    nb_from_mu_kappa,
    nb_log_mgf,
    sample_mixture_counts,
    sample_nb,
    sample_nb2,
)
from .errors import DomainError
from .rng import RngHandle
from .simulation import (
    DeviationSamples,
    MomentMatchedDesign,
    SimulationSummary,
    build_moment_matched_design,
    design_from_mixture,
    efficiency_curve,
    lambda_correlation,
    replicate,
    run_dependent_experiment,
    run_independent_experiment,
    run_nb2_experiment,
    summarize_deviations,
)
from .surveillance import (
    EpiScenario,
    MonitoringState,
    Region,
    epi_control_limits,
    epi_max_deviations,
    load_counts,
    load_scenario,
    monitor_step,
    reference_scenario,
    run_epi_validation,
    start_monitoring,
    write_history,
)

__all__ = [
    "__version__",
    "DomainError",
    "RngHandle",
    # distributions
    "NBParams",
    "NB2Params",
    "GammaMixture",
    "nb_from_mu_kappa",
    "nb_log_mgf",
    "sample_nb",
    "sample_nb2",
    "sample_mixture_counts",
    # bounds
    "BoundResult",
    "OptimizerDiagnostics",
    "OracleTail",
    "chernoff_mean_deviation_bound",
    "tweedie_variance",
    "control_limit",
    "kolmogorov_independent_bound",
    "dependent_kolmogorov_bound",
    "bernstein_dependent_bound",
    "invert_bound",
    "exact_max_deviation_tail_oracle",
    "exact_mean_deviation_tail",
    # simulation
    "DeviationSamples",
    "SimulationSummary",
    "MomentMatchedDesign",
    "build_moment_matched_design",
    "design_from_mixture",
    "run_independent_experiment",
    "run_nb2_experiment",
    "run_dependent_experiment",
    "lambda_correlation",
    "efficiency_curve",
    "summarize_deviations",
    "replicate",
    # surveillance
    "Region",
    "EpiScenario",
    "MonitoringState",
    "reference_scenario",
    "epi_control_limits",
    "start_monitoring",
    "monitor_step",
    "epi_max_deviations",
    "run_epi_validation",
    "load_scenario",
    "load_counts",
    "write_history",
]
