"""Deterministic reproduction of the reference tables and figure data.

Everything here is a pure function of ``(seed, replication counts)``.
Figure data are emitted as columnar series only; rendering is left to
external tooling. Reports embed the seed, replication counts, and package
version so any output file can be regenerated bit for bit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from ._lazy import np
from ._text import open_output, write_json, write_rows, writing_to
from ._version import __version__
from .bounds import (
    control_limit,
    dependent_kolmogorov_bound,
    kolmogorov_independent_bound,
)
from .errors import DomainError
from .simulation import (
    DeviationSamples,
    MomentMatchedDesign,
    SimulationSummary,
    build_moment_matched_design,
    efficiency_curve,
    lambda_correlation,
    run_dependent_experiment,
    run_independent_experiment,
    summarize_deviations,
)
from .surveillance import epi_max_deviations, reference_scenario

__all__ = [
    "DEFAULT_SEED",
    "TABLE2_REPLICATIONS",
    "EPI_REPLICATIONS",
    "ReproductionReport",
    "reproduce_table2",
    "reproduce_epi",
    "reproduce_figures",
    "build_report",
    "write_report",
]

DEFAULT_SEED = 42
TABLE2_REPLICATIONS = 2_000
EPI_REPLICATIONS = 5_000

# dispersion grid and homogeneous design behind the efficiency figure
FIG8_KAPPA_GRID = (0.0, 0.1, 0.25, 0.5, 1.0)
FIG8_BASE_MU = 5.0
FIG8_N = 20

_EPI_P95_TARGET = 3018.0
_EPI_P95_RTOL = 0.05
# the ordering whose statistics the epi section reports, fixed in advance so
# that no seed can pick the ordering that happens to match the reference
_EPI_REPORTED_MODE = "time-prefix"


@dataclass
class ReproductionReport:
    """All reproduction outputs destined for one output directory."""

    environment: dict
    table2: dict = field(default_factory=dict)
    moment_match: dict = field(default_factory=dict)
    epi: dict = field(default_factory=dict)
    figure_series: dict = field(default_factory=dict)


def _percent_change(independent: float, dependent: float) -> float:
    # a few replications can tie, leaving a zero sd; NaN is written as null
    if independent == 0.0:
        return math.nan
    return 100.0 * (dependent / independent - 1.0)


def _table2_rows(
    indep: SimulationSummary, dep: SimulationSummary
) -> dict[str, dict[str, float]]:
    pairs = {
        "mean": (indep.mean, dep.mean),
        "median": (indep.median, dep.median),
        "sd": (indep.sd, dep.sd),
        "p95": (indep.p95, dep.p95),
        "p99": (indep.p99, dep.p99),
        "theoretical_bound": (indep.theoretical_lambda, dep.theoretical_lambda),
        "efficiency": (indep.efficiency, dep.efficiency),
    }
    return {
        name: {
            "independent": float(i),
            "dependent": float(d),
            "percent_change": _percent_change(i, d),
        }
        for name, (i, d) in pairs.items()
    }


def reproduce_table2(
    seed: int, replications: int = TABLE2_REPLICATIONS
) -> tuple[dict, dict, dict[str, DeviationSamples]]:
    """Moment-matched comparison; returns (table rows, match report, samples).

    The samples (independent and dependent) are returned so figure
    builders can reuse the same runs. Needs at least 2 replications, for the
    sample standard deviations and the latent-rate correlation.
    """
    if replications < 2:
        raise DomainError(
            "invalid-parameter", f"table2 needs at least 2 replications, got {replications}"
        )
    design = build_moment_matched_design()
    indep_summary, indep_samples = run_independent_experiment(
        design.independent, replications, 0.05, seed
    )
    dep_summary, dep_samples = run_dependent_experiment(design.mixture, replications, 0.05, seed)
    table = _table2_rows(indep_summary, dep_summary)
    match = {
        "aggregate_variance_gap_pct": 100.0 * design.aggregate_variance_gap(),
        "per_component_variance_gap_pct": [
            100.0 * g for g in design.per_component_variance_gaps()
        ],
        "lambda_correlation": lambda_correlation(dep_samples),
    }
    samples = {"independent": indep_samples, "dependent": dep_samples}
    return table, match, samples


def reproduce_epi(seed: int, replications: int = EPI_REPLICATIONS) -> dict:
    """Cumulative-limit validation for the calibrated 5-region scenario.

    The maximal deviation is computed under both index orderings from the
    same draws. The reported statistics always come from the time-prefix
    ordering (weekly prefixes of the all-region total), whatever the seed;
    ``mode_p95`` and ``mode_matches_reference`` record, per ordering, the
    95th percentile and whether it lands within 5% of the reference one.
    """
    scenario = reference_scenario()
    v_n = scenario.tweedie_variance()
    lambda_05 = control_limit(v_n, 0.05)
    by_mode = {
        mode: summarize_deviations(devs, lambda_05)
        for mode, devs in epi_max_deviations(scenario, replications, seed).items()
    }

    def matches(summary: SimulationSummary) -> bool:
        return abs(summary.p95 - _EPI_P95_TARGET) <= _EPI_P95_RTOL * _EPI_P95_TARGET

    chosen = by_mode[_EPI_REPORTED_MODE]
    return {
        "v_n": float(v_n),
        "lambda_05": lambda_05,
        "lambda_01": control_limit(v_n, 0.01),
        "p95": chosen.p95,
        "efficiency": chosen.efficiency,
        "exceedance_rate": chosen.exceedance_rate,
        "max_ordering_mode": _EPI_REPORTED_MODE,
        "mode_matches_reference": {m: matches(s) for m, s in by_mode.items()},
        "mode_p95": {m: s.p95 for m, s in by_mode.items()},
        "total_expected": float(scenario.total_expected()),
    }


def _fig1_series() -> dict[str, list]:
    cols: dict[str, list] = {"p": [], "r": [], "mu": [], "variance": []}
    r_grid = np.linspace(0.5, 30.0, 60)
    for p in (0.3, 0.5, 0.7):
        for r in r_grid:
            mu = r * (1.0 - p) / p
            cols["p"].append(p)
            cols["r"].append(float(r))
            cols["mu"].append(mu)
            cols["variance"].append(mu + mu**2 / r)
    return cols


def _fig2_series() -> dict[str, list]:
    # reference-figure curve with its 1/r decay toward the Poisson value 1;
    # note var/mean itself is 1/p, constant in r at fixed p
    cols: dict[str, list] = {"p": [], "r": [], "overdispersion_index": []}
    r_grid = np.linspace(0.5, 30.0, 60)
    for p in (0.3, 0.5, 0.7):
        for r in r_grid:
            cols["p"].append(p)
            cols["r"].append(float(r))
            cols["overdispersion_index"].append(1.0 + (1.0 - p) / (r * p))
    return cols


def _fig4_series(design: MomentMatchedDesign) -> dict[str, list]:
    lam_grid = np.logspace(0.0, 4.0, 201)
    indep = [
        kolmogorov_independent_bound(design.independent, lam).bound_value
        for lam in lam_grid
    ]
    dep = [dependent_kolmogorov_bound(design.mixture, lam).bound_value for lam in lam_grid]
    return {
        "lambda": [float(v) for v in lam_grid],
        "independent_bound": indep,
        "dependent_bound": dep,
    }


def _histogram_series(samples: DeviationSamples, bins: int = 40) -> dict[str, list]:
    counts, edges = np.histogram(samples.max_abs_dev, bins=bins)
    return {
        "bin_left": [float(v) for v in edges[:-1]],
        "bin_right": [float(v) for v in edges[1:]],
        "count": [int(c) for c in counts],
    }


def _fig7_series(dep_samples: DeviationSamples) -> dict[str, list]:
    return {
        "lambda_draw": dep_samples.lambda_draw.tolist(),
        "max_abs_dev": dep_samples.max_abs_dev.tolist(),
    }


def reproduce_figures(
    seed: int,
    replications: int = TABLE2_REPLICATIONS,
    table2_samples: dict[str, DeviationSamples] | None = None,
) -> dict[str, dict[str, list]]:
    """All figure data series, keyed fig1..fig8 (fig3 duplicates fig5's run)."""
    design = build_moment_matched_design()
    if table2_samples is None:
        _, _, table2_samples = reproduce_table2(seed, replications)
    curve = efficiency_curve(FIG8_KAPPA_GRID, FIG8_BASE_MU, FIG8_N, replications, seed)
    return {
        "fig1": _fig1_series(),
        "fig2": _fig2_series(),
        "fig4": _fig4_series(design),
        "fig5": _histogram_series(table2_samples["independent"]),
        "fig6": _histogram_series(table2_samples["dependent"]),
        "fig7": _fig7_series(table2_samples["dependent"]),
        "fig8": {
            "kappa": [k for k, _ in curve],
            "efficiency": [e for _, e in curve],
        },
    }


def build_report(
    which: str,
    seed: int = DEFAULT_SEED,
    table2_replications: int = TABLE2_REPLICATIONS,
    epi_replications: int = EPI_REPLICATIONS,
) -> ReproductionReport:
    """Assemble the sections requested by ``which`` in {table2, epi, figures, all}."""
    if which not in ("table2", "epi", "figures", "all"):
        raise ValueError(f"unknown reproduction target {which!r}")
    # provenance fields only
    replications: dict[str, int] = {}
    report = ReproductionReport(
        environment={
            "seed": int(seed),
            "replications": replications,
            "version": __version__,
        }
    )
    table2_samples = None
    if which in ("table2", "figures", "all"):
        table, match, table2_samples = reproduce_table2(seed, table2_replications)
        replications["table2"] = table2_replications
        if which != "figures":
            report.table2 = table
            report.moment_match = match
    if which in ("epi", "all"):
        report.epi = reproduce_epi(seed, epi_replications)
        replications["epi"] = epi_replications
    if which in ("figures", "all"):
        report.figure_series = reproduce_figures(seed, table2_replications, table2_samples)
        replications["fig8_per_kappa"] = table2_replications
    return report


def write_report(report: ReproductionReport, out_dir: str) -> list[str]:
    """Write report.json plus one CSV per figure series; returns the paths.

    Output is byte-deterministic for a fixed report: keys are sorted, no
    timestamps are embedded, and floats are serialized by shortest
    round-trip representation. A directory or file that cannot be written
    raises an ``invalid-parameter`` error naming ``out_dir``.
    """
    doc = {
        "environment": report.environment,
        "table2": report.table2,
        "moment_match": report.moment_match,
        "epi": report.epi,
        "figure_files": {fig: f"{fig}.csv" for fig in sorted(report.figure_series)},
    }
    report_path = os.path.join(out_dir, "report.json")
    written = [report_path]
    with writing_to(out_dir):
        os.makedirs(out_dir, exist_ok=True)
        with open_output(report_path) as fh:
            write_json(fh, doc)
        for fig, series in sorted(report.figure_series.items()):
            written.append(os.path.join(out_dir, f"{fig}.csv"))
            with open_output(written[-1]) as fh:
                write_rows(fh, list(series), zip(*series.values()))
    return written
