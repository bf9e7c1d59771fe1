"""Multi-region count surveillance with cumulative control limits.

A scenario fixes per-region weekly NB2 parameters and a monitoring horizon.
Control limits come from the cumulative Tweedie variance
``V = weeks * sum(mu_j + kappa_j * mu_j**2)`` via ``sqrt(V / alpha)``.
Monitoring is a pure state machine: each week the cumulative deviation
``S_t = sum_j sum_{s<=t} (count_js - fitted_mu_j)`` is updated and the
alarm flag recomputed with an inclusive comparison ``|S_t| >= limit``.
Fitted means are inputs; estimation uncertainty is out of scope.

Scenario files are JSON; weekly counts are CSV with one row per week and a
header of region identifiers; monitoring history is CSV with columns
``period,S_t,lambda_alpha,alarm``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Sequence

from ._lazy import np
from ._text import read_text, write_rows
from .bounds import control_limit
from .distributions import NB2Params, _nb2_sampler, _pairwise_sum, _plain_sum
from .errors import DomainError, _require_count, _require_nonnegative, _require_positive
from .simulation import (
    SimulationSummary,
    _max_abs_prefix_deviation,
    replicate,
    summarize_deviations,
)

__all__ = [
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

EPI_MAX_MODES = ("region-prefix", "time-prefix")


@dataclass(frozen=True)
class Region:
    """One monitored region: weekly NB2 mean and dispersion."""

    weekly_mu: float
    kappa: float
    id: str = ""

    def __post_init__(self):
        _require_positive("weekly_mu", self.weekly_mu)
        _require_nonnegative("kappa", self.kappa)


@dataclass(frozen=True)
class EpiScenario:
    """Monitoring scenario: regions and horizon in weeks.

    Weekly counts within a region are independent, so the cumulative mean
    and variance over the horizon are ``weeks * mu`` and
    ``weeks * (mu + kappa * mu**2)``. A region without an id is named
    ``region_<position>``; ids must be unique, since count columns are
    matched to regions by id.
    """

    regions: tuple[Region, ...]
    weeks: int

    def __init__(self, regions: Sequence[Region], weeks: int):
        regions = tuple(regions)
        if not regions:
            raise DomainError("invalid-parameter", "scenario needs at least one region")
        weeks = _require_count("weeks", weeks)
        named = tuple(
            r if r.id else Region(r.weekly_mu, r.kappa, f"region_{i + 1}")
            for i, r in enumerate(regions)
        )
        seen = set()
        for r in named:
            if r.id in seen:
                raise DomainError("invalid-parameter", f"duplicate region id {r.id!r}")
            seen.add(r.id)
        object.__setattr__(self, "regions", named)
        object.__setattr__(self, "weeks", weeks)

    def cumulative_mean(self, j: int) -> float:
        return self.weeks * self.regions[j].weekly_mu

    def cumulative_variance(self, j: int) -> float:
        r = self.regions[j]
        return self.weeks * NB2Params(r.weekly_mu, r.kappa).variance()

    def total_expected(self) -> float:
        return self.weeks * _plain_sum(r.weekly_mu for r in self.regions)

    def tweedie_variance(self) -> float:
        """Cumulative-horizon total variance V."""
        total = _plain_sum(self.cumulative_variance(j) for j in range(len(self.regions)))
        if not total < math.inf:
            raise DomainError("float-range", "the total variance is outside the floating-point range")
        return total


def reference_scenario() -> EpiScenario:
    """The calibrated 5-region, 12-week COVID-19 surveillance scenario."""
    mus = (210.0, 340.0, 290.0, 480.0, 380.0)
    kappas = (0.35, 0.25, 0.40, 0.20, 0.30)
    return EpiScenario(
        regions=[Region(mu, kappa) for mu, kappa in zip(mus, kappas)],
        weeks=12,
    )


def epi_control_limits(
    scenario: EpiScenario, alpha_levels: Sequence[float]
) -> list[tuple[float, float]]:
    """Control limit per requested alpha level over the cumulative horizon."""
    v_n = scenario.tweedie_variance()
    return [(float(a), control_limit(v_n, a)) for a in alpha_levels]


@dataclass(frozen=True)
class MonitoringState:
    """Immutable snapshot of the weekly monitoring protocol.

    ``history`` holds one ``(period, cumulative_deviation, alarm)`` row per
    completed week; ``horizon`` is the scenario length that bounds how many
    steps may be taken.
    """

    period_index: int
    cumulative_deviation: float
    control_limit: float
    alarm: bool
    history: tuple[tuple[int, float, bool], ...]
    horizon: int

    def any_alarm(self) -> bool:
        return any(alarm for _, _, alarm in self.history)


def start_monitoring(limit: float, horizon: int) -> MonitoringState:
    _require_positive("control limit", limit)
    return MonitoringState(
        period_index=0,
        cumulative_deviation=0.0,
        control_limit=float(limit),
        alarm=False,
        history=(),
        horizon=_require_count("horizon", horizon),
    )


def monitor_step(
    state: MonitoringState,
    weekly_counts: Sequence[float],
    fitted_mu: Sequence[float],
) -> MonitoringState:
    """Advance one week; the input state is left untouched.

    Adds ``sum(count_j - fitted_mu_j)`` to the cumulative deviation and
    recomputes the alarm flag (inclusive at the limit). A cumulative
    deviation that is not a finite float raises ``float-range``.
    """
    if len(weekly_counts) != len(fitted_mu):
        raise DomainError(
            "invalid-parameter",
            f"got {len(weekly_counts)} counts for {len(fitted_mu)} fitted means",
        )
    if state.period_index >= state.horizon:
        raise DomainError(
            "horizon-exceeded",
            f"monitoring horizon of {state.horizon} periods already reached",
        )
    # bit for bit np.sum(counts - fitted), without loading numpy
    deviation = state.cumulative_deviation + _pairwise_sum(
        [float(c) - float(m) for c, m in zip(weekly_counts, fitted_mu)]
    )
    period = state.period_index + 1
    if not abs(deviation) < math.inf:  # also rejects NaN
        raise DomainError(
            "float-range",
            f"the cumulative deviation at period {period} is outside the floating-point range",
        )
    alarm = abs(deviation) >= state.control_limit
    return MonitoringState(
        period_index=period,
        cumulative_deviation=deviation,
        control_limit=state.control_limit,
        alarm=alarm,
        history=state.history + ((period, deviation, alarm),),
        horizon=state.horizon,
    )


def epi_max_deviations(
    scenario: EpiScenario, replications: int, seed: int
) -> dict[str, np.ndarray]:
    """Maximal deviations of each replication under every ordering.

    Each replication draws its (regions, weeks) count matrix once and keeps
    only its per-region and per-week sums; both orderings are then reduced
    over all replications at once. Returns ``{mode: array}`` keyed by the
    names in ``EPI_MAX_MODES``.
    """
    params = [NB2Params(r.weekly_mu, r.kappa) for r in scenario.regions]
    mus = np.array([q.mu for q in params])
    n_regions = len(params)
    # one sampler per region, drawing its weeks as sample_nb2(q, gen, size=weeks) does
    weeks = scenario.weeks
    samplers = [_nb2_sampler(np.full(weeks, q.mu), np.full(weeks, q.kappa)) for q in params]

    def one(gen: np.random.Generator) -> list:
        # the regions' horizon totals, then the weekly all-region totals
        counts = [draw(gen) for draw in samplers]
        return [*map(sum, counts), *map(sum, zip(*counts))]

    sums = replicate(one, replications, seed)
    return {
        # region-prefix: cumulate each region over the horizon, then prefix over regions
        "region-prefix": _max_abs_prefix_deviation(sums[:, :n_regions], weeks * mus),
        # time-prefix: weekly all-region totals, prefix over time
        "time-prefix": _max_abs_prefix_deviation(sums[:, n_regions:], mus.sum()),
    }


def run_epi_validation(
    scenario: EpiScenario,
    replications: int,
    alpha_level: float,
    seed: int,
    mode: str = "time-prefix",
) -> SimulationSummary:
    """Monte Carlo check of the cumulative control limit.

    Each replication draws the full weekly count matrix, since the
    time-prefix ordering needs every week's counts. (A region's horizon
    total alone would be one NB draw: its weeks are iid NB2, and iid NB
    shapes add at a common ``p``, so ``weeks`` weeks of NB2(mu, kappa) sum
    to ``NB(weeks/kappa, 1/(1 + kappa*mu))``.) The maximal deviation is taken
    either across region prefixes at the horizon (``region-prefix``) or
    across weekly prefixes of the all-region total (``time-prefix``); both
    orderings of the same deviation field are exposed because the scenario
    leaves the index order of the maximum open. The default is
    ``time-prefix``, the ordering of a weekly monitor and of the report,
    whose p95 matches the reference one.
    """
    if mode not in EPI_MAX_MODES:
        raise DomainError("invalid-parameter", f"mode must be one of {EPI_MAX_MODES}, got {mode!r}")
    (_, theoretical), = epi_control_limits(scenario, [alpha_level])
    devs = epi_max_deviations(scenario, replications, seed)[mode]
    return summarize_deviations(devs, theoretical)


# -- file formats -----------------------------------------------------------


def load_scenario(source: str | os.PathLike | io.TextIOBase) -> tuple[EpiScenario, list[float]]:
    """Read a scenario JSON document; returns (scenario, alpha_levels).

    Expected layout::

        {"regions": [{"id": "north", "weekly_mu": 210, "kappa": 0.35}, ...],
         "weeks": 12,
         "alpha_levels": [0.05, 0.01]}

    ``id`` is optional and defaults to region_1, region_2, ...; when given
    it must be a string without leading or trailing whitespace, since the
    counts header is matched with its cells stripped. The document and each
    region must be objects, ``regions`` must be an array, numeric fields
    must parse as numbers, ``weeks`` must be a whole number and
    ``alpha_levels``, if given, must be a nonempty array of levels in
    (0, 1); a missing or bad field raises a ``DomainError`` naming it.
    """
    try:
        doc = json.loads(read_text(source, "scenario file"))
    except json.JSONDecodeError as exc:
        raise DomainError("invalid-parameter", f"scenario file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DomainError("invalid-parameter", f"scenario document must be an object, got {doc!r}")
    regions = []
    for i, r in enumerate(_scenario_field(_member(doc, "regions"), list, "regions")):
        field = f"regions[{i}]"
        r = _scenario_field(r, dict, field)
        mu = _scenario_field(_member(r, "weekly_mu", field), float, f"{field}.weekly_mu")
        kappa = _scenario_field(_member(r, "kappa", field), float, f"{field}.kappa")
        region_id = _scenario_field(r.get("id", ""), str, f"{field}.id")
        if region_id != region_id.strip():
            raise DomainError(
                "invalid-parameter",
                f"scenario field {field}.id must not start or end with whitespace, "
                f"got {region_id!r}",
            )
        regions.append(Region(mu, kappa, region_id))
    weeks = _scenario_field(_member(doc, "weeks"), float, "weeks")
    levels = _scenario_field(doc.get("alpha_levels", [0.05]), list, "alpha_levels")
    alphas = [_scenario_field(a, float, f"alpha_levels[{i}]") for i, a in enumerate(levels)]
    if not weeks.is_integer():
        raise DomainError(
            "invalid-parameter", f"scenario field weeks must be a whole number, got {weeks}"
        )
    if not alphas:
        raise DomainError("invalid-parameter", "scenario field alpha_levels must not be empty")
    for i, a in enumerate(alphas):
        if not 0.0 < a < 1.0:  # also false for NaN
            raise DomainError(
                "invalid-parameter", f"scenario field alpha_levels[{i}] must lie in (0, 1), got {a}"
            )
    return EpiScenario(regions, int(weeks)), alphas


_JSON_KINDS = {float: "a number", str: "a string", list: "an array", dict: "an object"}


def _member(obj: dict, key: str, parent: str = ""):
    """``obj[key]``, or a DomainError naming the missing scenario field."""
    if key not in obj:
        field = f"{parent}.{key}" if parent else key
        raise DomainError("invalid-parameter", f"scenario field {field} is missing")
    return obj[key]


def _scenario_field(value, kind: type, field: str):
    """``value`` as a ``kind`` of ``_JSON_KINDS``; a number may also be a numeric string."""
    if kind is float and not isinstance(value, bool):  # float() reads JSON true, false as 1, 0
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    elif isinstance(value, kind):
        return value
    raise DomainError(
        "invalid-parameter", f"scenario field {field} must be {_JSON_KINDS[kind]}, got {value!r}"
    )


def load_counts(source: str | os.PathLike | io.TextIOBase, scenario: EpiScenario) -> np.ndarray:
    """Read a weekly-counts CSV against the scenario's region identifiers.

    One row per week, one column per region, header row of region ids.
    Returns a (rows, regions) float array in scenario region order. Raises
    with the offending 1-based line number on malformed rows.
    """
    return np.array(_read_count_rows(source, scenario))


def _read_count_rows(
    source: str | os.PathLike | io.TextIOBase, scenario: EpiScenario
) -> list[list[float]]:
    """:func:`load_counts` as a list of rows, so a caller need not load numpy."""
    # newline="" as the csv module asks, so CRLF and quoted line ends parse as in a file
    text = read_text(source, "counts file", newline="")
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DomainError("invalid-parameter", "counts file is empty") from None
    header = [h.strip() for h in header]
    ids = [r.id for r in scenario.regions]
    missing = sorted(set(ids) - set(header))
    if missing:
        raise DomainError("invalid-parameter", f"counts header is missing region ids {missing}")
    repeated = [region_id for region_id in ids if header.count(region_id) > 1]
    if repeated:
        raise DomainError("invalid-parameter", f"counts header repeats region id {repeated[0]!r}")
    order = [header.index(region_id) for region_id in ids]
    rows = []
    for line_number, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            values = [float(row[i]) for i in order]
        except (ValueError, IndexError):
            raise DomainError(
                "invalid-parameter", f"malformed counts row at line {line_number}"
            ) from None
        if not all(math.isfinite(v) for v in values):
            raise DomainError(
                "invalid-parameter", f"non-finite count at line {line_number}"
            )
        if any(v < 0 for v in values):
            raise DomainError(
                "invalid-parameter", f"negative count at line {line_number}"
            )
        rows.append(values)
    if not rows:
        raise DomainError("invalid-parameter", "counts file holds no data rows")
    return rows


def write_history(state: MonitoringState, sink: io.TextIOBase) -> None:
    """Emit the monitoring history as ``period,S_t,lambda_alpha,alarm`` CSV."""
    rows = [(period, s_t, state.control_limit, alarm) for period, s_t, alarm in state.history]
    write_rows(sink, ["period", "S_t", "lambda_alpha", "alarm"], rows)
