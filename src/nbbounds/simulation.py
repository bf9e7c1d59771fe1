"""Seeded Monte Carlo experiments on maximal partial-sum deviations.

The engine measures ``max_k |S_k|`` where ``S_k`` is the k-th prefix sum of
centered counts, for two models: independent NB variables, and the
shared-Gamma mixture (one latent draw per replication, deviations taken
against unconditional means). The moment-matched experimental design pits
the two models against each other with identical marginal first moments
and near-identical second moments, isolating the effect of dependence.

Every experiment runs a sampler of :mod:`nbbounds.distributions` through
one kernel, :func:`replicate`: replication ``i`` gets stream ``i`` of the
master seed and returns its raw draws as one row, so a replication's result
is a pure function of its index and the first ``k`` replications of any
run are the same ``k`` rows. The rows are then reduced as one array.

Because a row depends on nothing but its stream, :func:`replicate` splits
the replications into contiguous shards and fills the later shards in
forked worker processes, one per usable CPU, which write their rows
straight into the one result array in shared memory; the result does not
depend on the split. Every sampler it runs must therefore be a pure
function of its generator: a side effect inside it happens in whichever
process drew the row.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

from ._lazy import np
from .bounds import control_limit, dependent_kolmogorov_bound, invert_bound, tweedie_variance
from .distributions import GammaMixture, NBParams, NB2Params, sample_mixture_counts
from .distributions import _nb2_replication_sampler, _pairwise_sum, _plain_sum
from .errors import DomainError
from .rng import streams

__all__ = [
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
]

# (r, p) triple the 20-variable design cycles over
_DESIGN_CYCLE = ((3.0, 0.3), (5.0, 0.5), (8.0, 0.7))
_DESIGN_N = 20


@dataclass(frozen=True, eq=False)
class DeviationSamples:
    """Realized maximal deviations, one entry per replication.

    ``lambda_draw`` holds the shared latent rates and is present exactly
    when the replications came from the dependent model.
    """

    max_abs_dev: np.ndarray
    lambda_draw: np.ndarray | None = None


@dataclass(frozen=True)
class SimulationSummary:
    """Replication statistics against a theoretical threshold.

    ``efficiency`` is the empirical 95th percentile over the threshold;
    ``exceedance_rate`` the fraction of replications at or above it.
    Percentiles use linear interpolation between order statistics, and the
    median is the 50th percentile under the same rule.
    """

    replications: int
    mean: float
    median: float
    sd: float
    p95: float
    p99: float
    theoretical_lambda: float
    efficiency: float
    exceedance_rate: float


def summarize_deviations(devs: np.ndarray, theoretical_lambda: float) -> SimulationSummary:
    devs = np.asarray(devs, dtype=float)
    if devs.size == 0:
        raise DomainError("invalid-parameter", "cannot summarize zero replications")
    median, p95, p99 = (float(v) for v in np.percentile(devs, [50.0, 95.0, 99.0]))
    return SimulationSummary(
        replications=int(devs.size),
        mean=float(devs.mean()),
        median=median,
        sd=float(devs.std(ddof=1)) if devs.size > 1 else 0.0,
        p95=p95,
        p99=p99,
        theoretical_lambda=float(theoretical_lambda),
        efficiency=p95 / float(theoretical_lambda),
        exceedance_rate=float(np.mean(devs >= theoretical_lambda)),
    )


@dataclass(frozen=True)
class MomentMatchedDesign:
    """Paired independent/dependent models with matched marginal moments."""

    independent: tuple[NBParams, ...]
    mixture: GammaMixture

    def independent_total_mean(self) -> float:
        return float(_plain_sum(q.mean() for q in self.independent))

    def independent_total_variance(self) -> float:
        return float(_plain_sum(q.variance() for q in self.independent))

    def mixture_total_variance(self) -> float:
        return float(
            _plain_sum(self.mixture.marginal_variance(i) for i in range(self.mixture.n))
        )

    def aggregate_variance_gap(self) -> float:
        """Relative gap between dependent and independent total marginal variance."""
        indep = self.independent_total_variance()
        return (self.mixture_total_variance() - indep) / indep

    def per_component_variance_gaps(self) -> list[float]:
        return [
            (self.mixture.marginal_variance(i) - q.variance()) / q.variance()
            for i, q in enumerate(self.independent)
        ]


def _round_half_away_from_zero(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def build_moment_matched_design() -> MomentMatchedDesign:
    """The 20-variable comparison design.

    Independent side: NB parameters cycling over (3, 0.3), (5, 0.5),
    (8, 0.7). Dependent side: a Gamma mixture whose loadings equal the
    independent means, with unit-mean mixing (shape == rate) and shape set
    to ``round(1 / mean(kappa_i))`` rounding half away from zero, which
    evaluates to 4 here. Marginal variances then match the independent
    ones in aggregate to within 5 percent (per-component gaps are wider;
    the aggregate criterion is the one enforced).
    """
    independent = tuple(
        NBParams(*_DESIGN_CYCLE[i % len(_DESIGN_CYCLE)]) for i in range(_DESIGN_N)
    )
    kappas = [1.0 / q.r for q in independent]
    mean_kappa = _pairwise_sum(kappas) / len(kappas)  # bit for bit np.mean(kappas)
    shape = float(_round_half_away_from_zero(1.0 / mean_kappa))
    mixture = GammaMixture(
        gamma_shape=shape,
        gamma_rate=shape,  # unit-mean mixing preserves marginal means
        thetas=[q.mean() for q in independent],
    )
    design = MomentMatchedDesign(independent=independent, mixture=mixture)
    gap = abs(design.aggregate_variance_gap())
    if gap > 0.05:
        raise DomainError(
            "invalid-parameter",
            f"aggregate variance mismatch {gap:.1%} exceeds the 5% moment-match criterion",
        )
    return design


def design_from_mixture(mixture: GammaMixture) -> MomentMatchedDesign:
    """Design whose independent side is the mixture's exact marginals.

    Useful for dependence-effect checks where the marginal laws, not just
    their first two moments, should coincide across the two models.
    """
    independent = tuple(mixture.marginal(i) for i in range(mixture.n))
    return MomentMatchedDesign(independent=independent, mixture=mixture)


# Fewest replications worth a forked worker: a fork and reap cost about
# 1.3 ms on a 2-vCPU host, one replication 14-58 us.
_MIN_SHARD = 250


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _shared_rows(shape: tuple[int, ...]) -> np.ndarray:
    """Float array of ``shape`` in anonymous shared memory.

    The mapping is ``MAP_SHARED``, so a forked child writes into the pages
    this process reads. ``mmap`` refuses length 0, hence the one-byte floor
    for rows of no values.
    """
    count = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, max(8 * count, 1)), dtype=float, count=count).reshape(shape)


def _fill(one, seed: int, rows: np.ndarray, start: int) -> None:
    """``rows[i] = one(stream start + i)`` for every row of ``rows``."""
    for i, gen in enumerate(streams(seed, range(start, start + len(rows)))):
        rows[i] = one(gen)


def _fork_shard(one, seed: int, rows: np.ndarray, start: int) -> int | None:
    """Fork a child that fills ``rows``, a view of a shared array, in place.

    Returns the child's pid, or None when no child could be started. The
    child never returns into the caller: it ends in ``os._exit``, with
    status 0 only after its last row.
    """
    try:
        pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        status = 1
        try:
            _fill(one, seed, rows, start)
            status = 0
        finally:
            os._exit(status)
    return pid


def replicate(
    one: Callable[[np.random.Generator], float | Sequence[float]],
    replications: int,
    seed: int,
) -> np.ndarray:
    """Run ``one`` on streams ``0..replications-1`` of ``seed``.

    Returns the results stacked as floats: shape ``(replications,)`` when
    ``one`` returns a scalar, ``(replications, k)`` when it returns ``k``
    values. ``one`` gets a generator re-keyed in place to the start of each
    stream (see :func:`~nbbounds.rng.streams`); it must not keep that
    generator past its call. Callers reduce the stacked rows as whole
    arrays afterwards.

    The result lives in anonymous shared memory and is split into
    contiguous shards, one per usable CPU and each at least ``_MIN_SHARD``
    long; forked children write the later shards straight into it while
    this process fills the first. ``one`` must therefore be a pure function
    of its generator, since it may run in another process. The rows are
    the same for any split. A child's exit status is its only message: a
    shard whose child cannot be started or does not exit with 0 is drawn
    again here, over any rows it left, so an exception from ``one`` reaches
    the caller as in a serial run. Runs serially when there is one worker,
    no ``os.fork``, or more than one live thread.
    """
    if replications < 1:
        raise DomainError("invalid-parameter", "replications must be >= 1")
    row = one(next(streams(seed, [0])))
    rows = _shared_rows((replications, *np.shape(row)))
    rows[0] = row
    workers = min(_usable_cpus(), replications // _MIN_SHARD)
    if workers <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        _fill(one, seed, rows[1:], 1)
        return rows
    edges = [replications * k // workers for k in range(workers + 1)]
    children = []  # (start, stop, pid or None when not forked)
    try:
        for start, stop in zip(edges[1:-1], edges[2:]):
            children.append((start, stop, _fork_shard(one, seed, rows[start:stop], start)))
        _fill(one, seed, rows[1 : edges[1]], 1)
        while children:
            start, stop, pid = children[0]
            delivered = (
                pid is not None and os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
            )
            del children[0]
            if not delivered:
                _fill(one, seed, rows[start:stop], start)
    finally:
        for _, _, pid in children:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return rows


def _max_abs_prefix_deviation(counts: np.ndarray, means) -> np.ndarray:
    """``max_k |sum_{i<=k} (counts_i - means_i)|`` along the last axis.

    Works in place: ``counts`` (a float array) is overwritten with the
    absolute prefix deviations. A cumulative sum along an axis adds in the
    same order as the cumulative sum of each row on its own, so every row
    gets the value of its own scalar reduction.
    """
    deviations = np.subtract(counts, means, out=counts)
    np.cumsum(deviations, axis=-1, out=deviations)
    np.abs(deviations, out=deviations)
    return deviations.max(axis=-1)


def run_nb2_experiment(
    params: Sequence[NB2Params],
    replications: int,
    alpha_level: float,
    seed: int,
) -> tuple[SimulationSummary, DeviationSamples]:
    """Independent-variable experiment in the NB2 parameterization.

    The theoretical threshold is the closed-form control limit
    ``sqrt(V_n / alpha)``. Supports the Poisson limit ``kappa == 0``.
    """
    params = list(params)
    theoretical = control_limit(tweedie_variance(params), alpha_level)
    means = np.array([q.mu for q in params])
    draw = _nb2_replication_sampler(params)
    devs = _max_abs_prefix_deviation(replicate(draw, replications, seed), means)
    return summarize_deviations(devs, theoretical), DeviationSamples(devs)


def run_independent_experiment(
    params: Sequence[NBParams],
    replications: int,
    alpha_level: float,
    seed: int,
) -> tuple[SimulationSummary, DeviationSamples]:
    """Sample independent NB variables and record maximal prefix deviations."""
    return run_nb2_experiment([q.to_nb2() for q in params], replications, alpha_level, seed)


def run_dependent_experiment(
    model: GammaMixture,
    replications: int,
    alpha_level: float,
    seed: int,
) -> tuple[SimulationSummary, DeviationSamples]:
    """Sample the shared-Gamma mixture and record maximal prefix deviations.

    One latent rate per replication, counts conditionally Poisson;
    deviations are measured against the unconditional means
    ``shape * theta_i / rate``. The theoretical threshold inverts the
    dependent maximal inequality at ``alpha_level``.
    """
    theoretical = invert_bound(
        lambda lam: dependent_kolmogorov_bound(model, lam).bound_value, alpha_level
    )
    means = model.marginal_means()

    def one(gen: np.random.Generator) -> np.ndarray:
        lam, counts = sample_mixture_counts(model, gen)
        return np.append(counts, lam)

    rows = replicate(one, replications, seed)
    devs = _max_abs_prefix_deviation(rows[:, :-1], means)
    lams = rows[:, -1]
    return summarize_deviations(devs, theoretical), DeviationSamples(devs, lambda_draw=lams)


def lambda_correlation(samples: DeviationSamples) -> float:
    """Pearson correlation between latent draws and maximal deviations."""
    lams, devs = samples.lambda_draw, samples.max_abs_dev
    if lams is None:
        raise DomainError("invalid-parameter", "samples carry no lambda_draw")
    if devs.size < 2:
        raise DomainError("invalid-parameter", "need at least 2 samples with lambda_draw")
    if lams.std() == 0.0 or devs.std() == 0.0:
        raise DomainError("zero-variance", "correlation undefined for a constant sequence")
    return float(np.corrcoef(lams, devs)[0, 1])


def efficiency_curve(
    kappa_grid: Sequence[float],
    base_mu: float,
    n: int,
    replications: int,
    seed: int,
    alpha_level: float = 0.05,
) -> list[tuple[float, float]]:
    """Bound efficiency of homogeneous NB2 designs across dispersions.

    For each ``kappa``, runs the independent experiment on ``n`` copies of
    NB2(base_mu, kappa) and records ``p95 / control_limit``. ``kappa == 0``
    uses the Poisson-limit variance in the threshold. Each grid entry uses
    the same seed, so repeated kappas give identical results.
    """
    if len(kappa_grid) == 0:
        raise DomainError("invalid-parameter", "kappa_grid must be nonempty")
    curve = []
    for kappa in kappa_grid:
        params = [NB2Params(base_mu, kappa)] * n
        summary, _ = run_nb2_experiment(params, replications, alpha_level, seed)
        curve.append((float(kappa), summary.efficiency))
    return curve
