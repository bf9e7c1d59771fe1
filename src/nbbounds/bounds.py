"""Tail bounds for sums of Negative Binomial variables, and their inverses.

Four inequalities are implemented:

* a Chernoff bound on upward deviations of the NB sample mean, optimized
  over the restricted MGF domain;
* the maximal inequality for partial sums of independent heterogeneous NB
  variables (polynomial decay), with its closed-form control limit
  ``sqrt(V_n / alpha)`` in the NB2 parameterization;
* a maximal inequality for the shared-Gamma mixture model, split into a
  conditional-Poisson term and a mixing term (polynomial decay);
* a sub-exponential Bernstein refinement of the mixture bound whose two
  terms decay exponentially.

The Chernoff bound and the Bernstein exponents are formed in the log domain
and exponentiated last; the Kolmogorov bounds are plain ratios of variance
to ``lambda**2``. Reported values are clamped to [0, 1] with the raw
(unclamped) value kept alongside; a bound whose arithmetic leaves the float
range raises ``float-range`` instead of returning inf. Float sums add left
to right (:func:`_plain_sum`), so no output depends on the Python version.
A small exact-tail oracle based on truncated PMF convolution is
included for validating the bounds on small instances; its NB marginals are
computed with numpy alone (log-domain recurrence, provable truncation), so
the package needs no scipy at run time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from ._lazy import np
from .distributions import GammaMixture, NBParams, NB2Params
from .errors import DomainError

__all__ = [
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
]

# Geometric bracket growth for bound inversion stops here.
_INVERT_LAMBDA_CAP = 1e12
# Marginal supports are truncated at this per-variable tail mass.
_ORACLE_TAIL_MASS = 1e-12
# Work budget for the exact-tail oracle's convolutions; also caps one marginal's scan.
_ORACLE_MAX_STATES = 10**7
# The marginal scan stops once the mass beyond it is below this share of the
# truncation tail mass, so tails near the truncation point are exact to 1e-6.
_ORACLE_SCAN_SLACK = 1e-6

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptimizerDiagnostics:
    """Where the Chernoff optimizer stopped."""

    t_star: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class BoundResult:
    """An evaluated tail bound.

    ``bound_value`` is clamped to [0, 1]; ``raw_value`` keeps the
    unclamped bound. For the two-term mixture bounds, ``components``
    carries ``(cond_term, mix_term)`` whose (raw) sum equals
    ``raw_value``.
    """

    threshold: float
    bound_value: float
    raw_value: float
    components: tuple[float, float] | None = None
    optimizer: OptimizerDiagnostics | None = None


def _plain_sum(values):
    """``sum(values)`` added left to right from 0.

    The builtin ``sum`` compensates its rounding on floats from Python 3.12
    on, which moves the last bit of some totals; this is the sum it computed
    before.
    """
    total = 0
    for value in values:
        total += value
    return total


def _float_range_error(lam) -> DomainError:
    return DomainError(
        "float-range", f"the bound at lambda = {lam} is outside the floating-point range"
    )


def _clamped(threshold, raw, components=None, optimizer=None) -> BoundResult:
    if not raw < math.inf:  # also rejects NaN
        raise _float_range_error(threshold)
    return BoundResult(
        threshold=float(threshold),
        bound_value=min(1.0, float(raw)),
        raw_value=float(raw),
        components=components,
        optimizer=optimizer,
    )


def _require_positive(name: str, value: float) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise DomainError("invalid-parameter", f"{name} must be a positive real, got {value}")


def _golden_section_minimize(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> tuple[float, float, int, bool]:
    """Minimize a unimodal function on [lo, hi].

    Returns ``(x_star, f(x_star), iterations, converged)``. Derivative-free
    so the restricted MGF domain is never evaluated outside the bracket.
    """
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    iterations = 0
    max_iterations = 300
    while (b - a) > tol and iterations < max_iterations:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        iterations += 1
    x_star = x1 if f1 <= f2 else x2
    return x_star, min(f1, f2), iterations, (b - a) <= tol


def chernoff_mean_deviation_bound(params: Sequence[NBParams], a: float) -> BoundResult:
    """Optimized exponential-moment bound on ``P(mean - E[mean] >= a)``.

    The log-domain objective ``-t*n*a - t*sum(mean_i) + sum(log_mgf_i(t))``
    is convex on ``(0, t_max)`` with ``t_max = -log(1 - p_min)``; a
    golden-section search over ``[eps*t_max, (1-eps)*t_max]`` finds the
    minimizer without ever leaving the MGF domain. The returned bound is
    ``exp(minimum)`` clamped to [0, 1].
    """
    params = list(params)
    if not params:
        raise DomainError("invalid-parameter", "params must be a nonempty sequence")
    _require_positive("a", a)

    n = len(params)
    total_mean = _plain_sum(q.mean() for q in params)
    p_min = min(q.p for q in params)
    t_max = -math.log1p(-p_min)
    eps = 1e-10
    lo, hi = eps * t_max, (1.0 - eps) * t_max

    # (r, log p, log(1-p)) per variable, computed once: the objective then
    # evaluates nb_log_mgf's expression, in its order, in plain floats; every
    # t the search visits lies in [lo, hi], so the domain guard runs once, at hi
    terms = [(q.r, math.log(q.p), math.log1p(-q.p)) for q in params]
    for _, _, log_q in terms:
        if hi >= -log_q:
            raise DomainError(
                "mgf-domain-exceeded", f"t = {hi} is outside the MGF domain t < {-log_q}"
            )

    def log_objective(t: float) -> float:
        log_mgfs = 0.0
        for r, log_p, log_q in terms:
            log_mgfs += r * (log_p - math.log(-math.expm1(t + log_q)))
        return -t * n * a - t * total_mean + log_mgfs

    t_star, log_min, iterations, converged = _golden_section_minimize(
        log_objective, lo, hi, tol=1e-10 * t_max
    )
    # the objective tends to 0 at t -> 0+, so its minimum is never positive
    # beyond rounding noise and exp cannot overflow
    raw = math.exp(log_min)
    return _clamped(
        a, raw, optimizer=OptimizerDiagnostics(t_star, iterations, converged)
    )


def tweedie_variance(params: Sequence[NB2Params]) -> float:
    """Total variance ``sum(mu_i + kappa_i * mu_i**2)`` of independent NB2 counts."""
    params = list(params)
    if not params:
        raise DomainError("invalid-parameter", "params must be a nonempty sequence")
    try:
        return float(_plain_sum(q.variance() for q in params))
    except OverflowError:
        raise DomainError(
            "float-range", "the total variance is outside the floating-point range"
        ) from None


def control_limit(v_n: float, alpha_level: float) -> float:
    """Closed-form threshold ``sqrt(v_n / alpha)``.

    The running deviation process exceeds this limit with probability at
    most ``alpha_level``, for any NB2 parameter values entering ``v_n``.
    """
    _require_positive("v_n", v_n)
    if not (0.0 < alpha_level < 1.0):
        raise DomainError("invalid-parameter", f"alpha_level must lie in (0, 1), got {alpha_level}")
    limit = math.sqrt(v_n / alpha_level)
    if not limit < math.inf:
        raise DomainError(
            "float-range",
            f"the control limit sqrt({v_n} / {alpha_level}) is outside the floating-point range",
        )
    return limit


def kolmogorov_independent_bound(params: Sequence[NBParams], lam: float) -> BoundResult:
    """Maximal inequality for independent NB partial sums.

    ``P(max_k |S_k| >= lam) <= lam**-2 * sum(r_i (1-p_i) / p_i**2)``.
    """
    params = list(params)
    if not params:
        raise DomainError("invalid-parameter", "params must be a nonempty sequence")
    _require_positive("lambda", lam)
    try:
        raw = _plain_sum(q.variance() for q in params) / lam**2
    except (ZeroDivisionError, OverflowError):
        raise _float_range_error(lam) from None
    return _clamped(lam, raw)


def dependent_kolmogorov_bound(model: GammaMixture, lam: float) -> BoundResult:
    """Maximal inequality under shared Gamma mixing (polynomial decay).

    The bound splits into a conditional-Poisson term
    ``4*(shape/rate)*Theta_n / lam**2`` and a mixing term
    ``4*M**2*shape / (rate**2 * lam**2)`` where ``Theta_n`` is the total
    loading and ``M`` the largest prefix loading.
    """
    _require_positive("lambda", lam)
    alpha, beta = model.gamma_shape, model.gamma_rate
    theta_n = model.total_theta()
    m = model.max_prefix()
    try:
        cond_term = 4.0 * (alpha / beta) * theta_n / lam**2
        mix_term = 4.0 * m**2 * alpha / (beta**2 * lam**2)
    except (ZeroDivisionError, OverflowError):
        raise _float_range_error(lam) from None
    return _clamped(lam, cond_term + mix_term, components=(cond_term, mix_term))


def bernstein_dependent_bound(model: GammaMixture, lam: float) -> BoundResult:
    """Sub-exponential refinement of the mixture bound (exponential decay).

    ``cond_term = 2*exp(-(lam^2/16) / (shape*Theta_n/rate + lam/6))`` and
    ``mix_term = 2*exp(-min(lam^2*rate^2/(32*M^2*shape), lam*rate/(4*M)))``;
    the mixing exponent switches from its quadratic to its linear branch at
    ``lam = 8*M*shape/rate``. Exponents are formed in the log domain.
    """
    _require_positive("lambda", lam)
    alpha, beta = model.gamma_shape, model.gamma_rate
    theta_n = model.total_theta()
    m = model.max_prefix()

    try:
        cond_exponent = (lam**2 / 16.0) / (alpha * theta_n / beta + lam / 6.0)
        mix_exponent = min(lam**2 * beta**2 / (32.0 * m**2 * alpha), lam * beta / (4.0 * m))
    except (ZeroDivisionError, OverflowError):
        raise _float_range_error(lam) from None
    # both exponents are >= 0, so each term lies in [0, 2]; exp underflows
    # to 0.0 harmlessly for huge exponents
    cond_term = 2.0 * math.exp(-cond_exponent)
    mix_term = 2.0 * math.exp(-mix_exponent)
    return _clamped(lam, cond_term + mix_term, components=(cond_term, mix_term))


def invert_bound(bound: Callable[[float], float], alpha_level: float) -> float:
    """Smallest threshold at which ``bound`` drops to ``alpha_level``.

    ``bound`` maps a threshold to a tail-probability bound and must be
    strictly decreasing once below 1. The bracket grows geometrically from
    1 (and shrinks below 1 if needed), then bisection refines to relative
    tolerance 1e-9. Raises ``uninvertible`` if no threshold up to 1e12
    brings the bound down to ``alpha_level``.
    """
    if not (0.0 < alpha_level < 1.0):
        raise DomainError("invalid-parameter", f"alpha_level must lie in (0, 1), got {alpha_level}")

    hi = 1.0
    while bound(hi) > alpha_level:
        hi *= 2.0
        if hi > _INVERT_LAMBDA_CAP:
            raise DomainError(
                "uninvertible",
                f"bound stays above {alpha_level} for thresholds up to {_INVERT_LAMBDA_CAP:g}",
            )
    lo = hi / 2.0
    while lo > 0 and bound(lo) <= alpha_level:
        lo /= 2.0
        if lo < 1e-300:
            break
    # invariant: bound(lo) > alpha_level >= bound(hi)
    while (hi - lo) > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if bound(mid) <= alpha_level:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class OracleTail:
    """Exact tail value with its truncation error budget.

    The true probability lies in ``[value, value + truncation_error]``;
    the error is the joint mass discarded by truncating each marginal at
    tail mass 1e-12.
    """

    value: float
    truncation_error: float


def _oracle_infeasible(detail: str) -> DomainError:
    return DomainError(
        "oracle-infeasible", f"{detail}, above the {_ORACLE_MAX_STATES} budget"
    )


def _truncated_pmf(q: NBParams) -> np.ndarray:
    """PMF of NB(r, p) on ``0..K`` with ``K = min{k : P(X > k) <= 1e-12} + 1``.

    The log pmf follows the recurrence ``log f(0) = r log p``,
    ``log f(k) = log f(k-1) + log1p((r-1)/k) + log(1-p)`` in one cumulative
    sum and is exponentiated last, so an underflowing ``p**r`` cannot empty
    the support. ``P(X > k)`` is a reverse cumulative sum over a scan
    ``0..N`` whose end is checked by a tail bound: the pmf ratio
    ``f(k+1)/f(k) = (k+r)/(k+1) * (1-p)`` stays at or below
    ``rho = max(that ratio at N, 1-p)`` for every ``k >= N`` (it decreases
    in k when ``r >= 1`` and increases towards ``1-p`` when ``r < 1``), so
    ``P(X >= N) <= f(N) / (1 - rho)`` once ``rho < 1``. The scan starts at
    ``mean + 10 sd + 40/p`` and doubles until that bound is small enough.
    """
    mean, sd = q.mean(), math.sqrt(q.variance())
    if not mean - sd <= _ORACLE_MAX_STATES:
        # Cantelli: P(X > mean - sd) >= 1/2, so K itself is past the budget;
        # the negated test also rejects a NaN mean - sd from overflowing moments
        raise _oracle_infeasible(f"NB(r={q.r}, p={q.p}) has mean {mean:g}")
    log_q = math.log1p(-q.p)
    log_remainder = math.log(_ORACLE_TAIL_MASS * _ORACLE_SCAN_SLACK)
    guess = mean + 10.0 * sd + 40.0 / q.p
    n = int(guess) + 1 if guess < _ORACLE_MAX_STATES else _ORACLE_MAX_STATES
    while True:
        log_pmf = np.arange(float(n))
        steps = log_pmf[1:]  # view: k = 1..n-1, overwritten in place
        np.log1p(np.divide(q.r - 1.0, steps, out=steps), out=steps)
        steps += log_q
        log_pmf[0] = q.r * math.log(q.p)
        np.cumsum(log_pmf, out=log_pmf)
        rho = max((n - 1 + q.r) / n * (1.0 - q.p), 1.0 - q.p)
        if rho < 1.0 and log_pmf[-1] - math.log1p(-rho) <= log_remainder:
            break
        if n == _ORACLE_MAX_STATES:
            raise _oracle_infeasible(
                f"NB(r={q.r}, p={q.p}) has tail mass above 1e-12 past {n} states"
            )
        n = min(2 * n, _ORACLE_MAX_STATES)
    pmf = np.exp(log_pmf, out=log_pmf)
    at_least = np.cumsum(pmf[::-1])[::-1]  # at_least[k] = P(X >= k) = P(X > k-1)
    k_max = int(np.argmax(at_least <= _ORACLE_TAIL_MASS))
    return pmf[: k_max + 1].copy()


def _truncated_pmfs(params: list[NBParams]) -> list[np.ndarray]:
    """Truncated marginals, stopping as soon as the convolutions are over budget.

    The budget counts what convolving the marginals in order computes: the
    sum over variables of ``len(partial sum pmf) * len(marginal pmf)``, plus
    the length of the final partial-sum pmf.
    """
    pmfs = []
    span = 1  # length of the partial-sum pmf so far
    work = 0
    for q in params:
        pmfs.append(_truncated_pmf(q))
        work += span * len(pmfs[-1])
        span += len(pmfs[-1]) - 1
        if work + span > _ORACLE_MAX_STATES:
            raise _oracle_infeasible(
                f"convolving the truncated marginals takes at least {work + span} steps"
            )
    return pmfs


def exact_max_deviation_tail_oracle(params: Sequence[NBParams], lam: float) -> OracleTail:
    """Exact ``P(max_k |S_k| >= lam)`` for small independent NB instances.

    Walks the truncated joint support one variable at a time: surviving
    probability mass is kept indexed by the integer partial sum, and any
    path whose running centered sum ever reaches ``lam`` in absolute value
    moves its mass to the exceedance accumulator. Equivalent to full joint
    enumeration but linear in the support sizes.
    """
    params = list(params)
    if not params:
        raise DomainError("invalid-parameter", "params must be a nonempty sequence")
    _require_positive("lambda", lam)
    pmfs = _truncated_pmfs(params)

    surviving = np.array([1.0])  # mass by integer partial sum, not yet exceeded
    exceeded = 0.0
    cumulative_mean = 0.0
    for q, pmf in zip(params, pmfs):
        cumulative_mean += q.mean()
        surviving = np.convolve(surviving, pmf)
        deviations = np.abs(np.arange(len(surviving)) - cumulative_mean)
        hit = deviations >= lam
        exceeded += surviving[hit].sum()
        surviving = np.where(hit, 0.0, surviving)
    truncation_error = 1.0 - (exceeded + surviving.sum())
    return OracleTail(value=float(exceeded), truncation_error=float(max(truncation_error, 0.0)))


def exact_mean_deviation_tail(params: Sequence[NBParams], a: float) -> OracleTail:
    """Exact ``P(mean - E[mean] >= a)`` by truncated PMF convolution."""
    params = list(params)
    if not params:
        raise DomainError("invalid-parameter", "params must be a nonempty sequence")
    _require_positive("a", a)
    pmfs = _truncated_pmfs(params)

    total = pmfs[0]
    for pmf in pmfs[1:]:
        total = np.convolve(total, pmf)
    threshold = _plain_sum(q.mean() for q in params) + len(params) * a
    value = total[np.arange(len(total)) >= threshold].sum()
    return OracleTail(value=float(value), truncation_error=float(max(1.0 - total.sum(), 0.0)))
