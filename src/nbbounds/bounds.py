"""Tail bounds for sums of Negative Binomial variables, and their inverses.

Four inequalities are implemented:

* a Chernoff bound on upward deviations of the NB sample mean, optimized
  over the restricted MGF domain by a safeguarded Newton solve;
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
(unclamped) value kept alongside. One float-range rule covers the
Kolmogorov terms, the Bernstein exponents, the variances and the control
limit: while each input factor lies in ``[2**-255, 2**255]`` the formula is
evaluated as it reads; otherwise a quotient comes from
``distributions._product``, which keeps mantissas and binary exponents
apart, and the limit is ``sqrt(v_n) / sqrt(alpha)``. A bound, variance
total or limit that is not a finite float raises ``float-range``.
No float total uses the builtin ``sum``, so no output depends on the
Python version: totals of variances and means add left to right
(``distributions._plain_sum``), and a ``GammaMixture`` takes its loading
total with ``distributions._pairwise_sum``, a plain-float mirror of
numpy's pairwise ``np.sum``, and its largest prefix left to right, once,
when it is built, so the mixture bounds never load numpy.
A threshold comes from inverting a bound (:func:`invert_bound`): it is the
float that a plain bisection to relative width 1e-9 returns, found in about
8 to 15 bound evaluations instead of about 40, because one binary search
over the exponents from -996 to 39 finds its power-of-two bracket, above 1
or below it, and a safeguarded secant then brackets the crossing so
tightly that the bisection's comparisons outside the bracket need no
evaluation.
Two exact-tail oracles validate the bounds on small instances. Both run
one absorbing-barrier walk that convolves truncated PMFs one variable at a
time, under one work budget; the mean tail runs it with no barrier. The NB
marginals are computed with numpy alone (log-domain recurrence, provable
truncation), so the package needs no scipy at run time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from ._lazy import np
from .distributions import (
    GammaMixture, NBParams, NB2Params, _in_box, _nb_centred_cgf, _plain_sum, _product
)
from .errors import DomainError, _require_positive

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

# Bound inversion looks for its crossing between these thresholds.
_INVERT_LAMBDA_CAP = 1e12
_INVERT_LAMBDA_FLOOR = 1e-300
# The powers of two it evaluates: 2**k for k from the smallest with
# 2**k >= _INVERT_LAMBDA_FLOOR (-996) to the largest with
# 2**k <= _INVERT_LAMBDA_CAP (39), as doubling or halving from 1 would.
_INVERT_MIN_EXPONENT = math.frexp(_INVERT_LAMBDA_FLOOR)[1]
_INVERT_MAX_EXPONENT = math.frexp(_INVERT_LAMBDA_CAP)[1] - 1
# Bound inversion narrows its bracket to this width in log lambda before the
# bisection, whose own steps stop near 1e-9, so few midpoints fall inside it.
_NARROW_WIDTH = 4e-12
# Distance in log lambda from a secant probe to the root estimate.
_NARROW_STEP = 1e-12
# A narrowing probe whose value is this close to alpha (relative) is no end.
_NARROW_MARGIN = 2.0**-48
# Narrowing probes per inversion at most; the plain bisection takes about 30.
_NARROW_PROBES = 20
# Marginal supports are truncated at this per-variable tail mass.
_ORACLE_TAIL_MASS = 1e-12
# Work budget for the exact-tail oracle's convolutions; also caps one marginal's scan.
_ORACLE_MAX_STATES = 10**7
# The marginal scan stops once the mass beyond it is below this share of the
# truncation tail mass, so tails near the truncation point are exact to 1e-6.
_ORACLE_SCAN_SLACK = 1e-6

# Evaluations of the Chernoff solve at most; 1,934 instances with r, a and p
# across the float range took at most 86, moderate ones 3 to 19.
_SOLVE_MAX_STEPS = 200


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


def _clamped(threshold, raw, components=None, optimizer=None) -> BoundResult:
    if not raw < math.inf:  # also rejects NaN
        raise DomainError(
            "float-range", f"the bound at lambda = {threshold} is outside the floating-point range"
        )
    raw = float(raw)
    # filled in one step: the frozen dataclass's __init__ sets each field
    # through object.__setattr__, which takes about twice as long
    result = object.__new__(BoundResult)
    result.__dict__.update(
        threshold=float(threshold),
        bound_value=min(1.0, raw),
        raw_value=raw,
        components=components,
        optimizer=optimizer,
    )
    return result


def _nonempty(params: Sequence) -> list:
    params = list(params)
    if not params:
        raise DomainError("invalid-parameter", "params must be a nonempty sequence")
    return params


def _require_level(alpha_level: float) -> None:
    if not (0.0 < alpha_level < 1.0):
        raise DomainError("invalid-parameter", f"alpha_level must lie in (0, 1), got {alpha_level}")


def chernoff_mean_deviation_bound(params: Sequence[NBParams], a: float) -> BoundResult:
    """Optimized exponential-moment bound on ``P(mean - E[mean] >= a)``.

    The log bound is the minimum over ``0 < t < t_max = -log(1 - p_min)`` of
    the convex ``sum(K_i(t)) - t*n*a``, ``K_i`` the centred cumulants of
    ``distributions._nb_centred_cgf``. It solves ``sum(K_i'(t)) = n*a`` from
    the smaller of ``t_max/2`` and the Newton step from 0 (``n*a`` over the
    variance) by Newton steps safeguarded as in rtsafe (Numerical Recipes):
    a step that leaves the bracket, which starts at ``(0, the float below
    t_max)`` and shrinks with every evaluation, or that is not under half
    the step before last, becomes a bisection. It stops once the Newton step
    or the bracket is within 4 ulps, never leaving the MGF domain, and
    returns ``exp(min(minimum, 0))`` clamped to [0, 1].
    """
    params = _nonempty(params)
    _require_positive("a", a)

    total_mean = _plain_sum(q.mean() for q in params)
    if not total_mean < math.inf:
        raise DomainError("float-range", "the total mean is outside the floating-point range")
    # an n*a past the float range becomes the largest float: the bound can only
    # grow by it, and stays 0.0 unless t_max is tiny
    target = min(len(params) * a, math.nextafter(math.inf, 0.0))
    lo, hi = 0.0, math.nextafter(-math.log1p(-min(q.p for q in params)), 0.0)
    variance = _plain_sum(q.variance() for q in params)
    t = min(target / variance, 0.5 * hi) if 0.0 < variance < math.inf else 0.5 * hi
    moved = moved_before = hi
    for iterations in range(1, _SOLVE_MAX_STEPS + 1):
        k = k1 = k2 = 0.0
        for q in params:
            dk, dk1, dk2 = _nb_centred_cgf(q.r, q.p, t)
            k, k1, k2 = k + dk, k1 + dk1, k2 + dk2
        t_star, objective, excess = t, k - t * target, k1 - target
        lo, hi = (t, hi) if excess < 0.0 else (lo, t)
        newton = excess / k2 if 0.0 < k2 < math.inf else math.nan
        converged = abs(newton) <= 4.0 * math.ulp(t) or hi - lo <= 4.0 * math.ulp(hi)
        if converged:
            break
        step = t - newton
        if not (lo < step < hi and abs(newton) <= 0.5 * moved_before):
            # a geometric mean closes a bracket at any scale
            step = math.sqrt(max(lo, math.ulp(0.0))) * math.sqrt(hi)
            if not lo < step < hi:
                step = 0.5 * (lo + hi)
        t, moved, moved_before = step, abs(step - t), moved
    # the objective is 0 at t = 0 and decreasing there, so its minimum is not
    # positive: a positive one is rounding, and the bound is then 1
    raw = math.exp(min(objective, 0.0))
    return _clamped(a, raw, optimizer=OptimizerDiagnostics(t_star, iterations, converged))


def tweedie_variance(params: Sequence[NB2Params]) -> float:
    """Total variance ``sum(mu_i + kappa_i * mu_i**2)`` of independent NB2 counts."""
    params = _nonempty(params)
    total = float(_plain_sum(q.variance() for q in params))
    if not total < math.inf:
        raise DomainError("float-range", "the total variance is outside the floating-point range")
    return total


def control_limit(v_n: float, alpha_level: float) -> float:
    """Closed-form threshold ``sqrt(v_n / alpha)``.

    The running deviation process exceeds this limit with probability at
    most ``alpha_level``, for any NB2 parameter values entering ``v_n``.
    """
    _require_positive("v_n", v_n)
    _require_level(alpha_level)
    if _in_box(v_n, alpha_level):
        limit = math.sqrt(v_n / alpha_level)
    else:
        limit = math.sqrt(v_n) / math.sqrt(alpha_level)
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
    params = _nonempty(params)
    _require_positive("lambda", lam)
    total = _plain_sum(q.variance() for q in params)
    if _in_box(total, lam):
        raw = total / lam**2
    else:
        raw = _plain_sum(_product([q.r, 1.0 - q.p], [q.p, q.p, lam, lam]) for q in params)
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
    if _in_box(alpha, beta, lam, theta_n, m):
        lam2 = lam**2
        cond_term = 4.0 * (alpha / beta) * theta_n / lam2
        mix_term = 4.0 * m**2 * alpha / (beta**2 * lam2)
    else:
        cond_term = _product([4.0, alpha, theta_n], [beta, lam, lam])
        mix_term = _product([4.0, m, m, alpha], [beta, beta, lam, lam])
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
    if _in_box(alpha, beta, lam, theta_n, m):
        lam2 = lam**2
        cond_exponent = lam2 / 16.0 / (alpha * theta_n / beta + lam / 6.0)
        quadratic = lam2 * beta**2 / (32.0 * m**2 * alpha)
        linear = lam * beta / (4.0 * m)
    else:
        # 1 / (16*shape*Theta_n/(rate*lam**2) + 8/(3*lam)): the sum is at
        # least 8/(3*lam) > 1e-308, and where it is inf the exponent is
        # below the smallest normal float, so exp gives 1.0 either way
        cond_exponent = 1.0 / (
            _product([16.0, alpha, theta_n], [beta, lam, lam]) + _product([8.0], [3.0, lam])
        )
        quadratic = _product([lam, lam, beta, beta], [32.0, m, m, alpha])
        linear = _product([lam, beta], [4.0, m])
    mix_exponent = min(quadratic, linear)
    # both exponents are >= 0, so each term lies in [0, 2]; exp underflows
    # to 0.0 harmlessly for huge exponents, and an overflowing one is inf
    cond_term = 2.0 * math.exp(-cond_exponent)
    mix_term = 2.0 * math.exp(-mix_exponent)
    return _clamped(lam, cond_term + mix_term, components=(cond_term, mix_term))


def invert_bound(bound: Callable[[float], float], alpha_level: float) -> float:
    """Smallest threshold at which ``bound`` drops to ``alpha_level``.

    ``bound`` maps a threshold to a tail-probability bound and must be
    strictly decreasing once below 1. One binary search over the exponents
    ``k`` in ``-996..39``, whose first probe is ``k = 0``, finds the
    smallest ``k`` with ``bound(2**k) <= alpha_level``; ``2**40`` counts as
    low enough and ``2**-997`` as too high, neither evaluated. The bracket
    is ``[2**(k-1), max(2**k, 1)]``, and bisection refines it to relative
    tolerance 1e-9: the result is the float that a plain bisection, after
    doubling or halving from 1, returns. Under the monotonicity contract
    each comparison ``bound(mid) <= alpha_level`` at a midpoint outside an
    evaluated bracket ``[a, b]`` has a known answer, so the bisection calls
    ``bound`` only at midpoints strictly inside it, after
    :func:`_narrow_bracket` has shrunk the bracket to a relative width of
    about 4e-12. An inversion typically takes 8 to 15 evaluations of
    ``bound`` in all, where the plain bisection takes about 40. Raises
    ``uninvertible`` if no threshold up to 1e12 brings the bound down to
    ``alpha_level``.
    """
    _require_level(alpha_level)

    # invariant: bound(2**k_lo) > alpha_level >= bound(2**k_hi), where the
    # ends start one past the searched exponents, unevaluated
    k_lo, at_lo = _INVERT_MIN_EXPONENT - 1, None
    k_hi, at_hi = _INVERT_MAX_EXPONENT + 1, None
    k = 0
    while k_hi - k_lo > 1:
        if (value := bound(2.0**k)) > alpha_level:
            k_lo, at_lo = k, value
        else:
            k_hi, at_hi = k, value
        k = (k_lo + k_hi) // 2
    if at_hi is None:
        raise DomainError(
            "uninvertible",
            f"bound stays above {alpha_level} for thresholds up to {_INVERT_LAMBDA_CAP:g}",
        )
    lo, b = 2.0**k_lo, 2.0**k_hi
    hi = max(b, 1.0)  # below 1 the bisection starts from [lo, 1], as halving would
    a = lo  # no midpoint lies at or below lo
    if at_lo is not None:  # narrowing needs both ends evaluated
        a, b = _narrow_bracket(bound, alpha_level, lo, at_lo, b, at_hi)
    while (hi - lo) > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if mid >= b:  # bound(mid) <= bound(b) <= alpha_level
            hi = mid
        elif mid <= a:  # bound(mid) >= bound(a) > alpha_level
            lo = mid
        elif bound(mid) <= alpha_level:
            hi = mid
        else:
            lo = mid
    return hi


def _narrow_bracket(bound, alpha_level, a, at_a, b, at_b) -> tuple[float, float]:
    """Shrink ``[a, b]``, where ``at_a = bound(a) > alpha_level >= bound(b) = at_b``.

    Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971) on
    ``log bound - log alpha_level`` against ``log lambda``; while
    ``bound(a)`` is clamped at 1 or ``bound(b)`` is 0 it bisects in
    ``log lambda`` instead. Each secant probe lies ``_NARROW_STEP`` past
    the root estimate, on the side of the end the last probe did not
    replace, so once the estimate is that accurate the next two probes
    close the bracket from both sides. A probe becomes an end only if its
    value is more than ``_NARROW_MARGIN`` (relative) away from
    ``alpha_level``; a probe within the margin lies about on the crossing,
    and the next two probes go ``_NARROW_STEP`` to either side of it. So a
    wobble of a few ulps in ``bound`` near the crossing cannot place an
    end there, and every answer taken from an end is the one ``bound``
    would give.
    Stops at a width of ``_NARROW_WIDTH`` in ``log lambda`` or after
    ``_NARROW_PROBES`` probes; the bracket is valid either way.
    """
    log_alpha = math.log(alpha_level)
    above = alpha_level * (1.0 + _NARROW_MARGIN)
    below = alpha_level * (1.0 - _NARROW_MARGIN)
    ua, ub = math.log(a), math.log(b)
    weight_a = weight_b = 1.0  # Illinois: halve a retained end's log ratio
    side = 0  # +1 or -1 as the last probe replaced a or b
    near: list[float] = []
    for _ in range(_NARROW_PROBES):
        if ub - ua <= _NARROW_WIDTH:
            break
        if near:
            u = near.pop()
        elif at_a < 1.0 and at_b > 0.0:
            ga = weight_a * (math.log(at_a) - log_alpha)
            gb = weight_b * (math.log(at_b) - log_alpha)
            u = ua + ga * (ub - ua) / (ga - gb) if ga > gb else 0.5 * (ua + ub)
            u += _NARROW_STEP if side > 0 else -_NARROW_STEP
        else:
            u = 0.5 * (ua + ub)
        u = min(max(u, ua + _NARROW_STEP), ub - _NARROW_STEP)
        x = math.exp(u)
        if not a < x < b:
            break
        value = bound(x)
        if value > above:
            if side > 0:
                weight_b *= 0.5
            a, at_a, ua, weight_a, side = x, value, u, 1.0, 1
        elif value < below:
            if side < 0:
                weight_a *= 0.5
            b, at_b, ub, weight_b, side = x, value, u, 1.0, -1
        else:
            near = [u + _NARROW_STEP, u - _NARROW_STEP]
    return a, b


@dataclass(frozen=True)
class OracleTail:
    """Exact tail value with its truncation error budget.

    The true probability lies in ``[value, value + truncation_error]``;
    the error bounds the joint mass discarded by truncating each marginal at
    tail mass 1e-12: it is the larger of ``1 - (mass kept)`` in floats and
    the sum of the marginals' certified discarded tails, so a discarded mass
    below the float resolution of 1 still counts.
    """

    value: float
    truncation_error: float


def _oracle_infeasible(detail: str) -> DomainError:
    return DomainError(
        "oracle-infeasible", f"{detail}, above the {_ORACLE_MAX_STATES} budget"
    )


def _truncated_pmf(q: NBParams, tails: list[float] | None = None) -> np.ndarray:
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
    A ``tails`` list receives the certified discarded mass ``P(X > K)``: the
    scanned ``f(K+1) + ... + f(N)`` plus that bound on ``P(X >= N)``.
    """
    mean, sd = q.mean(), math.sqrt(q.variance())
    if not mean - sd <= _ORACLE_MAX_STATES:
        # Cantelli: P(X > mean - sd) >= 1/2, so K itself is past the budget;
        # the negated test also rejects a NaN mean - sd from overflowing moments
        raise _oracle_infeasible(f"NB(r={q.r}, p={q.p}) has mean {mean:g}")
    if not 1.0 - q.p < 1.0:
        # rho >= 1 - p rounds to 1, so the tail bound below never certifies an end
        raise DomainError(
            "oracle-infeasible",
            f"NB(r={q.r}, p={q.p}) has 1 - p = 1.0 in floating point, so no truncation "
            "point of its support can be certified",
        )
    log_q = math.log1p(-q.p)
    log_remainder = math.log(_ORACLE_TAIL_MASS * _ORACLE_SCAN_SLACK)
    guess = mean + 10.0 * sd + 40.0 / q.p
    n = int(guess) + 1 if guess < _ORACLE_MAX_STATES else _ORACLE_MAX_STATES
    while True:
        log_pmf = np.arange(float(n))
        steps = log_pmf[1:]  # view: k = 1..n-1, overwritten in place
        np.divide(q.r - 1.0, steps, out=steps)
        if q.r - 1.0 == -1.0:
            # log1p(-1) is -inf: the k = 1 step log1p((r-1)/1) is log(r)
            np.log1p(steps[1:], out=steps[1:])
            steps[0] = math.log(q.r)
        else:
            np.log1p(steps, out=steps)
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
    if tails is not None:
        scanned = float(at_least[k_max + 1]) if k_max + 1 < n else 0.0
        tails.append(scanned + float(pmf[-1]) / (1.0 - rho))
    return pmf[: k_max + 1]


def _exact_walk(
    params: list[NBParams], lam: float, tails: list[float] | None = None
) -> tuple[np.ndarray, float, float]:
    """Absorbing-barrier walk over the integer partial sums ``S_1, S_2, ...``.

    Each variable's truncated marginal is convolved into the surviving mass,
    indexed by the integer partial sum; any entry whose centered sum has
    reached ``lam`` in absolute value moves to the exceeded mass, so with
    ``lam = inf`` the surviving pmf is the truncated law of the full sum.
    The budget counts what the walk computes: the sum over variables of
    ``len(partial sum pmf) * len(marginal pmf)``, plus the length of the
    final partial-sum pmf; it is checked before each convolution. Returns
    ``(surviving, exceeded, total_mean)``; a ``tails`` list receives each
    marginal's certified discarded tail.
    """
    surviving = np.array([1.0])  # mass by integer partial sum, not yet exceeded
    exceeded = 0.0
    total_mean = 0.0
    work = 0
    for q in params:
        pmf = _truncated_pmf(q, tails)
        work += len(surviving) * len(pmf)
        span = len(surviving) + len(pmf) - 1  # length of the partial-sum pmf after it
        if work + span > _ORACLE_MAX_STATES:
            raise _oracle_infeasible(
                f"convolving the truncated marginals takes at least {work + span} steps"
            )
        total_mean += q.mean()
        surviving = np.convolve(surviving, pmf)
        # |k - centre| is largest at an end of 0..len-1, so no entry hits unless an end does
        if max(total_mean, len(surviving) - 1 - total_mean) >= lam:
            i, j = _barrier_ends(len(surviving), total_mean, lam)
            # the entries that reached the barrier, in index order
            exceeded += np.concatenate((surviving[:i], surviving[j:])).sum()
            surviving[:i] = 0.0
            surviving[j:] = 0.0
    return surviving, exceeded, total_mean


def _barrier_ends(n: int, centre: float, lam: float) -> tuple[int, int]:
    """``(i, j)`` such that, for ``k`` in ``0..n-1``, ``|k - centre| >= lam``
    in floats exactly when ``k < i`` or ``k >= j``.

    As ``lam > 0``, the test holds for ``k - centre <= -lam`` or
    ``k - centre >= lam``, and the rounded ``k - centre`` never decreases
    in ``k``: so the hits are a prefix and a suffix. Each end starts from
    its real-number position and moves by that float test.
    """
    i = min(max(math.ceil(centre - lam), 0), n)
    while i < n and i - centre <= -lam:
        i += 1
    while i > 0 and i - 1 - centre > -lam:
        i -= 1
    j = min(max(math.ceil(centre + lam), i), n)
    while j < n and j - centre < lam:
        j += 1
    while j > i and j - 1 - centre >= lam:
        j -= 1
    return i, j


def exact_max_deviation_tail_oracle(params: Sequence[NBParams], lam: float) -> OracleTail:
    """Exact ``P(max_k |S_k| >= lam)`` for small independent NB instances.

    Walks the truncated joint support one variable at a time: surviving
    probability mass is kept indexed by the integer partial sum, and any
    path whose running centered sum ever reaches ``lam`` in absolute value
    moves its mass to the exceedance accumulator. Equivalent to full joint
    enumeration but linear in the support sizes.
    """
    params = _nonempty(params)
    _require_positive("lambda", lam)
    tails: list[float] = []
    surviving, exceeded, _ = _exact_walk(params, lam, tails)
    residual = 1.0 - (exceeded + surviving.sum())
    return OracleTail(float(exceeded), _truncation_error(residual, tails))


def exact_mean_deviation_tail(params: Sequence[NBParams], a: float) -> OracleTail:
    """Exact ``P(mean - E[mean] >= a)`` by truncated PMF convolution."""
    params = _nonempty(params)
    _require_positive("a", a)
    tails: list[float] = []
    total, _, total_mean = _exact_walk(params, math.inf, tails)
    threshold = total_mean + len(params) * a
    # the integer sums k >= threshold: a suffix (none if threshold is inf)
    start = math.ceil(threshold) if threshold < len(total) else len(total)
    value = total[start:].sum()
    return OracleTail(float(value), _truncation_error(1.0 - total.sum(), tails))


def _truncation_error(residual: float, tails: list[float]) -> float:
    """The larger of the float residual ``1 - kept mass`` and the summed
    certified tails; each alone can miss what the other sees."""
    return float(max(residual, math.fsum(tails)))
