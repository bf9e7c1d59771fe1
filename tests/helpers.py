"""Independent oracles shared by the unit and acceptance suites.

Everything here deliberately avoids the package's own computational paths:
PMFs come from scipy, mixture marginals from numerical quadrature, Monte
Carlo cross-checks from numpy's native samplers, bound inversion from the
plain bisection that ``invert_bound`` must reproduce float for float, the
exact oracle's barrier step from boolean masks, and the closed-form bounds,
variances and control limit from exact rational arithmetic.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from scipy import integrate, stats
from scipy.special import gammaln

from nbbounds import DomainError

_INVERT_LAMBDA_CAP = 1e12


def quad_mixture_pmf(k: int, alpha: float, beta: float, theta: float) -> float:
    """Poisson-Gamma mixture PMF at k by adaptive quadrature.

    Integrates Poisson(k; lam*theta) against the Gamma(alpha, rate=beta)
    density; the integrand is evaluated through its logarithm for
    stability at large k.
    """

    def integrand(lam):
        if lam <= 0.0:
            return 0.0
        log_pois = k * np.log(lam * theta) - lam * theta - gammaln(k + 1)
        return np.exp(log_pois + stats.gamma.logpdf(lam, alpha, scale=1.0 / beta))

    value, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=300)
    return value


def scipy_truncated_nb_pmf(r: float, p: float, tail_mass: float) -> np.ndarray:
    """scipy's NB(r, p) pmf on 0..K with K = int(isf(tail_mass)) + 1."""
    k_max = int(stats.nbinom.isf(tail_mass, r, p)) + 1
    return stats.nbinom.pmf(np.arange(k_max + 1), r, p)


def mc_max_deviation_tail(params, lam: float, reps: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of P(max_k |S_k| >= lam) for independent NB.

    Uses numpy's own negative_binomial sampler (not the package's
    Gamma-Poisson path). Returns (estimate, standard error).
    """
    gen = np.random.default_rng(seed)
    counts = np.column_stack(
        [gen.negative_binomial(q.r, q.p, size=reps) for q in params]
    ).astype(float)
    means = np.array([q.mean() for q in params])
    devs = np.abs(np.cumsum(counts - means, axis=1)).max(axis=1)
    emp = float(np.mean(devs >= lam))
    se = float(np.sqrt(max(emp * (1.0 - emp), 1.0 / reps) / reps))
    return emp, se


def mc_mixture_max_deviations(alpha, beta, thetas, reps: int, seed: int) -> np.ndarray:
    """Vectorized max-prefix-deviation draws from the shared-Gamma model."""
    gen = np.random.Generator(np.random.Philox(key=np.array([99, seed], dtype=np.uint64)))
    thetas = np.asarray(thetas, dtype=float)
    lam_draws = gen.gamma(alpha, 1.0 / beta, size=reps)
    counts = gen.poisson(lam_draws[:, None] * thetas[None, :])
    means = alpha * thetas / beta
    return np.abs(np.cumsum(counts - means, axis=1)).max(axis=1)


def reference_invert_bound(bound, alpha_level: float) -> float:
    """``invert_bound`` as a plain bisection that evaluates every midpoint.

    Doubles from 1 to a threshold where ``bound`` is at most
    ``alpha_level``, halves down to one where it is above, then bisects to
    relative width 1e-9 and returns the upper end.
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


def reference_exact_walk(marginals, means, lam: float):
    """The exact oracle's absorbing-barrier walk with a boolean-mask barrier.

    ``marginals`` are the truncated PMFs and ``means`` the means of the
    variables in order. After each convolution, every entry ``k`` with
    ``|k - running mean| >= lam`` moves to the exceeded mass. Returns
    ``(surviving, exceeded, total_mean)``.
    """
    surviving = np.array([1.0])
    exceeded = 0.0
    total_mean = 0.0
    for pmf, mean in zip(marginals, means):
        total_mean += mean
        surviving = np.convolve(surviving, pmf)
        hit = np.abs(np.arange(len(surviving)) - total_mean) >= lam
        exceeded += surviving[hit].sum()
        surviving = np.where(hit, 0.0, surviving)
    return surviving, exceeded, total_mean


def reference_mean_tail(marginals, means, a: float) -> float:
    """``P(mean - E[mean] >= a)`` from the walk without a barrier, by a mask."""
    total, _, total_mean = reference_exact_walk(marginals, means, math.inf)
    threshold = total_mean + len(marginals) * a
    return float(total[np.arange(len(total)) >= threshold].sum())


# -- exact references for the closed forms ------------------------------------
# Every float input is read exactly as a Fraction; nothing is rounded before
# the end. The mixture bounds take Theta_n and M as the model's own float
# totals, as the bounds do.


def exact_nb_variance(q) -> Fraction:
    """``r (1 - p) / p**2`` of an ``NBParams``."""
    p = Fraction(q.p)
    return Fraction(q.r) * (1 - p) / (p * p)


def exact_nb2_variance(q) -> Fraction:
    """``mu + kappa * mu**2`` of an ``NB2Params``."""
    mu = Fraction(q.mu)
    return mu + Fraction(q.kappa) * mu * mu


def exact_marginal_variance(model, i: int) -> Fraction:
    """``shape * theta * (rate + theta) / rate**2`` of a ``GammaMixture`` component."""
    shape, rate = Fraction(model.gamma_shape), Fraction(model.gamma_rate)
    theta = Fraction(model.thetas[i])
    return shape * theta * (rate + theta) / (rate * rate)


def exact_kolmogorov_independent(params, lam: float) -> Fraction:
    """``sum(r_i (1 - p_i) / p_i**2) / lam**2``."""
    return sum(exact_nb_variance(q) for q in params) / Fraction(lam) ** 2


def exact_dependent_kolmogorov(model, lam: float) -> tuple[Fraction, Fraction]:
    """``(4 shape Theta_n / (rate lam**2), 4 M**2 shape / (rate**2 lam**2))``."""
    shape, rate, lam = Fraction(model.gamma_shape), Fraction(model.gamma_rate), Fraction(lam)
    theta_n, m = Fraction(model.total_theta()), Fraction(model.max_prefix())
    return 4 * shape * theta_n / (rate * lam**2), 4 * m**2 * shape / (rate**2 * lam**2)


def exact_bernstein_exponents(model, lam: float) -> tuple[Fraction, Fraction]:
    """The conditional exponent ``(lam**2/16) / (shape Theta_n/rate + lam/6)`` and
    the mixing exponent ``min(lam**2 rate**2 / (32 M**2 shape), lam rate / (4 M))``."""
    shape, rate, lam = Fraction(model.gamma_shape), Fraction(model.gamma_rate), Fraction(lam)
    theta_n, m = Fraction(model.total_theta()), Fraction(model.max_prefix())
    cond = (lam**2 / 16) / (shape * theta_n / rate + lam / 6)
    mix = min(lam**2 * rate**2 / (32 * m**2 * shape), lam * rate / (4 * m))
    return cond, mix


def reference_bernstein_terms(model, lam: float) -> tuple[float, float]:
    """``(2 exp(-cond), 2 exp(-mix))`` from the exact exponents, exp applied last
    (an exponent past 1000 gives 0.0, as ``exp`` does)."""
    cond, mix = exact_bernstein_exponents(model, lam)
    return 2.0 * math.exp(-float(min(cond, 1000))), 2.0 * math.exp(-float(min(mix, 1000)))


def reference_chernoff_log_objective(params, a: float, t: float) -> tuple[Decimal, Decimal]:
    """The Chernoff log-objective at ``t`` in ``decimal`` at 400 digits, and its scale.

    The objective is ``-t n a - t sum(mean_i) + sum(r_i log(p_i / (1 - (1 - p_i) e^t)))``
    with every float input read exactly. The scale sums the magnitudes of its
    terms, plus ``r_i`` for each logarithm's rounded argument, plus ``r_i`` times
    ``(1 - p_i) e^t / (1 - (1 - p_i) e^t) * (|t| + |log(1 - p_i)|)``, by which
    the last term magnifies relative errors in its exponent ``t + log(1 - p_i)``.
    A float evaluation's absolute error is a small multiple of ``2**-53`` times
    the scale. The 400 digits keep 60 in ``1 - (1 - p_i) e^t`` for ``p_i`` down
    to the smallest subnormal, 5e-324, where ``1 - p_i`` alone takes 324.
    """
    with localcontext() as ctx:
        ctx.prec = 400
        t, a, n = Decimal(t), Decimal(a), len(params)
        total_mean = sum(Decimal(q.r) * (1 - Decimal(q.p)) / Decimal(q.p) for q in params)
        value = -t * n * a - t * total_mean
        scale = abs(t) * (n * a + total_mean)
        for q in params:
            r, p = Decimal(q.r), Decimal(q.p)
            grown = (1 - p) * t.exp()
            log_p, log_rest = p.ln(), (1 - grown).ln()
            value += r * (log_p - log_rest)
            lift = grown / (1 - grown) * (abs(t) + abs((1 - p).ln()))
            scale += r * (abs(log_p) + abs(log_rest) + 1 + lift)
        return +value, +scale


def reference_nb_centred_cgf(r: float, p: float, t: float) -> tuple[Decimal, ...]:
    """``(K, K', K'', K''')`` of ``K(t) = -r log(1 - x) - t mean`` with
    ``x = (1 - p)(e^t - 1)/p``, in ``decimal`` at 400 digits, every float
    input read exactly. ``K' = r x / (p (1 - x))``,
    ``K'' = r (1 - p) e^t / (p (1 - x))**2`` and ``K''' = K'' (1 + 2 (1 - p) e^t
    / (p (1 - x)))``. The 400 digits keep ``1 - x`` and the difference
    ``-r log(1 - x) - t mean`` exact far past 17 digits for ``p`` down to the
    smallest subnormal."""
    with localcontext() as ctx:
        ctx.prec = 400
        r, p, t = Decimal(r), Decimal(p), Decimal(t)
        q, e_t = 1 - p, t.exp()
        x = q * (e_t - 1) / p
        w = p * (1 - x)
        k2 = r * q * e_t / w**2
        k = -r * (1 - x).ln() - t * r * q / p
        return +k, +(r * x / w), +k2, +(k2 * (1 + 2 * q * e_t / w))


def reference_chernoff_log_bound(params, a: float) -> Decimal:
    """``min over 0 < t < min(-log(1 - p_i)) of sum(K_i(t)) - t n a``, the
    log of the Chernoff bound, in ``decimal`` at 60 digits.

    The derivative ``sum(K_i'(t)) - n a`` increases from ``-n a`` to
    ``+inf`` on that interval, so 120 bisections on its sign place the
    minimizer to about 1e-36 of the interval, where the objective is flat to
    far below a float's resolution. Only ``K'`` is needed for the sign, one
    exponential per step; the objective takes one logarithm per variable."""
    with localcontext() as ctx:
        ctx.prec = 60
        rs = [Decimal(q.r) for q in params]
        ps = [Decimal(q.p) for q in params]
        target = len(params) * Decimal(a)
        lo, hi = Decimal(0), min(-(1 - p).ln() for p in ps)
        for _ in range(120):
            t = (lo + hi) / 2
            growth = t.exp() - 1
            xs = [(1 - p) * growth / p for p in ps]
            if sum(r * x / (p * (1 - x)) for r, p, x in zip(rs, ps, xs)) < target:
                lo = t
            else:
                hi = t
        growth = lo.exp() - 1
        value = -lo * target
        for r, p in zip(rs, ps):
            value += -r * (1 - (1 - p) * growth / p).ln() - lo * r * (1 - p) / p
        return +value


def reference_control_limit(v_n: float, alpha_level: float) -> Fraction:
    """``sqrt(v_n / alpha_level)`` in ``decimal`` at 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        return Fraction((Decimal(v_n) / Decimal(alpha_level)).sqrt())
