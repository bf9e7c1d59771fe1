"""Negative Binomial parameterizations, moments, MGFs, and sampling.

Every sampler of the package lives here, with the NB2 mapping: an NB2
``(mu, kappa)`` count is ``Poisson(Gamma(shape=1/kappa, scale=kappa*mu))``,
and ``Poisson(mu)`` at ``kappa == 0``. The order in which NB2 counts take
their draws from a stream is written once, in ``_nb2_sampler``:
:func:`sample_nb2` and every NB2 Monte Carlo experiment draw through it.
No other module calls a generator's ``gamma`` or ``poisson`` (a CI step
checks this). The centred NB cumulant behind :func:`nb_log_mgf` and the
Chernoff bound is likewise written once, in ``_nb_centred_cgf``, and no
other module calls ``expm1`` (checked by the same step).

Two NB parameterizations are supported with exact interconversion: the
classical ``(r, p)`` form (``r`` successes, success probability ``p``; ``r``
may be any positive real) and the GLM-standard NB2 form ``(mu, kappa)`` with
variance ``mu + kappa * mu**2`` and ``kappa = 1/r``. ``kappa = 0`` denotes
the Poisson limit, which is representable for variance bookkeeping but not
convertible to ``(r, p)``.

The shared-Gamma mixture model couples components through a latent rate:
``Lambda ~ Gamma(shape, rate)`` and, given ``Lambda``, component ``i`` is
``Poisson(Lambda * theta_i)`` independently. Marginally each component is
NB with real-valued shape, which is why sampling always goes through the
Gamma-Poisson hierarchy rather than a Bernoulli-trial counting scheme.

All Gamma parameters are shape-rate (mean = shape/rate); interfaces say
"rate" explicitly to avoid shape-scale confusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Sequence

from ._lazy import np
from .errors import DomainError, _require_nonnegative, _require_positive
from .rng import RngHandle, as_generator

__all__ = [
    "NBParams",
    "NB2Params",
    "GammaMixture",
    "nb_from_mu_kappa",
    "nb_log_mgf",
    "sample_nb",
    "sample_nb2",
    "sample_mixture_counts",
]


@dataclass(frozen=True)
class NBParams:
    """Negative Binomial in the ``(r, p)`` parameterization.

    ``r > 0`` (real-valued allowed), ``0 < p < 1``. Mean is
    ``r(1-p)/p`` and variance ``r(1-p)/p**2``, strictly larger than the
    mean.
    """

    r: float
    p: float

    def __post_init__(self):
        _require_positive("r", self.r)
        if not (0.0 < self.p < 1.0):
            raise DomainError("invalid-parameter", f"p must lie in (0, 1), got {self.p}")

    def mean(self) -> float:
        return self.r * (1.0 - self.p) / self.p

    def variance(self) -> float:
        r, p = self.r, self.p
        if _in_box(r, p):
            return r * (1.0 - p) / p**2
        return _product([r, 1.0 - p], [p, p])

    def overdispersion_index(self) -> float:
        """Variance over mean, ``1 + (1-p)/p`` (equivalently ``1/p``)."""
        return 1.0 + (1.0 - self.p) / self.p

    def to_nb2(self) -> "NB2Params":
        """Exact conversion to the NB2 ``(mu, kappa)`` form."""
        return NB2Params(mu=self.mean(), kappa=1.0 / self.r)


@dataclass(frozen=True)
class NB2Params:
    """Negative Binomial in the NB2 ``(mu, kappa)`` parameterization.

    ``mu > 0``; ``kappa >= 0`` with ``kappa == 0`` denoting the Poisson
    limit. Variance is ``mu + kappa * mu**2``.
    """

    mu: float
    kappa: float

    def __post_init__(self):
        _require_positive("mu", self.mu)
        _require_nonnegative("kappa", self.kappa)

    def mean(self) -> float:
        return self.mu

    def variance(self) -> float:
        if _in_box(self.mu, self.kappa):
            return self.mu + self.kappa * self.mu**2
        return self.mu + _product([self.kappa, self.mu, self.mu], [])


# The box: closed forms are evaluated as they read only while every input
# factor lies in [_BOX_LO, _BOX_HI], and otherwise by _product.
_BOX_LO = 2.0**-255
_BOX_HI = 2.0**255


def _in_box(*factors) -> bool:
    """Whether every factor lies in ``[_BOX_LO, _BOX_HI]`` (NaN does not)."""
    for value in factors:
        if not _BOX_LO <= value <= _BOX_HI:
            return False
    return True


def _product(numerators, denominators) -> float:
    """``prod(numerators) / prod(denominators)`` of positive floats.

    The binary exponents are summed apart from the mantissas, so no
    intermediate leaves the float range: the result is rounded once per
    factor and once more if it is subnormal, and is inf past the range.
    The box comes from Higham's standard model (*Accuracy and Stability of
    Numerical Algorithms*, SIAM 2002, section 2.2): up to four factors in it
    keep every intermediate in ``[2**-1020, 2**1020]``, so each operation
    but the last is correctly rounded in the normal range, and the last is
    correctly rounded, overflow to inf and gradual underflow included.
    """
    mantissa, exponent = 1.0, 0
    for value in numerators:
        m, e = math.frexp(value)
        mantissa, exponent = mantissa * m, exponent + e
    for value in denominators:
        m, e = math.frexp(value)
        mantissa, exponent = mantissa / m, exponent - e
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.inf


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


def _pairwise_sum(values: Sequence[float]) -> float:
    """``float(np.sum(np.asarray(values, dtype=float)))`` in plain floats.

    Mirrors numpy's float64 add-reduce over a contiguous array, so the bits
    match without loading numpy: fewer than 8 values add left to right
    from ``-0.0``; up to 128 keep eight running sums of every eighth value,
    combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, and add the rest
    left to right; longer runs split at ``n//2`` rounded down to a multiple
    of 8 and recurse on both halves. The reduction adds the result to
    ``0.0``. Python float addition overflows to ``inf`` without a warning.
    """
    values = [float(v) for v in values]

    def pairwise(lo: int, n: int) -> float:
        if n < 8:
            return reduce(add, values[lo:lo + n], -0.0)
        if n <= 128:
            end = lo + n - n % 8
            r = [reduce(add, values[lo + j:end:8]) for j in range(8)]
            total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
            return reduce(add, values[end:lo + n], total)
        half = n // 2 - (n // 2) % 8
        return pairwise(lo, half) + pairwise(lo + half, n - half)

    return 0.0 + pairwise(0, len(values))


def nb_from_mu_kappa(params: NB2Params) -> NBParams:
    """Invert NB2 to ``(r, p)``: ``r = 1/kappa``, ``p = 1/(1 + kappa*mu)``.

    Mean and variance are preserved exactly. The Poisson limit
    ``kappa == 0`` has no ``(r, p)`` representation and is rejected.
    """
    if params.kappa == 0.0:
        raise DomainError(
            "poisson-limit-not-representable",
            "kappa == 0 (Poisson limit) cannot be converted to (r, p) form",
        )
    return NBParams(r=1.0 / params.kappa, p=1.0 / (1.0 + params.kappa * params.mu))


@dataclass(frozen=True)
class GammaMixture:
    """Shared latent-rate model for positively correlated NB counts.

    ``Lambda ~ Gamma(gamma_shape, rate=gamma_rate)`` and, given ``Lambda``,
    component ``i`` is ``Poisson(Lambda * thetas[i])`` independently. Each
    marginal is ``NB(gamma_shape, gamma_rate/(gamma_rate + theta_i))``.
    All loadings must be strictly positive, and their total a finite float
    (else ``float-range``).

    The loading totals the mixture bounds read, ``total_theta()`` and
    ``max_prefix()``, are computed once, at construction, in plain floats:
    the total is :func:`_pairwise_sum`, bit for bit ``np.sum(thetas)``, and
    the largest prefix is the left-to-right :func:`_plain_sum`, which is what
    ``np.cumsum(thetas).max()`` gives for positive loadings. So neither
    construction nor the mixture bounds load numpy. The totals are plain
    attributes, not fields, so equality, hashing and ``repr`` see the three
    fields alone and ``dataclasses.replace`` recomputes them.
    """

    gamma_shape: float
    gamma_rate: float
    thetas: tuple[float, ...]

    def __init__(self, gamma_shape: float, gamma_rate: float, thetas: Sequence[float]):
        _require_positive("gamma_shape", gamma_shape)
        _require_positive("gamma_rate", gamma_rate)
        thetas = tuple(float(t) for t in thetas)
        if not thetas:
            raise DomainError("invalid-parameter", "thetas must be a nonempty sequence")
        for i, theta in enumerate(thetas):
            _require_positive(f"thetas[{i}]", theta)
        object.__setattr__(self, "gamma_shape", float(gamma_shape))
        object.__setattr__(self, "gamma_rate", float(gamma_rate))
        object.__setattr__(self, "thetas", thetas)
        total_theta, max_prefix = _pairwise_sum(thetas), _plain_sum(thetas)
        if not (math.isfinite(total_theta) and math.isfinite(max_prefix)):
            raise DomainError(
                "float-range", "the total of the loadings is outside the floating-point range"
            )
        object.__setattr__(self, "_total_theta", total_theta)
        object.__setattr__(self, "_max_prefix", max_prefix)

    @property
    def n(self) -> int:
        return len(self.thetas)

    def prefix_sums(self) -> np.ndarray:
        """Cumulative loadings, strictly increasing since thetas > 0."""
        return np.cumsum(self.thetas)

    def total_theta(self) -> float:
        return self._total_theta

    def max_prefix(self) -> float:
        """Largest prefix sum; equals the total because loadings are positive."""
        return self._max_prefix

    def marginal(self, i: int) -> NBParams:
        theta = self.thetas[i]
        return NBParams(r=self.gamma_shape, p=self.gamma_rate / (self.gamma_rate + theta))

    def marginal_mean(self, i: int) -> float:
        return self.gamma_shape * self.thetas[i] / self.gamma_rate

    def marginal_variance(self, i: int) -> float:
        shape, rate, theta = self.gamma_shape, self.gamma_rate, self.thetas[i]
        if _in_box(shape, rate, theta):
            return shape * theta * (rate + theta) / rate**2
        return _product([shape, theta, rate + theta], [rate, rate])

    def marginal_means(self) -> np.ndarray:
        return self.gamma_shape * np.asarray(self.thetas) / self.gamma_rate

    def correlation(self, i: int, j: int) -> float:
        """Pairwise count correlation induced by the shared rate; in (0, 1)."""
        if i == j:
            return 1.0
        ti, tj = self.thetas[i], self.thetas[j]
        return math.sqrt(ti * tj) / math.sqrt((self.gamma_rate + ti) * (self.gamma_rate + tj))


def nb_log_mgf(params: NBParams, t: float) -> float:
    """Log moment-generating function of NB(r, p) at ``t < -log(1-p)``.

    ``K(t) + t*mean`` for ``t >= 0``, with ``K`` from :func:`_nb_centred_cgf`:
    two nonnegative terms, accurate for any ``r`` up to the domain's end.
    Below 0 they would cancel, so it is ``-r log(1 - x)``, ``x = (1-p) expm1(t) / p``:
    by ``log1p`` while ``x > -1``, beyond as ``r (log p - log(1 - (1-p) e^t))``.
    """
    r, p = params.r, params.p
    if not t < -math.log1p(-p):  # also NaN
        raise DomainError(
            "mgf-domain-exceeded",
            f"t = {t} is outside the MGF domain t < {-math.log1p(-p)}",
        )
    if t < 0.0:
        x = (1.0 - p) * math.expm1(t) / p  # may be -inf for a subnormal p
        if x > -1.0:
            return -r * math.log1p(-x)
        return r * (math.log(p) - math.log(-math.expm1(t + math.log1p(-p))))
    # t * mean, ordered so that a mean past the float range cannot overflow it
    return _nb_centred_cgf(r, p, t)[0] + r * ((1.0 - p) * t / p)


def _log1p_excess(x: float, log_ratio: float) -> float:
    """``-log1p(-x) - x``, given ``log_ratio = -log1p(-x)``. From ``|x| = 2**-4``
    on it is their difference, within 2**-47 relative; below, it is
    ``u (x + 2 u**2 S(u**2))``, ``u = x/(2 - x)``, ``S(v) = sum v**k/(2k + 3)``
    to five terms, within 2**-57 (the form of R's ``log1pmx``)."""
    if abs(x) >= 2.0**-4:
        return log_ratio - x
    u = x / (2.0 - x)
    v = u * u
    return u * (x + 2.0 * v * (1 / 3 + v * (1 / 5 + v * (1 / 7 + v * (1 / 9 + v / 11)))))


def _nb_centred_cgf(r: float, p: float, t: float) -> tuple[float, float, float]:
    """``(K(t), K'(t), K''(t))`` of ``K(t) = log E exp(t (X - mean))``, X ~ NB(r, p).

    For ``t < -log1p(-p)`` (unchecked). With ``q = 1 - p`` and
    ``x = q expm1(t) / p`` the MGF is ``(1 - x)**-r``, so
    ``K = r (-log1p(-x) - x) + mean (expm1(t) - t)``: two nonnegative
    excesses (the second is the first at ``-expm1(t)``), neither cancelling.
    ``K' = r x / w`` and ``K'' = r q e**t / w**2`` with ``w = p (1 - x) =
    -expm1(t + log1p(-p))``, positive for every float ``t`` in the domain;
    near the domain's end ``-log1p(-x)`` is taken as ``log(p / w)``.
    """
    q = 1.0 - p
    em1 = math.expm1(t)
    x = q * em1 / p
    w = -math.expm1(t + math.log1p(-p))
    excess_x = _log1p_excess(x, math.log(p / w) if x >= 0.5 else -math.log1p(-x))
    excess_t = _log1p_excess(-em1, -t)
    return r * excess_x + r * (q * excess_t / p), r * x / w, r * q * math.exp(t) / w / w


def sample_nb(
    params: NBParams,
    rng: RngHandle | np.random.Generator,
    size: int | None = None,
):
    """Draw from NB(r, p) through the Gamma-Poisson hierarchy.

    ``G ~ Gamma(shape=r, rate=p/(1-p))`` then ``X | G ~ Poisson(G)``, which
    is exact for real-valued ``r``. With ``size=None`` returns a single
    integer; otherwise an integer array. Passing an ``RngHandle`` draws the
    leading elements of that stream.
    """
    gen = as_generator(rng)
    scale = (1.0 - params.p) / params.p  # 1/rate
    g = gen.gamma(params.r, scale, size=size)
    draw = gen.poisson(g, size=size)
    return int(draw) if size is None else draw


def sample_nb2(
    params: NB2Params,
    rng: RngHandle | np.random.Generator,
    size: int | None = None,
):
    """Draw from NB2(mu, kappa) through :func:`_nb2_sampler`, so ``size``
    draws are what the Monte Carlo kernel draws for ``size`` copies of
    ``params``. With ``size=None`` returns a single integer; otherwise an
    integer array."""
    k = 1 if size is None else size
    draw = _nb2_sampler(np.full(k, params.mu), np.full(k, params.kappa))(as_generator(rng))
    return int(draw[0]) if size is None else np.asarray(draw).reshape(k)


# Fewest gamma Poissons worth one array call. numpy checks an array of means
# in Python (two ``np.all`` calls, about 5.5 us per call) and a scalar mean
# in C. On a 2-vCPU host one array call of 12 means took 7.7 us and 12
# scalar calls 5.7 us; at 20 means the array call was faster (7.9 us
# against 9.1 us). Both draw the same integers.
_MIN_POISSON_ARRAY = 16


def _scalar_if_constant(values: np.ndarray):
    """``values`` as one float when all its entries are equal, else unchanged.

    numpy draws entry ``i`` with the same routine and parameters either
    way, so the draws are identical; a scalar parameter skips the checks
    numpy runs in Python on every array parameter of every call.
    """
    return float(values[0]) if values.size and (values == values[0]).all() else values


def _nb2_sampler(mus: np.ndarray, kappas: np.ndarray):
    """``draw(gen)``: one NB2 count per entry of the float arrays ``mus``
    and ``kappas``, in their order.

    All gammas are drawn first, then their Poissons, then the Poissons of
    the ``kappa == 0`` entries in one call. That order defines the
    stream-to-draw mapping, so per-entry :func:`sample_nb2` calls would not
    reproduce more than one entry. The counts come as an integer array or a
    list of ints, or as a float array when ``kappa == 0`` entries sit beside
    ``kappa > 0`` ones.
    """
    over = kappas > 0.0
    n_over = int(np.count_nonzero(over))
    n_poisson = over.size - n_over
    shape = _scalar_if_constant(1.0 / kappas[over])
    scale = _scalar_if_constant((kappas * mus)[over])
    mu = _scalar_if_constant(mus[~over])

    def gamma_poisson(gen: np.random.Generator):
        rates = gen.gamma(shape, scale, size=n_over)
        if n_over < _MIN_POISSON_ARRAY:
            return [gen.poisson(rate) for rate in rates.tolist()]
        return gen.poisson(rates)

    if not n_poisson:
        return gamma_poisson
    if not n_over:
        return lambda gen: gen.poisson(mu, size=n_poisson)

    def draw(gen: np.random.Generator) -> np.ndarray:
        counts = np.zeros(over.size)
        counts[over] = gamma_poisson(gen)
        counts[~over] = gen.poisson(mu, size=n_poisson)
        return counts

    return draw


def sample_mixture_counts(
    model: GammaMixture,
    rng: RngHandle | np.random.Generator,
    size: int | None = None,
):
    """Draw the latent rate and the conditionally independent counts.

    Returns ``(lambda_draw, counts)``. With ``size=None``, ``lambda_draw``
    is a float and ``counts`` an integer array of length ``model.n``; with
    ``size=k`` they have shapes ``(k,)`` and ``(k, n)``. The latent draw is
    returned so downstream analyses can correlate it with realized
    deviations.
    """
    gen = as_generator(rng)
    thetas = np.asarray(model.thetas)
    lam = gen.gamma(model.gamma_shape, 1.0 / model.gamma_rate, size=size)
    if size is None:
        counts = gen.poisson(lam * thetas)
        return float(lam), counts
    counts = gen.poisson(np.asarray(lam)[:, None] * thetas[None, :])
    return lam, counts
