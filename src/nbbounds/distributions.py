"""Negative Binomial parameterizations, moments, MGFs, and sampling.

Every sampler of the package lives here, with the NB2 mapping: an NB2
``(mu, kappa)`` count is ``Poisson(Gamma(shape=1/kappa, scale=kappa*mu))``,
and ``Poisson(mu)`` at ``kappa == 0``. No other module calls a generator's
``gamma`` or ``poisson``.

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
from typing import Sequence

from ._lazy import np
from .errors import DomainError
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
        if not (self.r > 0 and math.isfinite(self.r)):
            raise DomainError("invalid-parameter", f"r must be a positive real, got {self.r}")
        if not (0.0 < self.p < 1.0):
            raise DomainError("invalid-parameter", f"p must lie in (0, 1), got {self.p}")

    def mean(self) -> float:
        return self.r * (1.0 - self.p) / self.p

    def variance(self) -> float:
        return self.r * (1.0 - self.p) / self.p**2

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
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise DomainError("invalid-parameter", f"mu must be a positive real, got {self.mu}")
        if not (self.kappa >= 0 and math.isfinite(self.kappa)):
            raise DomainError("invalid-parameter", f"kappa must be nonnegative, got {self.kappa}")

    def mean(self) -> float:
        return self.mu

    def variance(self) -> float:
        return self.mu + self.kappa * self.mu**2


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
    All loadings must be strictly positive.

    The loading totals the mixture bounds read, ``total_theta()`` and
    ``max_prefix()``, are computed once, at construction. They are plain
    attributes, not fields, so equality, hashing and ``repr`` see the three
    fields alone and ``dataclasses.replace`` recomputes them.
    """

    gamma_shape: float
    gamma_rate: float
    thetas: tuple[float, ...]

    def __init__(self, gamma_shape: float, gamma_rate: float, thetas: Sequence[float]):
        if not (gamma_shape > 0 and math.isfinite(gamma_shape)):
            raise DomainError("invalid-parameter", f"gamma_shape must be positive, got {gamma_shape}")
        if not (gamma_rate > 0 and math.isfinite(gamma_rate)):
            raise DomainError("invalid-parameter", f"gamma_rate must be positive, got {gamma_rate}")
        thetas = tuple(float(t) for t in thetas)
        if not thetas:
            raise DomainError("invalid-parameter", "thetas must be a nonempty sequence")
        if any(not (t > 0 and math.isfinite(t)) for t in thetas):
            raise DomainError("invalid-parameter", "every theta must be a positive real")
        object.__setattr__(self, "gamma_shape", float(gamma_shape))
        object.__setattr__(self, "gamma_rate", float(gamma_rate))
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "_total_theta", float(np.sum(thetas)))
        object.__setattr__(self, "_max_prefix", float(np.cumsum(thetas).max()))

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
        theta = self.thetas[i]
        return self.gamma_shape * theta * (self.gamma_rate + theta) / self.gamma_rate**2

    def marginal_means(self) -> np.ndarray:
        return self.gamma_shape * np.asarray(self.thetas) / self.gamma_rate

    def correlation(self, i: int, j: int) -> float:
        """Pairwise count correlation induced by the shared rate; in (0, 1)."""
        if i == j:
            return 1.0
        ti, tj = self.thetas[i], self.thetas[j]
        return math.sqrt(ti * tj) / math.sqrt((self.gamma_rate + ti) * (self.gamma_rate + tj))


def nb_log_mgf(params: NBParams, t: float) -> float:
    """Log moment-generating function of NB(r, p) at ``t``.

    Valid for ``t < -log(1-p)``; returns ``r*(log p - log(1 - (1-p)*e^t))``
    computed in the log domain so that ``r`` in the thousands cannot
    overflow and values remain accurate arbitrarily close to the domain
    boundary.
    """
    log_q = math.log1p(-params.p)  # log(1-p), so t_max = -log_q
    if t >= -log_q:
        raise DomainError(
            "mgf-domain-exceeded",
            f"t = {t} is outside the MGF domain t < {-log_q}",
        )
    # 1 - (1-p) e^t = -expm1(t + log(1-p)), stable near the boundary
    return params.r * (math.log(params.p) - math.log(-math.expm1(t + log_q)))


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
    """Draw from NB2(mu, kappa): ``size`` draws equal the row that
    :func:`_nb2_replication_sampler` draws for ``size`` copies of ``params``."""
    gen = as_generator(rng)
    rate = params.mu  # the Poisson limit, kappa == 0
    if params.kappa > 0.0:
        rate = gen.gamma(1.0 / params.kappa, params.kappa * params.mu, size=size)
    draw = gen.poisson(rate, size=size)
    return int(draw) if size is None else draw


def _scalar_if_constant(values: np.ndarray):
    """``values`` as one float when all its entries are equal, else unchanged.

    numpy draws entry ``i`` with the same routine and parameters either
    way, so the draws are identical; a scalar parameter skips the checks
    numpy runs in Python on every array parameter of every call.
    """
    return float(values[0]) if values.size and np.all(values == values[0]) else values


def _nb2_replication_sampler(params: Sequence[NB2Params]):
    """Per-replication sampler drawing one count per NB2 variable.

    Gamma-Poisson pairs for overdispersed variables, plain Poisson for the
    kappa == 0 limit. All gammas are drawn before all Poissons; that order
    defines the stream-to-draw mapping, so per-variable ``sample_nb2`` calls
    would not reproduce it for a design of more than one variable.
    """
    kappas = np.array([q.kappa for q in params])
    mus = np.array([q.mu for q in params])
    over = kappas > 0.0
    n_over, n_poisson = int(over.sum()), int((~over).sum())
    shape_over = _scalar_if_constant(1.0 / kappas[over])
    scale_over = _scalar_if_constant((kappas * mus)[over])
    mu_poisson = _scalar_if_constant(mus[~over])

    def draw(gen: np.random.Generator) -> np.ndarray:
        counts = np.zeros(len(params))
        if n_over:
            g = gen.gamma(shape_over, scale_over, size=n_over)
            counts[over] = gen.poisson(g)
        if n_poisson:
            counts[~over] = gen.poisson(mu_poisson, size=n_poisson)
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
