import dataclasses
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import stats

from nbbounds import (
    DomainError,
    GammaMixture,
    NB2Params,
    NBParams,
    RngHandle,
    nb_from_mu_kappa,
    nb_log_mgf,
    sample_mixture_counts,
    sample_nb,
    sample_nb2,
)
from nbbounds.distributions import _MIN_POISSON_ARRAY, _nb2_sampler

from helpers import quad_mixture_pmf


class TestNBParams:
    def test_moments(self):
        q = NBParams(3, 0.3)
        assert q.mean() == pytest.approx(7.0)
        assert q.variance() == pytest.approx(70.0 / 3.0)
        assert q.variance() > q.mean()

    @pytest.mark.parametrize("r,p", [(0, 0.5), (-1, 0.5), (3, 0.0), (3, 1.0), (3, 1.5)])
    def test_rejects_invalid(self, r, p):
        with pytest.raises(DomainError):
            NBParams(r, p)

    def test_overdispersion_identity_random_points(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            q = NBParams(rng.uniform(0.1, 50.0), rng.uniform(0.01, 0.99))
            assert q.variance() / q.mean() == pytest.approx(
                q.overdispersion_index(), rel=1e-12
            )
            assert q.overdispersion_index() == pytest.approx(1.0 / q.p, rel=1e-12)

    def test_tweedie_mean_variance_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            q = NBParams(rng.uniform(0.1, 50.0), rng.uniform(0.01, 0.99))
            nb2 = q.to_nb2()
            assert nb2.variance() == pytest.approx(nb2.mu + nb2.mu**2 / q.r, rel=1e-12)


class TestNB2Params:
    def test_poisson_limit_variance(self):
        q = NB2Params(5.0, 0.0)
        assert q.variance() == 5.0

    def test_rejects_invalid(self):
        with pytest.raises(DomainError):
            NB2Params(0.0, 0.1)
        with pytest.raises(DomainError):
            NB2Params(5.0, -0.1)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            q = NB2Params(rng.uniform(0.1, 100.0), rng.uniform(1e-4, 5.0))
            back = nb_from_mu_kappa(q).to_nb2()
            assert back.mu == pytest.approx(q.mu, rel=1e-12)
            assert back.kappa == pytest.approx(q.kappa, rel=1e-12)


class TestConversion:
    def test_known_inversions(self):
        q = nb_from_mu_kappa(NB2Params(7.0, 1.0 / 3.0))
        assert q.r == pytest.approx(3.0)
        assert q.p == pytest.approx(0.3)
        q = nb_from_mu_kappa(NB2Params(5.0, 0.2))
        assert q.r == pytest.approx(5.0)
        assert q.p == pytest.approx(0.5)

    def test_moment_preserving_inversion(self):
        # mu quoted to 6 digits; verify through the mean/variance identity
        src = NB2Params(3.42857, 0.125)
        q = nb_from_mu_kappa(src)
        assert q.r == pytest.approx(8.0, rel=1e-6)
        assert q.p == pytest.approx(0.7, rel=1e-4)
        assert q.mean() == pytest.approx(src.mean(), rel=1e-6)
        assert q.variance() == pytest.approx(src.variance(), rel=1e-6)

    def test_poisson_limit_not_representable(self):
        with pytest.raises(DomainError, match="poisson-limit-not-representable"):
            nb_from_mu_kappa(NB2Params(5.0, 0.0))


class TestLogMgf:
    def test_zero_at_origin(self):
        assert nb_log_mgf(NBParams(3, 0.3), 0.0) == 0.0
        assert nb_log_mgf(NBParams(17.5, 0.9), 0.0) == 0.0

    def test_matches_series_oracle(self):
        # sum_k e^{tk} pmf(k) truncated to tail mass < 1e-14, frozen value
        assert math.exp(nb_log_mgf(NBParams(3, 0.3), 0.1)) == pytest.approx(
            2.32727412384621, rel=1e-10
        )

    @pytest.mark.parametrize(
        "r, p, t",
        [
            (1e20, 0.5, 1e-10),  # no r * log(p) term may cancel in the result
            (3.0, 0.3, 0.9 * -math.log1p(-0.3)),
            (3.0, 0.3, -1e-9),
            (3.0, 0.3, -1e6),
            (3.0, 0.3, -math.inf),  # r log p, the log of P(X = 0)
            (1e300, 1e-10, -1.0),  # t * mean is past the float range
            (1.0, 1e-320, -1.0),  # (1-p) expm1(t) / p is past it
        ],
    )
    def test_matches_decimal(self, r, p, t):
        with localcontext() as ctx:
            ctx.prec = 60
            growth = Decimal(t).exp() - 1
            exact = -Decimal(r) * (1 - (1 - Decimal(p)) * growth / Decimal(p)).ln()
        assert nb_log_mgf(NBParams(r, p), t) == pytest.approx(float(exact), rel=1e-14, abs=0.0)

    def test_derivative_at_zero_is_mean(self):
        q = NBParams(3, 0.3)
        h = 1e-6
        derivative = (nb_log_mgf(q, h) - nb_log_mgf(q, -h)) / (2 * h)
        assert derivative == pytest.approx(q.mean(), rel=1e-4)

    def test_domain_error_at_boundary(self):
        q = NBParams(2, 0.4)
        t_max = -math.log1p(-q.p)
        with pytest.raises(DomainError, match="mgf-domain-exceeded"):
            nb_log_mgf(q, t_max)
        with pytest.raises(DomainError, match="mgf-domain-exceeded"):
            nb_log_mgf(q, t_max + 1.0)
        with pytest.raises(DomainError, match="mgf-domain-exceeded"):
            nb_log_mgf(q, math.nan)

    def test_diverges_monotonically_at_boundary(self):
        q = NBParams(2.5, 0.35)
        t_max = -math.log1p(-q.p)
        values = [nb_log_mgf(q, (1.0 - 10.0**-k) * t_max) for k in range(1, 11)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 50.0


class TestGammaMixture:
    def test_prefix_sums_and_max(self):
        m = GammaMixture(4, 4, [7, 5, 24 / 7])
        np.testing.assert_allclose(m.prefix_sums(), [7, 12, 12 + 24 / 7])
        assert m.max_prefix() == pytest.approx(m.total_theta())
        assert np.all(np.diff(m.prefix_sums()) > 0)

    def test_stored_totals_are_not_fields(self):
        m = GammaMixture(4, 4, [7, 5, 24 / 7])
        assert [f.name for f in dataclasses.fields(m)] == ["gamma_shape", "gamma_rate", "thetas"]
        twin = GammaMixture(4.0, 4.0, (7.0, 5.0, 24 / 7))
        assert m == twin and hash(m) == hash(twin)
        assert repr(m) == f"GammaMixture(gamma_shape=4.0, gamma_rate=4.0, thetas=(7.0, 5.0, {24 / 7!r}))"
        shorter = dataclasses.replace(m, thetas=(1.0, 2.0))
        assert (shorter.total_theta(), shorter.max_prefix()) == (3.0, 3.0)
        assert m.prefix_sums() is not m.prefix_sums()

    def test_marginals(self):
        m = GammaMixture(4, 4, [7, 5])
        q = m.marginal(0)
        assert q.r == 4
        assert q.p == pytest.approx(4 / 11)
        assert m.marginal_mean(0) == pytest.approx(7.0)
        assert m.marginal_variance(0) == pytest.approx(4 * 7 * 11 / 16)
        assert q.mean() == pytest.approx(m.marginal_mean(0), rel=1e-12)
        assert q.variance() == pytest.approx(m.marginal_variance(0), rel=1e-12)

    def test_correlation_formula(self):
        m = GammaMixture(4, 4, [7, 5])
        expected = math.sqrt(35) / math.sqrt(11 * 9)
        assert m.correlation(0, 1) == pytest.approx(expected, rel=1e-12)
        assert 0 < m.correlation(0, 1) < 1
        assert m.correlation(1, 1) == 1.0

    def test_rejects_nonpositive_theta(self):
        with pytest.raises(DomainError):
            GammaMixture(4, 4, [7, 0.0])
        with pytest.raises(DomainError):
            GammaMixture(4, 4, [])
        for bad in (0.0, -1.0, math.nan, math.inf):
            for name, args in (("gamma_shape", (bad, 4)), ("gamma_rate", (4, bad))):
                message = f"^invalid-parameter: {name} must be a positive real, got {bad}$"
                with pytest.raises(DomainError, match=message):
                    GammaMixture(*args, [7])

    def test_marginal_law_matches_quadrature(self):
        # exact NB pmf vs numerically integrated Poisson-Gamma mixture
        rng = np.random.default_rng(14)
        for _ in range(20):
            alpha = rng.uniform(0.5, 10.0)
            beta = rng.uniform(0.3, 8.0)
            theta = rng.uniform(0.3, 15.0)
            m = GammaMixture(alpha, beta, [theta])
            q = m.marginal(0)
            for k in range(0, 51, 10):
                exact = stats.nbinom.pmf(k, q.r, q.p)
                assert abs(exact - quad_mixture_pmf(k, alpha, beta, theta)) < 1e-8


class _RecordingGenerator:
    """A generator that records the arguments of its ``gamma`` calls."""

    def __init__(self):
        self._gen = RngHandle(0).generator()
        self.gamma_calls = []

    def gamma(self, shape, scale, size=None):
        self.gamma_calls.append((shape, scale, size))
        return self._gen.gamma(shape, scale, size=size)

    def poisson(self, lam, size=None):
        return self._gen.poisson(lam, size=size)


class TestSampling:
    def test_sample_nb_moments(self):
        draws = sample_nb(NBParams(3, 0.3), RngHandle(42, 0), size=10**6)
        assert abs(draws.mean() - 7.0) < 0.05
        draws = sample_nb(NBParams(5, 0.5), RngHandle(42, 1), size=10**6)
        assert abs(draws.var(ddof=1) - 10.0) < 0.3

    def test_geometric_special_case(self):
        # r = 1 makes pmf(0) = p
        draws = sample_nb(NBParams(1, 0.37), RngHandle(42, 2), size=10**6)
        assert abs(np.mean(draws == 0) - 0.37) < 0.003

    def test_scalar_draw(self):
        value = sample_nb(NBParams(3, 0.3), RngHandle(7, 0))
        assert isinstance(value, int)
        assert value >= 0

    def test_sample_nb2_poisson_limit(self):
        draws = sample_nb2(NB2Params(5.0, 0.0), RngHandle(42, 3), size=10**5)
        assert abs(draws.mean() - 5.0) < 0.05
        assert abs(draws.var(ddof=1) - 5.0) < 0.15

    def test_sample_nb2_matches_conversion(self):
        # sample_nb2 and sample_nb(nb_from_mu_kappa(.)) pass numpy Gamma scales
        # that may differ by one ulp (they do for NB2(290, 0.4)), so they agree
        # in distribution, not draw for draw: the sample moments must match
        # mu and mu + kappa*mu**2, the converted NB's moments, within 6
        # standard errors
        n = 10**6
        for nb2 in (NB2Params(7.0, 1.0 / 3.0), NB2Params(290.0, 0.4)):
            draws = sample_nb2(nb2, RngHandle(5, 1), size=n)
            q = nb_from_mu_kappa(nb2)
            mean, var = nb2.mu, nb2.mu + nb2.kappa * nb2.mu**2
            assert q.mean() == pytest.approx(mean, rel=1e-12)
            assert q.variance() == pytest.approx(var, rel=1e-12)
            # var(sample variance) ~ var**2 * (excess kurtosis + 2) / n
            excess_kurtosis = 6.0 / q.r + q.p**2 / (q.r * (1.0 - q.p))
            assert abs(draws.mean() - mean) < 6.0 * math.sqrt(var / n)
            assert abs(draws.var(ddof=1) - var) < (
                6.0 * var * math.sqrt((excess_kurtosis + 2.0) / n)
            )

    @pytest.mark.parametrize(
        "nb2", [NB2Params(5.0, 0.25), NB2Params(290.0, 0.4), NB2Params(5.0, 0.0)]
    )
    def test_sample_nb2_equals_replication_sampler_row(self, nb2):
        # one mapping: n draws of sample_nb2 are the row the Monte Carlo
        # kernel draws for n copies of the variable, gamma parameters included;
        # n runs on both sides of the Poisson array crossover
        for n in (1, 12, _MIN_POISSON_ARRAY - 1, _MIN_POISSON_ARRAY, 40):
            draw = _nb2_sampler(np.full(n, nb2.mu), np.full(n, nb2.kappa))
            for i in range(3):
                row = draw(RngHandle(42, i).generator())
                got = sample_nb2(nb2, RngHandle(42, i), size=n)
                assert got.shape == (n,) and got.dtype.kind == "i"
                np.testing.assert_array_equal(got, row)
            public, kernel = _RecordingGenerator(), _RecordingGenerator()
            sample_nb2(nb2, public, size=n)
            draw(kernel)
            assert public.gamma_calls == kernel.gamma_calls
        # size=None draws the row of n = 1 as a plain int: one scalar gamma
        # (none at kappa == 0), then one scalar Poisson
        for i in range(3):
            one = sample_nb2(nb2, RngHandle(42, i))
            gen = RngHandle(42, i).generator()
            rate = gen.gamma(1.0 / nb2.kappa, nb2.kappa * nb2.mu) if nb2.kappa else nb2.mu
            assert type(one) is int
            assert one == gen.poisson(rate)

    def test_determinism(self):
        h = RngHandle(123, 9)
        a = sample_nb(NBParams(2.5, 0.4), h, size=1000)
        b = sample_nb(NBParams(2.5, 0.4), h, size=1000)
        np.testing.assert_array_equal(a, b)
        assert a.tobytes() == b.tobytes()

    def test_streams_differ(self):
        a = sample_nb(NBParams(2.5, 0.4), RngHandle(123, 0), size=1000)
        b = sample_nb(NBParams(2.5, 0.4), RngHandle(123, 1), size=1000)
        assert not np.array_equal(a, b)


class TestMixtureSampling:
    def test_returns_lambda_and_counts(self):
        lam, counts = sample_mixture_counts(GammaMixture(4, 4, [7, 5]), RngHandle(1, 0))
        assert lam > 0
        assert counts.shape == (2,)

    def test_empirical_correlation(self):
        model = GammaMixture(4, 4, [7, 5])
        _, counts = sample_mixture_counts(model, RngHandle(42, 3), size=10**5)
        empirical = np.corrcoef(counts[:, 0], counts[:, 1])[0, 1]
        assert abs(empirical - model.correlation(0, 1)) < 0.01

    def test_marginal_goodness_of_fit(self):
        # chi-square against the exact NB marginal, binned with tail pooled
        model = GammaMixture(4, 4, [7, 5])
        _, counts = sample_mixture_counts(model, RngHandle(42, 4), size=10**5)
        draws = counts[:, 0]
        q = model.marginal(0)
        k_max = int(stats.nbinom.isf(1e-6, q.r, q.p))
        edges = np.arange(k_max + 1)
        expected = stats.nbinom.pmf(edges, q.r, q.p) * draws.size
        observed = np.bincount(draws.astype(int), minlength=k_max + 1)[: k_max + 1]
        keep = expected >= 5.0
        observed_pooled = np.append(observed[keep], observed[~keep].sum())
        expected_pooled = np.append(expected[keep], expected[~keep].sum())
        expected_pooled *= observed_pooled.sum() / expected_pooled.sum()
        _, p_value = stats.chisquare(observed_pooled, expected_pooled)
        assert p_value > 0.001

    def test_conditional_means_track_lambda(self):
        model = GammaMixture(4, 4, [7, 5])
        lam, counts = sample_mixture_counts(model, RngHandle(42, 5), size=10**5)
        big = lam > np.quantile(lam, 0.9)
        small = lam < np.quantile(lam, 0.1)
        assert counts[big, 0].mean() > counts[small, 0].mean()
