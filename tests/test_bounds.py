import math

import numpy as np
import pytest

from nbbounds import (
    DomainError,
    GammaMixture,
    NB2Params,
    NBParams,
    bernstein_dependent_bound,
    build_moment_matched_design,
    chernoff_mean_deviation_bound,
    control_limit,
    dependent_kolmogorov_bound,
    exact_max_deviation_tail_oracle,
    exact_mean_deviation_tail,
    invert_bound,
    kolmogorov_independent_bound,
    nb_log_mgf,
    tweedie_variance,
)
from nbbounds import bounds as bounds_module

from helpers import mc_max_deviation_tail, scipy_truncated_nb_pmf


@pytest.fixture(scope="module")
def design():
    return build_moment_matched_design()


def _random_nb_set(rng, n_max=5):
    n = int(rng.integers(1, n_max + 1))
    return [
        NBParams(rng.uniform(0.5, 8.0), rng.uniform(0.15, 0.9)) for _ in range(n)
    ]


class TestChernoff:
    def test_degenerate_deviation_approaches_one(self):
        result = chernoff_mean_deviation_bound([NBParams(2, 0.5)] * 3, 1e-12)
        assert result.bound_value == pytest.approx(1.0, abs=1e-9)

    def test_dominates_exact_tail_dp(self):
        params = [NBParams(2, 0.5)] * 3
        result = chernoff_mean_deviation_bound(params, 1.0)
        exact = exact_mean_deviation_tail(params, 1.0)
        assert exact.value <= result.bound_value < 1.0

    def test_reported_t_star_reproduces_bound(self):
        q = NBParams(3, 0.3)
        result = chernoff_mean_deviation_bound([q], 5.0)
        t = result.optimizer.t_star
        re_evaluated = math.exp(-t * 5.0 - t * q.mean() + nb_log_mgf(q, t))
        assert result.bound_value == pytest.approx(re_evaluated, rel=1e-12)
        assert result.optimizer.converged

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            chernoff_mean_deviation_bound([], 1.0)
        with pytest.raises(DomainError):
            chernoff_mean_deviation_bound([NBParams(2, 0.5)], 0.0)

    def test_log_objective_convex_and_stationary(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            params = _random_nb_set(rng)
            n = len(params)
            total_mean = sum(q.mean() for q in params)
            a = rng.uniform(0.05, 3.0)
            t_max = -math.log1p(-min(q.p for q in params))

            def objective(t):
                return -t * n * a - t * total_mean + sum(nb_log_mgf(q, t) for q in params)

            grid = np.linspace(1e-6 * t_max, (1 - 1e-6) * t_max, 1000)
            values = np.array([objective(t) for t in grid])
            second_diff = values[2:] - 2 * values[1:-1] + values[:-2]
            scale = np.abs(values).max() + 1.0
            assert second_diff.min() >= -1e-9 * scale

            result = chernoff_mean_deviation_bound(params, a)
            t_star = result.optimizer.t_star
            h = 1e-6 * t_max
            if h < t_star < t_max - h:
                derivative = (objective(t_star + h) - objective(t_star - h)) / (2 * h)
                boundary = t_star < 1e-8 * t_max or t_star > (1 - 1e-8) * t_max
                assert abs(derivative) < 1e-6 or boundary

    def test_monotone_in_a(self):
        params = [NBParams(3, 0.3), NBParams(5, 0.5)]
        grid = np.linspace(0.01, 20.0, 1000)
        values = [chernoff_mean_deviation_bound(params, a).bound_value for a in grid]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestTweedieVariance:
    def test_design_value(self, design):
        v = tweedie_variance([q.to_nb2() for q in design.independent])
        assert v == pytest.approx(262.7210884353741, rel=1e-12)

    def test_epi_cumulative_value(self):
        mus = (210.0, 340.0, 290.0, 480.0, 380.0)
        kappas = (0.35, 0.25, 0.40, 0.20, 0.30)
        params = [NB2Params(mu, k) for mu, k in zip(mus, kappas)] * 12
        assert tweedie_variance(params) == pytest.approx(2_028_900.0, rel=1e-12)

    def test_poisson_component(self):
        assert tweedie_variance([NB2Params(5.0, 0.0)]) == 5.0

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            tweedie_variance([])


class TestControlLimit:
    def test_design_limit(self, design):
        v = tweedie_variance([q.to_nb2() for q in design.independent])
        assert control_limit(v, 0.05) == pytest.approx(72.49, abs=0.01)

    def test_epi_limits(self):
        assert control_limit(2_028_900.0, 0.05) == pytest.approx(6370.0, abs=1.0)
        assert control_limit(2_028_900.0, 0.01) == pytest.approx(14_244.0, abs=1.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            control_limit(0.0, 0.05)
        with pytest.raises(DomainError):
            control_limit(10.0, 0.0)
        with pytest.raises(DomainError):
            control_limit(10.0, 1.0)


class TestKolmogorovIndependent:
    def test_design_bound_at_threshold(self, design):
        result = kolmogorov_independent_bound(design.independent, 72.49)
        assert result.bound_value == pytest.approx(0.05, abs=1e-3)

    def test_monotone_decay_to_zero(self, design):
        grid = np.logspace(0, 6, 1000)
        values = [kolmogorov_independent_bound(design.independent, lam).bound_value for lam in grid]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-9

    def test_clamped_at_one(self):
        result = kolmogorov_independent_bound([NBParams(3, 0.3)], 0.01)
        assert result.bound_value == 1.0
        assert result.raw_value > 1.0

    def test_rejects_nonpositive_lambda(self, design):
        with pytest.raises(DomainError):
            kolmogorov_independent_bound(design.independent, 0.0)


class TestDependentKolmogorov:
    def test_design_bound_at_threshold(self, design):
        result = dependent_kolmogorov_bound(design.mixture, 476.52)
        assert result.bound_value == pytest.approx(0.05, abs=1e-3)

    def test_components_sum(self, design):
        result = dependent_kolmogorov_bound(design.mixture, 1000.0)
        cond, mix = result.components
        assert result.raw_value == pytest.approx(cond + mix, rel=1e-14)
        assert result.bound_value == min(1.0, cond + mix)

    def test_doubling_lambda_quarters_raw(self, design):
        a = dependent_kolmogorov_bound(design.mixture, 900.0).raw_value
        b = dependent_kolmogorov_bound(design.mixture, 1800.0).raw_value
        assert b == pytest.approx(a / 4.0, rel=1e-12)

    def test_single_component_hand_value(self):
        result = dependent_kolmogorov_bound(GammaMixture(1, 1, [1.0]), 10.0)
        assert result.components == (pytest.approx(0.04), pytest.approx(0.04))
        assert result.bound_value == pytest.approx(0.08)

    def test_scale_coherence(self):
        # scaling all loadings by c and the threshold by c changes the raw
        # bound by ((4a/b) c Th + 4 c^2 M^2 a/b^2) / (c lam)^2
        rng = np.random.default_rng(22)
        for _ in range(20):
            alpha, beta = rng.uniform(0.5, 6, size=2)
            thetas = rng.uniform(0.2, 9, size=int(rng.integers(1, 6)))
            lam, c = rng.uniform(1, 50), rng.uniform(0.1, 10)
            base = GammaMixture(alpha, beta, thetas)
            scaled = GammaMixture(alpha, beta, c * thetas)
            observed = dependent_kolmogorov_bound(scaled, c * lam).raw_value
            theta_n, m = base.total_theta(), base.max_prefix()
            predicted = (
                4 * (alpha / beta) * c * theta_n + 4 * c**2 * m**2 * alpha / beta**2
            ) / (c * lam) ** 2
            assert observed == pytest.approx(predicted, rel=1e-12)


class TestBernstein:
    def test_design_components(self, design):
        # high-precision re-derivation of both closed forms at 476.5
        m = design.mixture
        lam = 476.5
        theta_n = m.total_theta()
        cond = 2 * math.exp(-(lam**2 / 16) / (m.gamma_shape * theta_n / m.gamma_rate + lam / 6))
        mix = 2 * math.exp(
            -min(
                lam**2 * m.gamma_rate**2 / (32 * m.max_prefix() ** 2 * m.gamma_shape),
                lam * m.gamma_rate / (4 * m.max_prefix()),
            )
        )
        result = bernstein_dependent_bound(m, lam)
        assert result.components[0] == pytest.approx(cond, rel=1e-12)
        assert result.components[1] == pytest.approx(mix, rel=1e-12)
        assert result.components[0] < 1e-30
        assert result.components[1] == pytest.approx(0.149, abs=2e-3)
        assert result.bound_value == pytest.approx(2 * math.exp(-2.5955), abs=2e-3)

    def test_eventually_beats_polynomial_bound(self, design):
        grid = np.logspace(0, 5, 400)
        crossing = None
        for lam in grid:
            bern = bernstein_dependent_bound(design.mixture, lam).bound_value
            kolm = dependent_kolmogorov_bound(design.mixture, lam).bound_value
            if bern < kolm:
                crossing = lam
                break
        assert crossing is not None
        lam = 10.0 * crossing
        assert (
            bernstein_dependent_bound(design.mixture, lam).bound_value
            < dependent_kolmogorov_bound(design.mixture, lam).bound_value
        )

    def test_clamped_at_small_lambda(self, design):
        result = bernstein_dependent_bound(design.mixture, 1e-4)
        assert result.bound_value == 1.0
        assert result.raw_value == pytest.approx(4.0, rel=1e-6)

    def test_components_sum_exactly(self, design):
        rng = np.random.default_rng(26)
        for _ in range(50):
            result = bernstein_dependent_bound(design.mixture, 10 ** rng.uniform(-2, 4))
            cond, mix = result.components
            assert result.raw_value == cond + mix
            assert result.bound_value == min(1.0, cond + mix)

    def test_branch_switch_is_continuous(self, design):
        m = design.mixture
        lam_star = 8 * m.max_prefix() * m.gamma_shape / m.gamma_rate
        quad = lam_star**2 * m.gamma_rate**2 / (32 * m.max_prefix() ** 2 * m.gamma_shape)
        lin = lam_star * m.gamma_rate / (4 * m.max_prefix())
        assert quad == pytest.approx(lin, rel=1e-12)
        below = bernstein_dependent_bound(m, lam_star * (1 - 1e-9)).bound_value
        above = bernstein_dependent_bound(m, lam_star * (1 + 1e-9)).bound_value
        assert below == pytest.approx(above, rel=1e-6)

    def test_monotone_in_lambda(self, design):
        grid = np.logspace(-1, 4, 1000)
        values = [bernstein_dependent_bound(design.mixture, lam).bound_value for lam in grid]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


class TestInvertBound:
    def test_closed_form_inverse(self):
        lam = invert_bound(lambda l: min(1.0, 1.0 / l**2), 0.04)
        assert lam == pytest.approx(5.0, rel=1e-8)

    def test_table_thresholds(self, design):
        lam_i = invert_bound(
            lambda l: kolmogorov_independent_bound(design.independent, l).bound_value, 0.05
        )
        lam_d = invert_bound(
            lambda l: dependent_kolmogorov_bound(design.mixture, l).bound_value, 0.05
        )
        assert lam_i == pytest.approx(72.49, abs=0.01)
        assert lam_d == pytest.approx(476.52, abs=0.01)

    def test_uninvertible(self):
        with pytest.raises(DomainError, match="uninvertible"):
            invert_bound(lambda l: 1.0, 0.05)

    def test_rejects_bad_alpha(self):
        with pytest.raises(DomainError):
            invert_bound(lambda l: 1.0 / l**2, 0.0)


class TestExactTailOracle:
    def test_single_variable_reduction(self):
        # P(|X - 2| >= 0.5) = 1 - pmf(2); pmf(2) = 3 * 0.25 * 0.25
        oracle = exact_max_deviation_tail_oracle([NBParams(2, 0.5)], 0.5)
        assert oracle.value == pytest.approx(0.8125, abs=1e-10)
        assert oracle.truncation_error < 1e-11

    def test_against_monte_carlo(self):
        params = [NBParams(2, 0.6), NBParams(2, 0.6)]
        oracle = exact_max_deviation_tail_oracle(params, 3.0)
        emp, se = mc_max_deviation_tail(params, 3.0, reps=10**7, seed=77)
        assert abs(oracle.value - emp) <= 3.0 * se

    def test_never_exceeds_kolmogorov_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            params = _random_nb_set(rng, n_max=3)
            sd = math.sqrt(sum(q.variance() for q in params))
            lam = rng.uniform(0.5, 3.0) * sd
            oracle = exact_max_deviation_tail_oracle(params, lam)
            bound = kolmogorov_independent_bound(params, lam).bound_value
            assert oracle.value <= bound + 1e-9

    def test_infeasible_support_rejected(self):
        params = [NBParams(1000.0, 0.01)] * 3
        with pytest.raises(DomainError, match="oracle-infeasible"):
            exact_max_deviation_tail_oracle(params, 10.0)

    def test_infeasible_marginal_rejected_before_allocation(self):
        # K is near 1e10 here; the support must not be materialized
        with pytest.raises(DomainError, match="oracle-infeasible"):
            exact_max_deviation_tail_oracle([NBParams(1e6, 1e-4)], 10.0)

    def test_marginal_scan_capped_by_budget(self, monkeypatch):
        # mean 99 is far below the budget, but K is about 2,750
        monkeypatch.setattr(bounds_module, "_ORACLE_MAX_STATES", 1000)
        with pytest.raises(DomainError, match="oracle-infeasible"):
            exact_mean_deviation_tail([NBParams(1.0, 0.01)], 1.0)

    def test_paper_design_at_its_threshold(self, design):
        # 20 marginals: their support sizes multiply to about 1.9e7, but the
        # convolutions take 768,768 multiply-adds into a 1,267-long pmf
        params = list(design.independent)
        lam = invert_bound(lambda l: kolmogorov_independent_bound(params, l).bound_value, 0.05)
        assert lam == pytest.approx(72.487, abs=1e-3)
        oracle = exact_max_deviation_tail_oracle(params, lam)
        assert oracle.value == pytest.approx(8.78e-5, rel=1e-3)
        assert oracle.value <= kolmogorov_independent_bound(params, lam).bound_value
        assert oracle.truncation_error <= 1e-10

    def test_budget_counts_convolution_work(self, design, monkeypatch):
        params = list(design.independent)
        lengths = [len(bounds_module._truncated_pmf(q)) for q in params]
        work, span = 0, 1
        for n in lengths:
            work, span = work + span * n, span + n - 1
        assert (work, span) == (768_768, 1_267)
        monkeypatch.setattr(bounds_module, "_ORACLE_MAX_STATES", work + span)
        exact_max_deviation_tail_oracle(params, 72.5)
        monkeypatch.setattr(bounds_module, "_ORACLE_MAX_STATES", work + span - 1)
        with pytest.raises(DomainError, match="oracle-infeasible"):
            exact_max_deviation_tail_oracle(params, 72.5)

    def test_mean_tail_hand_value(self):
        # P(X >= 3) for NB(2, 0.5): 1 - 0.25 - 0.25 - 0.1875
        oracle = exact_mean_deviation_tail([NBParams(2, 0.5)], 1.0)
        assert oracle.value == pytest.approx(0.3125, abs=1e-10)

    def test_chernoff_dominates_exact_on_random_instances(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            params = _random_nb_set(rng, n_max=3)
            a = rng.uniform(0.2, 4.0)
            exact = exact_mean_deviation_tail(params, a)
            bound = chernoff_mean_deviation_bound(params, a).bound_value
            assert exact.value <= bound + 1e-9


class TestClamping:
    def test_all_bounds_in_unit_interval(self, design):
        rng = np.random.default_rng(25)
        for _ in range(200):
            lam = 10 ** rng.uniform(-3, 5)
            for value in (
                kolmogorov_independent_bound(design.independent, lam).bound_value,
                dependent_kolmogorov_bound(design.mixture, lam).bound_value,
                bernstein_dependent_bound(design.mixture, lam).bound_value,
            ):
                assert 0.0 <= value <= 1.0


class TestFloatRange:
    """A bound whose arithmetic leaves the float range raises, never returns inf."""

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda: kolmogorov_independent_bound([NBParams(3, 0.3)], 1e-200),
            lambda: kolmogorov_independent_bound([NBParams(3, 0.3)], 1e-160),
            lambda: kolmogorov_independent_bound([NBParams(3, 0.3)], 1e300),
            lambda: kolmogorov_independent_bound([NBParams(3, 1e-300)], 10.0),
            lambda: dependent_kolmogorov_bound(GammaMixture(4, 4, [7, 5]), 1e-200),
            lambda: bernstein_dependent_bound(GammaMixture(4, 4, [1e-200]), 1.0),
            lambda: bernstein_dependent_bound(GammaMixture(1e-300, 1e300, [7]), 10.0),
            lambda: tweedie_variance([NB2Params(1e300, 0.35)]),
            lambda: control_limit(15645.0, 1e-320),
        ],
    )
    def test_raises_float_range(self, evaluate):
        with pytest.raises(DomainError) as info:
            evaluate()
        assert info.value.code == "float-range"

    def test_plain_sum_adds_left_to_right(self):
        values = [1e16, 1.0, -1e16, 1.0]
        # ((1e16 + 1) - 1e16) + 1 rounds the first 1 away; compensated
        # summation would give 2.0
        assert bounds_module._plain_sum(values) == 1.0
        assert bounds_module._plain_sum([210, 340]) == 550
        assert isinstance(bounds_module._plain_sum([210, 340]), int)


class TestTruncatedPmf:
    """The numpy marginals against scipy.stats.nbinom as the oracle."""

    def test_matches_scipy_on_random_parameters(self):
        rng = np.random.default_rng(31)
        for _ in range(2000):
            r = math.exp(rng.uniform(math.log(0.05), math.log(50.0)))
            p = rng.uniform(0.02, 0.99)
            ours = bounds_module._truncated_pmf(NBParams(r, p))
            ref = scipy_truncated_nb_pmf(r, p, 1e-12)
            assert len(ours) == len(ref), (r, p)
            assert np.max(np.abs(ours - ref)) <= 1e-12, (r, p)

    def test_underflowing_first_term_keeps_full_mass(self):
        # 0.3**1000 underflows to 0.0, so p**r cannot seed the recurrence
        pmf = bounds_module._truncated_pmf(NBParams(1000.0, 0.3))
        assert abs(pmf.sum() - 1.0) <= 1e-12
        assert np.all(np.isfinite(pmf))

    def test_small_shape_support(self):
        # r < 1: the pmf decreases from k = 0 and the ratio rises towards 1 - p
        pmf = bounds_module._truncated_pmf(NBParams(0.001, 0.001))
        np.testing.assert_allclose(pmf, scipy_truncated_nb_pmf(0.001, 0.001, 1e-12),
                                   rtol=0, atol=1e-15)
