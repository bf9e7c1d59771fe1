import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from nbbounds import (
    BoundResult,
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

from helpers import (
    mc_max_deviation_tail,
    reference_exact_walk,
    reference_mean_tail,
    scipy_truncated_nb_pmf,
)


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

    def test_rounded_positive_minimum_gives_one(self):
        # t_star is subnormal, where t * n * a underflows to 0 and the
        # objective rounds above 0: the bound is 1, not exp of that
        params = [NBParams(3.009303794823953e17, 1.2149061125292491e-200),
                  NBParams(3.336478591689921e-11, 0.9999999976906356)]
        result = chernoff_mean_deviation_bound(params, 3.860285527784333e-164)
        assert result.raw_value == result.bound_value == 1.0

    @pytest.mark.parametrize(
        "q, a, expected",
        [
            # the deviation is a tiny fraction of a standard deviation
            (NBParams(1e20, 0.5), 1.0, 1.0),
            (NBParams(1e17, 0.5), 1.0, 1.0),
            # helpers.reference_chernoff_log_bound, exponentiated in decimal
            (NBParams(1e20, 0.5), 5.25e11, 5.545738012089917e-300),
            (NBParams(1e12, 0.3), 2e7, 6.799576282968456e-12),
        ],
    )
    def test_large_r_is_accurate(self, q, a, expected):
        # r * log(p) is far larger than the objective, so no term of that size
        # may enter it
        result = chernoff_mean_deviation_bound([q], a)
        assert result.bound_value == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert result.optimizer.converged

    def test_overflowing_deviation_total_gives_zero(self, design):
        # n * a is inf: the bound is 0.0, not NaN
        result = chernoff_mean_deviation_bound(design.independent, 1e308)
        assert result.raw_value == result.bound_value == 0.0
        assert result.optimizer.converged
        # t_max is the smallest float, so only t = 0 is left: the bound is 1
        result = chernoff_mean_deviation_bound([NBParams(1e-20, 5e-324)] * 2, 1e308)
        assert result.raw_value == result.bound_value == 1.0

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
        calls = []

        def counted(bound, model):
            def value(lam):
                calls.append(lam)
                return bound(model, lam).bound_value

            return value

        lam_i = invert_bound(counted(kolmogorov_independent_bound, design.independent), 0.05)
        calls_i = len(calls)
        lam_d = invert_bound(counted(dependent_kolmogorov_bound, design.mixture), 0.05)
        calls_d = len(calls) - calls_i
        assert lam_i == pytest.approx(72.49, abs=0.01)
        assert lam_d == pytest.approx(476.52, abs=0.01)
        # 8 and 9 evaluations; the plain bisection takes 39 and 41
        assert calls_i <= 12
        assert calls_d <= 12

    @pytest.mark.parametrize("bound, model", [
        (kolmogorov_independent_bound, "independent"),
        (dependent_kolmogorov_bound, "mixture"),
    ])
    def test_paper_design_at_a_small_level(self, design, bound, model):
        # 8 evaluations each: the bracket's power of two comes from a binary
        # search over 2**1..2**39, not a walk up from 1 (21 and 24 here)
        calls = []

        def value(lam):
            calls.append(lam)
            return bound(getattr(design, model), lam).bound_value

        lam = invert_bound(value, 1e-8)
        assert len(calls) <= 10
        assert value(lam) <= 1e-8 < value(lam * (1.0 - 1e-9))

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

    def test_tiny_shape_support(self):
        # r - 1 rounds to -1, so log1p((r-1)/1) would be -inf; the support is
        # 0..1 with P(X = 1) = r (1-p) p**r
        assert exact_max_deviation_tail_oracle([NBParams(1e-300, 0.5)], 1.0).value == (
            pytest.approx(5e-301, rel=1e-14))

    def test_error_covers_a_discarded_tail_below_float_resolution(self):
        # the support is cut to 0..1, so P(X >= 2), about 1.9e-301, is discarded;
        # 1 - kept mass reads 0.0, the certified tail does not
        params, truth = [NBParams(1e-300, 0.5)], -math.expm1(1e-300 * math.log(0.5))
        for oracle in (exact_max_deviation_tail_oracle(params, 1.0),
                       exact_mean_deviation_tail(params, 1.0)):
            assert oracle.value <= truth <= oracle.value + oracle.truncation_error

    def test_support_without_a_certifiable_end_rejected(self):
        # 1 - p rounds to 1, so the geometric tail bound never falls below 1
        # and the scan would go to the budget of 10**7 states
        with pytest.raises(DomainError, match="oracle-infeasible.*1 - p = 1.0"):
            exact_max_deviation_tail_oracle([NBParams(1e-300, 1e-305)], 1.0)

    def test_barrier_step_matches_the_mask_reference(self):
        # lam puts mean +- lam on an integer or a half-integer for one of the
        # running means, where the float test decides ties, or is random
        rng = np.random.default_rng(41)
        for instance in range(600):
            params = _random_nb_set(rng, n_max=4)
            marginals = [bounds_module._truncated_pmf(q) for q in params]
            means = [q.mean() for q in params]
            running = float(np.cumsum(means)[rng.integers(len(means))])
            kind = instance % 4
            if kind == 0:
                lam = float(np.floor(running) + rng.integers(1, 20)) - running
            elif kind == 1:
                lam = running - float(np.floor(running) - rng.integers(0, 4))
            elif kind == 2:
                lam = float(np.floor(running) + rng.integers(0, 20)) + 0.5 - running
            else:
                lam = float(rng.uniform(0.05, 20.0))
            lam = abs(lam) or 0.5
            surviving, exceeded, total_mean = bounds_module._exact_walk(params, lam)
            ref_surviving, ref_exceeded, ref_mean = reference_exact_walk(marginals, means, lam)
            assert surviving.tobytes() == ref_surviving.tobytes(), (params, lam)
            assert (exceeded, total_mean) == (ref_exceeded, ref_mean), (params, lam)
            a = float(rng.uniform(0.1, 5.0))
            assert exact_mean_deviation_tail(params, a).value == reference_mean_tail(
                marginals, means, a)

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

    def test_one_variable_oracles_agree_above_the_mean(self):
        # lam > E[X] puts X - E[X] <= -lam out of reach, so the two-sided
        # max tail of one variable is the one-sided mean tail at a = lam
        rng = np.random.default_rng(26)
        for _ in range(50):
            q = NBParams(float(rng.uniform(0.3, 12.0)), float(rng.uniform(0.15, 0.9)))
            lam = q.mean() * float(rng.uniform(1.01, 3.0))
            two_sided = exact_max_deviation_tail_oracle([q], lam).value
            assert two_sided == pytest.approx(exact_mean_deviation_tail([q], lam).value, abs=1e-15)

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


class TestBoundResult:
    def test_built_result_behaves_like_the_constructor(self):
        optimizer = bounds_module.OptimizerDiagnostics(0.25, 48, True)
        for args, expected in [
            ((3, 2), BoundResult(3.0, 1.0, 2.0)),
            ((0.5, 0.125, (0.1, 0.025)), BoundResult(0.5, 0.125, 0.125, (0.1, 0.025))),
            ((2.0, 0.5, None, optimizer), BoundResult(2.0, 0.5, 0.5, None, optimizer)),
        ]:
            result = bounds_module._clamped(*args)
            assert type(result) is BoundResult
            assert result == expected and hash(result) == hash(expected)
            assert repr(result) == repr(expected)
            assert type(result.threshold) is float and type(result.raw_value) is float
            assert dataclasses.replace(result, threshold=9.0) == dataclasses.replace(
                expected, threshold=9.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                result.bound_value = 0.0


class TestFloatRange:
    """A bound whose arithmetic leaves the float range raises, never returns inf."""

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda: kolmogorov_independent_bound([NBParams(3, 0.3)], 1e-200),
            lambda: kolmogorov_independent_bound([NBParams(3, 0.3)], 1e-160),
            lambda: kolmogorov_independent_bound([NBParams(3, 1e-300)], 10.0),
            lambda: dependent_kolmogorov_bound(GammaMixture(4, 4, [7, 5]), 1e-200),
            lambda: GammaMixture(4, 4, [1e308, 1e308]),
            lambda: tweedie_variance([NB2Params(1e300, 0.35)]),
            lambda: control_limit(1e300, 1e-320),  # about 1e310
            # the rescaled forms leave the float range too: the squared
            # ratio (about 1e320), both terms, the smallest positive lambda
            lambda: dependent_kolmogorov_bound(GammaMixture(4, 4, [1e160]), 1.0),
            lambda: dependent_kolmogorov_bound(GammaMixture(4, 1e-200, [7]), 1e-200),
            lambda: kolmogorov_independent_bound([NBParams(3, 0.3)], 5e-324),
            # the total mean r(1-p)/p is about 1e310
            lambda: chernoff_mean_deviation_bound([NBParams(1e300, 1e-10)], 1.0),
        ],
    )
    def test_raises_float_range(self, evaluate):
        with pytest.raises(DomainError) as info:
            evaluate()
        assert info.value.code == "float-range"

    @pytest.mark.parametrize(
        "evaluate, components",
        [
            # lam**2 overflows; the bound is about 1e-599
            (lambda: kolmogorov_independent_bound([NBParams(3, 0.3)], 1e300), None),
            (lambda: dependent_kolmogorov_bound(GammaMixture(4, 4, [7, 5]), 1e300), (0.0, 0.0)),
            (lambda: bernstein_dependent_bound(GammaMixture(4, 4, [7, 5]), 1e300), (0.0, 0.0)),
            # M**2 underflows to 0; the mixing exponent is lam*rate/(4M) = 1e200
            (lambda: bernstein_dependent_bound(GammaMixture(4, 4, [1e-200]), 1.0),
             (2.0 * math.exp(-0.375), 0.0)),
            # rate**2 overflows; the conditional exponent is 6.25 / (10/6) = 3.75
            (lambda: bernstein_dependent_bound(GammaMixture(1e-300, 1e300, [7]), 10.0),
             (2.0 * math.exp(-3.75), 0.0)),
            # the conditional spread underflows to 0; both exponents are below 1e-24
            (lambda: bernstein_dependent_bound(GammaMixture(1e-300, 1e300, [7]), 5e-324),
             (2.0, 2.0)),
        ],
    )
    def test_finite_bound_past_an_out_of_range_square(self, evaluate, components):
        result = evaluate()
        raw = 0.0 if components is None else components[0] + components[1]
        assert result.raw_value == raw
        assert result.bound_value == min(1.0, raw)
        assert result.components == components

    @pytest.mark.parametrize(
        "evaluate, cond, mix",
        [
            # lam*rate overflows to inf without an exception, though
            # lam*rate/M = 8: the mixing exponent is min(64/(32*4), 8/4) = 0.5
            (lambda: bernstein_dependent_bound(GammaMixture(4, 2.4e108, [3e307]), 1e200),
             0.0, 2.0 * math.exp(-0.5)),
            # lam**2*rate**2 and 32*M**2*shape both overflow (their quotient
            # was NaN); the exponents are 0.0625 and 1e200/(32*1e200) = 0.03125
            (lambda: bernstein_dependent_bound(GammaMixture(1e200, 1e100, [1e100]), 1e100),
             2.0 * math.exp(-0.0625), 2.0 * math.exp(-0.03125)),
            # lam**2*rate**2 overflows alone, which made the quadratic branch
            # inf and the mixing term 0; lam*rate/M = 1.265e6
            (lambda: bernstein_dependent_bound(GammaMixture(1e10, 2.53, [2e148]), 1e154),
             0.0, 2.0 * math.exp(-(1.265e6**2) / 3.2e11)),
            # 4*M**2*shape overflows (the term was inf)
            (lambda: dependent_kolmogorov_bound(GammaMixture(1e10, 1e10, [1e150]), 1e10),
             4e130, 4e270),
            # rate**2*lam**2 overflows, which made the mixing term 0
            (lambda: dependent_kolmogorov_bound(GammaMixture(1, 1e10, [1e150]), 1e150),
             4e-160, 4e-20),
            # lam**2 is subnormal, so dividing by it lost bits (2.00002e290)
            (lambda: kolmogorov_independent_bound([NBParams(1e-30, 0.5)], 1e-160), 2e290, 0.0),
            # lam**2 is subnormal though beta**2 * lam**2 is not (4.0000445e120)
            (lambda: dependent_kolmogorov_bound(GammaMixture(1, 1e100, [1]), 1e-160),
             4e220, 4e120),
            # alpha/beta is subnormal though 4*(alpha/beta)*Theta_n is not (3.99996e-60)
            (lambda: dependent_kolmogorov_bound(GammaMixture(1e-200, 1e120, [1e200]), 1e-30),
             4e-60, 4e20),
            # p**2 is subnormal, so the variance lost bits (2.49879e-9)
            (lambda: kolmogorov_independent_bound([NBParams(1e-30, 2e-161)], 1e150), 2.5e-9, 0.0),
        ],
    )
    def test_finite_bound_past_an_overflowing_product(self, evaluate, cond, mix):
        result = evaluate()
        cond_term, mix_term = result.components or (result.raw_value, 0.0)
        assert cond_term == pytest.approx(cond, rel=1e-14, abs=0)
        assert mix_term == pytest.approx(mix, rel=1e-14, abs=0)
        assert result.raw_value == cond_term + mix_term
        assert result.bound_value == min(1.0, result.raw_value)

    @pytest.mark.parametrize(
        "params",
        [
            [NBParams(1e300, 1e-5)],  # r*(1-p)/p**2 is about 1e310
            [NBParams(1e300, 1e-5)] * 3,
            [NBParams(1e-30, 1e-170), NBParams(3, 0.3)],  # p**2 underflows to 0
        ],
    )
    def test_finite_bound_past_an_overflowing_variance(self, params):
        variances = [Fraction(q.r) * (1 - Fraction(q.p)) / Fraction(q.p) ** 2 for q in params]
        raw = float(sum(variances) / Fraction(1e200) ** 2)  # about 1e-90
        result = kolmogorov_independent_bound(params, 1e200)
        assert result.raw_value == raw
        assert result.bound_value == raw

    def test_finite_control_limit_past_an_overflowing_quotient(self):
        # 15645 / 1e-320 overflows, but its square root is about 1.25e162
        assert control_limit(15645.0, 1e-320) == 1.2508067066843693e162

    def test_rescaled_mixing_term_keeps_its_value(self):
        # M**2 and lam**2 overflow: 4*shape*(M/(rate*lam))**2 = 16 * (2.5e-51)**2
        result = dependent_kolmogorov_bound(GammaMixture(4, 4, [1e200]), 1e250)
        cond, mix = result.components
        assert cond == pytest.approx(4e-300, rel=1e-15)
        assert mix == pytest.approx(1e-100, rel=1e-15)
        assert result.raw_value == cond + mix

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
