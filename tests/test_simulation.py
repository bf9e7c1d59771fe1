import numpy as np
import pytest

from nbbounds import (
    DeviationSamples,
    DomainError,
    GammaMixture,
    NB2Params,
    NBParams,
    RngHandle,
    amplification_check,
    build_moment_matched_design,
    control_limit,
    design_from_mixture,
    efficiency_curve,
    epi_max_deviations,
    lambda_correlation,
    reference_scenario,
    run_dependent_experiment,
    run_epi_validation,
    run_independent_experiment,
    run_nb2_experiment,
    sample_mixture_counts,
    summarize_deviations,
)
from nbbounds.distributions import _nb2_replication_sampler
from nbbounds.simulation import _max_abs_prefix_deviation

SEED = 42
REPS = 2000


@pytest.fixture(scope="module")
def design():
    return build_moment_matched_design()


@pytest.fixture(scope="module")
def independent_run(design):
    return run_independent_experiment(design.independent, REPS, 0.05, SEED)


@pytest.fixture(scope="module")
def dependent_run(design):
    return run_dependent_experiment(design.mixture, REPS, 0.05, SEED)


class TestDesign:
    def test_cycles_reference_parameters(self, design):
        assert len(design.independent) == 20
        assert design.independent[0] == NBParams(3, 0.3)
        assert design.independent[1] == NBParams(5, 0.5)
        assert design.independent[2] == NBParams(8, 0.7)
        assert design.independent[3] == NBParams(3, 0.3)

    def test_totals(self, design):
        assert design.independent_total_mean() == pytest.approx(104.571428571, rel=1e-9)
        assert design.independent_total_variance() == pytest.approx(262.721088435, rel=1e-9)

    def test_mixture_construction(self, design):
        assert design.mixture.gamma_shape == 4.0
        assert design.mixture.gamma_rate == 4.0
        assert design.mixture.thetas[0] == pytest.approx(7.0)
        assert list(design.mixture.thetas) == pytest.approx(
            [q.mean() for q in design.independent]
        )

    def test_aggregate_moment_match_within_five_percent(self, design):
        assert abs(design.aggregate_variance_gap()) < 0.05
        # per-component gaps are allowed to be much wider
        assert max(abs(g) for g in design.per_component_variance_gaps()) > 0.05


class TestSummary:
    def test_percentile_rule_linear_interpolation(self):
        s = summarize_deviations(np.arange(101.0), theoretical_lambda=50.0)
        assert s.median == pytest.approx(50.0)
        assert s.p95 == pytest.approx(95.0)
        assert s.p99 == pytest.approx(99.0)
        assert s.median <= s.p95 <= s.p99

    def test_invariants(self, independent_run):
        s, samples = independent_run
        devs = samples.max_abs_dev
        assert s.replications == REPS
        assert s.efficiency == pytest.approx(s.p95 / s.theoretical_lambda, rel=1e-12)
        assert s.exceedance_rate == pytest.approx(np.mean(devs >= s.theoretical_lambda))
        assert s.median <= s.p95 <= s.p99


class TestIndependentExperiment:
    def test_reference_statistics(self, independent_run):
        s, _ = independent_run
        assert s.mean == pytest.approx(17.74, rel=0.05)
        assert s.sd == pytest.approx(8.05, rel=0.10)
        assert s.p95 == pytest.approx(33.16, rel=0.05)
        assert s.p99 == pytest.approx(44.43, rel=0.10)
        assert s.efficiency == pytest.approx(0.457, abs=0.03)

    def test_threshold_is_control_limit(self, independent_run, design):
        s, _ = independent_run
        v_n = design.independent_total_variance()
        assert s.theoretical_lambda == pytest.approx(control_limit(v_n, 0.05), rel=1e-12)

    def test_exceedance_within_guarantee(self, independent_run):
        s, _ = independent_run
        assert s.exceedance_rate <= 0.05
        assert s.exceedance_rate == 0.0  # expected at this scale

    def test_single_replication_degenerates(self):
        q = NBParams(3, 0.3)
        s, samples = run_independent_experiment([q], 1, 0.05, SEED)
        gen = RngHandle(SEED, 0).generator()
        x = gen.poisson(gen.gamma(q.r, (1 - q.p) / q.p))
        assert samples.max_abs_dev[0] == pytest.approx(abs(x - q.mean()))
        assert samples.lambda_draw is None
        assert s.sd == 0.0

    @pytest.mark.parametrize(
        "params",
        [
            [NB2Params(5.0, 0.25)] * 20,
            [NB2Params(5.0, 0.0)] * 20,
            [NB2Params(5.0, 0.5), NB2Params(5.0, 0.0), NB2Params(5.0, 0.5), NB2Params(3.0, 0.0)],
            [NB2Params(2.0, 0.5), NB2Params(5.0, 0.2)],
        ],
    )
    def test_sampler_draws_as_with_array_parameters(self, params):
        # constant parameters go to numpy as scalars; the draws must equal
        # the per-variable array form, gammas first, then Poissons
        kappas = np.array([q.kappa for q in params])
        mus = np.array([q.mu for q in params])
        over = kappas > 0.0
        draw = _nb2_replication_sampler(params)
        for i in range(5):
            gen = RngHandle(SEED, i).generator()
            expected = np.zeros(len(params))
            if over.any():
                g = gen.gamma(1.0 / kappas[over], (kappas * mus)[over])
                expected[over] = gen.poisson(g)
            if not over.all():
                expected[~over] = gen.poisson(mus[~over])
            assert np.array_equal(draw(RngHandle(SEED, i).generator()), expected)

    def test_replication_prefix_is_stable(self, design):
        # replication i depends only on stream i, so a longer run extends a
        # shorter one instead of changing it
        def columns(reps):
            _, indep = run_independent_experiment(design.independent, reps, 0.05, SEED)
            _, dep = run_dependent_experiment(design.mixture, reps, 0.05, SEED)
            return {
                "independent": indep.max_abs_dev,
                "dependent": dep.max_abs_dev,
                "lambda_draw": dep.lambda_draw,
                **epi_max_deviations(reference_scenario(), reps, SEED),
            }

        short, long = columns(100), columns(300)
        assert len(short) == 5
        for name, column in short.items():
            assert np.array_equal(column, long[name][:100]), name

    def test_rejects_zero_replications(self, design):
        for run in (
            lambda: run_independent_experiment(design.independent, 0, 0.05, SEED),
            lambda: run_dependent_experiment(design.mixture, 0, 0.05, SEED),
            lambda: run_epi_validation(reference_scenario(), 0, 0.05, SEED),
        ):
            with pytest.raises(DomainError, match="replications must be >= 1"):
                run()


def _scalar_max_abs_prefix_deviation(counts, means) -> float:
    return float(np.abs(np.cumsum(counts - means)).max())


class TestArrayReductions:
    def test_whole_array_equals_per_row_definition(self):
        gen = np.random.default_rng(2024)
        counts = gen.normal(50.0, 20.0, size=(400, 23))
        means = gen.uniform(10.0, 90.0, size=23)
        expected = [_scalar_max_abs_prefix_deviation(row, means) for row in counts]
        got = _max_abs_prefix_deviation(counts.copy(), means)
        assert got.shape == (400,)
        assert np.array_equal(got, expected)

    def test_column_view_and_scalar_mean(self):
        gen = np.random.default_rng(7)
        rows = gen.uniform(0.0, 1e3, size=(50, 13))
        expected = [_scalar_max_abs_prefix_deviation(row[:-1], 321.123) for row in rows]
        last = rows[:, -1].copy()
        got = _max_abs_prefix_deviation(rows[:, :-1], 321.123)
        assert np.array_equal(got, expected)
        assert np.array_equal(rows[:, -1], last)  # untouched outside the view

    def test_experiments_equal_per_replication_definition(self, design):
        reps = 20
        _, indep = run_independent_experiment(design.independent, reps, 0.05, SEED)
        _, dep = run_dependent_experiment(design.mixture, reps, 0.05, SEED)
        nb2 = [q.to_nb2() for q in design.independent]
        draw = _nb2_replication_sampler(nb2)
        indep_means = np.array([q.mu for q in nb2])
        dep_means = design.mixture.marginal_means()
        for i in range(reps):
            counts = draw(RngHandle(SEED, i).generator())
            assert indep.max_abs_dev[i] == _scalar_max_abs_prefix_deviation(counts, indep_means)
            lam, counts = sample_mixture_counts(design.mixture, RngHandle(SEED, i).generator())
            assert dep.max_abs_dev[i] == _scalar_max_abs_prefix_deviation(counts, dep_means)
            assert dep.lambda_draw[i] == lam


class TestDependentExperiment:
    def test_reference_statistics(self, dependent_run):
        s, _ = dependent_run
        assert s.mean == pytest.approx(42.22, rel=0.07)
        assert s.p95 == pytest.approx(101.43, rel=0.10)
        assert s.p99 == pytest.approx(167.46, rel=0.15)
        assert s.efficiency == pytest.approx(0.213, abs=0.03)

    def test_threshold_inverts_dependent_bound(self, dependent_run):
        s, _ = dependent_run
        assert s.theoretical_lambda == pytest.approx(476.52, abs=0.01)

    def test_lambda_draw_recorded(self, dependent_run):
        _, samples = dependent_run
        assert samples.lambda_draw is not None
        assert samples.lambda_draw.shape == (REPS,)
        assert np.all(samples.lambda_draw > 0)

    def test_exceedance_within_mc_tolerance(self, dependent_run):
        s, _ = dependent_run
        assert s.exceedance_rate <= 0.05 + 3 * np.sqrt(0.05 * 0.95 / REPS)

    def test_degenerate_mixing_matches_independent_marginals(self):
        # shape = rate -> 1e6 pins the latent rate at 1; the dependent run
        # then matches independent draws from the same marginal laws
        mixture = GammaMixture(1e6, 1e6, [7.0, 5.0, 24.0 / 7.0] * 4)
        matched = design_from_mixture(mixture)
        dep, _ = run_dependent_experiment(mixture, REPS, 0.05, SEED)
        indep, _ = run_independent_experiment(matched.independent, REPS, 0.05, SEED)
        assert dep.mean == pytest.approx(indep.mean, rel=0.05)

    def test_conditional_independence_within_lambda_deciles(self):
        # residuals against lambda * theta decorrelate once lambda is fixed
        model = GammaMixture(4, 4, [7.0, 5.0])
        lam, counts = sample_mixture_counts(model, RngHandle(SEED, 0), size=20_000)
        residuals = counts - lam[:, None] * np.asarray(model.thetas)[None, :]
        deciles = np.quantile(lam, np.linspace(0, 1, 11))
        for lo, hi in zip(deciles[:-1], deciles[1:]):
            mask = (lam >= lo) & (lam < hi)
            corr = np.corrcoef(residuals[mask, 0], residuals[mask, 1])[0, 1]
            assert abs(corr) < 0.05


class TestLambdaCorrelation:
    def test_reference_value(self, dependent_run):
        _, samples = dependent_run
        assert lambda_correlation(samples) == pytest.approx(0.433, abs=0.06)

    def test_perfect_correlation(self):
        values = np.array([1.0, 2.0, 5.0])
        samples = DeviationSamples(values, lambda_draw=values)
        assert lambda_correlation(samples) == pytest.approx(1.0)

    def test_zero_variance_rejected(self):
        samples = DeviationSamples(np.array([1.0, 2.0]), lambda_draw=np.array([1.0, 1.0]))
        with pytest.raises(DomainError, match="zero-variance"):
            lambda_correlation(samples)

    def test_missing_lambda_rejected(self):
        samples = DeviationSamples(np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            lambda_correlation(samples)


class TestAmplification:
    def test_reference_ratio(self, design):
        result = amplification_check(design, REPS, SEED)
        assert result.amplified
        assert result.ratio == pytest.approx(2.38, abs=0.15)

    def test_equal_theta_toy(self):
        toy = design_from_mixture(GammaMixture(1, 1, [1.0, 1.0]))
        result = amplification_check(toy, 10**5, SEED)
        assert result.amplified

    def test_degenerate_mixing_ratio_near_one(self):
        mixture = GammaMixture(1e6, 1e6, [7.0, 5.0, 24.0 / 7.0] * 4)
        result = amplification_check(design_from_mixture(mixture), REPS, SEED)
        assert result.ratio == pytest.approx(1.0, abs=0.05)

    def test_rejects_tiny_replication_count(self, design):
        with pytest.raises(DomainError):
            amplification_check(design, 99, SEED)


class TestEfficiencyCurve:
    def test_curve_reported(self):
        # the efficiency statistic normalizes by sqrt(V_n), so it stays
        # near 0.47 across dispersions; the curve is emitted as data and
        # its dispersion trend is reported rather than asserted
        curve = efficiency_curve((0.0, 0.1, 0.25, 0.5, 1.0), 5.0, 20, REPS, SEED)
        print("efficiency vs dispersion:", [(k, round(e, 4)) for k, e in curve])
        assert all(0.3 < e < 0.7 for _, e in curve)

    def test_poisson_entry_uses_poisson_variance(self):
        (kappa, eff), = efficiency_curve((0.0,), 5.0, 10, 200, SEED)
        assert kappa == 0.0
        summary, _ = run_nb2_experiment([NB2Params(5.0, 0.0)] * 10, 200, 0.05, SEED)
        assert summary.theoretical_lambda == pytest.approx(control_limit(50.0, 0.05))
        assert eff == pytest.approx(summary.efficiency)

    def test_repeated_grid_points_identical(self):
        curve = efficiency_curve((0.3, 0.3), 5.0, 10, 300, SEED)
        assert curve[0] == curve[1]

    def test_rejects_empty_grid(self):
        with pytest.raises(DomainError):
            efficiency_curve((), 5.0, 10, 100, SEED)
