"""Property tests of the tail bounds, their inversion and the weekly monitor."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from nbbounds import (
    GammaMixture,
    NBParams,
    bernstein_dependent_bound,
    chernoff_mean_deviation_bound,
    dependent_kolmogorov_bound,
    exact_max_deviation_tail_oracle,
    invert_bound,
    kolmogorov_independent_bound,
    monitor_step,
    start_monitoring,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

nb_params = st.lists(
    st.builds(
        NBParams,
        r=st.floats(0.1, 50.0),
        p=st.floats(0.05, 0.95),
    ),
    min_size=1,
    max_size=6,
)
mixtures = st.builds(
    GammaMixture,
    gamma_shape=st.floats(0.2, 20.0),
    gamma_rate=st.floats(0.2, 20.0),
    thetas=st.lists(st.floats(0.1, 100.0), min_size=1, max_size=6),
)
# each entry: a bound as a function of its threshold alone
lambda_bounds = st.one_of(
    nb_params.map(lambda ps: lambda lam: kolmogorov_independent_bound(ps, lam)),
    mixtures.map(lambda m: lambda lam: dependent_kolmogorov_bound(m, lam)),
    mixtures.map(lambda m: lambda lam: bernstein_dependent_bound(m, lam)),
)
thresholds = st.floats(1e-3, 1e5)


def _check_clamped(result) -> None:
    assert 0.0 <= result.bound_value <= 1.0
    assert result.bound_value == min(1.0, result.raw_value)


@PROPERTY_SETTINGS
@given(bound=lambda_bounds, lams=st.tuples(thresholds, thresholds))
def test_lambda_bounds_non_increasing_and_clamped(bound, lams):
    lo, hi = sorted(lams)
    at_lo, at_hi = bound(lo), bound(hi)
    _check_clamped(at_lo)
    _check_clamped(at_hi)
    assert at_hi.bound_value <= at_lo.bound_value


@PROPERTY_SETTINGS
@given(params=nb_params, levels=st.tuples(st.floats(1e-3, 50.0), st.floats(1e-3, 50.0)))
def test_chernoff_non_increasing_in_a_and_clamped(params, levels):
    lo, hi = sorted(levels)
    at_lo = chernoff_mean_deviation_bound(params, lo)
    at_hi = chernoff_mean_deviation_bound(params, hi)
    _check_clamped(at_lo)
    _check_clamped(at_hi)
    assert at_hi.bound_value <= at_lo.bound_value


@PROPERTY_SETTINGS
@given(bound=lambda_bounds, alpha=st.floats(1e-4, 0.5))
def test_invert_bound_round_trips(bound, alpha):
    def value(lam):
        return bound(lam).bound_value

    lam_star = invert_bound(value, alpha)
    assert value(lam_star) <= alpha < value(lam_star * (1.0 - 1e-9))


# small enough for the exact oracle's joint support budget
small_nb_params = st.lists(
    st.builds(NBParams, r=st.floats(0.5, 6.0), p=st.floats(0.25, 0.95)),
    min_size=1,
    max_size=3,
)


@PROPERTY_SETTINGS
@given(params=small_nb_params, scale=st.floats(0.2, 4.0))
def test_oracle_tail_within_kolmogorov_bound(params, scale):
    lam = scale * math.sqrt(sum(q.variance() for q in params))
    oracle = exact_max_deviation_tail_oracle(params, lam)
    bound = kolmogorov_independent_bound(params, lam).bound_value
    assert oracle.value <= bound + 1e-9


# whole numbers keep every sum exact, so additivity can be checked with ==
weekly_rows = st.integers(1, 4).flatmap(
    lambda regions: st.tuples(
        st.lists(st.integers(0, 500).map(float), min_size=regions, max_size=regions),
        st.lists(
            st.lists(st.integers(0, 1000).map(float), min_size=regions, max_size=regions),
            min_size=1,
            max_size=8,
        ),
    )
)


@PROPERTY_SETTINGS
@given(data=weekly_rows, limit=st.floats(1.0, 2000.0))
def test_monitor_step_adds_weekly_deviations(data, limit):
    fitted, weeks = data
    state = start_monitoring(limit, len(weeks))
    expected = 0.0
    for t, counts in enumerate(weeks, start=1):
        previous = state
        state = monitor_step(state, counts, fitted)
        expected += sum(c - m for c, m in zip(counts, fitted))
        assert state.cumulative_deviation == expected
        assert state.alarm == (abs(expected) >= limit)
        assert state.history == previous.history + ((t, expected, state.alarm),)
        assert previous.period_index == t - 1  # the input state is untouched
