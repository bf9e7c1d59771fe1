"""Property tests of the tail bounds and their inversion."""

from hypothesis import given, settings
from hypothesis import strategies as st

from nbbounds import (
    GammaMixture,
    NBParams,
    bernstein_dependent_bound,
    chernoff_mean_deviation_bound,
    dependent_kolmogorov_bound,
    invert_bound,
    kolmogorov_independent_bound,
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
