"""Property tests of the tail bounds, their inversion, the weekly monitor
and the input loaders."""

import io
import json
import math
import random
import struct
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nbbounds import (
    BoundResult,
    DomainError,
    EpiScenario,
    GammaMixture,
    NB2Params,
    NBParams,
    OptimizerDiagnostics,
    Region,
    bernstein_dependent_bound,
    chernoff_mean_deviation_bound,
    control_limit,
    dependent_kolmogorov_bound,
    exact_max_deviation_tail_oracle,
    invert_bound,
    kolmogorov_independent_bound,
    load_counts,
    load_scenario,
    monitor_step,
    nb_log_mgf,
    start_monitoring,
    tweedie_variance,
)
from nbbounds import distributions
from nbbounds.bounds import _golden_section_minimize

from helpers import (
    exact_bernstein_exponents,
    exact_dependent_kolmogorov,
    exact_kolmogorov_independent,
    exact_marginal_variance,
    exact_nb2_variance,
    exact_nb_variance,
    reference_bernstein_terms,
    reference_chernoff_log_objective,
    reference_control_limit,
    reference_invert_bound,
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


# -- bound inversion against the plain bisection ------------------------------

CLOSED_FORMS = [
    lambda lam: min(1.0, 1.0 / lam**2),
    lambda lam: min(1.0, math.exp(-lam)),
    # at most alpha at lambda = 1 for alpha >= 3e-5, so the halving loop runs
    lambda lam: min(1.0, 3e-5 / lam),
]


def _one_ulp_wobble(value: float, lam: float) -> float:
    """``value`` moved one ulp up or down by the last bit of ``lam``."""
    up = int(math.frexp(lam)[0] * 2.0**53) & 1
    return math.nextafter(value, math.inf if up else 0.0)


def _wobbling_inverse_square(alpha: float):
    """``min(1, 1/lam**2)`` with a one-ulp wobble within relative 1e-9 of
    its crossing with ``alpha``."""
    crossing = alpha**-0.5

    def value(lam):
        v = min(1.0, 1.0 / lam**2)
        return _one_ulp_wobble(v, lam) if abs(lam - crossing) <= 1e-9 * crossing else v

    return value


def _flat_wobbling_bound(lam: float) -> float:
    """``0.5 - 5e-5 log(lam)`` with a one-ulp wobble: its log-log slope is
    only about -1e-4, so the wobble spans about 2e-12 of lambda."""
    return _one_ulp_wobble(min(1.0, 0.5 - 5e-5 * math.log(lam)), lam)


def _inversion_outcome(invert, bound, alpha):
    """The threshold, or the code and message of the error raised."""
    try:
        return invert(bound, alpha)
    except DomainError as error:
        return error.code, str(error)


# 8 levels, log-uniform on [1e-10, 0.99], per example
inversion_levels = st.lists(
    st.floats(math.log(1e-10), math.log(0.99)).map(math.exp), min_size=8, max_size=8
)


# 200 examples of 8 levels and 7 bounds: 11,200 inversions per run
@settings(max_examples=200, deadline=None)
@given(params=nb_params, model=mixtures, alphas=inversion_levels)
def test_invert_bound_equals_plain_bisection(params, model, alphas):
    library = [
        lambda lam: kolmogorov_independent_bound(params, lam).bound_value,
        lambda lam: dependent_kolmogorov_bound(model, lam).bound_value,
        lambda lam: bernstein_dependent_bound(model, lam).bound_value,
    ]
    for alpha in alphas:
        for bound in [*library, *CLOSED_FORMS, _wobbling_inverse_square(alpha)]:
            ours = _inversion_outcome(invert_bound, bound, alpha)
            assert ours == _inversion_outcome(reference_invert_bound, bound, alpha)


@pytest.mark.parametrize("alpha", [0.04, 0.0625, 0.25, 0.5, 2.0**-20, 1e-10, 0.99])
@pytest.mark.parametrize("bound", [*CLOSED_FORMS, "wobbling"])
def test_invert_bound_equals_plain_bisection_at_exact_crossings(bound, alpha):
    # 1/lam**2 crosses 0.04 at 5 and 2**-20 at 1024, where the bisection
    # evaluates the crossing itself
    if bound == "wobbling":
        bound = _wobbling_inverse_square(alpha)
    assert invert_bound(bound, alpha) == reference_invert_bound(bound, alpha)


def test_invert_bound_equals_plain_bisection_on_a_flat_wobbling_bound():
    # crossings between 1.2 and 2,981; a narrowing that took a probe within
    # the wobble of the crossing as a bracket end fails about 1 in 700
    rng = random.Random(0)
    for _ in range(5000):
        alpha = rng.uniform(0.4996, 0.49999)
        ours = invert_bound(_flat_wobbling_bound, alpha)
        assert ours == reference_invert_bound(_flat_wobbling_bound, alpha), alpha


def test_flat_wobbling_bound_inverts_in_no_more_evaluations():
    # the levels of the test above; with its bracket found by doubling from
    # 1, the inversion took 164,182 evaluations in all (32.84 per inversion)
    calls = 0

    def counted(lam):
        nonlocal calls
        calls += 1
        return _flat_wobbling_bound(lam)

    rng = random.Random(0)
    for _ in range(5000):
        invert_bound(counted, rng.uniform(0.4996, 0.49999))
    assert calls <= 164_182


def test_invert_bound_equals_plain_bisection_below_the_halving_floor():
    # the crossing, 2e-310, lies below 1e-300, where the halving loop stops
    # without evaluating its last point
    bound = lambda lam: min(1.0, 1e-310 / lam)  # noqa: E731
    assert invert_bound(bound, 0.5) == reference_invert_bound(bound, 0.5)


@pytest.mark.parametrize(
    "bound, alpha, most_calls",
    [
        # at most alpha everywhere: the search ends at 2**-996, and the
        # bisection of [2**-997, 1] evaluates below it (2,024 calls when
        # the bracket below 1 was found by halving)
        (lambda lam: 0.0, 0.05, 45),
        # crosses at 2e-249 (830 calls by halving)
        (lambda lam: min(1.0, 1e-250 / lam), 0.05, 15),
    ],
    ids=["zero", "crossing-at-2e-249"],
)
def test_invert_bound_below_one_in_few_evaluations(bound, alpha, most_calls):
    calls = 0

    def counted(lam):
        nonlocal calls
        calls += 1
        return bound(lam)

    assert invert_bound(counted, alpha) == reference_invert_bound(bound, alpha)
    assert calls <= most_calls


@pytest.mark.parametrize(
    "bound, alpha",
    [
        (lambda lam: 1.0, 0.05),
        (lambda lam: min(1.0, 1e30 / lam**2), 0.01),  # crosses at 1e16
        (lambda lam: 1.0 / lam**2, 0.0),
        (lambda lam: 1.0 / lam**2, 1.0),
        (lambda lam: 1.0 / lam**2, -0.5),
        (lambda lam: 1.0 / lam**2, math.nan),
    ],
)
def test_invert_bound_raises_as_plain_bisection(bound, alpha):
    ours = _inversion_outcome(invert_bound, bound, alpha)
    assert isinstance(ours, tuple)
    assert ours == _inversion_outcome(reference_invert_bound, bound, alpha)


@pytest.mark.parametrize("crossing", [5e11, 6e11])
def test_invert_bound_last_bracket_as_plain_bisection(crossing):
    # 2**38 < 5e11 < 2**39 < 6e11 < 1e12: 2**39 is the last power of two
    # evaluated, so the first crossing inverts and the second is uninvertible
    def bound(lam):
        return min(1.0, 0.01 * (crossing / lam) ** 2)

    ours = _inversion_outcome(invert_bound, bound, 0.01)
    assert isinstance(ours, float) == (crossing < 2.0**39)
    assert ours == _inversion_outcome(reference_invert_bound, bound, 0.01)


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


# -- stored loading totals and the hoisted Chernoff constants ---------------


class _PerCallTotals:
    """A mixture whose loading totals are reduced with numpy on every call."""

    def __init__(self, model: GammaMixture):
        self.gamma_shape = model.gamma_shape
        self.gamma_rate = model.gamma_rate
        self.thetas = model.thetas

    def total_theta(self) -> float:
        return float(np.sum(self.thetas))

    def max_prefix(self) -> float:
        return float(np.cumsum(self.thetas).max())


# up to 30 loadings, so np.sum's pairwise blocks are exercised too
many_theta_mixtures = st.builds(
    GammaMixture,
    gamma_shape=st.floats(0.2, 20.0),
    gamma_rate=st.floats(0.2, 20.0),
    thetas=st.lists(st.floats(0.1, 100.0), min_size=1, max_size=30),
)


@PROPERTY_SETTINGS
@given(model=many_theta_mixtures)
def test_loading_totals_equal_numpy_reductions(model):
    assert model.total_theta() == float(np.sum(model.thetas))
    assert model.max_prefix() == float(np.cumsum(model.thetas).max())


@PROPERTY_SETTINGS
@given(model=many_theta_mixtures, lam=thresholds)
def test_mixture_bounds_equal_per_call_reductions(model, lam):
    per_call = _PerCallTotals(model)
    for bound in (dependent_kolmogorov_bound, bernstein_dependent_bound):
        assert bound(model, lam) == bound(per_call, lam)


def test_mixture_bounds_do_no_numpy_reductions(monkeypatch):
    thetas = [float(k) for k in range(1, 21)]
    bounds = (dependent_kolmogorov_bound, bernstein_dependent_bound)
    per_call = _PerCallTotals(GammaMixture(3.0, 1.5, thetas))
    expected = [bound(per_call, lam) for bound in bounds for lam in (10.0, 400.0)]

    def refuse(*args, **kwargs):
        raise AssertionError("numpy reduction while building or evaluating a mixture")

    monkeypatch.setattr(distributions.np, "sum", refuse)
    monkeypatch.setattr(distributions.np, "cumsum", refuse)
    model = GammaMixture(3.0, 1.5, thetas)  # construction reduces in plain floats too
    assert [bound(model, lam) for bound in bounds for lam in (10.0, 400.0)] == expected
    for bound in bounds:
        invert_bound(lambda lam, bound=bound: bound(model, lam).bound_value, 0.05)


# -- the plain-float mirror of np.sum ----------------------------------------


def _same_float(a: float, b: float) -> bool:
    """Equal bits, or both NaN (the sign and payload of a NaN are not compared)."""
    return struct.pack("<d", a) == struct.pack("<d", b) or (math.isnan(a) and math.isnan(b))


def _numpy_sum(values) -> float:
    with np.errstate(all="ignore"):  # inf - inf and overflow are part of the contract
        return float(np.sum(np.asarray(values, dtype=float)))


# the edges of _pairwise_sum's branches: the 8-way unrolled block from 8 on,
# the recursion above 128, and split points rounded to multiples of 8
BRANCH_EDGES = [0, 1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 135, 136, 137,
                255, 256, 257, 263, 264, 511, 512, 513, 1000]
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                  math.inf, -math.inf, math.nan, 1e308, -1e308, 1.0, -1.0, 1e16]


def _moderate_list(rng: random.Random, n: int) -> list[float]:
    """``n`` floats in [-1e3, 1e3]: no overflow or cancellation to zero, so
    the rounding of every add shows."""
    return [rng.uniform(-1e3, 1e3) for _ in range(n)]


def _float_list(rng: random.Random, n: int, special_share: float) -> list[float]:
    """``n`` floats over the whole range, a share of them from ``SPECIAL_FLOATS``."""
    return [
        rng.choice(SPECIAL_FLOATS) if rng.random() < special_share
        else rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.uniform(-320.0, 308.0)
        for _ in range(n)
    ]


@settings(max_examples=200, deadline=None)
@given(
    n=st.one_of(st.sampled_from(BRANCH_EDGES), st.integers(0, 1000)),
    seed=st.integers(0, 2**32 - 1),
    special_share=st.sampled_from([0.0, 0.01, 0.2, 1.0]),
    moderate=st.booleans(),
)
def test_pairwise_sum_equals_numpy_sum(n, seed, special_share, moderate):
    rng = random.Random(seed)
    values = _moderate_list(rng, n) if moderate else _float_list(rng, n, special_share)
    assert _same_float(distributions._pairwise_sum(values), _numpy_sum(values))


@pytest.mark.parametrize(
    "values",
    [
        [],
        [-0.0],
        [-0.0] * 9,
        [-0.0] * 200,
        [5e-324] * 300,
        [1e308, 1e308],
        [1e308] * 130,
        [math.inf, -math.inf],
        [math.nan],
        [0.1 * k for k in range(1, 9)],  # 3.6 in eight running sums, not left to right
        [1e16, 1.0, -1e16, 1.0] * 40,
        _float_list(random.Random(8193), 8193, 0.0),
        _moderate_list(random.Random(12_345), 12_345),
    ],
    ids=lambda values: f"{len(values)} values",
)
def test_pairwise_sum_equals_numpy_sum_at_fixed_inputs(values):
    assert _same_float(distributions._pairwise_sum(values), _numpy_sum(values))


@PROPERTY_SETTINGS
@given(
    n_regions=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_monitor_step_equals_numpy_sum_of_deviations(n_regions, seed):
    rng = random.Random(seed)
    counts = [float(rng.randint(0, 2000)) for _ in range(n_regions)]
    fitted = [rng.uniform(0.0, 1000.0) for _ in range(n_regions)]
    step = monitor_step(start_monitoring(1e9, 1), counts, fitted).cumulative_deviation
    assert step == float(np.sum(np.asarray(counts) - np.asarray(fitted)))


def _chernoff_over_nb_log_mgf(params, a) -> BoundResult:
    """The Chernoff bound searched over the public ``nb_log_mgf`` objective."""
    n = len(params)
    total_mean = sum(q.mean() for q in params)
    t_max = -math.log1p(-min(q.p for q in params))

    def objective(t):
        return -t * n * a - t * total_mean + sum(nb_log_mgf(q, t) for q in params)

    t_star, log_min, iterations, converged = _golden_section_minimize(
        objective, 1e-10 * t_max, (1.0 - 1e-10) * t_max, tol=1e-10 * t_max
    )
    raw = math.exp(log_min)
    return BoundResult(
        threshold=float(a),
        bound_value=min(1.0, raw),
        raw_value=raw,
        optimizer=OptimizerDiagnostics(t_star, iterations, converged),
    )


@PROPERTY_SETTINGS
@given(params=nb_params, a=st.floats(1e-3, 50.0))
def test_chernoff_equals_search_over_nb_log_mgf(params, a):
    assert chernoff_mean_deviation_bound(params, a) == _chernoff_over_nb_log_mgf(params, a)


# -- loaders reject non-finite numbers --------------------------------------

# json.dumps writes the floats as NaN, Infinity and -Infinity, which
# json.load reads back; the strings go through float() in the loader
non_finite = st.sampled_from([math.nan, math.inf, -math.inf, "nan", "inf", "-inf"])


@PROPERTY_SETTINGS
@given(
    n_regions=st.integers(1, 3),
    n_alphas=st.integers(1, 3),
    bad=non_finite,
    data=st.data(),
)
def test_load_scenario_rejects_non_finite_numbers(n_regions, n_alphas, bad, data):
    doc = {
        "regions": [
            {"weekly_mu": data.draw(st.floats(1.0, 500.0)), "kappa": data.draw(st.floats(0.0, 2.0))}
            for _ in range(n_regions)
        ],
        "weeks": data.draw(st.integers(1, 52)),
        "alpha_levels": [data.draw(st.floats(1e-4, 0.5)) for _ in range(n_alphas)],
    }
    load_scenario(io.StringIO(json.dumps(doc)))  # the valid document loads
    fields = (
        [("regions", i, key) for i in range(n_regions) for key in ("weekly_mu", "kappa")]
        + [("weeks",)]
        + [("alpha_levels", j) for j in range(n_alphas)]
    )
    *path, last = data.draw(st.sampled_from(fields))
    target = doc
    for key in path:
        target = target[key]
    target[last] = bad
    named = rf"alpha_levels\[{last}\]" if path == ["alpha_levels"] else None
    with pytest.raises(DomainError, match=named):
        load_scenario(io.StringIO(json.dumps(doc)))


@PROPERTY_SETTINGS
@given(
    rows=st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 1000), min_size=n, max_size=n), min_size=1, max_size=5
        )
    ),
    bad=st.sampled_from(["nan", "NaN", "inf", "Infinity", "-inf", "-Infinity"]),
    data=st.data(),
)
def test_load_counts_rejects_non_finite_cells(rows, bad, data):
    ids = ["a", "b", "c"][: len(rows[0])]
    scenario = EpiScenario([Region(10.0, 0.1, region_id) for region_id in ids], weeks=len(rows))
    row = data.draw(st.integers(0, len(rows) - 1))
    col = data.draw(st.integers(0, len(ids) - 1))
    cells = [[str(c) for c in r] for r in rows]
    cells[row][col] = bad
    text = "\n".join([",".join(ids)] + [",".join(r) for r in cells]) + "\n"
    with pytest.raises(DomainError, match=f"non-finite count at line {row + 2}"):
        load_counts(io.StringIO(text), scenario)


# -- the closed forms against exact arithmetic --------------------------------

_MAX_FLOAT = Fraction(sys.float_info.max)
_EDGE = _MAX_FLOAT / 10**14  # where a few roundings decide between inf and a float
_RELATIVE = Fraction(2, 10**15)
_SUBNORMAL_STEPS = 4 * Fraction(math.ulp(0.0))  # 4 x 5e-324


def _positive_real(rng: random.Random) -> float:
    """Log-uniform on 1e-300..1e300, or one time in 20 on the subnormals."""
    if rng.random() < 0.05:
        return 10.0 ** rng.uniform(-323.3, -307.7)
    return 10.0 ** rng.uniform(-300.0, 300.0)


def _unit_real(rng: random.Random) -> float:
    """In (0, 1): log-uniform from 5e-324 up, or 1 minus a log-uniform 1e-16..1."""
    while True:
        x = 10.0 ** rng.uniform(-323.3, 0.0) if rng.random() < 0.5 else (
            1.0 - 10.0 ** rng.uniform(-16.0, 0.0))
        if 0.0 < x < 1.0:
            return x


def _assert_float_rule(value: float, exact: Fraction) -> None:
    """``value`` is inf exactly when ``exact`` is past the largest float, and
    otherwise within 2e-15 relative or 4 x 5e-324 absolute of it."""
    assume(not abs(exact - _MAX_FLOAT) <= _EDGE)
    if exact > _MAX_FLOAT:
        assert value == math.inf, (value, float(exact / _MAX_FLOAT))
    else:
        assert abs(Fraction(value) - exact) <= max(exact * _RELATIVE, _SUBNORMAL_STEPS), (
            value, float(exact))


def _value_or_inf(evaluate) -> float:
    """``evaluate()``, or inf where it raises ``float-range``."""
    try:
        return evaluate()
    except DomainError as error:
        assert error.code == "float-range"
        return math.inf


# 2,000 examples of about 20 closed-form values each
@settings(max_examples=2000, deadline=None)
@given(seed=st.integers(0, 2**64 - 1))
def test_closed_forms_match_exact_arithmetic(seed):
    rng = random.Random(seed)
    nb = [NBParams(_positive_real(rng), _unit_real(rng)) for _ in range(rng.randint(1, 3))]
    mu, kappa, shape, rate, lam = (_positive_real(rng) for _ in range(5))
    thetas = [_positive_real(rng) for _ in range(rng.randint(1, 4))]
    alpha = _unit_real(rng)
    for q in nb:
        _assert_float_rule(q.variance(), exact_nb_variance(q))
    _assert_float_rule(_value_or_inf(lambda: kolmogorov_independent_bound(nb, lam).raw_value),
                       exact_kolmogorov_independent(nb, lam))

    q2 = NB2Params(mu, kappa)
    _assert_float_rule(q2.variance(), exact_nb2_variance(q2))
    v_n = _value_or_inf(lambda: tweedie_variance([q2]))
    _assert_float_rule(v_n, exact_nb2_variance(q2))
    if v_n < math.inf:
        _assert_float_rule(_value_or_inf(lambda: control_limit(v_n, alpha)),
                           reference_control_limit(v_n, alpha))

    model = GammaMixture(shape, rate, thetas)
    for i in range(model.n):
        _assert_float_rule(model.marginal_variance(i), exact_marginal_variance(model, i))
    cond, mix = exact_dependent_kolmogorov(model, lam)
    raw = _value_or_inf(lambda: dependent_kolmogorov_bound(model, lam).raw_value)
    _assert_float_rule(raw, cond + mix)
    if raw < math.inf:
        cond_term, mix_term = dependent_kolmogorov_bound(model, lam).components
        _assert_float_rule(cond_term, cond)
        _assert_float_rule(mix_term, mix)

    result = bernstein_dependent_bound(model, lam)
    terms = reference_bernstein_terms(model, lam)
    for ours, reference, exponent in zip(result.components, terms,
                                         exact_bernstein_exponents(model, lam)):
        tolerance = 4e-15 * (1.0 + float(min(exponent, 1000))) * reference
        assert abs(ours - reference) <= max(tolerance, 4 * math.ulp(0.0)), (ours, reference)
    assert result.raw_value == sum(result.components)


# 20,000 seeded instances of the narrower draw (r and a over 1e-3..1e3, p
# over 1e-6..1) gave at most 0.91 x 2**-53 x (scale + 1)
@settings(max_examples=500, deadline=None)
@given(seed=st.integers(0, 2**64 - 1))
def test_chernoff_minimum_matches_decimal_objective(seed):
    """``log(raw_value)`` is the log-objective at the returned ``t_star``, to
    within 8 x 2**-53 times its condition scale plus 1 (the last ``exp``); a
    ``raw_value`` below the normal floats needs the objective no higher
    than the log of the smallest normal float, within that error. ``r``
    and ``a`` are log-uniform on 1e-300..1e300, and ``p`` on 1e-300..1 or 1
    minus a log-uniform 1e-16..1; ``float-range`` is raised exactly when
    the total mean is past the largest float."""
    rng = random.Random(seed)
    nb = [NBParams(10.0 ** rng.uniform(-300.0, 300.0),
                   10.0 ** rng.uniform(-300.0, -1e-9) if rng.random() < 0.5
                   else 1.0 - 10.0 ** rng.uniform(-16.0, -1e-9))
          for _ in range(rng.randint(1, 6))]
    a = 10.0 ** rng.uniform(-300.0, 300.0)
    try:
        result = chernoff_mean_deviation_bound(nb, a)
    except DomainError as error:
        assert error.code == "float-range"
        exact_mean = sum(Fraction(q.r) * (1 - Fraction(q.p)) / Fraction(q.p) for q in nb)
        _assert_float_rule(math.inf, exact_mean)
        return
    value, scale = reference_chernoff_log_objective(nb, a, result.optimizer.t_star)
    tolerance = 8 * Decimal(2.0**-53) * (scale + 1)
    if result.raw_value < sys.float_info.min:  # a subnormal keeps fewer bits
        assert value - tolerance <= Decimal(math.log(sys.float_info.min)), (
            float(value), float(scale))
    else:
        error = abs(Decimal(math.log(result.raw_value)) - value)
        assert error <= tolerance, (float(error), float(scale))
