import io
import json
import math

import numpy as np
import pytest

from nbbounds import (
    DomainError,
    EpiScenario,
    NB2Params,
    Region,
    RngHandle,
    epi_control_limits,
    epi_max_deviations,
    load_counts,
    load_scenario,
    monitor_step,
    reference_scenario,
    run_epi_validation,
    sample_nb2,
    start_monitoring,
    write_history,
)

SEED = 42


@pytest.fixture(scope="module")
def scenario():
    return reference_scenario()


class TestScenario:
    def test_cumulative_moments(self, scenario):
        assert scenario.cumulative_mean(0) == pytest.approx(12 * 210)
        assert scenario.cumulative_variance(0) == pytest.approx(12 * (210 + 0.35 * 210**2))
        assert scenario.total_expected() == pytest.approx(20_400.0)

    def test_tweedie_variance_exact(self, scenario):
        assert scenario.tweedie_variance() == pytest.approx(2_028_900.0, rel=1e-12)

    def test_default_region_ids(self, scenario):
        assert [r.id for r in scenario.regions] == [f"region_{i}" for i in range(1, 6)]

    def test_rejects_empty_or_invalid(self):
        with pytest.raises(DomainError):
            EpiScenario([], 12)
        with pytest.raises(DomainError):
            EpiScenario([Region(210, 0.35)], 0)
        with pytest.raises(DomainError):
            Region(-1.0, 0.2)
        for bad in (0.0, -1.0, math.nan, math.inf):
            got = f"must be a positive real, got {bad}$"
            with pytest.raises(DomainError, match=f"^invalid-parameter: weekly_mu {got}"):
                Region(bad, 0.2)
            with pytest.raises(DomainError, match=f"^invalid-parameter: control limit {got}"):
                start_monitoring(bad, 12)
        # a count that is not a whole number is named, never truncated
        for bad in (12.9, 12.0, "12", None):
            got = f"must be a whole number, got {bad!r}$"
            with pytest.raises(DomainError, match=f"^invalid-parameter: weeks {got}"):
                EpiScenario([Region(210, 0.35)], bad)
            with pytest.raises(DomainError, match=f"^invalid-parameter: horizon {got}"):
                start_monitoring(100.0, bad)
        with pytest.raises(DomainError, match="^invalid-parameter: horizon must be >= 1, got 0$"):
            start_monitoring(100.0, 0)
        with pytest.raises(DomainError, match="^invalid-parameter: weeks must be >= 1, got -3$"):
            EpiScenario([Region(210, 0.35)], -3)
        assert EpiScenario([Region(210, 0.35)], np.int64(3)).weeks == 3
        assert start_monitoring(100.0, np.int64(2)).horizon == 2

    @pytest.mark.parametrize(
        "regions, duplicate",
        [
            ([Region(1.0, 0.1, "a"), Region(2.0, 0.1, "b"), Region(3.0, 0.1, "a")], "a"),
            # an explicit id may not take the default name of a later region
            ([Region(1.0, 0.1, "region_2"), Region(2.0, 0.1)], "region_2"),
        ],
    )
    def test_duplicate_region_ids_rejected(self, regions, duplicate):
        with pytest.raises(DomainError, match=f"duplicate region id '{duplicate}'"):
            EpiScenario(regions, 4)
        doc = {
            "regions": [
                {"weekly_mu": r.weekly_mu, "kappa": r.kappa, **({"id": r.id} if r.id else {})}
                for r in regions
            ],
            "weeks": 4,
        }
        with pytest.raises(DomainError, match=f"duplicate region id '{duplicate}'"):
            load_scenario(io.StringIO(json.dumps(doc)))


class TestControlLimits:
    def test_reference_limits(self, scenario):
        limits = dict(epi_control_limits(scenario, [0.05, 0.01]))
        assert limits[0.05] == pytest.approx(6370.0, abs=1.0)
        assert limits[0.01] == pytest.approx(14_244.0, abs=1.0)

    def test_single_poisson_region_limit(self):
        scenario = EpiScenario([Region(100.0, 0.0)], weeks=1)
        ((_, lam),) = epi_control_limits(scenario, [1 - 1e-9])
        assert lam == pytest.approx(10.0, rel=1e-6)


class TestMonitoring:
    def test_zero_deviation_never_alarms(self):
        mus = [210.0, 340.0]
        state = start_monitoring(limit=100.0, horizon=4)
        for _ in range(4):
            state = monitor_step(state, mus, mus)
        assert state.cumulative_deviation == 0.0
        assert not state.alarm
        assert not state.any_alarm()
        assert len(state.history) == state.period_index == 4

    def test_boundary_is_inclusive(self):
        state = start_monitoring(limit=50.0, horizon=2)
        state = monitor_step(state, [150.0], [100.0])
        assert state.cumulative_deviation == 50.0
        assert state.alarm

    def test_transition_is_pure(self):
        initial = start_monitoring(limit=50.0, horizon=2)
        monitor_step(initial, [150.0], [100.0])
        assert initial.period_index == 0
        assert initial.history == ()

    def test_length_mismatch_rejected(self):
        state = start_monitoring(limit=50.0, horizon=2)
        with pytest.raises(DomainError):
            monitor_step(state, [1.0, 2.0], [1.0])

    @pytest.mark.parametrize(
        "rows, fitted",
        [
            ([[1e308, 1e308]], [10.0, 20.0]),  # inf in one week
            ([[1e308, 0.0], [1e308, 0.0]], [10.0, 20.0]),  # inf over two
            ([[0.0, 0.0], [0.0, 0.0]], [1e308, 0.0]),  # -inf over two
        ],
    )
    def test_deviation_out_of_float_range_rejected(self, rows, fitted):
        state = start_monitoring(limit=50.0, horizon=4)
        for row in rows[:-1]:
            state = monitor_step(state, row, fitted)
        with pytest.raises(DomainError, match="outside the floating-point range") as info:
            monitor_step(state, rows[-1], fitted)
        assert info.value.code == "float-range"

    def test_horizon_exceeded(self):
        state = start_monitoring(limit=50.0, horizon=1)
        state = monitor_step(state, [100.0], [100.0])
        with pytest.raises(DomainError, match="horizon-exceeded"):
            monitor_step(state, [100.0], [100.0])

    def test_replay_is_identical(self, scenario):
        gen = RngHandle(SEED, 0).generator()
        counts = [
            [sample_nb2(NB2Params(r.weekly_mu, r.kappa), gen) for r in scenario.regions]
            for _ in range(12)
        ]
        mus = [r.weekly_mu for r in scenario.regions]

        def replay():
            state = start_monitoring(limit=6370.0, horizon=12)
            for row in counts:
                state = monitor_step(state, row, mus)
            return state.history

        assert replay() == replay()

    def test_alarm_monotone_in_counts(self):
        # with S_t >= 0 beforehand, adding counts weakly increases |S_t|
        mus = [100.0]
        state = start_monitoring(limit=1000.0, horizon=2)
        state = monitor_step(state, [150.0], mus)
        bumped = monitor_step(state, [170.0], mus)
        base = monitor_step(state, [160.0], mus)
        assert abs(bumped.cumulative_deviation) >= abs(base.cumulative_deviation)

    def test_outbreak_power_reported(self, scenario, capsys):
        # +50% on region 4 from week 6; detection rate is reported, not
        # asserted, since the 90% figure is a target rather than a claim
        mus = np.array([r.weekly_mu for r in scenario.regions])
        limit = dict(epi_control_limits(scenario, [0.05]))[0.05]
        detections = 0
        runs = 1000
        for rep in range(runs):
            gen = RngHandle(SEED, rep).generator()
            state = start_monitoring(limit, scenario.weeks)
            for week in range(scenario.weeks):
                shift = np.ones(len(mus))
                if week >= 5:
                    shift[3] = 1.5
                counts = [
                    sample_nb2(NB2Params(r.weekly_mu * shift[j], r.kappa), gen)
                    for j, r in enumerate(scenario.regions)
                ]
                state = monitor_step(state, counts, mus)
                if state.alarm:
                    detections += 1
                    break
        rate = detections / runs
        print(f"outbreak detection rate (+50% region 4 from week 6): {rate:.3f}")
        assert 0.0 < rate <= 1.0


class TestEpiValidation:
    def test_cumulative_parameter_consistency(self):
        # summing `weeks` weekly draws matches the cumulative moments
        mu, kappa, weeks = 340.0, 0.25, 12
        gen = RngHandle(SEED, 1).generator()
        draws = sample_nb2(NB2Params(mu, kappa), gen, size=(10**5) * weeks)
        sums = draws.reshape(10**5, weeks).sum(axis=1)
        target_mean = weeks * mu
        target_var = weeks * (mu + kappa * mu**2)
        se = np.sqrt(target_var / 10**5)
        assert abs(sums.mean() - target_mean) <= 3 * se
        assert sums.var(ddof=1) == pytest.approx(target_var, rel=0.05)

    def test_reference_p95_and_efficiency(self, scenario):
        by_mode = {
            mode: run_epi_validation(scenario, 5000, 0.05, SEED, mode=mode)
            for mode in ("region-prefix", "time-prefix")
        }
        matching = [
            mode
            for mode, s in by_mode.items()
            if abs(s.p95 - 3018.0) <= 0.05 * 3018.0 and abs(s.efficiency - 0.47) <= 0.03
        ]
        assert matching, {m: s.p95 for m, s in by_mode.items()}
        for s in by_mode.values():
            assert s.exceedance_rate <= 0.05

    def test_columns_equal_per_replication_recomputation(self, scenario):
        reps = 20
        # 52 weeks draw each region's Poissons by one array call, 12 by one
        # scalar call per week; a kappa == 0 region draws Poissons only
        poisson_region = EpiScenario(
            [Region(120.0, 0.3), Region(45.0, 0.0), Region(300.0, 0.15)], weeks=52
        )
        for scenario in (scenario, poisson_region):
            columns = epi_max_deviations(scenario, reps, SEED)
            mus = np.array([r.weekly_mu for r in scenario.regions])
            params = [NB2Params(r.weekly_mu, r.kappa) for r in scenario.regions]
            for i in range(reps):
                gen = RngHandle(SEED, i).generator()
                counts = np.column_stack([sample_nb2(q, gen, size=scenario.weeks) for q in params])
                by_region = counts.sum(axis=0) - scenario.weeks * mus
                by_week = counts.sum(axis=1) - mus.sum()
                assert columns["region-prefix"][i] == np.abs(np.cumsum(by_region)).max()
                assert columns["time-prefix"][i] == np.abs(np.cumsum(by_week)).max()

    def test_unknown_mode_rejected(self, scenario):
        with pytest.raises(DomainError):
            run_epi_validation(scenario, 10, 0.05, SEED, mode="zigzag")

    def test_default_mode_is_time_prefix(self, scenario):
        default = run_epi_validation(scenario, 200, 0.05, SEED)
        assert default == run_epi_validation(scenario, 200, 0.05, SEED, mode="time-prefix")
        assert default != run_epi_validation(scenario, 200, 0.05, SEED, mode="region-prefix")


class TestFileFormats:
    def test_scenario_round_trip(self, tmp_path):
        doc = {
            "regions": [
                {"id": "north", "weekly_mu": 210, "kappa": 0.35},
                {"weekly_mu": 340, "kappa": 0.25},
            ],
            "weeks": 12,
            "alpha_levels": [0.05, 0.01],
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        scenario, alphas = load_scenario(str(path))
        assert [r.id for r in scenario.regions] == ["north", "region_2"]
        assert scenario.weeks == 12
        assert alphas == [0.05, 0.01]

    def test_path_like_sources_read_as_paths(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text('{"regions": [{"id": "a", "weekly_mu": 1, "kappa": 0.1}], "weeks": 2}')
        scenario, alphas = load_scenario(path)
        assert [r.id for r in scenario.regions] == ["a"] and alphas == [0.05]
        counts = tmp_path / "counts.csv"
        counts.write_text("a\r\n3\r\n4\r\n")
        np.testing.assert_array_equal(load_counts(counts, scenario), [[3.0], [4.0]])
        with pytest.raises(DomainError, match="cannot read counts file") as info:
            load_counts(tmp_path / "missing.csv", scenario)
        assert info.value.code == "invalid-parameter"

    def test_malformed_scenario_rejected(self):
        with pytest.raises(DomainError):
            load_scenario(io.StringIO('{"regions": [{"weekly_mu": 5}], "weeks": 2}'))

    def test_counts_parsing_respects_header_order(self):
        scenario = EpiScenario([Region(1.0, 0.1, "a"), Region(2.0, 0.1, "b")], weeks=2)
        counts = load_counts(io.StringIO("b,a\n20,10\n21,11\n"), scenario)
        np.testing.assert_allclose(counts, [[10, 20], [11, 21]])

    def test_malformed_row_names_line(self):
        scenario = EpiScenario([Region(1.0, 0.1, "a")], weeks=3)
        with pytest.raises(DomainError, match="line 3"):
            load_counts(io.StringIO("a\n1\nnot-a-number\n"), scenario)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_count_names_line(self, value):
        scenario = EpiScenario([Region(1.0, 0.1, "a")], weeks=3)
        with pytest.raises(DomainError, match="non-finite count at line 3"):
            load_counts(io.StringIO(f"a\n1\n{value}\n"), scenario)

    def test_non_numeric_scenario_field_named(self):
        doc = '{"regions": [{"weekly_mu": 5, "kappa": 0.1}, {"weekly_mu": "x", "kappa": 0.1}], "weeks": 2}'
        with pytest.raises(DomainError, match=r"regions\[1\]\.weekly_mu"):
            load_scenario(io.StringIO(doc))

    @pytest.mark.parametrize(
        "regions, weeks, alphas, field",
        [
            ('{"weekly_mu": true, "kappa": 0.1}', "2", "[0.05]", r"regions\[0\]\.weekly_mu"),
            ('{"weekly_mu": 5, "kappa": false}', "2", "[0.05]", r"regions\[0\]\.kappa"),
            ('{"weekly_mu": 5, "kappa": 0.1}', "true", "[0.05]", "weeks"),
            ('{"weekly_mu": 5, "kappa": 0.1}', "2", "[0.05, true]", r"alpha_levels\[1\]"),
        ],
    )
    def test_boolean_scenario_number_named(self, regions, weeks, alphas, field):
        # float(True) is 1.0: a JSON true would otherwise read as mu 1 or 1 week
        doc = f'{{"regions": [{regions}], "weeks": {weeks}, "alpha_levels": {alphas}}}'
        message = f"{field} must be a number, got (True|False)$"
        with pytest.raises(DomainError, match=message) as info:
            load_scenario(io.StringIO(doc))
        assert info.value.code == "invalid-parameter"

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.05, 1.5, '"nan"'])
    def test_alpha_level_outside_unit_interval_named(self, bad):
        doc = (
            '{"regions": [{"weekly_mu": 5, "kappa": 0.1}], "weeks": 2, '
            f'"alpha_levels": [0.05, {bad}]}}'
        )
        with pytest.raises(DomainError, match=r"alpha_levels\[1\] must lie in \(0, 1\)"):
            load_scenario(io.StringIO(doc))

    def test_empty_alpha_levels_rejected(self):
        doc = '{"regions": [{"weekly_mu": 5, "kappa": 0.1}], "weeks": 2, "alpha_levels": []}'
        with pytest.raises(DomainError, match="alpha_levels must not be empty") as info:
            load_scenario(io.StringIO(doc))
        assert info.value.code == "invalid-parameter"

    def test_fractional_weeks_rejected(self):
        doc = '{"regions": [{"weekly_mu": 5, "kappa": 0.1}], "weeks": 2.9}'
        with pytest.raises(DomainError, match="weeks"):
            load_scenario(io.StringIO(doc))

    def test_integral_float_weeks_accepted(self):
        doc = '{"regions": [{"weekly_mu": 5, "kappa": 0.1}], "weeks": 3.0}'
        scenario, _ = load_scenario(io.StringIO(doc))
        assert scenario.weeks == 3

    def test_missing_region_id_rejected(self):
        scenario = EpiScenario([Region(1.0, 0.1, "a"), Region(1.0, 0.1, "b")], weeks=2)
        with pytest.raises(DomainError, match="missing region ids"):
            load_counts(io.StringIO("a\n1\n"), scenario)

    def test_counts_header_repeating_a_region_id_rejected(self):
        scenario = EpiScenario([Region(1.0, 0.1, "a"), Region(2.0, 0.1, "b")], weeks=2)
        # the 99999 column was read as nothing at all
        with pytest.raises(DomainError, match="counts header repeats region id 'a'$") as info:
            load_counts(io.StringIO("a,a,b\n10,99999,20\n"), scenario)
        assert info.value.code == "invalid-parameter"
        # a column that is no scenario id stays ignored, repeated or not
        counts = load_counts(io.StringIO("c,b,a,c\n1,20,10,2\n"), scenario)
        np.testing.assert_array_equal(counts, [[10.0, 20.0]])

    @pytest.mark.parametrize(
        "regions, alphas, message",
        [
            ('[{"weekly_mu": 5, "kappa": 0.1}]', '{"0.05": 1}',
             r"alpha_levels must be an array, got \{'0\.05': 1\}"),
            ('[{"weekly_mu": 5, "kappa": 0.1}]', '"0.05"',
             r"alpha_levels must be an array, got '0\.05'"),
            ('{"north": {"weekly_mu": 5, "kappa": 0.1}}', "[0.05]",
             r"regions must be an array, got \{'north': .*\}"),
            ('[{"id": null, "weekly_mu": 5, "kappa": 0.1}]', "[0.05]",
             r"regions\[0\]\.id must be a string, got None"),
            ('[{"id": true, "weekly_mu": 5, "kappa": 0.1}]', "[0.05]",
             r"regions\[0\]\.id must be a string, got True"),
            ('[{"id": 7, "weekly_mu": 5, "kappa": 0.1}]', "[0.05]",
             r"regions\[0\]\.id must be a string, got 7"),
        ],
        ids=["alpha_levels-object", "alpha_levels-string", "regions-object",
             "id-null", "id-true", "id-number"],
    )
    def test_loose_json_type_named(self, regions, alphas, message):
        # read before as the object's keys, one character at a time, or str(id)
        doc = f'{{"regions": {regions}, "weeks": 2, "alpha_levels": {alphas}}}'
        with pytest.raises(DomainError, match=f"^invalid-parameter: scenario field {message}$"):
            load_scenario(io.StringIO(doc))

    def test_history_format(self):
        state = start_monitoring(limit=50.0, horizon=2)
        state = monitor_step(state, [120.0], [100.0])
        state = monitor_step(state, [140.0], [100.0])
        sink = io.StringIO()
        write_history(state, sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == "period,S_t,lambda_alpha,alarm"
        assert lines[1] == "1,20.0,50.0,false"
        assert lines[2] == "2,60.0,50.0,true"
