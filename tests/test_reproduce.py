import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from nbbounds.reproduce import (
    ReproductionReport,
    build_report,
    reproduce_epi,
    reproduce_figures,
    reproduce_table2,
    write_report,
)
from nbbounds.surveillance import reference_scenario, run_epi_validation

SEED = 42
SMALL = 300

# sha256 of `reproduce all --seed 42` at the default replication counts.
# The tree digest hashes the file contents concatenated in sorted-name
# order. numpy's gamma and Poisson algorithms define the mapping from a
# Philox stream to draws, so a mismatch can also come from a numpy upgrade.
GOLDEN_TREE_SHA256 = "6c38cd206c015c0c5759323d77e9e7f2add0f3b600a1fa89bb8a0cf7be2a1400"
GOLDEN_FILE_SHA256 = {
    "fig1.csv": "10006e374072a12d33cf2b9877880517a9552c1077ae2d1e13f8329827785808",
    "fig2.csv": "b40d455510c5a7404046e7475b8c05b31ac08382cc36a6ff6e7821774430a794",
    "fig4.csv": "801d348913a477059f1f81c4636de85b96a41ff7153da282bfad962d0bdc46b3",
    "fig5.csv": "abdc5d0dababf15553d2e57c38353c749f674e6bfb7b5c13e08d647a3b3cca83",
    "fig6.csv": "32ed4858d7f168c2bb4bdb0b6e025c95ebdfa7da82a1753cd1a3dad568265b0d",
    "fig7.csv": "abb5a10619946c7212a08cc43202c0e496fea6bfe0b2e0f05ec7aecd72fca0e5",
    "fig8.csv": "11c0aae9f165724c70402ee6b9fa693f191835c2e77217ca090b80c7d8f2f852",
    "report.json": "61f4caaada79b9c5e62c7118961e43c0ac976d647e7b756ef2a34e6946563d4f",
}


@pytest.fixture(scope="module")
def small_report():
    return build_report("all", seed=SEED, table2_replications=SMALL, epi_replications=SMALL)


class TestTable2Section:
    def test_rows_and_percent_change_invariant(self):
        table, match, samples = reproduce_table2(SEED, SMALL)
        assert set(table) == {
            "mean", "median", "sd", "p95", "p99", "theoretical_bound", "efficiency",
        }
        for row in table.values():
            expected = 100.0 * (row["dependent"] / row["independent"] - 1.0)
            assert row["percent_change"] == pytest.approx(expected, rel=1e-12)
        assert len(samples["independent"].max_abs_dev) == SMALL
        assert abs(match["aggregate_variance_gap_pct"]) < 5.0
        assert len(match["per_component_variance_gap_pct"]) == 20

    def test_threshold_change_is_large_and_positive(self):
        table, _, _ = reproduce_table2(SEED, SMALL)
        assert table["theoretical_bound"]["percent_change"] == pytest.approx(557, abs=5)
        assert table["efficiency"]["percent_change"] < 0


class TestEpiSection:
    def test_fields_and_selection(self):
        epi = reproduce_epi(SEED, 1000)
        assert epi["v_n"] == pytest.approx(2_028_900.0)
        assert epi["lambda_05"] == pytest.approx(6370.0, abs=1.0)
        assert epi["lambda_01"] == pytest.approx(14_244.0, abs=1.0)
        assert epi["max_ordering_mode"] in ("region-prefix", "time-prefix")
        assert set(epi["mode_p95"]) == {"region-prefix", "time-prefix"}
        assert epi["p95"] == epi["mode_p95"][epi["max_ordering_mode"]]
        assert 0.0 <= epi["exceedance_rate"] <= 0.05

    def test_reports_time_prefix_when_region_prefix_matches_reference(self):
        # at seed 0 the region-prefix p95 lands within 5% of the reference,
        # and the reported ordering must not depend on that
        epi = reproduce_epi(0, 1000)
        assert epi["mode_matches_reference"]["region-prefix"]
        assert epi["max_ordering_mode"] == "time-prefix"
        assert epi["p95"] == epi["mode_p95"]["time-prefix"]

    def test_modes_share_draws_with_single_mode_validation(self):
        epi = reproduce_epi(7, 500)
        for mode in ("region-prefix", "time-prefix"):
            summary = run_epi_validation(reference_scenario(), 500, 0.05, 7, mode=mode)
            assert epi["mode_p95"][mode] == summary.p95


class TestFigureSeries:
    def test_all_series_present(self, small_report):
        assert set(small_report.figure_series) == {
            "fig1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8",
        }

    def test_series_are_columnar(self, small_report):
        for name, series in small_report.figure_series.items():
            lengths = {len(col) for col in series.values()}
            assert len(lengths) == 1, f"{name} columns have unequal lengths"

    def test_fig4_bounds_decay(self, small_report):
        series = small_report.figure_series["fig4"]
        assert series["independent_bound"][0] == 1.0  # clamped at lambda = 1
        assert series["independent_bound"][-1] < 1e-3
        assert series["dependent_bound"][-1] < 1e-2

    def test_fig7_matches_replication_count(self, small_report):
        assert len(small_report.figure_series["fig7"]["lambda_draw"]) == SMALL

    def test_reuses_table2_samples(self):
        _, _, samples = reproduce_table2(SEED, SMALL)
        series = reproduce_figures(SEED, SMALL, table2_samples=samples)
        assert series["fig7"]["max_abs_dev"] == samples["dependent"].max_abs_dev.tolist()


class TestReportWriting:
    def test_environment_embedded(self, small_report):
        env = small_report.environment
        assert env["seed"] == SEED
        assert env["version"]
        assert env["replications"]["table2"] == SMALL

    def test_write_and_reload(self, small_report, tmp_path):
        written = write_report(small_report, str(tmp_path))
        names = {p.split("/")[-1] for p in written}
        assert "report.json" in names
        assert "fig8.csv" in names
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["environment"]["seed"] == SEED
        assert doc["figure_files"]["fig7"] == "fig7.csv"
        assert doc["table2"]["mean"]["independent"] > 0
        header = (tmp_path / "fig7.csv").read_text().splitlines()[0]
        assert header == "lambda_draw,max_abs_dev"

    def test_byte_identical_reruns(self, tmp_path):
        dirs = []
        for name in ("a", "b"):
            report = build_report("figures", seed=SEED, table2_replications=SMALL)
            out = tmp_path / name
            write_report(report, str(out))
            dirs.append(out)
        for path in sorted(dirs[0].iterdir()):
            other = dirs[1] / path.name
            assert path.read_bytes() == other.read_bytes(), path.name

    def test_sections_match_selection(self):
        report = build_report("epi", seed=SEED, epi_replications=SMALL)
        assert report.epi and not report.table2 and not report.figure_series
        report = build_report("table2", seed=SEED, table2_replications=SMALL)
        assert report.table2 and not report.epi

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            build_report("everything")

    def test_default_seed_outputs_match_golden_sha256(self, tmp_path):
        paths = sorted(write_report(build_report("all", seed=SEED), str(tmp_path)))
        tree = hashlib.sha256()
        per_file = {}
        for path in map(Path, paths):
            data = path.read_bytes()
            tree.update(data)
            per_file[path.name] = hashlib.sha256(data).hexdigest()
        assert sorted(per_file) == sorted(GOLDEN_FILE_SHA256)
        for name, digest in per_file.items():
            assert digest == GOLDEN_FILE_SHA256[name], (
                f"{name} differs from the seed-{SEED} golden output (numpy {np.__version__})"
            )
        assert tree.hexdigest() == GOLDEN_TREE_SHA256, f"tree digest differs (numpy {np.__version__})"

    def test_nan_serialized_as_null(self, tmp_path):
        report = ReproductionReport(environment={"seed": 1, "x": math.nan})
        write_report(report, str(tmp_path))
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["environment"]["x"] is None
