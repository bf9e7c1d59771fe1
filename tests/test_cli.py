import ast
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nbbounds
from nbbounds import (
    GammaMixture,
    NBParams,
    bernstein_dependent_bound,
    build_moment_matched_design,
    chernoff_mean_deviation_bound,
    control_limit,
    epi_control_limits,
    load_counts,
    load_scenario,
    monitor_step,
    start_monitoring,
    write_history,
)
from nbbounds import cli, simulation
from nbbounds.cli import main
from nbbounds.reproduce import build_report, write_report

SCENARIO = {
    "regions": [
        {"weekly_mu": 210, "kappa": 0.35},
        {"weekly_mu": 340, "kappa": 0.25},
        {"weekly_mu": 290, "kappa": 0.40},
        {"weekly_mu": 480, "kappa": 0.20},
        {"weekly_mu": 380, "kappa": 0.30},
    ],
    "weeks": 12,
    "alpha_levels": [0.05, 0.01],
}


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "nbbounds", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def assert_error_exit_1(proc, *fragments):
    """Exit 1 with one ``error:`` line holding every fragment, no traceback."""
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, proc.stderr
    for fragment in fragments:
        assert fragment in errors[0]


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenario") / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return str(path)


class TestBoundCommand:
    def test_kolmogorov_dep_at_design_threshold(self):
        proc = run_cli(
            "bound", "kolmogorov-dep",
            "--shape", "4", "--rate", "4", "--thetas", "@design",
            "--lambda", "476.52",
        )
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        assert abs(record["bound_value"] - 0.05) < 1e-3
        assert record["components"]["cond_term"] > 0

    def test_chernoff_matches_library_bit_exactly(self):
        proc = run_cli("bound", "chernoff", "--params", "3:0.3,5:0.5,8:0.7", "--a", "2")
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        params = [NBParams(3, 0.3), NBParams(5, 0.5), NBParams(8, 0.7)]
        expected = chernoff_mean_deviation_bound(params, 2.0)
        assert record["bound_value"] == expected.bound_value
        assert record["optimizer"]["t_star"] == expected.optimizer.t_star

    def test_chernoff_at_subnormal_p_exit_0(self):
        # t_max is about 1e-320, a subnormal: the solve stays below it
        proc = run_cli("bound", "chernoff", "--params", "1e-20:1e-320", "--a", "1")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["bound_value"] == 1.0

    def test_bernstein_clamped(self):
        proc = run_cli(
            "bound", "bernstein",
            "--shape", "4", "--rate", "4", "--thetas", "7,5", "--lambda", "0.0001",
        )
        record = json.loads(proc.stdout)
        assert record["bound_value"] == 1.0
        assert record["raw_value"] > 1.0

    def test_thetas_from_file(self, tmp_path):
        theta_file = tmp_path / "thetas.txt"
        theta_file.write_text("7\n5\n")
        proc = run_cli(
            "bound", "kolmogorov-dep",
            "--shape", "4", "--rate", "4", "--thetas", f"@{theta_file}",
            "--lambda", "10",
        )
        assert proc.returncode == 0

    def test_crlf_thetas_file_reads_as_lf(self, tmp_path):
        argv = ["bound", "bernstein", "--shape", "4", "--rate", "4", "--lambda", "60"]
        lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
        lf.write_bytes(b"7\n5\n\n0.5\n")
        crlf.write_bytes(b"7\r\n5\r\n\r\n0.5\r\n")
        expected = run_cli(*argv, "--thetas", f"@{lf}")
        proc = run_cli(*argv, "--thetas", f"@{crlf}")
        assert (proc.returncode, proc.stdout) == (0, expected.stdout)

    def test_thetas_file_with_bom_reads_as_without(self, tmp_path):
        argv = ["bound", "bernstein", "--shape", "4", "--rate", "4", "--lambda", "60"]
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_bytes(b"7\n5\n0.5\n")
        bom.write_bytes(b"\xef\xbb\xbf7\n5\n0.5\n")
        expected = run_cli(*argv, "--thetas", f"@{plain}")
        proc = run_cli(*argv, "--thetas", f"@{bom}")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected.stdout, "")

    def test_thetas_file_bad_line_exit_1(self, tmp_path):
        theta_file = tmp_path / "thetas.txt"
        theta_file.write_text("7\n\nfive\n")
        proc = run_cli(
            "bound", "kolmogorov-dep",
            "--shape", "4", "--rate", "4", "--thetas", f"@{theta_file}",
            "--lambda", "10",
        )
        assert_error_exit_1(proc, str(theta_file), "line 3", "'five'")

    def test_delimited_format(self):
        proc = run_cli(
            "bound", "kolmogorov-indep",
            "--params", "3:0.3", "--lambda", "5", "--format", "delimited",
        )
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("threshold,bound_value,raw_value")
        assert len(lines) == 2

    def test_usage_error_exit_2(self):
        proc = run_cli("bound", "kolmogorov-indep", "--params", "3:0.3")
        assert proc.returncode == 2

    def test_domain_error_exit_1(self):
        proc = run_cli("bound", "chernoff", "--params", "3:0.3", "--a", "-1")
        assert proc.returncode == 1
        assert "positive" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["kolmogorov-dep", "--thetas", "7,5", "--lambda", "1e-200"],
            ["kolmogorov-dep", "--thetas", "1e308,1e308", "--lambda", "10"],
            ["bernstein", "--thetas", "1e308,1e308", "--lambda", "10"],
        ],
        ids=" ".join,
    )
    def test_mixture_bound_out_of_float_range_exit_1(self, argv, capsys):
        argv = ["bound", argv[0], "--shape", "4", "--rate", "4", *argv[1:]]
        proc = run_cli(*argv)
        assert_error_exit_1(proc, "float-range")
        assert "RuntimeWarning" not in proc.stderr
        assert main(argv) == 1
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert errors == [line for line in capsys.readouterr().err.splitlines()
                          if line.startswith("error:")]


    @pytest.mark.parametrize(
        "argv, raw_value",
        [
            (["kolmogorov-indep", "--params", "3:0.3", "--lambda", "1e300"], 0.0),
            # the variance r*(1-p)/p**2 overflows; the bound is 1e310 / 1e400
            (["kolmogorov-indep", "--params", "1e300:1e-5", "--lambda", "1e200"], 9.9999e-91),
            (["bernstein", "--shape", "4", "--rate", "4", "--thetas", "1e-200", "--lambda", "1"],
             2.0 * math.exp(-0.375)),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else repr(value),
    )
    def test_finite_bound_past_an_out_of_range_square_exit_0(self, argv, raw_value):
        proc = run_cli("bound", *argv)
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout)
        assert record["raw_value"] == raw_value
        assert record["bound_value"] == min(1.0, raw_value)

    def test_finite_bound_past_an_overflowing_product_exit_0(self):
        # lam*rate = 2.4e308 overflows, but lam*rate/M = 8 and the mixing
        # exponent is min(64/(32*4), 8/4) = 0.5
        proc = run_cli("bound", "bernstein", "--shape", "4", "--rate", "2.4e108",
                       "--thetas", "3e307", "--lambda", "1e200")
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout)
        assert record["components"]["cond_term"] == 0.0
        assert record["raw_value"] == pytest.approx(2.0 * math.exp(-0.5), rel=1e-14, abs=0)
        assert record["bound_value"] == 1.0


class TestLimitCommand:
    def test_scenario_limits(self, scenario_file):
        proc = run_cli("limit", "--scenario", scenario_file)
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        assert abs(record["v_n"] - 2_028_900.0) < 1e-6
        limits = {entry["alpha"]: entry["lambda"] for entry in record["limits"]}
        assert abs(limits[0.05] - 6370.0) <= 1.0
        assert abs(limits[0.01] - 14_244.0) <= 1.0

    def test_params_with_poisson_component(self):
        proc = run_cli("limit", "--params", "5:0", "--alpha", "0.05")
        record = json.loads(proc.stdout)
        assert record["v_n"] == 5.0

    def test_alpha_near_one(self):
        proc = run_cli("limit", "--params", "5:0.2", "--alpha", "0.999999999")
        record = json.loads(proc.stdout)
        assert abs(record["limits"][0]["lambda"] - record["v_n"] ** 0.5) < 1e-4

    def test_empty_region_list_exit_1(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"regions": [], "weeks": 12}))
        proc = run_cli("limit", "--scenario", str(path))
        assert proc.returncode == 1

    def test_scenario_with_bom_reads_as_without(self, scenario_file, tmp_path):
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(scenario_file).read_bytes())
        expected = run_cli("limit", "--scenario", scenario_file)
        proc = run_cli("limit", "--scenario", str(bom))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected.stdout, "")

    def test_missing_scenario_file_exit_1(self):
        proc = run_cli("limit", "--scenario", "/does/not/exist.json")
        assert proc.returncode == 1
        assert "cannot read scenario file" in proc.stderr

    def test_non_utf8_scenario_exit_1(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"regions": [{"id": "caf\xe9", "weekly_mu": 210, "kappa": 0.35}], '
                         b'"weeks": 12}')
        proc = run_cli("limit", "--scenario", str(path))
        assert_error_exit_1(proc, "scenario file is not UTF-8")

    def test_non_finite_alpha_level_exit_1(self, tmp_path):
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps({**SCENARIO, "alpha_levels": [0.05, float("inf")]}))
        proc = run_cli("limit", "--scenario", str(path))
        assert_error_exit_1(proc, "alpha_levels[1]", "inf")

    def test_alpha_levels_object_exit_1(self, tmp_path):
        # the keys of {"0.05": 1} were read as levels: exit 0 at alpha 0.05
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps({**SCENARIO, "alpha_levels": {"0.05": 1}}))
        proc = run_cli("limit", "--scenario", str(path))
        assert_error_exit_1(proc, "invalid-parameter", "alpha_levels must be an array")
        assert proc.stdout == ""

    @pytest.mark.parametrize("command", ["limit", "monitor"])
    def test_empty_alpha_levels_exit_1(self, command, tmp_path):
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps({**SCENARIO, "alpha_levels": []}))
        counts = tmp_path / "counts.csv"
        counts.write_text("region_1,region_2,region_3,region_4,region_5\n1,2,3,4,5\n")
        argv = ["--counts", str(counts)] if command == "monitor" else []
        proc = run_cli(command, "--scenario", str(path), *argv)
        assert_error_exit_1(proc, "invalid-parameter", "alpha_levels")
        assert proc.stdout == ""

    @pytest.mark.parametrize("command", ["limit", "monitor"])
    def test_scenario_variance_out_of_float_range_exit_1(self, command, tmp_path):
        # 12 * (1e200 + 0.3 * 1e400) overflows; weekly_mu**2 raised OverflowError
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"regions": [{"weekly_mu": 1e200, "kappa": 0.3}],
                                    "weeks": 12, "alpha_levels": [0.05]}))
        counts = tmp_path / "counts.csv"
        counts.write_text("region_1\n1\n")
        argv = ["--counts", str(counts)] if command == "monitor" else []
        proc = run_cli(command, "--scenario", str(path), *argv)
        assert_error_exit_1(proc, "float-range")
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "argv, v_n, limit",
        [
            # 12 * (1e200 + 1e-250 * 1e400): kappa * weekly_mu**2 is formed apart
            (["--scenario", "TINY_KAPPA"], 1.2e201, 1.5491933384829668e101),
            (["--params", "1e200:1e-250"], 1e200, 4.47213595499958e100),
            # v_n / alpha overflows, its square root does not
            (["--params", "1e150:0.5", "--alpha", "1e-10"], 4.9999999999999995e299,
             7.071067811865475e154),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else repr(value),
    )
    def test_limit_past_an_out_of_box_input_exit_0(self, argv, v_n, limit, tmp_path):
        path = tmp_path / "tiny_kappa.json"
        path.write_text(json.dumps({"regions": [{"weekly_mu": 1e200, "kappa": 1e-250}],
                                    "weeks": 12, "alpha_levels": [0.05]}))
        proc = run_cli("limit", *[str(path) if arg == "TINY_KAPPA" else arg for arg in argv])
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout)
        assert record["v_n"] == v_n
        assert record["limits"][0]["lambda"] == pytest.approx(limit, rel=2e-15, abs=0)

    @pytest.mark.parametrize(
        "doc, fragment",
        [
            ([SCENARIO], "scenario document must be an object"),
            ({"weeks": 12}, "scenario field regions is missing"),
            ({**SCENARIO, "regions": [5]}, "scenario field regions[0] must be an object, got 5"),
            ({**SCENARIO, "regions": [{"weekly_mu": 210}]}, "regions[0].kappa is missing"),
            ({**SCENARIO, "regions": [{"id": " a", "weekly_mu": 210, "kappa": 0.35}]},
             "scenario field regions[0].id must not start or end with whitespace, got ' a'"),
        ],
        ids=["document-array", "regions-missing", "region-number", "kappa-missing",
             "id-leading-space"],
    )
    @pytest.mark.parametrize("command", ["limit", "monitor"])
    def test_malformed_scenario_named_exit_1(self, command, doc, fragment, tmp_path):
        # Python's own words before: 'int' object is not subscriptable, and the like
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        counts = tmp_path / "counts.csv"
        counts.write_text(" a\n3\n")
        argv = ["--counts", str(counts)] if command == "monitor" else []
        proc = run_cli(command, "--scenario", str(path), *argv)
        assert_error_exit_1(proc, "invalid-parameter", fragment)
        assert proc.stdout == ""

    def test_invalid_json_exit_1(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        proc = run_cli("limit", "--scenario", str(path))
        assert proc.returncode == 1

    def test_delimited_format(self, scenario_file):
        proc = run_cli("limit", "--scenario", scenario_file, "--format", "delimited")
        lines = proc.stdout.splitlines()
        assert lines[0] == "v_n,alpha,lambda"
        assert len(lines) == 3


class TestMonitorCommand:
    def _counts_csv(self, tmp_path, rows):
        path = tmp_path / "counts.csv"
        header = ",".join(f"region_{j + 1}" for j in range(5))
        lines = [header] + [",".join(str(v) for v in row) for row in rows]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_counts_at_means_no_alarm(self, scenario_file, tmp_path):
        rows = [[210, 340, 290, 480, 380]] * 12
        proc = run_cli(
            "monitor", "--scenario", scenario_file,
            "--counts", self._counts_csv(tmp_path, rows), "--alpha", "0.05",
        )
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "period,S_t,lambda_alpha,alarm"
        assert len(lines) == 13
        assert all(line.endswith("false") for line in lines[1:])

    def test_boundary_excess_alarms_exit_3(self, scenario_file, tmp_path):
        lam = control_limit(2_028_900.0, 0.05)
        rows = [[210 + lam, 340, 290, 480, 380]]
        proc = run_cli(
            "monitor", "--scenario", scenario_file,
            "--counts", self._counts_csv(tmp_path, rows), "--alpha", "0.05",
        )
        assert proc.returncode == 3
        assert proc.stdout.splitlines()[1].endswith("true")

    def test_counts_past_the_horizon_exit_1(self, scenario_file, tmp_path):
        rows = [[210, 340, 290, 480, 380]] * 13  # the scenario has 12 weeks
        out = tmp_path / "history.csv"
        proc = run_cli(
            "monitor", "--scenario", scenario_file,
            "--counts", self._counts_csv(tmp_path, rows), "--out", str(out),
        )
        assert_error_exit_1(proc, "error: horizon-exceeded: ", "horizon of 12 periods")
        assert not out.exists()

    def test_history_written_to_file(self, scenario_file, tmp_path):
        rows = [[210, 340, 290, 480, 380]] * 3
        out = tmp_path / "history.csv"
        proc = run_cli(
            "monitor", "--scenario", scenario_file,
            "--counts", self._counts_csv(tmp_path, rows), "--out", str(out),
        )
        assert proc.returncode == 0
        assert out.read_text().splitlines()[0] == "period,S_t,lambda_alpha,alarm"

    def test_non_finite_count_exit_1(self, scenario_file, tmp_path):
        rows = [[210, 340, 290, 480, 380], [210, "nan", 290, 480, 380]]
        proc = run_cli(
            "monitor", "--scenario", scenario_file,
            "--counts", self._counts_csv(tmp_path, rows),
        )
        assert proc.returncode == 1
        assert "error:" in proc.stderr and "line 3" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_utf8_counts_exit_1(self, scenario_file, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"region_1,region_2,region_3,region_4,region_5\n1,2,3,4,5\xe9\n")
        proc = run_cli("monitor", "--scenario", scenario_file, "--counts", str(path))
        assert_error_exit_1(proc, "counts file is not UTF-8")

    def test_counts_with_bom_read_as_without(self, tmp_path):
        # a spreadsheet export starts with a byte-order mark before the first id
        scenario = tmp_path / "named.json"
        scenario.write_text(json.dumps({"regions": [{"id": "north", "weekly_mu": 10, "kappa": 0.1},
                                                    {"id": "south", "weekly_mu": 20, "kappa": 0.1}],
                                        "weeks": 4}))
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(b"north,south\n12,18\n9,25\n")
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        expected = run_cli("monitor", "--scenario", str(scenario), "--counts", str(plain))
        proc = run_cli("monitor", "--scenario", str(scenario), "--counts", str(bom))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected.stdout, "")
        assert len(proc.stdout.splitlines()) == 3

    def test_unwritable_history_exit_1(self, scenario_file, tmp_path):
        out = tmp_path / "missing" / "h.csv"
        proc = run_cli(
            "monitor", "--scenario", scenario_file,
            "--counts", self._counts_csv(tmp_path, [[210, 340, 290, 480, 380]]),
            "--out", str(out),
        )
        assert_error_exit_1(proc, f"cannot write to {out}")
        assert proc.stdout == ""

    def test_unwritable_history_error_has_its_code(self, scenario_file, tmp_path):
        out = tmp_path / "missing" / "h.csv"
        proc = run_cli(
            "monitor", "--scenario", scenario_file,
            "--counts", self._counts_csv(tmp_path, [[210, 340, 290, 480, 380]]),
            "--out", str(out),
        )
        assert_error_exit_1(proc, f"error: invalid-parameter: cannot write to {out}: ")

    def test_crlf_counts_with_blank_lines_read_as_lf(self, scenario_file, tmp_path):
        lf = self._counts_csv(tmp_path, [[250, 300, 310, 500, 390], [190, 360, 280, 470, 400.5]])
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(Path(lf).read_bytes().replace(b"\n", b"\r\n\r\n"))
        expected = run_cli("monitor", "--scenario", scenario_file, "--counts", lf)
        proc = run_cli("monitor", "--scenario", scenario_file, "--counts", str(crlf))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected.stdout, "")
        assert len(proc.stdout.splitlines()) == 3
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"region_1,region_2,region_3,region_4,region_5\r\n\r\n1,2,3,4,oops\r\n")
        proc = run_cli("monitor", "--scenario", scenario_file, "--counts", str(bad))
        assert_error_exit_1(proc, "invalid-parameter", "malformed counts row at line 3")

    def test_duplicate_region_ids_exit_1(self, tmp_path):
        scenario = tmp_path / "dup.json"
        scenario.write_text(json.dumps({
            "regions": [
                {"id": "a", "weekly_mu": 10, "kappa": 0.1},
                {"id": "a", "weekly_mu": 20, "kappa": 0.1},
            ],
            "weeks": 4,
        }))
        counts = tmp_path / "counts.csv"
        counts.write_text("a,b\n10,20\n")
        proc = run_cli("monitor", "--scenario", str(scenario), "--counts", str(counts))
        assert_error_exit_1(proc, "duplicate region id 'a'")

    def test_counts_header_repeating_a_region_id_exit_1(self, tmp_path):
        scenario = tmp_path / "ab.json"
        scenario.write_text(json.dumps({
            "regions": [
                {"id": "a", "weekly_mu": 10, "kappa": 0.1},
                {"id": "b", "weekly_mu": 20, "kappa": 0.1},
            ],
            "weeks": 4,
        }))
        counts = tmp_path / "counts.csv"
        counts.write_text("a,a,b\n10,99999,20\n")
        proc = run_cli("monitor", "--scenario", str(scenario), "--counts", str(counts))
        assert_error_exit_1(proc, "invalid-parameter", "counts header repeats region id 'a'")
        assert proc.stdout == ""

    def test_malformed_row_exit_1_names_line(self, scenario_file, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("region_1,region_2,region_3,region_4,region_5\n1,2,3,4,oops\n")
        proc = run_cli("monitor", "--scenario", scenario_file, "--counts", str(path))
        assert proc.returncode == 1
        assert "line 2" in proc.stderr

    def test_deviation_out_of_float_range_exit_1(self, tmp_path, capsys):
        # 1e308 + 1e308 overflows: S_t was written as inf, with exit 3
        scenario = tmp_path / "two.json"
        scenario.write_text(json.dumps({"regions": [{"weekly_mu": 10, "kappa": 0.1},
                                                    {"weekly_mu": 20, "kappa": 0.1}],
                                        "weeks": 4}))
        counts = tmp_path / "counts.csv"
        counts.write_text("region_1,region_2\n5,25\n1e308,1e308\n")
        out = tmp_path / "history.csv"
        argv = ["monitor", "--scenario", str(scenario), "--counts", str(counts)]
        assert main(argv) == 1
        assert main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: float-range: the cumulative deviation at period 2 is outside the "
            "floating-point range"
        ] * 2
        assert not out.exists()


class TestReproduceCommand:
    def test_table2_report(self, tmp_path):
        proc = run_cli(
            "reproduce", "table2", "--seed", "42", "--reps", "200",
            "--out", str(tmp_path),
        )
        assert proc.returncode == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["environment"]["seed"] == 42
        row = doc["table2"]["mean"]
        expected = 100.0 * (row["dependent"] / row["independent"] - 1.0)
        assert abs(row["percent_change"] - expected) < 1e-9

    def test_figures_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            proc = run_cli(
                "reproduce", "figures", "--seed", "42", "--reps", "200",
                "--out", str(tmp_path / name),
            )
            assert proc.returncode == 0
        for path in sorted((tmp_path / "a").iterdir()):
            assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()

    def test_workers_option_is_gone(self, capsys):
        # the usable CPUs alone decide the split (criterion 8 checks it)
        with pytest.raises(SystemExit) as info:
            main(["reproduce", "all", "--workers", "2"])
        assert info.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_sharded_run_equals_one_worker(self, tmp_path, monkeypatch):
        # 1,200 replications shard across every usable CPU in the subprocess
        proc = run_cli(
            "reproduce", "table2", "--seed", "42", "--reps", "1200",
            "--out", str(tmp_path / "cli"),
        )
        assert proc.returncode == 0, proc.stderr
        monkeypatch.setattr(simulation, "_usable_cpus", lambda: 1)
        report = build_report("table2", seed=42, table2_replications=1200)
        write_report(report, str(tmp_path / "serial"))
        cli = (tmp_path / "cli" / "report.json").read_bytes()
        assert cli == (tmp_path / "serial" / "report.json").read_bytes()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_exit_1(self, tmp_path, seed):
        proc = run_cli(
            "reproduce", "all", "--seed", seed, "--reps", "10", "--out", str(tmp_path),
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: invalid-parameter: seed ")
        assert seed in proc.stderr
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("which", ["table2", "figures", "all"])
    def test_single_replication_table_exit_1(self, tmp_path, which):
        proc = run_cli("reproduce", which, "--reps", "1", "--out", str(tmp_path))
        assert_error_exit_1(proc, "table2 needs at least 2 replications, got 1")
        assert list(tmp_path.iterdir()) == []

    def test_single_replication_epi_runs(self, tmp_path):
        proc = run_cli("reproduce", "epi", "--reps", "1", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["environment"]["replications"] == {"epi": 1}

    def test_tied_replications_give_null_percent_change(self, tmp_path):
        # at seed 270 both independent replications reach the same maximum
        proc = run_cli(
            "reproduce", "table2", "--seed", "270", "--reps", "2", "--out", str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        sd = json.loads((tmp_path / "report.json").read_text())["table2"]["sd"]
        assert sd["independent"] == 0.0
        assert sd["percent_change"] is None

    def test_fresh_seed_recorded(self, tmp_path):
        proc = run_cli(
            "reproduce", "epi", "--fresh", "--reps", "100", "--out", str(tmp_path),
        )
        assert proc.returncode == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert isinstance(doc["environment"]["seed"], int)

    def test_out_env_var(self, tmp_path, monkeypatch):
        proc = subprocess.run(
            [sys.executable, "-m", "nbbounds", "reproduce", "epi", "--reps", "100"],
            capture_output=True,
            text=True,
            env={
                "NBBOUNDS_OUT": str(tmp_path),
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": os.pathsep.join(sys.path),
            },
        )
        assert proc.returncode == 0
        assert (tmp_path / "report.json").exists()

    def test_unwritable_directory_exit_1(self):
        proc = run_cli("reproduce", "epi", "--reps", "100", "--out", "/proc/nope")
        assert proc.returncode == 1

    @pytest.mark.parametrize("via", ["--out", "NBBOUNDS_OUT"])
    def test_unwritable_directory_fails_before_monte_carlo(self, via, tmp_path, monkeypatch,
                                                           capsys):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"  # under a regular file, so no directory can be made

        def build_report(*args, **kwargs):
            raise AssertionError("the report was built before its directory was checked")

        monkeypatch.setattr(cli, "build_report", build_report)
        monkeypatch.delenv("NBBOUNDS_OUT", raising=False)
        argv = ["reproduce", "all"]
        if via == "--out":
            argv += ["--out", str(out)]
        else:
            monkeypatch.setenv("NBBOUNDS_OUT", str(out))
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: invalid-parameter: cannot write to {out}: ")

    def test_directory_check_leaves_no_file(self, tmp_path):
        proc = run_cli("reproduce", "epi", "--reps", "1", "--out", str(tmp_path / "new"))
        assert proc.returncode == 0, proc.stderr
        assert [path.name for path in (tmp_path / "new").iterdir()] == ["report.json"]

    def test_unwritable_directory_error_has_its_code(self, tmp_path):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"  # under a regular file, so no directory can be made
        proc = run_cli("reproduce", "epi", "--reps", "1", "--out", str(out))
        assert_error_exit_1(proc, f"error: invalid-parameter: cannot write to {out}: ")
        assert proc.stdout == ""


class TestRuntimeImports:
    """scipy is a test-only dependency; nothing on the CLI path may load it.

    numpy loads on first use: importing the package, every command but
    ``reproduce`` (the four bounds, ``limit``, ``monitor``) and their
    out-of-domain exits never run numpy's own ``__init__``, and print what
    the same call prints in a process that has numpy loaded. ``reproduce``
    loads it and still writes what the library computes.
    """

    # (argv, exit code); SCENARIO, @THETAS, QUIET and OUTBREAK name files
    # the test writes, and the outbreak series raises the alarm
    EVERY_COMMAND_BUT_REPRODUCE = [
        pytest.param(argv, code, id=" ".join(argv))
        for argv, code in [
            (["bound", "chernoff", "--params", "3:0.3,5:0.5,8:0.7", "--a", "2"], 0),
            (["bound", "kolmogorov-indep", "--params", "3:0.3,5:0.5", "--lambda", "5"], 0),
            (["limit", "--params", "210:0.35,340:0.25", "--alpha", "0.05,0.01"], 0),
            (["limit", "--scenario", "SCENARIO"], 0),
            (["bound", "kolmogorov-dep", "--shape", "4", "--rate", "4", "--thetas", "@design",
              "--lambda", "300"], 0),
            (["bound", "bernstein", "--shape", "3", "--rate", "1.5", "--thetas",
              "7,5,0.5,2.25,1.125,9,3.5,6,4.75", "--lambda", "60"], 0),
            (["bound", "bernstein", "--shape", "3", "--rate", "1.5", "--thetas", "@THETAS",
              "--lambda", "60"], 0),
            (["monitor", "--scenario", "SCENARIO", "--counts", "QUIET"], 0),
            (["monitor", "--scenario", "SCENARIO", "--counts", "OUTBREAK"], 3),
        ]
    ]
    OUT_OF_DOMAIN = [
        ["bound", "kolmogorov-indep", "--params", "3:0.3,5:0.5", "--lambda", "-5"],
        ["bound", "chernoff", "--params", "3:1.5", "--a", "1"],
        ["limit", "--params", "210:0.35,340:0.25", "--alpha", "1.5"],
        ["bound", "kolmogorov-indep", "--params", "3:0.3", "--lambda", "1e-200"],
        ["limit", "--params", "210:0.35", "--alpha", ","],
        ["limit", "--params", "1e150:1", "--alpha", "1e-320"],  # about 1e310
        ["limit", "--params", "1e300:0.35", "--alpha", "0.05"],
        ["bound", "chernoff", "--params", "1e300:1e-10", "--a", "1"],  # total mean about 1e310
    ]

    @staticmethod
    def _importtime(*args):
        """Run the interpreter on ``args`` with ``-X importtime``, which logs
        every module imported to stderr; return the process and those modules."""
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", *args], capture_output=True, text=True
        )
        modules = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                   if line.startswith("import time:")]
        return proc, modules

    @staticmethod
    def _numpy(modules):
        return [m for m in modules if m == "numpy" or m.startswith("numpy.")]

    @staticmethod
    def _scipy(modules):
        return [m for m in modules if m == "scipy" or m.startswith("scipy.")]

    def test_import_loads_no_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, nbbounds; print('\\n'.join(sys.modules))"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        modules = proc.stdout.splitlines()
        assert "nbbounds.bounds" in modules
        assert self._scipy(modules) == []

    def test_bound_command_loads_no_scipy(self):
        proc, modules = self._importtime(
            "-m", "nbbounds", "bound", "kolmogorov-indep", "--params", "3:0.3", "--lambda", "5"
        )
        assert proc.returncode == 0
        assert "nbbounds.cli" in modules
        assert self._scipy(modules) == []

    def test_import_loads_no_numpy(self):
        proc, modules = self._importtime("-c", "import nbbounds")
        assert proc.returncode == 0, proc.stderr
        assert "nbbounds.bounds" in modules
        assert self._numpy(modules) == []

    @pytest.mark.parametrize("argv, code", EVERY_COMMAND_BUT_REPRODUCE)
    def test_every_command_but_reproduce_loads_no_numpy(
        self, argv, code, scenario_file, tmp_path, capsys
    ):
        thetas = tmp_path / "thetas.txt"
        thetas.write_text("7\n5\n0.5\n\n2.25\n1.125\n9\n3.5\n6\n4.75\n")
        header = ",".join(f"region_{j + 1}" for j in range(5))
        quiet, outbreak = tmp_path / "quiet.csv", tmp_path / "outbreak.csv"
        quiet.write_text(f"{header}\n250,300,310,500,390\n190,360,280,470,400.5\n")
        outbreak.write_text(f"{header}\n" + "420,680,580,960,760\n" * 5)
        files = {"SCENARIO": scenario_file, "@THETAS": f"@{thetas}",
                 "QUIET": str(quiet), "OUTBREAK": str(outbreak)}
        argv = [files.get(arg, arg) for arg in argv]
        proc, modules = self._importtime("-m", "nbbounds", *argv)
        assert proc.returncode == code, proc.stderr
        assert "nbbounds.cli" in modules
        assert self._numpy(modules) == []
        assert main(argv) == code
        assert proc.stdout == capsys.readouterr().out

    @pytest.mark.parametrize("argv", OUT_OF_DOMAIN, ids=" ".join)
    def test_out_of_domain_exit_loads_no_numpy(self, argv, capsys):
        proc, modules = self._importtime("-m", "nbbounds", *argv)
        assert_error_exit_1(proc)
        assert self._numpy(modules) == []
        assert main(argv) == 1
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert errors == capsys.readouterr().err.splitlines()

    def test_bernstein_design_matches_library(self):
        proc = run_cli(
            "bound", "bernstein",
            "--shape", "4", "--rate", "4", "--thetas", "@design", "--lambda", "300",
        )
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout)
        thetas = [q.mean() for q in build_moment_matched_design().independent]
        expected = bernstein_dependent_bound(GammaMixture(4.0, 4.0, thetas), 300.0)
        assert record["bound_value"] == expected.bound_value
        assert record["raw_value"] == expected.raw_value
        cond, mix = expected.components
        assert record["components"] == {"cond_term": cond, "mix_term": mix}

    def test_monitor_matches_library(self, scenario_file, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text(
            "region_1,region_2,region_3,region_4,region_5\n"
            "250,300,310,500,390\n190,360,280,470,400\n230,330,300,510,370\n"
        )
        proc = run_cli("monitor", "--scenario", scenario_file, "--counts", str(counts))
        assert proc.returncode == 0, proc.stderr
        scenario, alphas = load_scenario(scenario_file)
        (_, limit), = epi_control_limits(scenario, alphas[:1])
        state = start_monitoring(limit, scenario.weeks)
        for row in load_counts(str(counts), scenario):
            state = monitor_step(state, row, [r.weekly_mu for r in scenario.regions])
        history = io.StringIO()
        write_history(state, history)
        assert proc.stdout == history.getvalue()

    def test_reproduce_table2_matches_library(self, tmp_path):
        proc = run_cli(
            "reproduce", "table2", "--seed", "42", "--reps", "2", "--out", str(tmp_path / "cli"),
        )
        assert proc.returncode == 0, proc.stderr
        report = build_report("table2", seed=42, table2_replications=2, epi_replications=2)
        write_report(report, str(tmp_path / "lib"))
        names = sorted(path.name for path in (tmp_path / "lib").iterdir())
        assert sorted(path.name for path in (tmp_path / "cli").iterdir()) == names
        for name in names:
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()

    def test_numpy_imported_first_is_reused(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, types, numpy, nbbounds\n"
             "from nbbounds import _lazy\n"
             "assert sys.modules['numpy'] is numpy and _lazy.np is numpy\n"
             "assert type(numpy) is types.ModuleType\n"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_first_use_binds_the_real_numpy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, types\n"
             "from nbbounds import bounds, cli, distributions, reproduce, rng, simulation, "
             "surveillance\n"
             "assert distributions.np.zeros(3).sum() == 0.0\n"
             "numpy = sys.modules['numpy']\n"
             "assert type(numpy) is types.ModuleType and hasattr(numpy, 'ndarray')\n"
             "import numpy as again\n"
             "assert again is numpy\n"
             "for module in (bounds, cli, distributions, reproduce, rng, simulation, "
             "surveillance):\n"
             "    assert module.np is numpy, module.__name__\n"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv, fragment",
    [
        pytest.param(argv, fragment, id=" ".join(arg or "''" for arg in argv))
        for argv, fragment in [
            (["limit", "--params", "100:0.2", "--alpha", ""], "alpha list '' is empty"),
            (["limit", "--scenario", "SCENARIO", "--alpha", ""], "alpha list '' is empty"),
            (["limit", "--params", "100:0.2", "--scenario", ""], "cannot read scenario file"),
            (["reproduce", "epi", "--reps", "1", "--out", ""], "invalid-parameter: cannot write to "),
            (["monitor", "--scenario", "SCENARIO", "--counts", "COUNTS", "--out", ""],
             "invalid-parameter: cannot write to "),
        ]
    ],
)
def test_empty_option_value_exit_1_and_writes_nothing(
    argv, fragment, scenario_file, tmp_path, monkeypatch
):
    # an empty value is a bad value, not an option left out: it neither
    # falls back to a default level nor writes to stdout or the working directory
    monkeypatch.delenv(cli.OUT_ENV_VAR, raising=False)
    counts = tmp_path / "counts.csv"
    counts.write_text("region_1,region_2,region_3,region_4,region_5\n250,300,310,500,390\n")
    workdir = tmp_path / "work"
    workdir.mkdir()
    files = {"SCENARIO": scenario_file, "COUNTS": str(counts)}
    proc = run_cli(*[files.get(arg, arg) for arg in argv], cwd=workdir)
    assert_error_exit_1(proc, fragment)
    assert proc.stdout == ""
    assert list(workdir.iterdir()) == []


class TestErrorCodes:
    def test_every_raised_code_is_documented(self):
        schema = Path(__file__).resolve().parents[1] / "docs" / "output_schema.md"
        table_codes = re.compile(r"^\| `([a-z-]+)` \|", re.MULTILINE)
        documented = set(table_codes.findall(schema.read_text(encoding="utf-8")))
        raised = set()
        for source in Path(nbbounds.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "DomainError":
                    code = node.args[0]
                    assert isinstance(code, ast.Constant), f"{source.name}:{node.lineno}"
                    raised.add(code.value)
        assert raised and raised <= documented


def test_package_exports_each_module_name_once():
    from nbbounds import _version, bounds, distributions, errors, rng, surveillance

    assert len(set(nbbounds.__all__)) == len(nbbounds.__all__)
    owners = {"__version__": _version, "DomainError": errors, "RngHandle": rng}
    for module in (distributions, bounds, simulation, surveillance):
        owners.update(dict.fromkeys(module.__all__, module))
    assert sorted(nbbounds.__all__) == sorted(owners)
    for name, module in owners.items():
        assert getattr(nbbounds, name) is getattr(module, name), name
