"""Tests of the benchmark itself: ``python -m pytest perfbench`` from the root.

The smoke runs use ``--seconds 0`` (one round of ops per run). The
corruption tests check that a wrong output or exit code turns into a
failed op, so ``error_rate`` cannot read 0 while the program misbehaves.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import parse_importtime  # noqa: E402

from nbbounds import reproduce  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


def test_spec_names_every_metric_and_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    summary = "\n".join(lines[:-1])
    for name, unit in expected.items():
        assert f"{name} " in summary and f" {unit}" in summary
    assert "error_rate" in summary
    record = json.loads(lines[-2][len("record "):])
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "bit_generator",
                "git_commit", "seed", "run_seconds"):
        assert key in record["provenance"]
    if trace and workload == "reproduce-all":
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["rng.generators_built"] > 0
        assert values["trace.mc_write_share"] >= 0.9


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "validate-bounds", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_flipped_byte_in_report_copy_fails_the_op(tmp_path):
    seed = workloads.GOLDEN["reproduce_all"]["seed"]
    paths = reproduce.write_report(reproduce.build_report("all", seed=seed), str(tmp_path / "a"))
    assert workloads.check_report(paths, seed, {}) == []
    copy = Path(shutil.copytree(tmp_path / "a", tmp_path / "b"))
    data = bytearray((copy / "report.json").read_bytes())
    data[len(data) // 2] ^= 0x01
    (copy / "report.json").write_bytes(bytes(data))
    problems = workloads.check_report([str(copy / Path(p).name) for p in paths], seed, {})
    assert any("report tree sha256" in p for p in problems)


def test_wrong_expected_exit_code_raises_error_rate(tmp_path):
    workload = workloads.CliMix(ROOT, 5, tmp_path)
    error_call = next(c for c in workload.calls if c.kind == "error")
    workload.calls = [error_call, dataclasses.replace(error_call, expected_exit=0)]
    record = worker.measure(workload, 0.0, None)
    assert (record["attempted"], record["failed"]) == (2, 1)
    assert "exit code" in record["problems"][0]


def test_traceback_and_missing_error_line_are_failures():
    call = workloads.Call("error", "bad", [], 1, workloads._expect_empty)
    assert workloads.check_call(call, 1, "", "error: invalid-parameter: x\n") == []
    assert workloads.check_call(call, 1, "", "Traceback (most recent call last):\n")


def test_violated_bound_fails_the_batch(monkeypatch):
    spec = workloads.ValidateBounds(ROOT, 11, Path(".")).pool[0]
    assert workloads.check_batch(spec) == []
    tiny = workloads.bounds.BoundResult(threshold=1.0, bound_value=0.0, raw_value=0.0)
    monkeypatch.setattr(workloads.bounds, "kolmogorov_independent_bound", lambda *a: tiny)
    assert any(p.startswith("oracle") for p in workloads.check_batch(spec))


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
    samples = [float(i) for i in range(1, 101)]
    value, pct = run.tail(samples)
    assert value == 90.0 and pct == 90.0
    assert sum(s > value for s in samples) == 10


def test_importtime_takes_outermost_cumulative():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:       400 |        400 |     scipy.special",
        "import time:       500 |        900 |   scipy.stats",
        "import time:        50 |       1250 | nbbounds",
        "import time:        10 |         10 | nbbounds.cli",
    ])
    assert parse_importtime(stderr) == pytest.approx(
        {"import.total_s": 1260e-6, "import.scipy_s": 900e-6, "import.numpy_s": 300e-6}
    )
