"""Benchmark of the nbbounds library and CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {cli-mix,reproduce-all,validate-bounds} \
        --seed N --seconds S --trace {0,1}

Each run is a closed loop driven from one worker process with no extra
threads; ``cli-mix`` starts one CLI subprocess at a time. ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced run. ``--seconds 0`` runs a single round (smoke mode).
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric with its unit and sample count, and a results record with the
run's provenance, which is also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from tracing import parse_importtime

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-mix", "reproduce-all", "validate-bounds")

# fresh interpreters timed to "ready" besides the worker itself; setup_s
# is the median of all of them
SETUP_PROBES = 2
# a worker must be ready this soon and finish this long after its run length
READY_TIMEOUT_S = 60
FINISH_GRACE_S = 100

END_TO_END = {
    "setup_s": "s",
    "op_median_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "import.total_s": "s",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "cli.bound_s": "s",
    "cli.limit_s": "s",
    "cli.monitor_s": "s",
    "cli.error_s": "s",
    "cli.dispatch_s": "s",
    "bounds.invert_calls": "count",
    "bounds.invert_s": "s",
    "bounds.eval_calls": "count",
    "bounds.eval_s": "s",
    "bounds.evals_per_invert": "ratio",
    "bounds.chernoff_calls": "count",
    "bounds.chernoff_s": "s",
    "bounds.chernoff_iterations": "count",
    "bounds.oracle_calls": "count",
    "bounds.oracle_s": "s",
    "rng.generators_built": "count",
    "rng.generator_s": "s",
    "distributions.sample_calls": "count",
    "distributions.sample_s": "s",
    "simulation.replications": "count",
    "simulation.reps_per_s": "1/s",
    "simulation.independent_s": "s",
    "simulation.dependent_s": "s",
    "simulation.efficiency_curve_s": "s",
    "simulation.self_s": "s",
    "surveillance.epi_calls": "count",
    "surveillance.epi_replications": "count",
    "surveillance.epi_s": "s",
    "reproduce.table2_s": "s",
    "reproduce.epi_s": "s",
    "reproduce.figures_s": "s",
    "reproduce.write_s": "s",
    "reproduce.bytes_written": "B",
    "reproduce.self_s": "s",
    "trace.overhead_s": "s",
    "trace.mc_write_share": "ratio",
}


class BenchError(RuntimeError):
    pass


def tail(samples: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest rank with >= 10 samples beyond it.

    Up to 21 samples no rank above the median has 10 beyond it, so the
    tail falls back to the median and says so through its percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - 10  # 1-based; leaves exactly ten samples above it
    if 2 * rank <= n + 1:
        return statistics.median(ordered), 50.0
    return ordered[rank - 1], 100.0 * rank / n


def _worker(args, tmp: Path, probe: bool, traced: bool) -> tuple[float, dict | None]:
    """Start a worker; return its time to ready and, unless probing, its record."""
    result = tmp / "result.json"
    stderr_path = tmp / "worker.stderr"
    cmd = [
        sys.executable, *(["-X", "importtime"] if traced else []), str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(int(traced)), "--tmp", str(tmp), "--result", str(result),
    ]
    if probe:
        cmd.append("--probe")
    if traced:
        spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        cmd += ["--spans", str(spans)]
    with open(stderr_path, "w") as stderr:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=stderr, text=True)
        try:
            readable, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
            line = proc.stdout.readline() if readable else ""
            ready_s = perf_counter() - t0
            code = proc.wait(timeout=args.seconds + FINISH_GRACE_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    log = stderr_path.read_text()
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{log[-3000:]}")
    if probe:
        return ready_s, None
    record = json.loads(result.read_text())
    record["stderr"] = log
    return ready_s, record


def _provenance(args, versions: dict, elapsed_s: float) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "measured_seconds": elapsed_s,
    }


def run(args) -> dict:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=out, prefix="tmp-"))
    try:
        traced = bool(args.trace)
        setup = [] if traced else [_worker(args, tmp, True, False)[0] for _ in range(SETUP_PROBES)]
        ready_s, record = _worker(args, tmp, False, traced)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    untraced = record["times"]["untraced"]
    if not untraced:
        raise BenchError("no op completed:\n" + "\n".join(record["problems"]))
    tail_s, tail_pct = tail(untraced)
    info = {
        "op_times_s": untraced,
        "op_samples": len(untraced),
        "tail_percentile": tail_pct,
        "rounds": record["rounds"],
        "error_rate": record["failed"] / record["attempted"],
        "problems": record["problems"],
    }
    if traced:
        layers = {name: 0.0 for name in PER_LAYER}
        layers.update(parse_importtime(record["stderr"]))  # the worker's own import
        layers.update(record["layers"])  # cli-mix: medians over the traced CLI calls
        traced_times = record["times"]["traced"]
        layers["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(untraced)
        metrics = {name: {"value": layers[name], "unit": PER_LAYER[name]} for name in PER_LAYER}
        info["traced_op_samples"] = len(traced_times)
    else:
        setup.append(ready_s)
        values = {
            "setup_s": statistics.median(setup),
            "op_median_s": statistics.median(untraced),
            "op_tail_s": tail_s,
            "peak_rss_mb": record["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}
        info["setup_samples"] = len(setup)
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
        "info": info,
        "provenance": _provenance(args, record["versions"], record["elapsed_s"]),
    }


def _print_summary(result: dict) -> None:
    info, prov = result["info"], result["provenance"]
    print(f"workload {prov['workload']}  seed {prov['seed']}  trace {prov['trace']}  "
          f"{prov['measured_seconds']:.1f} s measured  {info['rounds']} rounds")
    for name, metric in result["metrics"].items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {info['setup_samples']})"
        elif name == "op_median_s":
            note = f"  (n={info['op_samples']})"
        elif name == "op_tail_s":
            note = f"  (p{info['tail_percentile']:.0f}, n={info['op_samples']})"
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"  {'error_rate':32s} {info['error_rate']:.6g} "
          f"({result['failed']}/{result['attempted']} ops failed)")
    for problem in info["problems"]:
        print(f"  failed: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="nbbounds benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="run length; 0 runs a single round")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not math.isfinite(args.seconds) or args.seconds < 0:
        parser.error("--seconds must be a finite number >= 0")
    if not (ROOT / "src" / "nbbounds" / "__init__.py").is_file():
        print(f"error: no nbbounds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_summary(result)
    record = {k: result[k] for k in ("info", "provenance", "attempted", "failed", "metrics")}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (ROOT / ".bench_out" / name).write_text(json.dumps(record, indent=2) + "\n")
    print("record " + json.dumps(record))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
