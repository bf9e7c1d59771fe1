"""The measured process of one benchmark run; ``run.py`` starts it.

It imports ``nbbounds`` from the checkout's ``src``, builds the workload's
inputs, prints ``ready`` on stdout (the end of set-up), and then runs
rounds of ops for ``--seconds`` seconds, writing its measurements as JSON
to ``--result``. With ``--probe`` it exits right after ``ready``: that is
one more set-up sample. With ``--trace 1`` every op runs twice, untraced
and then traced, so the run also yields the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import nbbounds  # noqa: E402  (the import is part of the set-up being timed)

from tracing import Tracer, median_layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MAX_PROBLEMS = 20


def measure(workload, seconds: float, tracer: Tracer | None) -> dict:
    """Run whole rounds for about ``seconds`` (at least one round).

    A round starts only if, at the pace of the last one, at least half of
    it falls within ``seconds``, so a run overshoots by at most half a
    round.
    """
    modes = (None, tracer) if tracer else (None,)
    times = {"untraced": [], "traced": []}
    per_op_layers, problems = [], []
    attempted = failed = rounds = 0
    start = last_round_s = perf_counter()
    while rounds == 0 or perf_counter() - start + last_round_s / 2 <= seconds:
        round_start = perf_counter()
        for op in workload.round(rounds):
            for mode in modes:
                attempted += 1
                try:
                    result = op(mode)
                except Exception as exc:  # an op that raises is a failed op
                    failed += 1
                    problems.append(f"{type(exc).__name__}: {exc}")
                    continue
                times["traced" if mode else "untraced"].append(result.seconds)
                if mode:
                    per_op_layers.append(result.layers)
                if result.problems:
                    failed += 1
                    problems.extend(result.problems)
        rounds += 1
        last_round_s = perf_counter() - round_start
    return {
        "elapsed_s": perf_counter() - start,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:MAX_PROBLEMS],
        "times": times,
        "layers": median_layers(per_op_layers),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True, help="scratch directory for the workload")
    parser.add_argument("--result", required=True, help="where to write the measurements")
    parser.add_argument("--spans", help="where to write the spans of a traced run")
    parser.add_argument("--probe", action="store_true", help="exit once set up")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](ROOT, args.seed, Path(args.tmp))
    print("ready", flush=True)
    if args.probe:
        return 0

    tracer = Tracer() if args.trace else None
    origin = perf_counter()
    record = measure(workload, args.seconds, tracer)
    scope = resource.RUSAGE_CHILDREN if workload.rss_scope == "children" else resource.RUSAGE_SELF
    record["peak_rss_mb"] = resource.getrusage(scope).ru_maxrss / 1024  # KiB on Linux
    import numpy
    import scipy

    record["versions"] = {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nbbounds": nbbounds.__version__,
        "bit_generator": type(nbbounds.RngHandle(0).generator().bit_generator).__name__,
    }
    if tracer is not None and args.spans:
        tracer.write(args.spans, origin)
    Path(args.result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
