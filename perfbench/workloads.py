"""The three benchmark workloads.

Each workload builds its inputs from the workload seed when it is
constructed (that is the set-up ``setup_s`` times) and then hands out
rounds of ops. An op runs one unit of the program, times it, and checks
its outputs; a wrong exit code, a wrong output or hash, a violated bound
or an exception makes it a failed op. Rounds keep the mix of ops the same
in every run, so a run's median does not depend on where it was cut.

``cli-mix``
    one op is one ``python -m nbbounds`` subprocess. The analyst pays
    interpreter start-up and package import on every call, so this is
    where import-time changes show and Monte Carlo changes do not.
``reproduce-all``
    one op is ``build_report("all")`` plus ``write_report`` in-process,
    nearly all of it in the ``simulation`` and ``surveillance`` layers.
``validate-bounds``
    one op is a seeded batch of library-only bound checks against the
    exact oracle and the inversion round trip: all of it in ``bounds``,
    many calls per process and no random streams.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import nbbounds
from nbbounds import bounds, reproduce, surveillance
from nbbounds.distributions import GammaMixture, NB2Params, NBParams

from tracing import parse_importtime

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())

# the acceptance suite's slack for "exact tail <= bound"; never loosen it
SLACK = 1e-9
CLI_TIMEOUT_S = 60


@dataclass
class OpResult:
    seconds: float
    problems: list[str] = field(default_factory=list)
    layers: dict = field(default_factory=dict)


def _seeded(seed: int, *salt) -> random.Random:
    return random.Random(":".join(str(x) for x in (seed, *salt)))


def _ffmt(x: float) -> str:
    # repr round-trips, so the CLI parses exactly the float the oracle used
    return repr(float(x))


def _compare(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


# -- cli-mix ------------------------------------------------------------------


@dataclass
class Call:
    """One CLI invocation with its expected exit code and output check."""

    kind: str  # bound, limit, monitor or error; the cli.<kind>_s layer
    label: str
    argv: list[str]
    expected_exit: int
    check_stdout: Callable[[str, list[str]], None]


def _bound_checker(result: bounds.BoundResult):
    def check(stdout: str, problems: list[str]) -> None:
        record = json.loads(stdout)
        cond, mix = result.components if result.components is not None else (None, None)
        opt = result.optimizer
        want = {
            "threshold": result.threshold,
            "bound_value": result.bound_value,
            "raw_value": result.raw_value,
            "components": {"cond_term": cond, "mix_term": mix},
            "optimizer": {
                "t_star": opt.t_star if opt else None,
                "iterations": opt.iterations if opt else None,
                "converged": opt.converged if opt else None,
            },
        }
        for key, value in want.items():
            if isinstance(value, dict):
                for sub, subvalue in value.items():
                    _compare(problems, f"{key}.{sub}", record.get(key, {}).get(sub), subvalue)
            else:
                _compare(problems, key, record.get(key), value)

    return check


def _limit_checker(v_n: float, limits: list[tuple[float, float]]):
    def check(stdout: str, problems: list[str]) -> None:
        record = json.loads(stdout)
        _compare(problems, "v_n", record.get("v_n"), v_n)
        _compare(problems, "limits", record.get("limits"),
                 [{"alpha": a, "lambda": lam} for a, lam in limits])

    return check


def _history_checker(state: surveillance.MonitoringState):
    def check(stdout: str, problems: list[str]) -> None:
        rows = list(csv.reader(io.StringIO(stdout)))
        _compare(problems, "header", rows[:1], [["period", "S_t", "lambda_alpha", "alarm"]])
        got = [
            (int(p), float(s), float(lam), alarm) for p, s, lam, alarm in rows[1:]
        ]
        want = [
            (p, s, state.control_limit, "true" if alarm else "false")
            for p, s, alarm in state.history
        ]
        _compare(problems, "history", got, want)

    return check


def _expect_empty(stdout: str, problems: list[str]) -> None:
    _compare(problems, "stdout", stdout, "")


def check_call(call: Call, returncode: int, stdout: str, stderr: str) -> list[str]:
    """Problems with one finished CLI call; empty when it behaved."""
    problems: list[str] = []
    _compare(problems, f"{call.label} exit code", returncode, call.expected_exit)
    messages = [line for line in stderr.splitlines() if not line.startswith("import time:")]
    if any("Traceback" in line for line in messages):
        problems.append(f"{call.label}: traceback on stderr")
    if call.expected_exit == 1 and not any(line.startswith("error:") for line in messages):
        problems.append(f"{call.label}: no 'error:' line on stderr")
    try:
        call.check_stdout(stdout, problems)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        problems.append(f"{call.label}: unreadable output: {exc!r}")
    return problems


class CliMix:
    """Sequential ``python -m nbbounds`` calls, one subprocess at a time."""

    name = "cli-mix"
    rss_scope = "children"

    def __init__(self, root: Path, seed: int, tmp: Path):
        self.seed = seed
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        rng = _seeded(seed, "cli")
        self.calls = self._bound_calls(rng) + self._limit_calls(rng, tmp) + [
            self._error_call(rng)
        ]

    def _bound_calls(self, rng: random.Random) -> list[Call]:
        nb = [NBParams(rng.uniform(1.0, 10.0), rng.uniform(0.2, 0.8))
              for _ in range(rng.randint(2, 6))]
        params = ",".join(f"{_ffmt(q.r)}:{_ffmt(q.p)}" for q in nb)
        a = rng.uniform(0.3, 3.0)
        lam_indep = rng.uniform(1.0, 3.0) * sum(q.variance() for q in nb) ** 0.5
        shape, rate = rng.uniform(1.0, 8.0), rng.uniform(0.5, 6.0)
        design = [q.mean() for q in nbbounds.build_moment_matched_design().independent]
        lam_dep = rng.uniform(200.0, 800.0)
        thetas = [rng.uniform(0.5, 10.0) for _ in range(rng.randint(2, 12))]
        lam_bern = rng.uniform(20.0, 400.0)
        return [
            Call("bound", "bound chernoff",
                 ["bound", "chernoff", "--params", params, "--a", _ffmt(a)], 0,
                 _bound_checker(bounds.chernoff_mean_deviation_bound(nb, a))),
            Call("bound", "bound kolmogorov-indep",
                 ["bound", "kolmogorov-indep", "--params", params, "--lambda", _ffmt(lam_indep)], 0,
                 _bound_checker(bounds.kolmogorov_independent_bound(nb, lam_indep))),
            Call("bound", "bound kolmogorov-dep @design",
                 ["bound", "kolmogorov-dep", "--shape", _ffmt(shape), "--rate", _ffmt(rate),
                  "--thetas", "@design", "--lambda", _ffmt(lam_dep)], 0,
                 _bound_checker(bounds.dependent_kolmogorov_bound(
                     GammaMixture(shape, rate, design), lam_dep))),
            Call("bound", "bound bernstein",
                 ["bound", "bernstein", "--shape", _ffmt(shape), "--rate", _ffmt(rate),
                  "--thetas", ",".join(_ffmt(t) for t in thetas), "--lambda", _ffmt(lam_bern)], 0,
                 _bound_checker(bounds.bernstein_dependent_bound(
                     GammaMixture(shape, rate, thetas), lam_bern))),
        ]

    def _limit_calls(self, rng: random.Random, tmp: Path) -> list[Call]:
        nb2 = [NB2Params(rng.uniform(50.0, 500.0), rng.uniform(0.05, 0.5))
               for _ in range(rng.randint(2, 8))]
        alphas = [0.05, 0.01]
        v_n = bounds.tweedie_variance(nb2)

        ids = [f"r{j + 1}" for j in range(5)]
        mus = [round(rng.uniform(150.0, 500.0), 1) for _ in ids]
        kappas = [round(rng.uniform(0.1, 0.45), 3) for _ in ids]
        weeks = 12
        scenario_path = tmp / "scenario.json"
        scenario_path.write_text(json.dumps({
            "regions": [{"id": i, "weekly_mu": m, "kappa": k} for i, m, k in zip(ids, mus, kappas)],
            "weeks": weeks,
            "alpha_levels": alphas,
        }))
        scenario, file_alphas = surveillance.load_scenario(str(scenario_path))
        # quiet: within 2% of the fitted means; outbreak: doubled from week 4
        quiet = [[round(m * rng.uniform(0.98, 1.02)) for m in mus] for _ in range(weeks)]
        outbreak = [[round(m * (2.0 if week >= 3 else 1.0)) for m in mus] for week in range(weeks)]
        calls = [
            Call("limit", "limit --params",
                 ["limit", "--params", ",".join(f"{_ffmt(q.mu)}:{_ffmt(q.kappa)}" for q in nb2),
                  "--alpha", ",".join(map(str, alphas))], 0,
                 _limit_checker(v_n, [(a, bounds.control_limit(v_n, a)) for a in alphas])),
            Call("limit", "limit --scenario",
                 ["limit", "--scenario", str(scenario_path)], 0,
                 _limit_checker(scenario.tweedie_variance(),
                                surveillance.epi_control_limits(scenario, file_alphas))),
        ]
        for label, rows, want_alarm in (("quiet", quiet, False), ("outbreak", outbreak, True)):
            path = tmp / f"{label}.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh, lineterminator="\n").writerows([ids, *rows])
            state = self._replay(scenario, file_alphas[0], str(path))
            if state.any_alarm() != want_alarm:
                raise RuntimeError(f"{label} counts do not behave as a {label} series")
            calls.append(Call("monitor", f"monitor {label}",
                              ["monitor", "--scenario", str(scenario_path), "--counts", str(path)],
                              3 if want_alarm else 0, _history_checker(state)))
        return calls

    @staticmethod
    def _replay(scenario, alpha: float, counts_path: str) -> surveillance.MonitoringState:
        (_, limit), = surveillance.epi_control_limits(scenario, [alpha])
        fitted = [r.weekly_mu for r in scenario.regions]
        state = surveillance.start_monitoring(limit, scenario.weeks)
        for row in surveillance.load_counts(counts_path, scenario):
            state = surveillance.monitor_step(state, row, fitted)
        return state

    def _error_call(self, rng: random.Random) -> Call:
        argv = rng.choice([
            ["bound", "kolmogorov-indep", "--params", "3:0.3,5:0.5", "--lambda", "-5"],
            ["bound", "chernoff", "--params", "3:1.5", "--a", "1"],
            ["limit", "--params", "210:0.35,340:0.25", "--alpha", "1.5"],
        ])
        return Call("error", "out-of-domain " + argv[0], argv, 1, _expect_empty)

    def round(self, k: int):
        order = list(self.calls)
        _seeded(self.seed, "order", k).shuffle(order)
        return [lambda tracer, call=call: self.run(call, tracer is not None) for call in order]

    def run(self, call: Call, traced: bool) -> OpResult:
        cmd = [sys.executable, *(["-X", "importtime"] if traced else []), "-m", "nbbounds",
               *call.argv]
        t0 = perf_counter()
        done = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        seconds = perf_counter() - t0
        result = OpResult(seconds, check_call(call, done.returncode, done.stdout, done.stderr))
        if traced:
            imports = parse_importtime(done.stderr)
            result.layers = {
                **imports,
                f"cli.{call.kind}_s": seconds,
                "cli.dispatch_s": seconds - imports["import.total_s"],
            }
        return result


# -- reproduce-all ------------------------------------------------------------

# outputs that do not depend on the seed must match the golden hashes at any seed
_SEED_FREE = ("fig1.csv", "fig2.csv", "fig4.csv")


def tree_digest(paths: list[str]) -> tuple[str, dict[str, str]]:
    """sha256 of the files concatenated in sorted-path order, and per file."""
    combined = hashlib.sha256()
    per_file = {}
    for path in sorted(paths):
        data = Path(path).read_bytes()
        combined.update(data)
        per_file[os.path.basename(path)] = hashlib.sha256(data).hexdigest()
    return combined.hexdigest(), per_file


def check_report(paths: list[str], seed: int, seen: dict[int, str]) -> list[str]:
    """Golden check at the golden seed, seed-free files and repeatability otherwise."""
    problems: list[str] = []
    digest, per_file = tree_digest(paths)
    golden = GOLDEN["reproduce_all"]
    if seed == golden["seed"]:
        _compare(problems, "report tree sha256", digest, golden["tree_sha256"])
    for name in _SEED_FREE:
        _compare(problems, f"{name} sha256", per_file.get(name), golden["files"][name])
    _compare(problems, "files written", sorted(per_file), sorted(golden["files"]))
    _compare(problems, f"report tree sha256 repeat at seed {seed}", digest,
             seen.setdefault(seed, digest))
    return problems


class ReproduceAll:
    """``build_report("all", seed)`` then ``write_report`` into a fresh directory."""

    name = "reproduce-all"
    rss_scope = "self"

    def __init__(self, root: Path, seed: int, tmp: Path):
        # alternate the golden seed with the workload seed so every run is
        # checked byte for byte against the recorded reference
        self.seeds = (GOLDEN["reproduce_all"]["seed"], seed)
        self.tmp = tmp
        self.seen: dict[int, str] = {}

    def round(self, k: int):
        return [lambda tracer, s=s: self.run(s, tracer) for s in self.seeds]

    def run(self, seed: int, tracer) -> OpResult:
        out = tempfile.mkdtemp(dir=self.tmp)
        layers: dict = {}
        try:
            with tracer.op(layers) if tracer else nullcontext():
                t0 = perf_counter()
                report = reproduce.build_report("all", seed=seed)
                paths = reproduce.write_report(report, out)
                seconds = perf_counter() - t0
            return OpResult(seconds, check_report(paths, seed, self.seen), layers)
        finally:
            shutil.rmtree(out)


# -- validate-bounds ----------------------------------------------------------

_ALPHAS = (0.1, 0.05, 0.01)
_POOL = 64
# instances of each kind per batch; a batch of about 50 ms keeps timer and
# scheduler noise small next to the op, and equal counts of every instance
# size keep its cost nearly the same from seed to seed
_PER_BATCH = 8


def _batch_spec(rng: random.Random) -> dict:
    def nb(n, r_hi, p_lo):
        return [(rng.uniform(0.5, r_hi), rng.uniform(p_lo, 0.9)) for _ in range(n)]

    # instance ranges follow the acceptance suite's criterion 6
    return {
        "oracle": [(nb(n, 6.0, 0.2), rng.uniform(0.5, 3.0))
                   for _ in range(_PER_BATCH) for n in (1, 2, 3)],
        "mean_tail": [(nb(n, 5.0, 0.25), rng.uniform(0.2, 4.0))
                      for _ in range(_PER_BATCH) for n in (1, 2, 3)],
        "mixture": [(rng.uniform(0.5, 8.0), rng.uniform(0.3, 5.0),
                     [rng.uniform(0.5, 10.0) for _ in range(rng.randint(2, 8))])
                    for _ in range(_PER_BATCH)],
    }


def check_batch(spec: dict) -> list[str]:
    """Run one batch of bound checks; every violated inequality is a problem."""
    problems: list[str] = []
    for i, (pairs, scale) in enumerate(spec["oracle"]):
        params = [NBParams(r, p) for r, p in pairs]
        lam = scale * sum(q.variance() for q in params) ** 0.5
        exact = bounds.exact_max_deviation_tail_oracle(params, lam).value
        bound = bounds.kolmogorov_independent_bound(params, lam).bound_value
        if not exact <= bound + SLACK:
            problems.append(f"oracle {i}: exact {exact} > kolmogorov {bound}")
    for i, (pairs, a) in enumerate(spec["mean_tail"]):
        params = [NBParams(r, p) for r, p in pairs]
        exact = bounds.exact_mean_deviation_tail(params, a).value
        bound = bounds.chernoff_mean_deviation_bound(params, a).bound_value
        if not exact <= bound + SLACK:
            problems.append(f"mean tail {i}: exact {exact} > chernoff {bound}")
    for i, (shape, rate, thetas) in enumerate(spec["mixture"]):
        model = GammaMixture(shape, rate, thetas)
        for fn in (bounds.dependent_kolmogorov_bound, bounds.bernstein_dependent_bound):
            def value(lam, fn=fn):
                return fn(model, lam).bound_value

            for alpha in _ALPHAS:
                lam_star = bounds.invert_bound(value, alpha)
                if not value(lam_star) <= alpha < value(lam_star * (1 - 1e-9)):
                    problems.append(
                        f"mixture {i} {fn.__name__} inversion at alpha {alpha}: lambda* {lam_star}"
                    )
    return problems


class ValidateBounds:
    """Seeded batches of oracle, Chernoff and inversion checks, in-process."""

    name = "validate-bounds"
    rss_scope = "self"

    def __init__(self, root: Path, seed: int, tmp: Path):
        rng = _seeded(seed, "bounds")
        self.pool = [_batch_spec(rng) for _ in range(_POOL)]

    def round(self, k: int):
        spec = self.pool[k % _POOL]
        return [lambda tracer: self.run(spec, tracer)]

    @staticmethod
    def run(spec: dict, tracer) -> OpResult:
        layers: dict = {}
        with tracer.op(layers) if tracer else nullcontext():
            t0 = perf_counter()
            problems = check_batch(spec)
            seconds = perf_counter() - t0
        return OpResult(seconds, problems, layers)


WORKLOADS = {w.name: w for w in (CliMix, ReproduceAll, ValidateBounds)}
