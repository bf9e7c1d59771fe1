"""Acceptance suite: one test per release criterion.

Each test prints a single ``[criterion-N] PASS/FAIL`` line (run with ``-s``
to see them) and asserts at the stated tolerance. Monte Carlo criteria run
at the fixed default seed so the suite is deterministic.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
from scipy import stats

import nbbounds as nb
from nbbounds import simulation
from nbbounds.cli import main
from nbbounds.reproduce import DEFAULT_SEED

from helpers import mc_mixture_max_deviations, quad_mixture_pmf


def _finish(criterion: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else " - " + "; ".join(failures)
    print(f"\n[{criterion}] {status}{detail}")
    assert not failures, failures


def _checker(failures: list[str]):
    def check(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)

    return check


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "nbbounds", *args], capture_output=True, text=True
    )


def test_criterion_1_threshold_closed_forms():
    failures = []
    check = _checker(failures)
    scenario = nb.reference_scenario()
    v_n = scenario.tweedie_variance()
    check(abs(v_n - 2_028_900.0) <= 1e-9 * 2_028_900.0, f"V_n = {v_n}")
    limits = dict(nb.epi_control_limits(scenario, [0.05, 0.01]))
    check(abs(limits[0.05] - 6370.0) <= 1.0, f"lambda_05 = {limits[0.05]}")
    check(abs(limits[0.01] - 14_244.0) <= 1.0, f"lambda_01 = {limits[0.01]}")
    _finish("criterion-1 threshold closed forms", failures)


def test_criterion_2_table_thresholds():
    failures = []
    check = _checker(failures)
    design = nb.build_moment_matched_design()
    lam_i = nb.invert_bound(
        lambda l: nb.kolmogorov_independent_bound(design.independent, l).bound_value, 0.05
    )
    lam_d = nb.invert_bound(
        lambda l: nb.dependent_kolmogorov_bound(design.mixture, l).bound_value, 0.05
    )
    check(abs(lam_i - 72.49) <= 0.01, f"independent threshold = {lam_i}")
    check(abs(lam_d - 476.52) <= 0.01, f"dependent threshold = {lam_d}")
    _finish("criterion-2 table thresholds", failures)


def test_criterion_3_table_monte_carlo():
    failures = []
    check = _checker(failures)
    design = nb.build_moment_matched_design()
    indep, _ = nb.run_independent_experiment(design.independent, 2000, 0.05, DEFAULT_SEED)
    dep, _ = nb.run_dependent_experiment(design.mixture, 2000, 0.05, DEFAULT_SEED)
    for name, got, want, rel in (
        ("indep mean", indep.mean, 17.74, 0.05),
        ("indep sd", indep.sd, 8.05, 0.10),
        ("indep p95", indep.p95, 33.16, 0.05),
        ("indep p99", indep.p99, 44.43, 0.10),
        ("dep mean", dep.mean, 42.22, 0.07),
        ("dep p95", dep.p95, 101.43, 0.10),
        ("dep p99", dep.p99, 167.46, 0.15),
    ):
        check(abs(got - want) <= rel * want, f"{name} = {got:.3f} vs {want} +-{rel:.0%}")
    check(abs(indep.efficiency - 0.457) <= 0.03, f"indep efficiency = {indep.efficiency:.4f}")
    check(abs(dep.efficiency - 0.213) <= 0.03, f"dep efficiency = {dep.efficiency:.4f}")
    check(dep.mean > indep.mean, "dependent mean deviation not above the independent one")
    _finish("criterion-3 table Monte Carlo", failures)


def test_criterion_4_latent_rate_correlation():
    failures = []
    check = _checker(failures)
    design = nb.build_moment_matched_design()
    _, samples = nb.run_dependent_experiment(design.mixture, 2000, 0.05, DEFAULT_SEED)
    r = nb.lambda_correlation(samples)
    check(abs(r - 0.433) <= 0.06, f"correlation = {r:.4f}")
    _finish("criterion-4 latent-rate correlation", failures)


def test_criterion_5_epi_validation():
    failures = []
    check = _checker(failures)
    scenario = nb.reference_scenario()
    by_mode = {
        mode: nb.run_epi_validation(scenario, 5000, 0.05, DEFAULT_SEED, mode=mode)
        for mode in ("region-prefix", "time-prefix")
    }
    matching = [
        mode
        for mode, s in by_mode.items()
        if abs(s.p95 - 3018.0) <= 0.05 * 3018.0 and abs(s.efficiency - 0.47) <= 0.03
    ]
    summary = {m: round(s.p95, 1) for m, s in by_mode.items()}
    check(bool(matching), f"no max-ordering mode matched: p95 by mode = {summary}")
    if matching:
        print(f"\nepi validation matching mode(s): {matching}, p95 by mode: {summary}")
    for mode, s in by_mode.items():
        check(s.exceedance_rate <= 0.05, f"{mode} exceedance = {s.exceedance_rate}")
    _finish("criterion-5 epi validation", failures)


def test_criterion_6_bound_validity():
    failures = []
    check = _checker(failures)

    # exact-tail oracle never exceeds the independent maximal bound
    rng = np.random.default_rng(61)
    for i in range(50):
        params = [
            nb.NBParams(rng.uniform(0.5, 6.0), rng.uniform(0.2, 0.9))
            for _ in range(int(rng.integers(1, 4)))
        ]
        sd = math.sqrt(sum(q.variance() for q in params))
        lam = rng.uniform(0.5, 3.0) * sd
        oracle = nb.exact_max_deviation_tail_oracle(params, lam)
        bound = nb.kolmogorov_independent_bound(params, lam).bound_value
        check(
            oracle.value <= bound + 1e-9,
            f"oracle instance {i}: exact {oracle.value} > bound {bound}",
        )

    # dependent bounds dominate empirical tails beyond 3 MC standard errors
    reps = 10**5
    param_rng = np.random.default_rng(20260810)
    for trial in range(20):
        n = int(param_rng.integers(2, 9))
        alpha = param_rng.uniform(0.5, 8.0)
        beta = param_rng.uniform(0.3, 5.0)
        thetas = param_rng.uniform(0.5, 10.0, size=n)
        model = nb.GammaMixture(alpha, beta, thetas)
        devs = mc_mixture_max_deviations(alpha, beta, thetas, reps, seed=trial)
        for level in (0.5, 0.2, 0.1, 0.05, 0.02):
            lam = nb.invert_bound(
                lambda l: nb.dependent_kolmogorov_bound(model, l).bound_value, level
            )
            emp = float(np.mean(devs >= lam))
            se = math.sqrt(max(emp * (1 - emp), 1e-12) / reps)
            for name, bound in (
                ("polynomial", nb.dependent_kolmogorov_bound(model, lam).bound_value),
                ("sub-exponential", nb.bernstein_dependent_bound(model, lam).bound_value),
            ):
                check(
                    emp + 3 * se <= bound,
                    f"mixture {trial} level {level}: tail {emp:.5f}+3se > {name} {bound:.5f}",
                )

    # optimized exponential-moment bound dominates the exact mean tail
    rng = np.random.default_rng(62)
    for i in range(15):
        params = [
            nb.NBParams(rng.uniform(0.5, 5.0), rng.uniform(0.25, 0.9))
            for _ in range(int(rng.integers(1, 4)))
        ]
        a = rng.uniform(0.2, 4.0)
        exact = nb.exact_mean_deviation_tail(params, a)
        bound = nb.chernoff_mean_deviation_bound(params, a).bound_value
        check(
            exact.value <= bound + 1e-9,
            f"mean-tail instance {i}: exact {exact.value} > bound {bound}",
        )
    _finish("criterion-6 bound validity", failures)


def test_criterion_7_numerical_properties():
    failures = []
    check = _checker(failures)
    design = nb.build_moment_matched_design()

    # convexity of the log objective and first-order stationarity of t*
    rng = np.random.default_rng(71)
    for trial in range(20):
        params = [
            nb.NBParams(rng.uniform(0.5, 8.0), rng.uniform(0.15, 0.9))
            for _ in range(int(rng.integers(1, 6)))
        ]
        n = len(params)
        total_mean = sum(q.mean() for q in params)
        a = rng.uniform(0.05, 3.0)
        t_max = -math.log1p(-min(q.p for q in params))

        def objective(t):
            return -t * n * a - t * total_mean + sum(nb.nb_log_mgf(q, t) for q in params)

        grid = np.linspace(1e-6 * t_max, (1 - 1e-6) * t_max, 1000)
        values = np.array([objective(t) for t in grid])
        second = values[2:] - 2 * values[1:-1] + values[:-2]
        scale = np.abs(values).max() + 1.0
        check(second.min() >= -1e-9 * scale, f"set {trial}: convexity violated {second.min()}")

        result = nb.chernoff_mean_deviation_bound(params, a)
        t_star = result.optimizer.t_star
        h = 1e-6 * t_max
        on_boundary = t_star <= 2e-10 * t_max or t_star >= (1 - 2e-10) * t_max
        if not on_boundary:
            derivative = (objective(t_star + h) - objective(t_star - h)) / (2 * h)
            check(abs(derivative) < 1e-6, f"set {trial}: |d/dt| = {abs(derivative)}")

    # monotone nonincreasing bounds on 1000-point grids
    lam_grid = np.logspace(-1, 5, 1000)
    for name, fn in (
        ("kolmogorov-indep", lambda l: nb.kolmogorov_independent_bound(design.independent, l)),
        ("kolmogorov-dep", lambda l: nb.dependent_kolmogorov_bound(design.mixture, l)),
        ("bernstein", lambda l: nb.bernstein_dependent_bound(design.mixture, l)),
    ):
        values = [fn(l).bound_value for l in lam_grid]
        check(
            all(b <= a + 1e-15 for a, b in zip(values, values[1:])),
            f"{name} not nonincreasing",
        )
    a_grid = np.linspace(0.01, 20.0, 1000)
    values = [
        nb.chernoff_mean_deviation_bound(design.independent, a).bound_value for a in a_grid
    ]
    check(all(b <= a + 1e-12 for a, b in zip(values, values[1:])), "chernoff not nonincreasing")

    # mixing-term branch switch is continuous at 8 M alpha / beta
    m = design.mixture
    lam_star = 8 * m.max_prefix() * m.gamma_shape / m.gamma_rate
    below = nb.bernstein_dependent_bound(m, lam_star * (1 - 1e-9)).bound_value
    above = nb.bernstein_dependent_bound(m, lam_star * (1 + 1e-9)).bound_value
    check(abs(below - above) <= 1e-6 * below, f"branch switch jump {below} vs {above}")

    # clamping
    rng = np.random.default_rng(72)
    for _ in range(300):
        lam = 10 ** rng.uniform(-4, 6)
        for value in (
            nb.kolmogorov_independent_bound(design.independent, lam).bound_value,
            nb.dependent_kolmogorov_bound(design.mixture, lam).bound_value,
            nb.bernstein_dependent_bound(design.mixture, lam).bound_value,
        ):
            check(0.0 <= value <= 1.0, f"bound {value} escapes [0,1] at lambda {lam}")
    _finish("criterion-7 numerical properties", failures)


def test_criterion_8_determinism(tmp_path, monkeypatch):
    failures = []
    check = _checker(failures)

    # identical bytes for two full figure reproductions at the same seed
    for name in ("a", "b"):
        proc = run_cli("reproduce", "figures", "--seed", "42", "--out", str(tmp_path / name))
        check(proc.returncode == 0, f"reproduce figures failed: {proc.stderr}")
    for path in sorted((tmp_path / "a").iterdir()):
        other = tmp_path / "b" / path.name
        check(path.read_bytes() == other.read_bytes(), f"{path.name} differs between runs")

    # the worker count must not influence outputs: in this process, with
    # shards of at least 400, 1,200 replications split over 1, 2 and 3
    # usable CPUs, and each forked child draws its shard
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(simulation, "_MIN_SHARD", 400)
    reports, fork_counts = {}, {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(simulation, "_usable_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        argv = ["reproduce", "table2", "--seed", "42", "--reps", "1200", "--out", str(out)]
        check(main(argv) == 0, f"reproduce table2 on {cpus} CPUs failed")
        reports[cpus] = (out / "report.json").read_bytes()
        fork_counts[cpus] = len(forks)
        forks.clear()
    check(fork_counts[1] == 0 < fork_counts[2] and fork_counts[3] == 2 * fork_counts[2],
          f"forks per CPU count {fork_counts}")
    for cpus in (2, 3):
        check(reports[cpus] == reports[1], f"{cpus} CPUs changed report.json")
    _finish("criterion-8 determinism", failures)


def test_criterion_9_distributional_correctness():
    failures = []
    check = _checker(failures)

    # mixture marginal equals the closed-form NB law
    rng = np.random.default_rng(91)
    for trial in range(20):
        alpha = rng.uniform(0.5, 10.0)
        beta = rng.uniform(0.3, 8.0)
        theta = rng.uniform(0.3, 15.0)
        q = nb.GammaMixture(alpha, beta, [theta]).marginal(0)
        worst = max(
            abs(stats.nbinom.pmf(k, q.r, q.p) - quad_mixture_pmf(k, alpha, beta, theta))
            for k in range(51)
        )
        check(worst <= 1e-8, f"triple {trial}: max pmf error {worst}")

    # million-draw moment checks
    draws = nb.sample_nb(nb.NBParams(3, 0.3), nb.RngHandle(DEFAULT_SEED, 0), size=10**6)
    check(abs(draws.mean() - 7.0) <= 0.05, f"NB(3,0.3) mean = {draws.mean():.4f}")
    draws = nb.sample_nb(nb.NBParams(5, 0.5), nb.RngHandle(DEFAULT_SEED, 1), size=10**6)
    check(abs(draws.var(ddof=1) - 10.0) <= 0.3, f"NB(5,0.5) var = {draws.var(ddof=1):.4f}")
    draws = nb.sample_nb(nb.NBParams(1, 0.37), nb.RngHandle(DEFAULT_SEED, 2), size=10**6)
    p0 = float(np.mean(draws == 0))
    check(abs(p0 - 0.37) <= 0.003, f"NB(1,0.37) pmf(0) = {p0:.4f}")
    _finish("criterion-9 distributional correctness", failures)
