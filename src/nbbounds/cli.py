"""Command-line surface.

Subcommands::

    bound {chernoff | kolmogorov-indep | kolmogorov-dep | bernstein}
    limit
    reproduce {table2 | epi | figures | all}
    monitor

Single results are printed as JSON objects (``--format object``, default)
or one-row CSV (``--format delimited``); series and histories are always
delimited text. Exit codes: 0 success or no alarm, 1 domain error,
2 usage error, 3 alarm fired. The default output directory can be set via
the ``NBBOUNDS_OUT`` environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys

from ._lazy import np
from ._text import open_output, read_text, write_json, write_rows, writing_to
from ._version import __version__
from .bounds import (
    BoundResult,
    bernstein_dependent_bound,
    chernoff_mean_deviation_bound,
    control_limit,
    dependent_kolmogorov_bound,
    kolmogorov_independent_bound,
    tweedie_variance,
)
from .distributions import GammaMixture, NBParams, NB2Params
from .errors import DomainError
from .reproduce import (
    DEFAULT_SEED,
    EPI_REPLICATIONS,
    TABLE2_REPLICATIONS,
    build_report,
    write_report,
)
from .simulation import build_moment_matched_design
from .surveillance import (
    _read_count_rows,
    epi_control_limits,
    load_scenario,
    monitor_step,
    start_monitoring,
    write_history,
)

EXIT_OK = 0
EXIT_DOMAIN_ERROR = 1
EXIT_USAGE = 2
EXIT_ALARM = 3

OUT_ENV_VAR = "NBBOUNDS_OUT"


def _parse_pair_list(text: str, what: str) -> list[tuple[float, float]]:
    """Parse 'a:b,a:b,...' pairs, as in --params '3:0.3,5:0.5'."""
    pairs = []
    for chunk in text.split(","):
        parts = chunk.strip().split(":")
        if len(parts) != 2:
            raise DomainError("invalid-parameter", f"cannot parse {what} entry {chunk!r}")
        try:
            pairs.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise DomainError("invalid-parameter", f"cannot parse {what} entry {chunk!r}") from None
    if not pairs:
        raise DomainError("invalid-parameter", f"{what} list is empty")
    return pairs


def _parse_nb2_params(text: str) -> list[NB2Params]:
    return [NB2Params(mu, kappa) for mu, kappa in _parse_pair_list(text, "mu:kappa")]


def _parse_thetas(text: str) -> list[float]:
    """Loadings as comma floats, '@design' for the built-in 20-variable
    moment-matched design, or '@PATH' for a one-value-per-line file."""
    if text == "@design":
        return [q.mean() for q in build_moment_matched_design().independent]
    if text.startswith("@"):
        path = text[1:]
        lines = read_text(path, f"thetas file {path}").split("\n")
        thetas = []
        for line_number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                thetas.append(float(line))
            except ValueError:
                raise DomainError(
                    "invalid-parameter",
                    f"cannot parse thetas file {path} at line {line_number}: {line.strip()!r}",
                ) from None
        return thetas
    return _parse_floats(text, "thetas")


def _parse_floats(text: str, what: str) -> list[float]:
    """Comma-separated floats; empty entries are skipped."""
    try:
        return [float(chunk) for chunk in text.split(",") if chunk.strip()]
    except ValueError:
        raise DomainError("invalid-parameter", f"cannot parse {what} {text!r}") from None


def _parse_alphas(text: str) -> list[float]:
    alphas = _parse_floats(text, "alpha list")
    if not alphas:
        raise DomainError("invalid-parameter", f"alpha list {text!r} is empty")
    return alphas


def _bound_as_record(result: BoundResult) -> dict:
    """Serializable bound record with a field set stable across bound kinds."""
    cond, mix = result.components if result.components is not None else (None, None)
    opt = result.optimizer
    return {
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


def _flatten(record: dict, prefix: str = "") -> dict:
    flat: dict = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{name}."))
        else:
            flat[name] = value
    return flat


def _nb_params(args) -> list[NBParams]:
    return [NBParams(r, p) for r, p in _parse_pair_list(args.params, "r:p")]


def _mixture(args) -> GammaMixture:
    return GammaMixture(args.shape, args.rate, _parse_thetas(args.thetas))


# bound kind -> (required arguments, the last one the level; bound function; model builder)
_BOUND_KINDS = {
    "chernoff": (("params", "a"), chernoff_mean_deviation_bound, _nb_params),
    "kolmogorov-indep": (("params", "lam"), kolmogorov_independent_bound, _nb_params),
    "kolmogorov-dep": (("shape", "rate", "thetas", "lam"), dependent_kolmogorov_bound, _mixture),
    "bernstein": (("shape", "rate", "thetas", "lam"), bernstein_dependent_bound, _mixture),
}


def _cmd_bound(args) -> int:
    required, bound, model = _BOUND_KINDS[args.kind]
    record = _bound_as_record(bound(model(args), getattr(args, required[-1])))
    if args.format == "object":
        write_json(sys.stdout, record)
    else:
        flat = _flatten(record)
        write_rows(sys.stdout, list(flat), [flat.values()])
    return EXIT_OK


def _cmd_limit(args) -> int:
    if args.scenario:
        scenario, file_alphas = load_scenario(args.scenario)
        alphas = _parse_alphas(args.alpha) if args.alpha else file_alphas
        limits = epi_control_limits(scenario, alphas)
        v_n = scenario.tweedie_variance()
    else:
        if not args.params:
            raise DomainError("invalid-parameter", "either --params or --scenario is required")
        params = _parse_nb2_params(args.params)
        v_n = tweedie_variance(params)
        alphas = _parse_alphas(args.alpha) if args.alpha else [0.05]
        limits = [(a, control_limit(v_n, a)) for a in alphas]
    if args.format == "delimited":
        write_rows(sys.stdout, ["v_n", "alpha", "lambda"], [(v_n, a, lam) for a, lam in limits])
    else:
        rows = [{"alpha": a, "lambda": lam} for a, lam in limits]
        write_json(sys.stdout, {"v_n": v_n, "limits": rows})
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    seed = args.seed
    if args.fresh:
        seed = int(np.random.SeedSequence().entropy % (1 << 64))
    table2_reps = args.reps if args.reps is not None else TABLE2_REPLICATIONS
    epi_reps = args.reps if args.reps is not None else EPI_REPLICATIONS
    out_dir = args.out or os.environ.get(OUT_ENV_VAR) or "."
    # an unwritable directory fails here, before any Monte Carlo runs
    with writing_to(out_dir):
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, f".nbbounds-{os.getpid()}.tmp")
        os.close(os.open(probe, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
        os.remove(probe)
    report = build_report(
        args.which,
        seed=seed,
        table2_replications=table2_reps,
        epi_replications=epi_reps,
    )
    for path in write_report(report, out_dir):
        print(path)
    return EXIT_OK


def _cmd_monitor(args) -> int:
    scenario, file_alphas = load_scenario(args.scenario)
    alpha = args.alpha if args.alpha is not None else file_alphas[0]
    counts = _read_count_rows(args.counts, scenario)
    if len(counts) > scenario.weeks:
        raise DomainError(
            "horizon-exceeded",
            f"counts file has {len(counts)} weeks, scenario horizon is {scenario.weeks}",
        )
    (_, limit), = epi_control_limits(scenario, [alpha])
    fitted_mu = [r.weekly_mu for r in scenario.regions]
    state = start_monitoring(limit, scenario.weeks)
    for row in counts:
        state = monitor_step(state, row, fitted_mu)
    if args.out:
        with writing_to(args.out), open_output(args.out) as fh:
            write_history(state, fh)
    else:
        write_history(state, sys.stdout)
    return EXIT_ALARM if state.any_alarm() else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbbounds",
        description="Concentration bounds and monitoring for Negative Binomial sums",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    bound = sub.add_parser("bound", help="evaluate a tail bound")
    bound.add_argument("kind", choices=list(_BOUND_KINDS))
    bound.add_argument("--params", help="NB parameters as 'r:p,r:p,...'")
    bound.add_argument("--a", type=float, help="mean-deviation level (chernoff)")
    bound.add_argument("--lambda", dest="lam", type=float, help="deviation threshold")
    bound.add_argument("--shape", type=float, help="Gamma mixing shape")
    bound.add_argument("--rate", type=float, help="Gamma mixing rate")
    bound.add_argument("--thetas", help="loadings: floats, '@design', or '@FILE'")
    bound.add_argument("--format", choices=["object", "delimited"], default="object")
    bound.set_defaults(handler=_cmd_bound)

    limit = sub.add_parser("limit", help="closed-form control limits from NB2 parameters")
    limit.add_argument("--params", help="NB2 parameters as 'mu:kappa,...'")
    limit.add_argument("--scenario", help="scenario JSON file")
    limit.add_argument("--alpha", help="comma-separated alpha levels")
    limit.add_argument("--format", choices=["object", "delimited"], default="object")
    limit.set_defaults(handler=_cmd_limit)

    reproduce = sub.add_parser("reproduce", help="regenerate reference tables and figure data")
    reproduce.add_argument("which", choices=["table2", "epi", "figures", "all"])
    reproduce.add_argument("--seed", type=int, default=DEFAULT_SEED)
    reproduce.add_argument(
        "--fresh", action="store_true", help="draw a fresh seed instead of the default"
    )
    reproduce.add_argument(
        "--reps", type=int, help="override replication counts (table2, figures, all: >= 2)"
    )
    reproduce.add_argument("--out", help=f"output directory (default ${OUT_ENV_VAR} or '.')")
    reproduce.set_defaults(handler=_cmd_reproduce)

    monitor = sub.add_parser("monitor", help="replay weekly counts against a control limit")
    monitor.add_argument("--scenario", required=True, help="scenario JSON file")
    monitor.add_argument("--counts", required=True, help="weekly counts CSV")
    monitor.add_argument("--alpha", type=float, help="alarm level (default: first in scenario)")
    monitor.add_argument("--out", help="history CSV path (default stdout)")
    monitor.set_defaults(handler=_cmd_monitor)

    return parser


def _validate_bound_args(parser: argparse.ArgumentParser, args) -> None:
    if args.command != "bound":
        return
    required, _, _ = _BOUND_KINDS[args.kind]
    if any(getattr(args, name) is None for name in required):
        flags = ["--lambda" if name == "lam" else f"--{name}" for name in required]
        parser.error(f"bound {args.kind} requires {', '.join(flags[:-1])} and {flags[-1]}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_bound_args(parser, args)
    try:
        return args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
