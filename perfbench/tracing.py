"""Span recording around the public functions of each ``nbbounds`` module.

A :class:`Tracer` replaces every traced function in each ``nbbounds``
module namespace that holds it, so a call is seen where the calling module
looks the name up (``nbbounds.reproduce.run_dependent_experiment`` as well
as ``nbbounds.simulation.run_dependent_experiment``). Each call becomes a
span: name, start, end and parent. Spans live in flat arrays for the whole
run and are written out once, when the run ends. The workloads run with
``workers=1``, so one call stack per process is enough to find parents.

The layers are the ``nbbounds`` modules; a span named ``simulation.foo``
belongs to layer ``simulation``. A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import os
import statistics
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# layer (defining module) -> function -> what its span records as its value
_REPLICATIONS = lambda result: result[0].replications  # noqa: E731
TRACED = {
    "bounds": {
        "chernoff_mean_deviation_bound": lambda result: result.optimizer.iterations,
        "kolmogorov_independent_bound": None,
        "dependent_kolmogorov_bound": None,
        "bernstein_dependent_bound": None,
        "invert_bound": None,
        "exact_max_deviation_tail_oracle": None,
        "exact_mean_deviation_tail": None,
        "control_limit": None,
        "tweedie_variance": None,
    },
    "distributions": {"sample_nb": None, "sample_nb2": None, "sample_mixture_counts": None},
    "simulation": {
        "build_moment_matched_design": None,
        "run_independent_experiment": None,
        "run_nb2_experiment": _REPLICATIONS,
        "run_dependent_experiment": _REPLICATIONS,
        "efficiency_curve": None,
        "lambda_correlation": None,
        "summarize_deviations": None,
    },
    "surveillance": {
        "run_epi_validation": lambda result: result.replications,
        "epi_control_limits": None,
    },
    "reproduce": {
        "build_report": None,
        "reproduce_table2": None,
        "reproduce_epi": None,
        "reproduce_figures": None,
        "write_report": lambda paths: sum(os.path.getsize(p) for p in paths),
    },
}

# Layers whose spans, with the report writer, should hold nearly all of a
# reproduce-all op; ``trace.mc_write_share`` measures how much they do.
_MC_LAYERS = ("simulation", "surveillance", "rng")
_OP = "bench.op"
_EVAL = "bounds.eval"


class Tracer:
    """In-memory span recorder for the ops of one run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.child = array("d")  # time covered by direct children
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.value.append(0.0)
        self.child.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = end = perf_counter()
        self._stack.pop()
        parent = self.parent[sid]
        if parent >= 0:
            self.child[parent] += end - self.start[sid]

    def _wrap(self, name: str, fn, value_of=None):
        open_, close = self._open, self._close
        wrap_eval = name == "bounds.invert_bound"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if wrap_eval:
                # count the evaluations invert_bound makes of the bound it inverts
                bound = args[0]
                args = (lambda lam: self._call(_EVAL, bound, lam),) + args[1:]
            sid = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if value_of is not None:
                self.value[sid] = value_of(result)
            return result

        return traced

    def _call(self, name, fn, *args):
        sid = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(sid)

    # -- installing --------------------------------------------------------

    def _install(self) -> None:
        originals = {}
        for layer, functions in TRACED.items():
            module = sys.modules[f"nbbounds.{layer}"]
            for fname, value_of in functions.items():
                fn = getattr(module, fname)
                if id(fn) not in self._wrappers:
                    self._wrappers[id(fn)] = self._wrap(f"{layer}.{fname}", fn, value_of)
                originals[id(fn)] = fn
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "nbbounds" and not mod_name.startswith("nbbounds."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals and obj is originals[id(obj)]:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, self._wrappers[id(obj)])
        handle = sys.modules["nbbounds.rng"].RngHandle
        generator = handle.generator
        if id(generator) not in self._wrappers:
            self._wrappers[id(generator)] = self._wrap("rng.generator", generator)
        self._patches.append((handle, "generator", generator))
        handle.generator = self._wrappers[id(generator)]

    def _uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def op(self, layers: dict):
        """Trace one op; on exit ``layers`` holds its per-layer values."""
        self._install()
        first = len(self.start)
        sid = self._open(_OP)
        try:
            yield
        finally:
            self._close(sid)
            self._uninstall()
        layers.update(self._aggregate(first, len(self.start)))

    # -- reduction ---------------------------------------------------------

    def _aggregate(self, lo: int, hi: int) -> dict:
        """Per-layer values of the op whose spans are ``lo..hi-1``."""
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        value: dict[str, float] = {}
        layer_self: dict[str, float] = {}
        selected = bytearray(hi - lo)  # span lies inside an MC or write span
        covered = 0.0
        for sid in range(lo, hi):
            name = self.names[self.name[sid]]
            duration = self.end[sid] - self.start[sid]
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + duration
            value[name] = value.get(name, 0.0) + self.value[sid]
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + duration - self.child[sid]
            parent = self.parent[sid]
            inside = parent >= lo and selected[parent - lo]
            if layer in _MC_LAYERS or name == "reproduce.write_report":
                if not inside:
                    covered += duration
                inside = True
            selected[sid - lo] = inside
        op_s = busy[_OP]

        def n(*names):
            return sum(calls.get(x, 0) for x in names)

        def s(*names):
            return sum(busy.get(x, 0.0) for x in names)

        def v(*names):
            return sum(value.get(x, 0.0) for x in names)

        mc = ("simulation.run_nb2_experiment", "simulation.run_dependent_experiment")
        samplers = ("sample_nb", "sample_nb2", "sample_mixture_counts")
        oracles = ("bounds.exact_max_deviation_tail_oracle", "bounds.exact_mean_deviation_tail")
        chernoff = "bounds.chernoff_mean_deviation_bound"
        invert = "bounds.invert_bound"
        return {
            "bounds.invert_calls": n(invert),
            "bounds.invert_s": s(invert),
            "bounds.eval_calls": n(_EVAL),
            "bounds.eval_s": s(_EVAL),
            "bounds.evals_per_invert": n(_EVAL) / n(invert) if n(invert) else 0.0,
            "bounds.chernoff_calls": n(chernoff),
            "bounds.chernoff_s": s(chernoff),
            "bounds.chernoff_iterations": v(chernoff) / n(chernoff) if n(chernoff) else 0.0,
            "bounds.oracle_calls": n(*oracles),
            "bounds.oracle_s": s(*oracles),
            "rng.generators_built": n("rng.generator"),
            "rng.generator_s": s("rng.generator"),
            "distributions.sample_calls": n(*(f"distributions.{x}" for x in samplers)),
            "distributions.sample_s": s(*(f"distributions.{x}" for x in samplers)),
            "simulation.replications": v(*mc),
            "simulation.reps_per_s": v(*mc) / s(*mc) if s(*mc) else 0.0,
            "simulation.independent_s": s("simulation.run_independent_experiment"),
            "simulation.dependent_s": s("simulation.run_dependent_experiment"),
            "simulation.efficiency_curve_s": s("simulation.efficiency_curve"),
            "simulation.self_s": layer_self.get("simulation", 0.0),
            "surveillance.epi_calls": n("surveillance.run_epi_validation"),
            "surveillance.epi_replications": v("surveillance.run_epi_validation"),
            "surveillance.epi_s": s("surveillance.run_epi_validation"),
            "reproduce.table2_s": s("reproduce.reproduce_table2"),
            "reproduce.epi_s": s("reproduce.reproduce_epi"),
            "reproduce.figures_s": s("reproduce.reproduce_figures"),
            "reproduce.write_s": s("reproduce.write_report"),
            "reproduce.bytes_written": v("reproduce.write_report"),
            "reproduce.self_s": layer_self.get("reproduce", 0.0),
            "trace.mc_write_share": covered / op_s,
        }

    def write(self, path: str, origin: float) -> None:
        """Write every span as gzip CSV: id, parent, name, start, end, value."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,parent,name,start_s,end_s,value\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid},{self.parent[sid]},{self.names[self.name[sid]]},"
                    f"{self.start[sid] - origin:.7f},{self.end[sid] - origin:.7f},"
                    f"{self.value[sid]:g}\n"
                )


def parse_importtime(stderr: str) -> dict:
    """Import times from ``python -X importtime`` output, in seconds.

    ``import.total_s`` is the cumulative time of every outermost ``nbbounds``
    import, which includes numpy and scipy; ``import.scipy_s`` and
    ``import.numpy_s`` are the cumulative times of the outermost imports of
    those packages, wherever they were triggered.
    """
    entries = []  # (depth, package, cumulative_us) in the order printed
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        label = fields[2]
        package = label.lstrip(" ")
        depth = (len(label) - len(package) - 1) // 2
        entries.append((depth, package, int(fields[1])))

    def outermost(top: str) -> float:
        # children are printed before their parent, so walk backwards and
        # skip any entry nested inside one already counted
        total, stack = 0, []
        for depth, package, cumulative in reversed(entries):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            inside = bool(stack) and stack[-1][1]
            matches = package == top or package.startswith(top + ".")
            if matches and not inside:
                total += cumulative
            stack.append((depth, inside or matches))
        return total / 1e6

    return {
        "import.total_s": outermost("nbbounds"),
        "import.scipy_s": outermost("scipy"),
        "import.numpy_s": outermost("numpy"),
    }


def median_layers(per_op: list[dict]) -> dict:
    """Median over ops of each per-layer value the ops report."""
    keys = {k for layers in per_op for k in layers}
    return {k: statistics.median(d[k] for d in per_op if k in d) for k in sorted(keys)}
