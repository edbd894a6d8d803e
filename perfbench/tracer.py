"""Span tracer that measures rotwave's layers from outside the package.

The tracer wraps the public functions and methods at each module boundary
(`BOUNDARIES`), wherever the name is bound inside the `rotwave` package,
records one span per call in memory and derives per-layer self times and
call counts from the spans (`layer_metrics`).  Nothing under `src/` is
edited: `install` swaps the bound names for wrappers and `restore` puts the
originals back.  A boundary that cannot be found is reported as missing,
and every metric that depends on it reads -1 instead of a silent zero.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
import weakref
from dataclasses import dataclass

# span name -> (module, attribute path, hook)
#   hook "first_per_instance": only the first call per receiver is a span
#   (the lazily cached LU factorization of one WaveSystem);
#   hook "iterations": the return value is a ReconstructionTrace whose
#   stop_index is recorded as the span's iteration count.
BOUNDARIES = {
    "experiments.manufacture_truth": ("rotwave.experiments", "manufacture_truth", None),
    "experiments.run_experiment": ("rotwave.experiments", "run_experiment", None),
    "experiments.sweep": ("rotwave.experiments", "sweep", None),
    "grid.build_grid": ("rotwave.grid", "build_grid", None),
    "grid.build_stencils": ("rotwave.grid", "build_stencils", None),
    "grid.delta_matrix": ("rotwave.grid", "DerivativeStencils.delta_matrix", None),
    "grid.bilaplacian_matrix": ("rotwave.grid", "DerivativeStencils.bilaplacian_matrix", None),
    "operator.assemble_forward": ("rotwave.operator", "assemble_forward", None),
    "operator.factorization": ("rotwave.operator", "WaveSystem.factorization", "first_per_instance"),
    "operator.solve": ("rotwave.operator", "solve", None),
    "operator.solve_values": ("rotwave.operator", "WaveSystem.solve_values", None),
    "operator.solve_weighted_adjoint": ("rotwave.operator", "WaveSystem.solve_weighted_adjoint", None),
    "operator.apply_B_prime": ("rotwave.operator", "apply_B_prime", None),
    "inversion.nesterov_landweber": ("rotwave.inversion", "nesterov_landweber", "iterations"),
    "inversion.state": ("rotwave.inversion", "InverseProblem.state", None),
    "inversion.observed": ("rotwave.inversion", "InverseProblem.observed", None),
    "inversion.adjoint_gradient": ("rotwave.inversion", "adjoint_gradient", None),
    "inversion.riesz": ("rotwave.inversion", "ParameterMetric.riesz", None),
    "inversion.calibrate_gradient_sign": ("rotwave.inversion", "calibrate_gradient_sign", None),
    "inversion.metric_build": ("rotwave.inversion", "ParameterMetric.__init__", None),
    "inversion.sensitivity": ("rotwave.inversion", "sensitivity", None),
}

# the cli layer is the package import itself; the worker records it by hand
IMPORT_SPAN = "cli.import"

LOOP = "inversion.nesterov_landweber"
MISSING = -1.0


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at the root
    op: str  # operation id shared by the spans of one operation
    info: dict | None = None  # iterations, bytes or error, when a hook records one


def _array_bytes(obj) -> int:
    """Bytes of the numpy arrays held by an object's attributes (one level,
    descending into tuples and lists such as an LU factorization)."""
    total = 0
    stack = list(vars(obj).values())
    while stack:
        item = stack.pop()
        if isinstance(item, (tuple, list)):
            stack.extend(item)
        elif hasattr(item, "nbytes") and hasattr(item, "dtype"):
            total += int(item.nbytes)
    return total


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.op = "setup"
        self.active = True
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._seen = weakref.WeakSet()

    # -- recording ------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    @contextlib.contextmanager
    def paused(self):
        """Run output checks without recording their calls."""
        self.active, before = False, self.active
        try:
            yield
        finally:
            self.active = before

    def _wrap(self, fn, name: str, hook: str | None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if hook == "first_per_instance":
                if args[0] in tracer._seen:
                    return fn(*args, **kwargs)
                tracer._seen.add(args[0])
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.spans[idx].info = {"error": type(exc).__name__}
                raise
            finally:
                tracer.end(idx)
            if hook == "iterations":
                tracer.spans[idx].info = {"iterations": int(result.stop_index)}
            elif hook == "first_per_instance":
                tracer.spans[idx].info = {"bytes": _array_bytes(args[0])}
            return result

        return wrapper

    # -- installing wrappers ---------------------------------------------

    def install(self, boundaries: dict = BOUNDARIES) -> None:
        """Wrap every boundary wherever it is bound in a loaded rotwave module."""
        modules = [
            mod
            for modname, mod in sorted(sys.modules.items())
            if mod is not None and (modname == "rotwave" or modname.startswith("rotwave."))
        ]
        for name, (modname, path, hook) in boundaries.items():
            try:
                owner = importlib.import_module(modname)
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(original, name, hook)
            if cls_path:  # a method: the class object is shared by every importer
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, bound, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, boundaries: dict = BOUNDARIES):
        self.install(boundaries)
        try:
            yield self
        finally:
            self.restore()

    def dump(self) -> dict:
        return {
            "missing": list(self.missing),
            "fields": ["name", "start", "end", "parent", "op", "info"],
            "spans": [[s.name, s.start, s.end, s.parent, s.op, s.info] for s in self.spans],
        }


# ----------------------------------------------------------------------
# derived per-layer metrics
# ----------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it covered by its children."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


def _inside_loop(spans: list[Span]) -> list[bool]:
    """Whether each span has a Nesterov-Landweber loop span as an ancestor."""
    flags: list[bool] = []
    for s in spans:  # parents precede children, so one pass suffices
        p = s.parent
        flags.append(p is not None and (spans[p].name == LOOP or flags[p]))
    return flags


def loop_counts_by_op(spans: list[Span]) -> dict[str, dict]:
    """States inside the loop and loop iterations, per operation that iterated."""
    counts: dict[str, dict] = {}
    for s, looped in zip(spans, _inside_loop(spans)):
        row = counts.setdefault(s.op, {"state_calls": 0, "iterations": 0})
        row["state_calls"] += int(looped and s.name == "inversion.state")
        row["iterations"] += (s.info or {}).get("iterations", 0) if s.name == LOOP else 0
    return {op: row for op, row in counts.items() if row["iterations"]}


def _empty_row() -> dict:
    return {"calls": 0, "self_s": 0.0, "total_s": 0.0, "loop_calls": 0,
            "iterations": 0, "max_bytes": 0}


def summarize(spans: list[Span]) -> dict:
    """Per span name: calls, self and total seconds, calls inside the loop,
    iterations and the largest computed byte count its hooks recorded."""
    summary: dict[str, dict] = {}
    for s, self_s, looped in zip(spans, self_times(spans), _inside_loop(spans)):
        row = summary.setdefault(s.name, _empty_row())
        row["calls"] += 1
        row["self_s"] += self_s
        row["total_s"] += s.end - s.start
        row["loop_calls"] += int(looped)
        info = s.info or {}
        row["iterations"] += info.get("iterations", 0)
        row["max_bytes"] = max(row["max_bytes"], info.get("bytes", 0))
    return summary


# name -> (unit, boundaries it is derived from)
LAYER_METRICS = {
    "cli.import_s": ("s", (IMPORT_SPAN,)),
    "experiments.truth_s": ("s", ("experiments.manufacture_truth",)),
    "experiments.truth_calls": ("count", ("experiments.manufacture_truth",)),
    "experiments.run_self_s": ("s", ("experiments.run_experiment", "experiments.sweep")),
    "grid.stencils_s": ("s", ("grid.build_grid", "grid.build_stencils", "grid.delta_matrix",
                              "grid.bilaplacian_matrix")),
    "operator.assemble_s": ("s", ("operator.assemble_forward",)),
    "operator.assemble_calls": ("count", ("operator.assemble_forward",)),
    "operator.factor_s": ("s", ("operator.factorization",)),
    "operator.factorizations": ("count", ("operator.factorization",)),
    "operator.solve_s": ("s", ("operator.solve", "operator.solve_values")),
    "operator.solve_calls": ("count", ("operator.solve_values",)),
    "operator.adjoint_solve_s": ("s", ("operator.solve_weighted_adjoint",)),
    "operator.adjoint_solve_calls": ("count", ("operator.solve_weighted_adjoint",)),
    "operator.bprime_s": ("s", ("operator.apply_B_prime",)),
    "operator.system_bytes": ("bytes_computed", ("operator.factorization",)),
    "inversion.loop_self_s": ("s", (LOOP,)),
    "inversion.iterations": ("count", (LOOP,)),
    "inversion.state_calls": ("count", (LOOP, "inversion.state")),
    "inversion.solves_per_iter": ("ratio", (LOOP, "inversion.state")),
    "inversion.trials": ("count", (LOOP, "inversion.observed")),
    "inversion.accept_ratio": ("ratio", (LOOP, "inversion.observed")),
    "inversion.gradient_s": ("s", ("inversion.adjoint_gradient",)),
    "inversion.riesz_s": ("s", ("inversion.riesz",)),
    "inversion.calibrate_s": ("s", ("inversion.calibrate_gradient_sign",)),
    "inversion.calibrate_calls": ("count", ("inversion.calibrate_gradient_sign",)),
    "inversion.metric_build_s": ("s", ("inversion.metric_build",)),
    "inversion.sensitivity_s": ("s", ("inversion.sensitivity",)),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], missing: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced run; MISSING where a boundary is gone.

    Times are self times (children subtracted) except calibrate_s and
    metric_build_s, which are inclusive: they price the whole calibration
    and the whole metric build, solves and stencils included.  Loop counts
    only take spans inside nesterov_landweber; the loop's first misfit
    evaluation is not a line-search trial.
    """
    s = summarize(spans)
    row = lambda name: s.get(name) or _empty_row()
    self_s = lambda *names: sum(row(n)["self_s"] for n in names)
    loops = row(LOOP)["calls"]
    iterations = row(LOOP)["iterations"]
    states = row("inversion.state")["loop_calls"]
    trials = max(row("inversion.observed")["loop_calls"] - loops, 0)
    values = {
        "cli.import_s": self_s(IMPORT_SPAN),
        "experiments.truth_s": self_s("experiments.manufacture_truth"),
        "experiments.truth_calls": row("experiments.manufacture_truth")["calls"],
        "experiments.run_self_s": self_s("experiments.run_experiment", "experiments.sweep"),
        "grid.stencils_s": self_s(*LAYER_METRICS["grid.stencils_s"][1]),
        "operator.assemble_s": self_s("operator.assemble_forward"),
        "operator.assemble_calls": row("operator.assemble_forward")["calls"],
        "operator.factor_s": self_s("operator.factorization"),
        "operator.factorizations": row("operator.factorization")["calls"],
        "operator.solve_s": self_s("operator.solve", "operator.solve_values"),
        "operator.solve_calls": row("operator.solve_values")["calls"],
        "operator.adjoint_solve_s": self_s("operator.solve_weighted_adjoint"),
        "operator.adjoint_solve_calls": row("operator.solve_weighted_adjoint")["calls"],
        "operator.bprime_s": self_s("operator.apply_B_prime"),
        "operator.system_bytes": row("operator.factorization")["max_bytes"],
        "inversion.loop_self_s": self_s(LOOP),
        "inversion.iterations": iterations,
        "inversion.state_calls": states,
        "inversion.solves_per_iter": _ratio(states, iterations),
        "inversion.trials": trials,
        "inversion.accept_ratio": _ratio(iterations, trials),
        "inversion.gradient_s": self_s("inversion.adjoint_gradient"),
        "inversion.riesz_s": self_s("inversion.riesz"),
        "inversion.calibrate_s": row("inversion.calibrate_gradient_sign")["total_s"],
        "inversion.calibrate_calls": row("inversion.calibrate_gradient_sign")["calls"],
        "inversion.metric_build_s": row("inversion.metric_build")["total_s"],
        "inversion.sensitivity_s": self_s("inversion.sensitivity"),
    }
    gone = set(missing)
    return {
        name: (MISSING if gone.intersection(LAYER_METRICS[name][1]) else float(value))
        for name, value in values.items()
    }
