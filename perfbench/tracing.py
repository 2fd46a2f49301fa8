"""Spans around parabraid's public functions, and the per-layer metrics.

``instrument`` replaces each target function at every module attribute of
the parabraid package that refers to it (so re-exports and ``from x import
f`` copies are covered, and call sites that look the name up at call time,
such as ``solve_all`` calling ``least_squares``, go through the wrapper).
Two methods are patched on their classes.  A span records its name, start,
end, parent span and run id, plus a few attributes read off the result.
Spans stay in memory until the run ends.

The engine's code is not changed: every span sits at a function boundary
seen from outside.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self.run_id = ""
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                extra = attrs(args, result) if attrs is not None and result is not None else None
                tracer.spans.append(Span(span_id, name, start, end, parent, tracer.run_id, extra))

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "run": s.run, "attrs": s.attrs}) + "\n")


def _suite_attrs(args, result):
    report = result[0] if isinstance(result, tuple) else result
    return {"command": report.command, "d": report.parameters["d"],
            "wall_time_ms": report.wall_time_ms}


# (module, attribute, span name, attributes read from (args, result))
FUNCTIONS = [
    ("solver", "solve_all", "solver.solve_all",
     lambda a, r: {"restarts": r.restarts, "converged": r.converged, "discarded": r.discarded}),
    ("solver", "least_squares", "solver.least_squares",
     lambda a, r: {"nfev": int(r.nfev), "status": int(r.status)}),
    ("solver", "manifold_dimension", "solver.manifold_dimension", None),
    *[("cli", f"cmd_{c}", "cli.suite", _suite_attrs)
      for c in ("algebra", "fzc", "solve", "gates", "entangling", "clifford")],
    *[("report", f, "report", None)
      for f in ("aggregate_json", "validate_schema", "load_schema", "dump_json",
                "markdown_summary")],
    ("clifford", "closure", "clifford.closure", lambda a, r: {"order": r.order, "levels": r.levels}),
    ("clifford", "clifford_membership", "clifford.clifford_membership", None),
    ("parafermions", "build_parafermions", "parafermions.build_parafermions", None),
    ("parafermions", "check_parity_algebra", "parafermions.check_parity_algebra", None),
    ("braiding", "compose_braid", "braiding.compose_braid", None),
    ("encoding", "build_encoding", "encoding.build_encoding", None),
    ("encoding", "restrict_word", "encoding.restrict_word", None),
    ("encoding", "braid_generator_tableaux", "encoding.braid_generator_tableaux", None),
    ("encoding", "identify_gate", "encoding.identify_gate", None),
]

# (module, class, method, span name, attributes)
METHODS = [
    ("braiding", "BraidRepresentation", "__init__", "braiding.BraidRepresentation", None),
    ("systems", "DenseOperator", "__matmul__", "systems.DenseOperator.matmul",
     lambda a, r: {"dim": r.dim}),
]


def instrument(tracer: Tracer):
    """Install the wrappers; returns a function that removes them again."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "parabraid" or name.startswith("parabraid."))]
    undo = []
    for mod_name, attr, span_name, attrs in FUNCTIONS:
        original = getattr(sys.modules[f"parabraid.{mod_name}"], attr)
        wrapped = tracer.wrap(span_name, original, attrs)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, original))
    for mod_name, cls_name, method, span_name, attrs in METHODS:
        cls = getattr(sys.modules[f"parabraid.{mod_name}"], cls_name)
        original = cls.__dict__[method]
        setattr(cls, method, tracer.wrap(span_name, original, attrs))
        undo.append((cls, method, original))

    def remove() -> None:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return remove


SUITES = [f"cli.suite.{c}.d{d}.ms" for c in ("algebra", "fzc", "solve", "gates", "entangling",
                                            "clifford") for d in (2, 3, 4)]
LM_STATUSES = (0, 1, 2, 3, 4)

# name -> unit; the order is the order of BENCHMARK.json's per_layer list
PER_LAYER_UNITS = {
    "solver.solve_all.s": "s",
    "solver.restart.ms_p50": "ms",
    "solver.restart.ms_p99": "ms",
    "solver.restart.calls": "count",
    "solver.nfev": "count",
    "solver.converged": "count",
    "solver.converged_frac": "ratio",
    "solver.discarded": "count",
    **{f"solver.lm_status.{k}": "count" for k in LM_STATUSES},
    "solver.manifold_dimension.s": "s",
    "solver.manifold_dimension.calls": "count",
    "solver.anchored_fit.calls": "count",
    "solver.anchored_fit.nfev": "count",
    **{name: "ms" for name in SUITES},
    "report.s": "s",
    "clifford.closure.s": "s",
    "clifford.closure.elements_per_s": "1/s",
    "clifford.closure.order": "count",
    "clifford.closure.levels": "count",
    "parafermions.build_parafermions.s": "s",
    "parafermions.check_parity_algebra.s": "s",
    "braiding.BraidRepresentation.s": "s",
    "braiding.compose_braid.s": "s",
    "braiding.compose_braid.calls": "count",
    "encoding.build_encoding.s": "s",
    "encoding.restrict_word.s": "s",
    "encoding.restrict_word.calls": "count",
    "encoding.braid_generator_tableaux.s": "s",
    "encoding.identify_gate.ms_p50": "ms",
    "encoding.identify_gate.ms_p99": "ms",
    "clifford.clifford_membership.s": "s",
    "clifford.clifford_membership.calls": "count",
    "systems.DenseOperator.matmul.calls": "count",
    "systems.DenseOperator.matmul.gflop_computed": "GFLOP",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}


def _outermost_seconds(spans: list[Span], by_id: dict[int, Span], name: str) -> float:
    """Total time in spans called `name`, not counting a span nested in another of them."""
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != name:
            parent = by_id.get(parent.parent)
        if parent is None:
            total += s.seconds
    return total


# layers reported as total seconds (".s") and as call counts (".calls")
TIMED = ("solver.solve_all", "solver.manifold_dimension", "report", "clifford.closure",
         "parafermions.build_parafermions", "parafermions.check_parity_algebra",
         "braiding.BraidRepresentation", "braiding.compose_braid", "encoding.build_encoding",
         "encoding.restrict_word", "encoding.braid_generator_tableaux",
         "clifford.clifford_membership")
COUNTED = ("solver.manifold_dimension", "braiding.compose_braid", "encoding.restrict_word",
           "clifford.clifford_membership")


def _pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals and counts for the spans of one pass."""
    by_id = {s.id: s for s in spans}
    named: dict[str, list[Span]] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def under(parent: str) -> list[Span]:
        return [s for s in named.get("solver.least_squares", [])
                if s.parent in by_id and by_id[s.parent].name == parent]

    restarts, anchored = under("solver.solve_all"), under("solver.manifold_dimension")
    solves = [s.attrs for s in named.get("solver.solve_all", []) if s.attrs]
    closures = [s.attrs for s in named.get("clifford.closure", []) if s.attrs]
    matmuls = [s.attrs["dim"] for s in named.get("systems.DenseOperator.matmul", []) if s.attrs]
    total_restarts = sum(a["restarts"] for a in solves)
    converged = sum(a["converged"] for a in solves)

    out = {f"{name}.s": _outermost_seconds(spans, by_id, name) for name in TIMED}
    out.update({f"{name}.calls": len(named.get(name, [])) for name in COUNTED})
    out.update({
        "solver.restart.calls": len(restarts),
        "solver.nfev": sum(s.attrs["nfev"] for s in restarts if s.attrs),
        "solver.converged": converged,
        "solver.converged_frac": converged / total_restarts if total_restarts else 0.0,
        "solver.discarded": sum(a["discarded"] for a in solves),
        **{f"solver.lm_status.{k}": sum(1 for s in restarts if s.attrs and s.attrs["status"] == k)
           for k in LM_STATUSES},
        "solver.anchored_fit.calls": len(anchored),
        "solver.anchored_fit.nfev": sum(s.attrs["nfev"] for s in anchored if s.attrs),
        **{name: 0.0 for name in SUITES},
        "clifford.closure.order": sum(a["order"] for a in closures),
        "clifford.closure.levels": sum(a["levels"] for a in closures),
        "systems.DenseOperator.matmul.calls": len(matmuls),
        "systems.DenseOperator.matmul.gflop_computed": sum(8.0 * n**3 for n in matmuls) / 1e9,
        "trace.spans": len(spans),
    })
    for s in named.get("cli.suite", []):
        if s.attrs:
            out[f"cli.suite.{s.attrs['command']}.d{s.attrs['d']}.ms"] += s.attrs["wall_time_ms"]
    closure_s = out["clifford.closure.s"]
    out["clifford.closure.elements_per_s"] = (out["clifford.closure.order"] / closure_s
                                              if closure_s else 0.0)
    return out


def _percentile_ms(durations: list[float], q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1000.0
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1000.0


def per_layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Median over passes of each pass's totals, plus pooled call percentiles.

    The metric `trace.overhead_frac` is left for the caller, which knows the
    untraced timings.
    """
    runs: dict[str, list[Span]] = {}
    for s in spans:
        runs.setdefault(s.run, []).append(s)
    passes = [_pass_metrics(group) for group in runs.values()] or [_pass_metrics([])]
    out = {key: statistics.median(p[key] for p in passes) for key in passes[0]}

    by_id = {s.id: s for s in spans}
    restarts = [s.seconds for s in spans if s.name == "solver.least_squares"
                and s.parent in by_id and by_id[s.parent].name == "solver.solve_all"]
    gates = [s.seconds for s in spans if s.name == "encoding.identify_gate"]
    out["solver.restart.ms_p50"] = _percentile_ms(restarts, 50)
    out["solver.restart.ms_p99"] = _percentile_ms(restarts, 99)
    out["encoding.identify_gate.ms_p50"] = _percentile_ms(gates, 50)
    out["encoding.identify_gate.ms_p99"] = _percentile_ms(gates, 99)
    return out
