"""Per-module spans for the traced benchmark run, kept outside formflow.

`Tracer` replaces selected module attributes of formflow (and the methods
`ZeroTester.test` and `Report.to_json`) with wrappers that record a span
(name, start, end, parent) per call in memory, plus work counters read off
arguments and results.  Self time is a span's duration minus that of its
direct children.  `restore()` puts every original object back.

Wrapping class methods matters: pfaff, thermo, systems and cli import
`ZeroTester` by name, so patching a module attribute would miss them.

A function that calls itself through its module global (simplify,
differentiate) gets a span only at its outermost call; nested calls run
the original directly and are not counted.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable

# (module, attribute, span name); a span name groups for module aggregates.
TRACED = (
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "run", "cli.run"),
    ("parse", "parse_scalar", "parse.parse_scalar"),
    ("parse", "parse_scalar_list", "parse.parse_scalar_list"),
    ("expr", "eval_with_scale", "expr.eval_with_scale"),
    ("expr", "eval_many", "expr.eval_many"),
    ("expr", "simplify", "expr.simplify"),
    ("expr", "differentiate", "expr.differentiate"),
    ("forms", "exterior_derivative", "forms.exterior_derivative"),
    ("forms", "wedge", "forms.wedge"),
    ("forms", "interior", "forms.interior"),
    ("forms", "lie_derivative", "forms.lie_derivative"),
    ("pfaff", "pfaff_sequence", "pfaff.pfaff_sequence"),
    ("pfaff", "torsion_data", "pfaff.torsion_data"),
    ("pfaff", "genus_diagnostic", "pfaff.genus_diagnostic"),
    ("thermo", "classify", "thermo.classify"),
    ("thermo", "first_law", "thermo.first_law"),
    ("thermo", "second_variation", "thermo.second_variation"),
    ("chains", "invariance_check", "chains.invariance_check"),
    ("chains", "integrate", "chains.integrate"),
    ("chains", "advect", "chains.advect"),
    ("chains", "rk4_flow", "chains.rk4_flow"),
    ("systems", "get_preset", "systems.get_preset"),
    *(
        ("systems", f, f"systems.diagnostics.{f}")
        for f in (
            "vorticity_fields",
            "euler_residual",
            "navier_stokes_residual",
            "torsion_current",
            "ns_engineering_torsion",
            "mass_current",
            "em_diagnostics",
            "fluid_diagnostics",
            "transversal_current_comparison",
        )
    ),
    *(
        ("finite_topology", f, f"finite_topology.{f}")
        for f in (
            "is_topology",
            "closure",
            "is_continuous",
            "is_continuous_via_closure",
            "inverse_continuous",
            "is_homeomorphism",
            "image_topology",
        )
    ),
)
TRACED_METHODS = (
    ("expr", "ZeroTester", "test", "expr.zero_test"),
    ("cli", "Report", "to_json", "cli.to_json"),
)

# Per-layer metrics of the traced run: (name, unit).  BENCHMARK.json lists
# the same names; a test keeps the two in step.
_TIMED = (
    "expr.zero_test", "expr.eval_with_scale", "expr.simplify", "expr.differentiate",
    "forms.exterior_derivative", "forms.wedge", "forms.interior", "forms.lie_derivative",
    "pfaff.pfaff_sequence", "pfaff.torsion_data", "pfaff.genus_diagnostic",
    "thermo.classify", "thermo.first_law", "thermo.second_variation",
    "chains.invariance_check", "chains.integrate", "chains.advect", "chains.rk4_flow",
    "systems.get_preset",
)
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("setup.import_s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.parse_config.self_s", "s"),
    ("cli.to_json.self_s", "s"),
    ("parse.parse_scalar.calls", "count"),
    ("parse.self_s", "s"),
    *((f"{n}.{k}", u) for n in _TIMED for k, u in (("calls", "count"), ("self_s", "s"))),
    ("expr.zero_test.samples", "count"),
    ("expr.zero_test.skipped", "count"),
    ("expr.zero_test.valid_ratio", "ratio"),
    ("expr.zero_test.syntactic_share", "ratio"),
    ("expr.zero_test.nonzero_share", "ratio"),
    ("expr.zero_test.tree_nodes", "count"),
    ("expr.zero_test.distinct_nodes", "count"),
    ("expr.eval_many.calls", "count"),
    ("expr.eval_many.rows", "count"),
    ("expr.eval_many.self_s", "s"),
    ("chains.integrate.nodes", "count"),
    ("chains.rk4_flow.point_steps", "count"),
    ("systems.diagnostics.self_s", "s"),
    ("finite_topology.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def expr_size(e: Any) -> tuple[int, int]:
    """(tree nodes, distinct structures) of a formflow expression.

    Tree nodes count a shared subexpression once per occurrence, as a tree
    walk would visit it; distinct structures count structurally equal
    subtrees once.  Reads node fields only, so no key is built or cached.
    """
    size: dict[int, int] = {}
    sid: dict[int, int] = {}
    table: dict[tuple, int] = {}
    stack = [(e, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in size:
            continue
        kids = _children(node)
        if not ready:
            stack.append((node, True))
            stack.extend((k, False) for k in kids if id(k) not in size)
            continue
        size[id(node)] = 1 + sum(size[id(k)] for k in kids)
        key = (type(node).__name__, _payload(node), tuple(sid[id(k)] for k in kids))
        sid[id(node)] = table.setdefault(key, len(table))
    return size[id(e)], len(table)


def _children(node: Any) -> tuple:
    for attr in ("terms", "factors", "args"):
        kids = getattr(node, attr, None)
        if kids is not None:
            return tuple(kids)
    if hasattr(node, "num"):
        return (node.num, node.den)
    if hasattr(node, "base"):
        return (node.base,)
    return ()


def _payload(node: Any) -> Any:
    if hasattr(node, "value"):  # 1 and 1.0 are different constants
        return (type(node.value).__name__, node.value)
    for attr in ("index", "exponent"):
        if hasattr(node, attr):
            return getattr(node, attr)
    return getattr(node, "name", None)


class Tracer:
    """Install with `install()`, run, then `restore()` and `aggregate()`."""

    def __init__(self, modules: dict[str, Any]):
        self._modules = modules
        self._saved: list[tuple[Any, str, Any]] = []
        self._paused = 0.0  # time spent computing counters, hidden from spans
        self._open: set[str] = set()
        self._stack: list[int] = []
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def install(self) -> None:
        for mod, attr, name in TRACED:
            owner = self._modules[mod]
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name))
        for mod, cls, attr, name in TRACED_METHODS:
            owner = getattr(self._modules[mod], cls)
            self._patch(owner, attr, self._wrap(owner.__dict__[attr], name))

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, original: Callable, name: str) -> Callable:
        counter = _COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if name in tracer._open:
                return original(*args, **kwargs)
            span = [name, tracer.now(), 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            tracer._open.add(name)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = tracer.now()
                tracer._open.discard(name)
                tracer._stack.pop()
            if counter is not None:
                t0 = time.perf_counter()
                counter(tracer.counts, args, kwargs, result)
                tracer._paused += time.perf_counter() - t0
            return result

        return traced

    def aggregate(self) -> dict[str, dict[str, float]]:
        """calls and self_s per span name; clears the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name]["calls"] += 1
            out[name]["self_s"] += (end - start) - inner
        self.spans.clear()
        return dict(out)


def _count_zero_test(counts, args, kwargs, verdict) -> None:
    expr = args[1] if len(args) > 1 else kwargs["e"]
    tree, distinct = expr_size(expr)
    counts["expr.zero_test.tree_nodes"] += tree
    counts["expr.zero_test.distinct_nodes"] += distinct
    counts["expr.zero_test.samples"] += verdict.samples
    counts["expr.zero_test.skipped"] += verdict.skipped
    counts["expr.zero_test.syntactic"] += bool(verdict.syntactic)
    counts["expr.zero_test.nonzero"] += not verdict.zero


def _count_eval_many(counts, args, kwargs, result) -> None:
    counts["expr.eval_many.rows"] += len(result)


def _count_integrate(counts, args, kwargs, result) -> None:
    """Nodes of the coarse (order) and fine (2 * order) tensor rules per cell."""
    chain = args[1] if len(args) > 1 else kwargs["chain"]
    order = result.order
    cells = len(chain.cells)
    counts["chains.integrate.nodes"] += cells * (order**chain.degree + (2 * order) ** chain.degree)


def _count_rk4_flow(counts, args, kwargs, result) -> None:
    steps = args[3] if len(args) > 3 else kwargs["steps"]
    counts["chains.rk4_flow.point_steps"] += len(result) * steps


_COUNTERS = {
    "expr.zero_test": _count_zero_test,
    "expr.eval_many": _count_eval_many,
    "chains.integrate": _count_integrate,
    "chains.rk4_flow": _count_rk4_flow,
}


def layer_metrics(
    spans: dict[str, dict[str, float]], counts: dict[str, float], passes: int
) -> dict[str, float]:
    """Per-pass values of every PER_LAYER metric except the two that the
    caller measures itself (setup.import_s, trace.overhead_ratio)."""

    def self_s(prefix: str) -> float:
        return sum(v["self_s"] for k, v in spans.items() if k == prefix or k.startswith(prefix + "."))

    def calls(name: str) -> float:
        return spans.get(name, {}).get("calls", 0)

    out: dict[str, float] = {}
    for name in ("cli.run", "cli.parse_config", "cli.to_json", "expr.eval_many", *_TIMED):
        out[f"{name}.self_s"] = spans.get(name, {}).get("self_s", 0.0) / passes
        out[f"{name}.calls"] = calls(name) / passes
    out["parse.parse_scalar.calls"] = calls("parse.parse_scalar") / passes
    out["parse.self_s"] = self_s("parse") / passes
    out["systems.diagnostics.self_s"] = self_s("systems.diagnostics") / passes
    out["finite_topology.self_s"] = self_s("finite_topology") / passes
    for key in ("samples", "skipped", "tree_nodes", "distinct_nodes"):
        out[f"expr.zero_test.{key}"] = counts.get(f"expr.zero_test.{key}", 0) / passes
    tests = calls("expr.zero_test")
    drawn = counts.get("expr.zero_test.samples", 0) + counts.get("expr.zero_test.skipped", 0)
    out["expr.zero_test.valid_ratio"] = counts.get("expr.zero_test.samples", 0) / drawn if drawn else 0.0
    out["expr.zero_test.syntactic_share"] = counts.get("expr.zero_test.syntactic", 0) / tests if tests else 0.0
    out["expr.zero_test.nonzero_share"] = counts.get("expr.zero_test.nonzero", 0) / tests if tests else 0.0
    out["expr.eval_many.rows"] = counts.get("expr.eval_many.rows", 0) / passes
    out["chains.integrate.nodes"] = counts.get("chains.integrate.nodes", 0) / passes
    out["chains.rk4_flow.point_steps"] = counts.get("chains.rk4_flow.point_steps", 0) / passes
    return {k: v for k, v in out.items() if k in _NAMES}


_NAMES = {name for name, _ in PER_LAYER}
