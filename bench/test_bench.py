"""Tests of the benchmark itself: python -m pytest bench"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from check import mismatches  # noqa: E402
from formflow import chains, cli, expr, finite_topology, forms, parse, pfaff, systems, thermo  # noqa: E402

MODULES = dict(
    cli=cli, parse=parse, expr=expr, forms=forms, pfaff=pfaff, thermo=thermo,
    chains=chains, systems=systems, finite_topology=finite_topology,
)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_for_a_seed(name):
    make = workloads.WORKLOADS[name]
    assert make(7, ROOT) == make(7, ROOT)
    if name != "presets":  # the presets workload has fixed inputs
        assert [j.text for j in make(7, ROOT)] != [j.text for j in make(8, ROOT)]


def test_abc_velocity_is_its_own_curl():
    """Beltrami property of the generated flow, by central differences."""
    v = workloads.abc_velocity(5, random.Random(3))
    funcs = [eval(f"lambda x, y, z: {c}", {"sin": math.sin, "cos": math.cos}) for c in v]
    p, h = (0.3, -0.7, 0.45), 1e-5

    def d(i, j):  # d v_i / d x_j
        hi = list(p)
        lo = list(p)
        hi[j] += h
        lo[j] -= h
        return (funcs[i](*hi) - funcs[i](*lo)) / (2 * h)

    curl = (d(2, 1) - d(1, 2), d(0, 2) - d(2, 0), d(1, 0) - d(0, 1))
    for c, vi in zip(curl, (f(*p) for f in funcs)):
        assert abs(c - vi) < 1e-7


def test_poly_diff_and_text():
    p = {(2, 1, 0, 0): 3, (0, 0, 0, 1): -1}  # 3 x^2 y - t
    assert workloads.poly_text(p) == "3*x^2*y - t"
    assert workloads.poly_diff(p, 0) == {(1, 1, 0, 0): 6}
    assert workloads.poly_text(workloads.poly_diff(p, 3)) == "-1"
    assert workloads.poly_diff(p, 2) == {}


def _report(job: workloads.Job) -> dict:
    return cli.run(cli.parse_config(job.text)).document


def test_known_answer_checker_flags_wrong_expectations():
    job = workloads.pfaff_job(2, 2, random.Random(1), 5)
    doc = _report(job)
    assert mismatches(doc, job.expect) == []
    wrong_dimension = replace(job.expect, pfaff_dimension=3)
    assert any("dimension" in m for m in mismatches(doc, wrong_dimension))
    name = next(iter(job.expect.checks))
    wrong_verdict = replace(job.expect, checks={**job.expect.checks, name: False})
    assert any(name in m for m in mismatches(doc, wrong_verdict))
    missing = replace(job.expect, checks={**job.expect.checks, "no_such_check": True})
    assert any("missing check no_such_check" in m for m in mismatches(doc, missing))


def test_known_answer_checker_reads_battery_facts():
    winding = next(j for j in workloads.transport(2, ROOT) if j.name.startswith("winding"))
    doc = _report(winding)
    assert mismatches(doc, winding.expect) == []
    flipped = replace(winding.expect, period_ratios=tuple(-r for r in winding.expect.period_ratios))
    assert any("period ratios" in m for m in mismatches(doc, flipped))
    figure1 = next(j for j in workloads.presets(0, ROOT) if j.name == "figure1.cfg")
    topo = dict(figure1.expect.topology, inverse_continuous=True)
    assert mismatches(_report(figure1), replace(figure1.expect, topology=topo))


def _attributes():
    out = {(mod, attr): MODULES[mod].__dict__[attr] for mod, attr, _ in tracing.TRACED}
    for mod, cls, attr, _ in tracing.TRACED_METHODS:
        out[(cls, attr)] = getattr(MODULES[mod], cls).__dict__[attr]
    return out


def test_traced_run_restores_every_attribute_and_keeps_report_bytes():
    job = next(j for j in workloads.presets(0, ROOT) if j.name == "em.plane_wave")
    before = _attributes()
    plain = run.run_job(cli, job)
    tracer = tracing.Tracer(MODULES)
    tracer.install()
    try:
        assert all(_attributes()[k] is not v for k, v in before.items())
        with_trace = run.run_job(cli, job)
    finally:
        tracer.restore()
    after = _attributes()
    assert all(after[k] is v for k, v in before.items())
    assert plain.problems == with_trace.problems == []
    assert plain.data == with_trace.data
    spans = tracer.aggregate()
    assert spans["cli.run"]["calls"] == 1
    assert spans["expr.zero_test"]["calls"] > 0
    assert tracer.counts["chains.integrate.nodes"] > 0
    measured_by_run = {"setup.import_s", "trace.overhead_ratio"}
    layer = tracing.layer_metrics(spans, tracer.counts, 1)
    assert set(layer) | measured_by_run == {name for name, _ in tracing.PER_LAYER}


def test_self_time_excludes_children_and_recursion_is_outermost_only():
    x, y = expr.Coord(0), expr.Coord(1)
    tracer = tracing.Tracer(MODULES)
    tracer.install()
    try:
        expr.simplify(expr.Sum((expr.Product((x, y)), expr.Product((y, x)))))
    finally:
        tracer.restore()
    assert [s[0] for s in tracer.spans] == ["expr.simplify"]
    tracer.spans[:] = [["a", 0.0, 5.0, -1], ["b", 1.0, 3.0, 0], ["c", 1.5, 2.0, 1]]
    spans = tracer.aggregate()
    assert spans["a"]["self_s"] == 3.0
    assert spans["b"]["self_s"] == 1.5
    assert spans["c"]["self_s"] == 0.5


def test_expr_size_counts_tree_and_distinct_nodes():
    x, y = expr.Coord(0), expr.Coord(1)
    xy = expr.Product((x, y))
    assert tracing.expr_size(expr.Sum((xy, expr.Product((x, y))))) == (7, 4)
    assert tracing.expr_size(expr.Sum((expr.Const(1), expr.Const(1.0)))) == (3, 3)


def test_tail_percentile_leaves_ten_reports_beyond():
    for n in (11, 32, 72, 80, 100, 1000):
        pct = run.tail_percentile(n)
        values = list(range(n))
        k = values.index(run.nearest_rank(values, pct)) + 1
        assert n - k >= 10
        assert n - (-(-(pct + 1) * n // 100)) < 10 or pct == 99


def test_benchmark_json_matches_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert sorted(spec["workloads"][0]) == ["name", "why"]


def test_run_refuses_a_directory_without_formflow(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "presets", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
