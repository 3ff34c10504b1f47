"""The batteries and their check declarations: every reported check is made
from exactly one declaration, the report schema lists the declarations, and
the batteries call the library through its module attributes."""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

import pytest

import formflow.batteries as bt
import formflow.chains as ch
import formflow.cli as cli
import formflow.expr as ex
import formflow.finite_topology as ft
import formflow.parse as ps
import formflow.pfaff as pf
import formflow.systems as sy
import formflow.thermo as th
import oracles as oc
from test_cli import REPORT_DIGESTS

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"
SCHEMA = REPO / "docs" / "report-schema.md"


def _pattern(pattern: str) -> re.Pattern:
    """A declared name pattern as a regex; each {field} is one dot-free name."""
    parts = re.split(r"\{\w+\}", pattern)
    return re.compile(r"[^.]+".join(re.escape(p) for p in parts))


def _declared(name: str) -> list[bt.CheckKind]:
    return [kind for kind in bt.CHECKS.values() if _pattern(kind.pattern).fullmatch(name)]


def _bench_workloads():
    """bench/workloads.py, read in place: it imports nothing of formflow.
    Its dataclasses look their module up in sys.modules."""
    spec = importlib.util.spec_from_file_location("bench_workloads", REPO / "bench" / "workloads.py")
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


def test_there_is_one_declaration_per_kind():
    assert len(bt.CHECKS) == 17
    assert {kind.evidence for kind in bt.CHECKS.values()} == set(bt.EVIDENCE)
    assert set(bt.BATTERY_FUNCS) == {kind.battery for kind in bt.CHECKS.values()}
    for key, kind in bt.CHECKS.items():
        assert kind.pattern.partition(".")[0] == key


def test_checks_are_made_only_from_their_declarations():
    # Checks.add is the one place a _Check is built, and cli names no check
    sources = {p.name: p.read_text() for p in (REPO / "src" / "formflow").glob("*.py")}
    assert {name: s.count("_Check(") for name, s in sources.items() if "_Check(" in s} == {
        "batteries.py": 1
    }
    assert [kind for kind in bt.CHECKS if kind in sources["cli.py"]] == []


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_every_pinned_report_check_has_exactly_one_declaration(name):
    if name.endswith(".cfg"):
        text = (CONFIGS / name).read_text()
    else:
        text = f"[run]\npreset = {name}\nbattery = all\n"
    checks = cli.run(cli.parse_config(text)).document["checks"]
    assert checks
    for check in checks:
        (kind,) = _declared(check["name"])
        assert check["battery"] == kind.battery, check
        if kind.evidence in ("numeric", "invariance"):
            assert None not in (check["value"], check["tolerance"]), check
        else:
            assert (check["value"], check["tolerance"]) == (None, None), check


@pytest.mark.parametrize("workload", ["presets", "symbolic", "transport"])
def test_every_expected_bench_check_has_exactly_one_declaration(workload):
    workloads = _bench_workloads()
    for seed in (1, 2, 3):
        for job in workloads.WORKLOADS[workload](seed, REPO):
            for name in job.expect.checks:
                assert len(_declared(name)) == 1, (workload, seed, job.name, name)


def test_report_schema_lists_every_declaration():
    section = SCHEMA.read_text().split("\n## Checks\n", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    assert [(b, p, e, d) for b, p, e, _, d in rows] == list(bt.CHECKS.values())
    for _, _, evidence, measures, _ in rows:
        assert (measures == "null / null") == (evidence not in ("numeric", "invariance"))


def test_a_run_calls_each_battery_function_through_its_module(monkeypatch):
    # the batteries call these as module attributes, so wrapping them by
    # name (as the benchmark's tracer does) sees every call
    targets = [
        (sy, "fluid_diagnostics"),
        (sy, "em_diagnostics"),
        (ft, "is_continuous"),
        (ft, "is_continuous_via_closure"),
        (ft, "inverse_continuous"),
        (ch, "integrate"),
    ]
    calls = {name: 0 for _, name in targets}

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for module, name in targets:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for text in (
        "[run]\npreset = fluid.beltrami_abc\nbattery = residuals\n",
        "[run]\npreset = em.torsion_nonzero\nbattery = residuals\n",
        "[run]\npreset = harmonic.winding\nbattery = periods\n",
        (CONFIGS / "figure1.cfg").read_text(),
    ):
        assert cli.run(cli.parse_config(text)).passed
    assert all(calls.values()), calls


def test_fluid_residuals_battery_builds_vorticity_once(monkeypatch):
    calls = {}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        calls[name] = 0
        monkeypatch.setattr(module, name, wrapper)

    cfg = cli.parse_config("[run]\npreset = fluid.beltrami_abc\nbattery = residuals\n")
    for name in ("vorticity_fields", "_curl", "_time", "_grad"):
        counting(sy, name)
    counting(th, "first_law")
    assert cli.run(cfg).passed
    # omega, a, curl omega and the Euler residual are built once per system,
    # and the residuals battery leaves the first-law split to thermo
    assert calls.pop("vorticity_fields") == 1
    assert calls.pop("first_law") == 0
    assert all(n <= 3 for n in calls.values()), calls


@pytest.mark.parametrize("preset", ["harmonic.winding", "em.plane_wave"])
def test_dA_is_zero_tested_once_per_run(preset, monkeypatch):
    # the periods battery and the Pfaff sequence read the anatomy's dA
    # verdict; a periods-only run builds no sequence
    anatomies, tested = [], []
    init, form_is_zero = pf.Anatomy.__init__, pf.form_is_zero
    monkeypatch.setattr(
        pf.Anatomy, "__init__", lambda self, *a, **k: anatomies.append(self) or init(self, *a, **k)
    )
    monkeypatch.setattr(pf, "form_is_zero", lambda w, t: tested.append(w) or form_is_zero(w, t))
    for batteries in ("periods", "pfaff,periods", "periods,pfaff"):
        anatomies.clear()
        tested.clear()
        cli.run(cli.parse_config(f"[run]\npreset = {preset}\nbattery = {batteries}\n"))
        a = anatomies[0]
        assert sum(w is a.dA for w in tested) == 1, batteries
        assert ("sequence" in vars(a)) == ("pfaff" in batteries), batteries


def _sample_alone(rt, *es):
    """Runtime.sample as one one-root tape per expression."""
    out = []
    for e in es:
        try:
            out.append(oc.value_at(e, rt.probe_point(), rt.params))
        except ex.ExprError:
            out.append(None)
    return out


@pytest.mark.parametrize("preset, battery", [
    ("em.torsion_nonzero", "pfaff"), ("euler.rigid_rotation", "pfaff"),
    ("em.torsion_nonzero", "residuals"),
])
def test_probe_samples_run_one_tape_per_call_site(preset, battery, monkeypatch):
    # gamma and the parity coefficient are sampled from one tape, and the
    # report bytes are those of sampling each from its own tape
    text = f"[run]\npreset = {preset}\nbattery = {battery}\n"
    monkeypatch.setattr(bt.Runtime, "sample", _sample_alone)
    want = cli.run(cli.parse_config(text)).to_json()
    monkeypatch.undo()
    compiled, calls = [], []
    init, sample = ex.Tape.__init__, bt.Runtime.sample
    monkeypatch.setattr(
        ex.Tape, "__init__", lambda self, roots=(): compiled.append(roots) or init(self, roots)
    )
    monkeypatch.setattr(
        bt.Runtime, "sample", lambda rt, *es: calls.append(len(compiled)) or sample(rt, *es)
    )
    assert cli.run(cli.parse_config(text)).to_json() == want
    assert len(calls) == 1
    assert len(compiled[calls[0]]) == 2  # the probe tape: gamma, then the parity coefficient


def test_probe_sample_of_a_singular_or_unbound_root_is_none():
    rt = sy.get_preset("em.torsion_nonzero")
    x = rt.probe_point()[0]
    fine, singular = (ps.parse_scalar(t, rt.chart) for t in ("y + 2", f"1 / (x - {x!r})"))
    unbound = ex.param("no_such_param")
    assert rt.sample(fine, singular) == [_sample_alone(rt, fine)[0], None]
    # an unbound parameter fails the run as a whole: every root is None
    assert rt.sample(fine, unbound, singular) == [None, None, None]
    assert _sample_alone(rt, singular, unbound) == [None, None]
