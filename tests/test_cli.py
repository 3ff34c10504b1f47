"""Config parsing, report assembly, and command-line behavior."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import formflow.chains as ch
import formflow.cli as cli
import formflow.config as config
import formflow.expr as ex
import formflow.forms as fm
import formflow.parse as parse
import formflow.systems as sy
import formflow.thermo as th
import oracles

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"

FULL_CONFIG = """\
# couette-like shear with one custom process and one registered cycle
[run]
battery = pfaff, thermo
seed = 7
tolerance = 1e-7
summary = false

[chart]
coordinates = x, y, z, t

[system]
velocity = S*y, 0, 0
pressure_potential = 0
viscosity = 0

[params]
S = 1.25

[sampling]
lows = -1, -1, -1, -1
highs = 1, 1, 1, 1

[process drift]
components = S*y, 0, 0, 1

[chain loop]
components = 0.3 + 0.5*cos(2*pi*u0), 0.4 + 0.5*sin(2*pi*u0), 0, 0
degree = 1
closed = true
"""


def test_parse_full_config_fields():
    cfg = cli.parse_config(FULL_CONFIG)
    assert cfg.batteries == ("pfaff", "thermo")
    assert cfg.seed == 7
    assert cfg.tolerance == 1e-7
    assert not cfg.summary
    assert cfg.coordinates == ("x", "y", "z", "t")
    assert tuple(s.text for s in cfg.velocity) == ("S*y", "0", "0")
    assert cfg.params == (("S", 1.25),)
    assert cfg.processes[0].name == "drift"
    assert cfg.chains[0].name == "loop" and cfg.chains[0].closed
    assert cfg.selected_batteries() == ("pfaff", "thermo")


def test_selected_batteries_expand_all_in_canonical_order():
    cfg = config.RunConfig(batteries=("all",))
    assert cfg.selected_batteries() == config.BATTERIES
    cfg = config.RunConfig(batteries=("thermo", "pfaff"))
    assert cfg.selected_batteries() == ("pfaff", "thermo")


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("[run]\nseed = 1\nseed = 2\n", "duplicate key 'seed'", 3),
        ("[warp]\nx = 1\n", "unknown section [warp]", 0),
        ("[run]\npreset = harmonic.winding\nbattery = warp\n", "unknown battery 'warp'", 3),
        ("seed = 1\n", "key outside any [section]", 1),
        ("[run]\nbroken\n", "expected key = value", 2),
        ("[run\n", "unterminated section header", 1),
        ("[run]\npreset = harmonic.winding\ntolerance = -2\n", "tolerance must be positive", 3),
    ],
)
def test_parse_errors_carry_locations(text, fragment, line):
    with pytest.raises(config.ConfigError) as err:
        cli.parse_config(text)
    assert fragment in str(err.value)
    assert err.value.line == line


def test_expression_errors_point_into_the_config():
    text = FULL_CONFIG.replace("components = S*y, 0, 0, 1", "components = S*y, +*2, 0, 1")
    with pytest.raises(config.ConfigError) as err:
        cli.parse_config(text)
    assert err.value.line == text.splitlines().index("components = S*y, +*2, 0, 1") + 1


def test_unbound_parameter_is_a_parse_error():
    text = FULL_CONFIG.replace("S = 1.25", "R = 1.25")
    with pytest.raises(config.ConfigError) as err:
        cli.parse_config(text)
    assert "parameter 'S' has no value" in str(err.value)


def test_system_section_demands_exactly_one_kind():
    text = FULL_CONFIG + "\n"
    both = text.replace(
        "[system]\nvelocity", "[system]\naction = y, 0, 0, 0\nvelocity"
    )
    with pytest.raises(config.ConfigError):
        cli.parse_config(both)
    neither = "[run]\nbattery = pfaff\n[chart]\ncoordinates = x, y, z, t\n"
    with pytest.raises(config.ConfigError) as err:
        cli.parse_config(neither)
    assert "nothing to analyze" in str(err.value)


def test_preset_and_system_are_mutually_exclusive():
    text = FULL_CONFIG.replace("battery = pfaff, thermo", "battery = pfaff\npreset = harmonic.winding")
    with pytest.raises(config.ConfigError):
        cli.parse_config(text)


# every key of the table that a velocity system allows, none at its default
EVERY_KEY_CONFIG = """\
[run]
battery = pfaff, thermo, topology
seed = 11
tolerance = 1e-5
out = report.json
summary = false

[chart]
coordinates = x, y, z, t

[system]
velocity = -S*y, S*x, 0
pressure_potential = S^2*(x^2 + y^2)/2
viscosity = nu

[params]
S = 0.5
nu = 0.125

[sampling]
lows = -1, -1, -0.5, 0
highs = 1, 1, 0.5, 2
guards = x^2 + y^2; 1 + b*x
range b = 0.5, 1.5
probe = 0.25, -0.5, 0.0, 1.0

[process swirl]
components = -y, x, 0, 1
support = 1 + x^2

[chain arc]
degree = 1
components = cos(pi*u0), sin(pi*u0), 0, 0
closed = false

[topology]
points = a, b
opens = {}; {a}; {a, b}
codomain_points = p, q
codomain_opens = {}; {p}; {p, q}
map = a:p, b:q
"""
# the system keys a velocity system excludes
OTHER_SYSTEMS = (
    "[system]\naction = y, x*z, 0, 1\n",
    "[system]\nvector_potential = -y, x, 0\nscalar_potential = z\n",
)


def test_round_trip_serialization():
    sources = (
        FULL_CONFIG,
        (CONFIGS / "figure1.cfg").read_text(),
        (CONFIGS / "em_torsion.cfg").read_text(),
        EVERY_KEY_CONFIG,
        *OTHER_SYSTEMS,
    )
    for source in sources:
        cfg = cli.parse_config(source)
        again = cli.parse_config(config.serialize_config(cfg))
        assert again == cfg
    # together the inputs set every key of the table
    written = {
        (section.kind, key)
        for source in sources
        for section in config._split_sections(source).values()
        for key in section.entries
    }
    for row in config._KEYS:
        assert any(kind == row.section and row.matches(key) for kind, key in written), row.key


def test_run_winding_preset_passes():
    cfg = cli.parse_config("[run]\npreset = harmonic.winding\n")
    report = cli.run(cfg)
    assert report.passed and not report.inconclusive
    doc = report.document
    assert doc["schema"] == cli.SCHEMA
    assert doc["provenance"]["preset"] == "harmonic.winding"
    assert set(doc["batteries"]) == set(config.BATTERIES)
    for check in doc["checks"]:
        assert {"battery", "name", "passed", "value", "tolerance"} <= set(check)
    assert doc["counts"]["failed"] == 0


def test_battery_filter_limits_the_document():
    cfg = cli.parse_config("[run]\npreset = harmonic.winding\nbattery = periods\n")
    report = cli.run(cfg)
    assert set(report.document["batteries"]) == {"periods"}
    spectrum = report.document["batteries"]["periods"]["spectrum"]
    assert spectrum["ratios"] == [-1.0, -2.0]


def test_reports_are_deterministic():
    cfg = cli.parse_config("[run]\npreset = em.torsion_nonzero\n")
    assert cli.run(cfg).to_json() == cli.run(cfg).to_json()


@pytest.mark.parametrize("text", [
    "[run]\npreset = em.torsion_nonzero\n",
    "[run]\npreset = fluid.beltrami_abc\n",
    (CONFIGS / "couette_shear.cfg").read_text(),
], ids=["em-preset", "abc-preset", "shear-config"])
def test_a_run_leaves_no_expressions_behind(text, monkeypatch):
    # every node a run builds dies with it, and so does its memo: a second
    # run of the same config repeats the first one's derivative work
    calls = []
    real = ex._derivative
    monkeypatch.setattr(
        ex, "_derivative", lambda e, i, partial: calls.append(i) or real(e, i, partial)
    )
    cfg = cli.parse_config(text)
    gc.collect()
    before = len(ex._NODES)
    reports = []
    for _ in range(2):
        calls.clear()
        reports.append((cli.run(cfg).to_json(), len(calls)))
        assert ex._MEMO.get() is None
        gc.collect()
        assert len(ex._NODES) == before
    assert reports[0] == reports[1] and reports[0][1] > 0


def test_topology_only_config_runs_without_system():
    cfg = cli.parse_config((CONFIGS / "figure1.cfg").read_text())
    report = cli.run(cfg)
    assert report.passed
    topo = report.document["batteries"]["topology"]
    assert topo["forward_continuous"]
    assert topo["closure_definition_continuous"]
    assert not topo["inverse_continuous"]
    assert topo["inverse_witness"] == ["a", "b"]


# the listing the Python preset builders printed; the bundled texts'
# summary lines must give it byte for byte
LIST_PRESETS = """\
euler.rigid_rotation: rigid rotation with centripetal pressure: inviscid solution, \
integrable action, conservative work along the spatial flow
ns.decaying_shear: decaying shear layer: viscous momentum balance holds, heat form is \
not closed, circulation drifts on off-center cycles
fluid.beltrami_abc: swirl field equal to its own curl: inviscid solution with nonzero \
helicity, torsion current parallel to the velocity
em.plane_wave: transverse travelling wave: E.B = 0, torsion current vanishes, the \
propagation ray is characteristic
em.torsion_nonzero: rotating potential with axial bias: maximal Pfaff dimension, \
evolution along the torsion vector is irreversible
harmonic.winding: angular form around an excised axis: closed, not exact, periods count \
the winding number
"""


def test_main_list_presets(capsys):
    assert cli.main(["--list-presets"]) == 0
    out = capsys.readouterr().out
    assert "harmonic.winding" in out and "euler.rigid_rotation" in out
    assert out == LIST_PRESETS


def test_main_requires_a_command(capsys):
    assert cli.main([]) == 2


def test_main_missing_config_file(capsys):
    assert cli.main(["run", "/no/such/file.cfg"]) == 2
    assert "config error" in capsys.readouterr().err


def test_main_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[run]\nbattery = warp\n")
    assert cli.main(["run", str(bad)]) == 2
    assert "unknown battery" in capsys.readouterr().err


def test_main_inconclusive_run_exits_3(monkeypatch, capsys):
    def inconclusive(cfg):
        raise ex.InconclusiveError("zero test inconclusive: only 0 valid samples")

    monkeypatch.setattr(cli, "run", inconclusive)
    assert cli.main(["run", "--preset", "harmonic.winding", "--no-summary"]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: zero test inconclusive: only 0 valid samples\n"
    assert "Traceback" not in err


def test_main_crash_exits_3_with_one_line(capsys, monkeypatch):
    def recurse(cfg):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "run", recurse)
    assert cli.main(["run", "--preset", "harmonic.winding", "--no-summary"]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: RecursionError: maximum recursion depth exceeded\n"

    def crash(cfg):
        raise ZeroDivisionError("first line\nsecond line")

    monkeypatch.setattr(cli, "run", crash)
    assert cli.main(["run", "--preset", "harmonic.winding", "--no-summary"]) == 3
    assert capsys.readouterr().err == "internal error: ZeroDivisionError: first line\n"


def test_main_deep_nesting_is_a_config_error(tmp_path, capsys):
    def config(depth):
        deep = "x"
        for _ in range(depth):
            deep = f"sin({deep})"
        cfg = tmp_path / f"deep{depth}.cfg"
        cfg.write_text(f"[run]\nbattery = pfaff\n\n[system]\naction = {deep}, 0, 0, 0\n")
        return str(cfg)

    assert cli.main(["run", config(parse.MAX_NESTING), "--no-summary"]) in (0, 1)
    capsys.readouterr()
    assert cli.main(["run", config(parse.MAX_NESTING + 1), "--no-summary"]) == 2
    column = 9 + 4 * parse.MAX_NESTING + 1  # the sin that opens one level too many
    assert capsys.readouterr().err == (
        f"config error: line 5, column {column}: "
        f"expression nested deeper than {parse.MAX_NESTING} levels\n"
    )
    # the 400-deep config that used to exhaust the recursion limit
    assert cli.main(["run", config(400), "--no-summary"]) == 2


def test_main_division_chain_is_a_config_error(tmp_path, capsys):
    # each '/' nests one more Quotient; the parenthesized divisor one more level
    def config(divisions):
        cfg = tmp_path / f"div{divisions}.cfg"
        chain = "x" + "/(1+y^2)" * divisions
        cfg.write_text(f"[run]\nbattery = pfaff\n\n[system]\naction = {chain}, 0, 0, 0\n")
        return str(cfg)

    assert cli.main(["run", config(parse.MAX_NESTING - 1), "--no-summary"]) in (0, 1)
    capsys.readouterr()
    # the divisor that opens one level too many, after `action = `
    column = 9 + 1 + 8 * (parse.MAX_NESTING - 1) + 2
    message = (
        f"config error: line 5, column {column}: "
        f"expression nested deeper than {parse.MAX_NESTING} levels\n"
    )
    assert cli.main(["run", config(parse.MAX_NESTING), "--no-summary"]) == 2
    assert capsys.readouterr().err == message
    # the chain that exhausted the recursion limit (exit 3) is the same config error
    assert cli.main(["run", config(400), "--no-summary"]) == 2
    assert capsys.readouterr().err == message


def test_main_constant_zero_denominator_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "div.cfg"
    cfg.write_text("[run]\nbattery = pfaff\n\n[system]\naction = y/(2 - 2), 0, 0, 0\n")
    assert cli.main(["run", str(cfg), "--no-summary"]) == 2
    err = capsys.readouterr().err
    assert err == "config error: line 5, column 11: constant zero denominator\n"


# Each action's partials divide by a square that folds to the constant 0
# (1e-200 squares to 0.0), along the coordinates the action does not hold too.
@pytest.mark.parametrize("action", [
    "atan2(0, 0), x, 0, 0",
    "y*atan2(0, 0), 0, 0, 0",
    "a/(1e-200*b), 0, 0, 0",
    "a/(1e-200*b) + z, x, y, 0",
    "atan2(1e-200*y, 1e-200*x), 0, 0, 0",
])
def test_partial_over_a_vanishing_square_is_a_config_error(action, tmp_path, capsys):
    cfg = tmp_path / "vanishing.cfg"
    cfg.write_text(f"[run]\nbattery = pfaff\n\n[system]\naction = {action}\n\n"
                   "[params]\na = 1.0\nb = 1.0\n")
    assert cli.main(["run", str(cfg), "--no-summary"]) == 2
    assert capsys.readouterr().err == "config error: constant zero denominator\n"


def test_run_builds_its_preset_and_classifies_each_process_once(monkeypatch, capsys):
    calls = {"get_preset": 0, "classify": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(sy, "get_preset")
    counting(th, "classify")
    texts = []
    split = config._split_sections
    monkeypatch.setattr(config, "_split_sections", lambda text: texts.append(text) or split(text))
    # battery = all; the torsion process is the field em_diagnostics classifies
    assert cli.main(["run", str(CONFIGS / "em_torsion.cfg"), "--no-summary"]) == 0
    capsys.readouterr()
    assert calls == {"get_preset": 0, "classify": 2}  # 2 processes
    # the preset is its bundled text, parsed once per run, by parse_config
    assert texts.count(sy.PRESETS["em.torsion_nonzero"]) == 1


def test_flags_pass_the_config_checks(tmp_path, capsys):
    path = tmp_path / "a.cfg"
    path.write_text("[system]\naction = y, 0, 0, 0\n")
    # the same preset written into the file is a config error, so is the flag
    assert cli.main(["run", str(path), "--preset", "em.plane_wave", "--no-summary"]) == 2
    assert "a preset and an explicit [system] are mutually exclusive" in capsys.readouterr().err
    for flags, message in (
        (["--preset", "no.such"], "unknown preset 'no.such'"),
        (["--battery", "warp"], "unknown battery 'warp'"),
        (["--tolerance", "-1"], "tolerance must be positive"),
    ):
        assert cli.main(["run", str(path), *flags, "--no-summary"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")


_POINTS = ", ".join(f"p{i}" for i in range(17))


@pytest.mark.parametrize(
    "text, argv, where",
    [
        pytest.param("", ["--preset", "em.plane_wave", "--out", "{tmp}"], "", id="out directory"),
        pytest.param("", ["--preset", "em.plane_wave", "--out", "{tmp}/missing/report.json"], "",
                     id="out in a missing directory"),
        pytest.param(f"[run]\nbattery = topology\n[topology]\npoints = {_POINTS}\n"
                     f"opens = {{}}; {{{_POINTS}}}\n", [], "line 4, column 10: ", id="17 points"),
        pytest.param("[run]\nbattery = topology\n[topology]\npoints = a, b\n"
                     "opens = {}; {a, b}\nmap = a:a, a:b, b:b\n", [], "line 6, column 7: ",
                     id="duplicate map source"),
    ],
)
def test_out_and_topology_errors_exit_2_with_one_line(text, argv, where, tmp_path, capsys):
    cfg = tmp_path / "a.cfg"
    cfg.write_text(text)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert cli.main(["run", str(cfg), *argv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"config error: {where}"), err


def test_main_run_without_config_needs_preset(capsys):
    assert cli.main(["run"]) == 2
    assert cli.main(["run", "--preset", "harmonic.winding", "--no-summary"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["passed"] is True


def test_main_flag_overrides_and_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    rc = cli.main([
        "run",
        "--preset", "harmonic.winding",
        "--battery", "pfaff,periods",
        "--out", str(out_path),
        "--summary",
    ])
    assert rc == 0
    doc = json.loads(out_path.read_text())
    assert set(doc["batteries"]) == {"pfaff", "periods"}
    err = capsys.readouterr().err
    assert "PASS" in err


def test_main_bundled_configs_pass(capsys):
    for name in ("figure1.cfg", "couette_shear.cfg", "em_torsion.cfg"):
        assert cli.main(["run", str(CONFIGS / name), "--no-summary"]) == 0, name
        capsys.readouterr()


def test_main_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        rc = cli.main([
            "run", "--preset", "em.plane_wave", "--out", str(path), "--no-summary",
        ])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def _witnesses(node, path=()) -> dict:
    """Every sampled witness in a report document, keyed by its JSON path."""
    found = {}
    if isinstance(node, dict):
        if "witness" in node:
            found[path] = node["witness"]
        for key, value in node.items():
            found.update(_witnesses(value, path + (key,)))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            found.update(_witnesses(value, path + (i,)))
    return found


def test_seed_reaches_every_sampled_verdict():
    def report(seed: int) -> str:
        text = f"[run]\npreset = fluid.beltrami_abc\nbattery = all\nseed = {seed}\n"
        return cli.run(cli.parse_config(text)).to_json()

    one, two = report(1), report(2)
    assert report(1) == one
    first = _witnesses(json.loads(one))
    second = _witnesses(json.loads(two))
    assert first and set(first) == set(second)
    assert [p for p in first if first[p] == second[p]] == []


def test_open_chains_are_never_period_cycles():
    text = (
        "[run]\npreset = euler.rigid_rotation\n\n[chain arc]\ndegree = 1\n"
        "components = u0, 0, 0, 0\nclosed = false\n"
    )
    rt = config.build_runtime(cli.parse_config(text))
    assert [c.name for c in rt.anatomy.cycles] == ["circle"]


# sha256 of the report bytes at the default seed, each preset run with
# battery = all.  couette_shear.cfg sets seed = 7, which reaches its Pfaff
# sequence verdicts.
REPORT_DIGESTS = {
    "euler.rigid_rotation": "868d127d371506f3fc469213267fcd90c8e672750794ef80ca14202676f0e60b",
    "ns.decaying_shear": "66ce4270354d3c75a46b7e8db01a08eb3ad4212e2b86762c08168421367b3c44",
    "fluid.beltrami_abc": "89c1ab2c484dbae205ba23759724e77d9d05026bb73aa03ff685883503da49b7",
    "em.plane_wave": "7afff3be9c3897ab14c3c52046678b0469980b485bf813bbd4acd9dbe45cb5bf",
    "em.torsion_nonzero": "76d59552078e5c0e6b60157ddc281d98eca9ab5d57c587553d175b638d8fcde3",
    "harmonic.winding": "fe03fb2640fe9d4895722c5e7e9aad1263fe9cf9dcf87eb94ce8644267410d8c",
    "em_torsion.cfg": "76d59552078e5c0e6b60157ddc281d98eca9ab5d57c587553d175b638d8fcde3",
    "figure1.cfg": "eb6e5e61cf5ceb08d92b05da32ce51f0d57174c0c303b29c11d66e467fe49580",
    "couette_shear.cfg": "b2f4452cef5e6a65e3fcd8a8ee8acfed8d85d5d1b5fd5e01cd884dcc43d32e0a",
}


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_report_bytes_are_pinned(name):
    if name.endswith(".cfg"):
        text = (CONFIGS / name).read_text()
    else:
        text = f"[run]\npreset = {name}\nbattery = all\n"
    data = cli.run(cli.parse_config(text)).to_json().encode()
    assert hashlib.sha256(data).hexdigest() == REPORT_DIGESTS[name]


def test_workload_report_bytes_are_pinned():
    # the benchmark's report_sha256 of every (workload, seed) row of the
    # committed table, computed in-process as bench/run.py computes it
    from test_batteries import _bench_workloads

    workloads = _bench_workloads()
    table = [line.split() for line in (REPO / "tests" / "workload_digests.txt").read_text()
             .splitlines() if line and not line.startswith("#")]
    assert len(table) == 7
    for workload, seed, want in table:
        digest = hashlib.sha256()
        for job in workloads.WORKLOADS[workload](int(seed), REPO):
            digest.update(cli.run(cli.parse_config(job.text)).to_json().encode())
        assert digest.hexdigest() == want, f"{workload} seed {seed}"


def test_sampling_guard_may_use_a_parameter_the_action_lacks(tmp_path, capsys):
    cfg = tmp_path / "guard.cfg"
    cfg.write_text(
        "[run]\nbattery = pfaff\n\n[system]\naction = y*z, x, 0, 0\n\n"
        "[params]\na = 1.0\n\n"
        "[sampling]\nlows = -1, -1, -1, -1\nhighs = 1, 1, 1, 1\nguards = x + a*z\n"
    )
    assert cli.main(["run", str(cfg), "--no-summary"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["batteries"]["pfaff"]["sequence"]["dimension"] == 3


def test_sampling_guards_and_ranges_reach_the_default_box():
    # no lows/highs: the guard and the range apply to the default box
    text = (
        "[run]\nbattery = pfaff\n\n[system]\naction = a*y/x, 0, 0, 0\n\n"
        "[params]\na = 1.0\n\n[sampling]\nguards = 0.0125*x\nrange a = 5, 6\n"
    )
    cfg = cli.parse_config(text)
    box = config.build_runtime(cfg).anatomy.context.box
    assert (box.lows, box.highs) == ((-1.0,) * 4, (1.0,) * 4)
    assert box.param_ranges == {"a": (5.0, 6.0)} and len(box.guards) == 1
    first = json.loads(cli.run(cfg).to_json())["batteries"]["pfaff"]["sequence"]["verdicts"][0]
    x, y = first["witness"][:2]
    assert abs(x) >= 0.8 and first["skipped"] > 0  # |0.0125 x| < guard_tol is skipped
    assert 5.0 <= first["witness_value"] / (y / x) <= 6.0


def test_sampling_bounds_keep_the_preset_guards_and_ranges():
    # lows/highs replace the preset box's bounds; its guards and ranges stay
    bounds = "\n[sampling]\nlows = -2, -2, -2, -2\nhighs = 2, 2, 2, 2\n"
    for preset, guards, ranges in (
        ("harmonic.winding", 1, {}),
        ("ns.decaying_shear", 0, {"nu": (0.05, 0.5)}),
    ):
        cfg = cli.parse_config(f"[run]\npreset = {preset}\n" + bounds)
        box = config.build_runtime(cfg).anatomy.context.box
        assert (box.lows, box.highs) == ((-2.0,) * 4, (2.0,) * 4)
        assert len(box.guards) == guards and box.param_ranges == ranges
    # a config guard and range are merged in as well
    text = f"[run]\npreset = ns.decaying_shear\n{bounds}guards = x + 3\nrange c = 1, 2\n"
    box = config.build_runtime(cli.parse_config(text)).anatomy.context.box
    assert len(box.guards) == 1 and box.param_ranges == {"nu": (0.05, 0.5), "c": (1.0, 2.0)}


# a steady Euler solution with rational velocity: its identities cancel
# only on sampling, away from the guarded axis
POINT_VORTEX = (
    "[run]\nbattery = all\n\n[system]\n"
    "velocity = -y/(x^2+y^2), x/(x^2+y^2), 0\n"
    "pressure_potential = -1/(2*(x^2+y^2))\n\n"
    "[sampling]\nguards = x^2+y^2\n"
)
# potentials whose dF = 0 holds on sampling, not syntactically
RATIONAL_POTENTIALS = (
    "[run]\nbattery = all\n\n[system]\nvector_potential = y/(2+x), x/(2+z), 0\n"
)


def test_point_vortex_runs_on_its_guarded_box(tmp_path, capsys):
    cfg = tmp_path / "vortex.cfg"
    cfg.write_text(POINT_VORTEX)
    assert cli.main(["run", str(cfg), "--no-summary"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["batteries"]["residuals"]["euler_satisfied"] is True


@pytest.mark.parametrize(
    "text",
    [
        *(f"[run]\npreset = {name}\n"
          for name in ("euler.rigid_rotation", "ns.decaying_shear", "fluid.beltrami_abc")),
        POINT_VORTEX,
    ],
    ids=["euler.rigid_rotation", "ns.decaying_shear", "fluid.beltrami_abc", "point_vortex"],
)
def test_residuals_alone_report_what_every_battery_reports(text):
    # no pinned digest covers a residuals-only fluid run
    def residuals(battery):
        doc = cli.run(replace(cli.parse_config(text), batteries=(battery,))).document
        checks = [c for c in doc["checks"] if c["battery"] == "residuals"]
        return doc["batteries"]["residuals"], checks

    assert residuals("residuals") == residuals("all")


def test_rational_potentials_run(tmp_path, capsys):
    cfg = tmp_path / "em.cfg"
    cfg.write_text(RATIONAL_POTENTIALS)
    assert cli.main(["run", str(cfg), "--no-summary"]) in (0, 1)
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"]["errors"] == 0


def test_every_tree_reaching_an_entry_point_is_a_fixed_point(monkeypatch):
    # the constructors are the one normalizer: every tree a run hands to a
    # form, a vector field, a chain cell or the zero test, which take it as
    # built, is one the full rebuild gives back node for node.  Every preset
    # and config, with all batteries
    trees = {}  # entry point -> the trees it got
    for cls, fields in ((fm.DifferentialForm, lambda w: w.coeffs.values()),
                        (fm.VectorField, lambda v: (*v.components, v.support)),
                        (ch.ExprCell, lambda c: c.components)):
        def watch(self, real=cls.__post_init__, fields=fields):
            real(self)
            trees.setdefault(type(self), []).extend(fields(self))
        monkeypatch.setattr(cls, "__post_init__", watch)
    real_test = ex.ZeroTester.test
    monkeypatch.setattr(ex.ZeroTester, "test", lambda self, e: (
        trees.setdefault(ex.ZeroTester, []).append(e) or real_test(self, e)))
    texts = [f"[run]\npreset = {name}\nbattery = all\n" for name in sy.preset_names()]
    texts += [p.read_text() for p in sorted(CONFIGS.glob("*.cfg"))]
    texts += [POINT_VORTEX, RATIONAL_POTENTIALS]  # they square quotients
    for text in texts:
        cli.run(replace(cli.parse_config(text), batteries=("all",)))
    assert set(trees) == {fm.DifferentialForm, fm.VectorField, ch.ExprCell, ex.ZeroTester}
    # after the runs, so the rebuild adds nothing to a run's memo; each
    # node is rebuilt once, through the reference's own recursion
    rebuilt = {}
    real_simplify = oracles.reference_simplify

    def once(e):
        if e not in rebuilt:
            rebuilt[e] = real_simplify(e)
        return rebuilt[e]

    monkeypatch.setattr(oracles, "reference_simplify", once)
    moved = {ex.to_text(node) for node in nodes_of(t for got in trees.values() for t in got)
             if oracles.reference_simplify(node) is not node}
    assert moved == set()


def nodes_of(roots) -> set:
    """Every node of the trees of roots."""
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(ex._children(node))
    return seen


# atan2's comma is inside a call, so each list below has four components
ATAN2_CONFIGS = {
    "action": "[run]\nbattery = pfaff\n\n[system]\naction = atan2(y, x), 0, 0, 0\n\n"
              "[sampling]\nguards = x^2 + y^2\n",
    "process": "[run]\nbattery = all\n\n[system]\naction = y, 0, 0, 0\n\n"
               "[sampling]\nguards = x^2 + y^2\n\n"
               "[process swirl]\ncomponents = atan2(y, x), 0, 0, 1\n",
}


@pytest.mark.parametrize("name", sorted(ATAN2_CONFIGS))
def test_comma_inside_a_call_stays_in_its_component(name, tmp_path, capsys):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(ATAN2_CONFIGS[name])
    assert cli.main(["run", str(cfg), "--no-summary"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["batteries"]["pfaff"]["sequence"]["dimension"] == 2


@pytest.mark.parametrize("action", ["atan2(y, x, 0, 0, 0", "atan2(y, x)), 0, 0, 0"])
def test_unbalanced_parentheses_in_a_list_are_a_located_error(action):
    with pytest.raises(config.ConfigError, match="line 2, column 10: unbalanced parentheses"):
        cli.parse_config(f"[system]\naction = {action}\n")


_ACTION_Y = "[run]\nbattery = pfaff\n\n[system]\naction = y, 0, 0, 0\n\n"


@pytest.mark.parametrize(
    "text, argv, message",
    [
        pytest.param("[run]\npreset = harmonic.winding\nseed = -1\n", [],
                     "line 3, column 8: expected a nonnegative integer, got '-1'",
                     id="negative seed"),
        pytest.param("[run]\npreset = harmonic.winding\n", ["--seed", "-5"],
                     "expected a nonnegative integer, got '-5'", id="negative seed flag"),
        pytest.param(_ACTION_Y + "[sampling]\nlows = -1, -1, -1, -1\nhighs = 1, 1, 1, inf\n",
                     [], "line 9, column 9: expected a finite number, got 'inf'",
                     id="infinite bound"),
        pytest.param("[run]\nbattery = pfaff\n\n[system]\naction = a*y, 0, 0, 0\n\n"
                     "[params]\na = 1\n\n[sampling]\nrange a = 0, inf\n", [],
                     "line 11, column 11: expected a finite number, got 'inf'",
                     id="infinite range"),
        pytest.param("[run]\nbattery = pfaff\n\n[system]\naction = S*y, 0, 0, 0\n\n"
                     "[params]\nS = nan\n", [],
                     "line 8, column 5: expected a finite number, got 'nan'", id="nan param"),
        pytest.param("[run]\npreset = harmonic.winding\ntolerance = inf\n", [],
                     "line 3, column 13: expected a finite number, got 'inf'",
                     id="infinite tolerance"),
        pytest.param(_ACTION_Y + "[sampling]\nlows = -1e308, -1, -1, -1\n"
                     "highs = 1e308, 1, 1, 1\n", [],
                     "line 8, column 8: sampling interval [-1e+308, 1e+308] needs lo < hi "
                     "and a finite width", id="interval wider than a float"),
        pytest.param("[run]\nbattery = pfaff\n\n[system]\naction = 1e400*y, 0, 0, 0\n", [],
                     "line 5, column 10: number too large for a float",
                     id="literal past the float range"),
        pytest.param("[run]\nbattery = pfaff\n\n[system]\naction = 2^1023*16*y, 0, 0, 0\n",
                     [], "line 5, column 16: exact constant too large "
                     "for a float", id="product past the float range"),
    ],
)
def test_config_numbers_must_be_finite_and_seeds_nonnegative(text, argv, message, tmp_path,
                                                              capsys):
    cfg = tmp_path / "numbers.cfg"
    cfg.write_text(text)
    assert cli.main(["run", str(cfg), "--no-summary", *argv]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("key", ["seed", "tolerance", "summary", "preset"])
def test_long_values_are_quoted_cut_short(key, tmp_path, capsys):
    cfg = tmp_path / "long.cfg"
    value = "9" * 5000
    preset = "" if key == "preset" else "preset = harmonic.winding\n"
    cfg.write_text(f"[run]\n{preset}{key} = {value}\n")
    assert cli.main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    # an unknown preset's message also lists the available ones
    bound = 200 + (len(", ".join(sy.PRESETS)) if key == "preset" else 0)
    assert err.count("\n") == 1 and len(err) <= bound, err
    line = 2 if key == "preset" else 3
    assert f"line {line}, column {len(key) + 4}: " in err
    assert "... (5000 characters)" in err


_LONG_NAME = "z" * 5000


@pytest.mark.parametrize(
    "action, message",
    [
        pytest.param(f"y {_LONG_NAME}", "unexpected trailing input", id="trailing input"),
        pytest.param(f"{_LONG_NAME}(y)", "unknown function", id="unknown function"),
        pytest.param(f"(y {_LONG_NAME})", "expected ')', found", id="expected"),
    ],
)
def test_long_tokens_are_quoted_cut_short(action, message, tmp_path, capsys):
    cfg = tmp_path / "long.cfg"
    cfg.write_text(f"[run]\nbattery = pfaff\n\n[system]\naction = {action}, 0, 0, 0\n")
    assert cli.main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 200, err
    assert f"{message} 'zzz" in err and "... (5000 characters)" in err


def test_a_long_inconclusive_tree_is_quoted_cut_short(tmp_path, capsys):
    # sqrt(x - 0.9999) is singular on every sampled row, so the zero test of
    # dA is inconclusive; its tree prints in over 1,500 characters, and the
    # report's error quotes the first 60 and the length, as a singular
    # tree's error does
    terms = " + ".join(f"sin({k}*y)" for k in range(1, 120))
    cfg, out = tmp_path / "long.cfg", tmp_path / "report.json"
    cfg.write_text(f"[run]\nbattery = pfaff\n\n[system]\n"
                   f"action = sqrt(x - 0.9999)*({terms}), 0, 0, 0\n")
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 3
    capsys.readouterr()
    error = json.loads(out.read_text())["batteries"]["pfaff"]["error"]
    assert re.fullmatch(r"InconclusiveError: zero test inconclusive: only 0 valid samples "
                        r"out of 512 attempts for .{60}\.\.\. \(1\d{3} characters\)", error), error


_VELOCITY = "[run]\nbattery = thermo\n\n[system]\nvelocity = y, 0, 0\n"
_LOOP = "degree = 1\ncomponents = cos(2*pi*u0), sin(2*pi*u0), 0, 0\n"


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(_VELOCITY + "[process a]\ncomponents = 1, 0, 0, 1\n"
                     "[process  a]\ncomponents = 0, 1, 0, 1\n",
                     "line 8, column 1: duplicate section [process a]", id="process twice"),
        pytest.param(_VELOCITY + f"[chain c]\n{_LOOP}[chain   c]\n{_LOOP}",
                     "line 9, column 1: duplicate section [chain c]", id="chain twice"),
        pytest.param("[run]\npreset = em.torsion_nonzero\n\n[process torsion]\n"
                     "components = 1, 0, 0, 1\n",
                     "line 4, column 1: process name 'torsion' is already used by the preset",
                     id="preset process"),
        pytest.param(f"[run]\npreset = harmonic.winding\n\n[chain circle]\n{_LOOP}",
                     "line 4, column 1: chain name 'circle' is already used by the preset",
                     id="preset chain"),
        pytest.param(_VELOCITY + "[process spacetime]\ncomponents = 1, 0, 0, 1\n",
                     "line 6, column 1: process name 'spacetime' is already used by the "
                     "velocity system", id="velocity process"),
    ],
)
def test_process_and_chain_names_are_unique(text, message, tmp_path, capsys):
    cfg = tmp_path / "names.cfg"
    cfg.write_text(text)
    assert cli.main(["run", str(cfg), "--no-summary"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize(
    "chart, x", [("", "x"), ("[chart]\ncoordinates = p, q, r, s\n\n", "p")], ids=["xyzt", "pqrs"]
)
def test_a_singular_integrand_is_named_in_the_chart_coordinates(chart, x, tmp_path, capsys):
    cfg = tmp_path / "ln.cfg"
    cfg.write_text(
        f"[run]\nbattery = theorems\n\n{chart}[system]\naction = ln({x}), 0, 0, 0\n\n"
        f"[process p]\ncomponents = 1, 0, 0, 1\n\n[chain c]\n{_LOOP}"
    )
    assert cli.main(["run", str(cfg), "--no-summary"]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: integrand singular on cell c: ln of nonpositive value in ln({x}) at point ("
    )


def test_a_chain_map_singular_at_its_nodes_names_its_chain_and_parameters(tmp_path, capsys):
    # the map is printed over the cell's u0, not the config's coordinates
    cfg = tmp_path / "map.cfg"
    cfg.write_text(
        "[run]\nbattery = theorems\n\n[system]\naction = y, 0, 0, 0\n\n"
        "[process p]\ncomponents = 1, 0, 0, 1\n\n[chain c]\ndegree = 1\n"
        "components = 0.5*cos(2*pi*u0), 0.5*sin(2*pi*u0), ln(u0 - 0.5), 0\nclosed = true\n"
    )
    assert cli.main(["run", str(cfg), "--no-summary"]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: cell map singular on cell c: ln of nonpositive value in ln(-0.5 + u0) "
        "at point ("
    )


def test_a_superscript_digit_is_a_located_config_error(tmp_path, capsys):
    cfg = tmp_path / "square.cfg"
    cfg.write_text("[system]\naction = 2\u00b2*y, 0, 0, 0\n")
    assert cli.main(["run", str(cfg), "--no-summary"]) == 2
    err = capsys.readouterr().err
    assert err == "config error: line 2, column 11: unexpected character '\u00b2'\n"


@pytest.mark.parametrize("text, message", [
    pytest.param("[run]\nbattery = pfaff\n\n[system]\naction = y, 0,  2$*x, 0\n",
                 "line 5, column 18: unexpected character '$'", id="list piece"),
    pytest.param("[run]\nbattery = pfaff\n\n[system]\naction = y, 0, 0, 0\n\n[sampling]\n"
                 "guards = x^2 + 1;  y$\n", "line 8, column 21: unexpected character '$'",
                 id="second guard"),
    # the preset's guards go before the config's, which keep their columns
    pytest.param("[run]\npreset = harmonic.winding\n\n[sampling]\nguards = x;  y$\n",
                 "line 5, column 15: unexpected character '$'", id="guard after a preset's"),
    pytest.param("[run]\npreset = harmonic.winding\n\n[sampling]\nguards = x;  q*y\n",
                 "line 5, column 14: parameter 'q' has no value; add it to [params]",
                 id="unbound guard parameter after a preset's"),
    # five coordinates admit a 5-chain, but quadrature has orders up to degree 4
    pytest.param("[run]\nbattery = theorems\n\n[chart]\ncoordinates = a, b, c, d, e\n\n"
                 "[system]\naction = 0, 0, 0, 0, 1\n\n[chain big]\ndegree = 5\n"
                 "components = u0, u1, u2, u3, u4\n",
                 "line 11, column 10: chain degree must be in 1..4", id="chain degree 5"),
])
def test_a_config_error_names_one_file_position(text, message, tmp_path, capsys):
    # a value's pieces are parsed alone, and an error in one names the file
    # position of its character (or of the piece, for a missing parameter);
    # a value checked whole names its entry
    cfg = tmp_path / "located.cfg"
    cfg.write_text(text)
    assert cli.main(["run", str(cfg), "--no-summary"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_constant_power_past_the_float_range_is_a_singularity(tmp_path, capsys):
    # 10^400 stays an unfolded power, which overflows at every sample
    cfg = tmp_path / "pow.cfg"
    cfg.write_text("[run]\nbattery = pfaff\n\n[system]\naction = 10^400*y, x, 0, 0\n")
    assert cli.main(["run", str(cfg), "--no-summary"]) == 3
    out = capsys.readouterr()
    assert out.err == "" and json.loads(out.out)["counts"]["errors"] == 1


# A plain config with at most one hostile edit: a number past the float
# range, a negative or huge seed, an unknown key, a missing or miscounted
# action, an out path that cannot be written, a topology of 17 points, or,
# under the theorems battery with a process and a closed circle, a hostile
# process component, chain component or chain degree.  Expressions nest
# calls, atan2 among them, either way.
_PLAIN = st.sampled_from(["1", "0.5", "3", "-2.5", "0"])
_HOSTILE = st.sampled_from(["1e308", "1e400", "-1e400", "inf", "-inf", "nan", "1" + "0" * 40])


def _call(args):
    return st.one_of(
        st.tuples(st.sampled_from(["sin", "cos", "exp", "ln", "sqrt"]), args).map(
            lambda p: f"{p[0]}({p[1]})"),
        st.tuples(args, args).map(lambda p: f"atan2({p[0]}, {p[1]})"),
        st.tuples(args, st.sampled_from(["+", "-", "*", "/"]), args).map(
            lambda p: f"({p[0]} {p[1]} {p[2]})"),
        st.tuples(args, st.sampled_from(["2", "-1", "400", "1" + "0" * 40])).map(
            lambda p: f"({p[0]})^{p[1]}"),
    )


def _exprs(numbers, names=("x", "y", "z", "t", "a", "pi")):
    return st.recursive(numbers | st.sampled_from(names), _call, max_leaves=6)


@st.composite
def hostile_configs(draw):
    edit = draw(st.sampled_from([
        None, "seed", "negative seed", "huge seed", "tolerance", "param", "highs", "range",
        "component", "guard", "unknown key", "short action", "no action", "out", "big topology",
        "process component", "chain component", "degree",
    ]))
    hostile = draw(_HOSTILE)
    seed = {"seed": hostile, "huge seed": str(draw(st.integers(10**39, 10**40))),
            "negative seed": str(draw(st.integers(-(10**40), -1)))}
    action = [draw(_exprs(_PLAIN)) for _ in range(4)]
    if edit == "component":
        action[draw(st.integers(0, 3))] = draw(_exprs(_PLAIN | _HOSTILE))
    action = {"short action": action[:3], "no action": []}.get(edit, action)
    chained = edit in ("process component", "chain component", "degree")
    if chained:  # closed, so every process is extremal and advects the circle
        action = ["-y/(x^2 + y^2)", "x/(x^2 + y^2)", "0", "0"]
    battery = {"big topology": "topology"}.get(edit, "theorems" if chained else "pfaff")
    lines = [
        "[run]", f"battery = {battery}",
        f"seed = {seed.get(edit, draw(st.integers(0, 10**6)))}",
        f"tolerance = {hostile if edit == 'tolerance' else '1e-6'}",
        "bogus = 1" if edit == "unknown key" else "",
        # a directory, or a file in a directory that is not there
        f"out = {draw(st.sampled_from(['.', 'no-such-directory/report.json']))}"
        if edit == "out" else "",
        "[system]", f"action = {', '.join(action)}" if action else "",
        "[params]", f"a = {hostile if edit == 'param' else draw(_PLAIN)}",
        "[sampling]", "lows = -1, -1, -1, -1",
        f"highs = 1, 1, 1, {hostile if edit == 'highs' else 1}",
        f"range a = 0.25, {hostile if edit == 'range' else 1.75}",
        f"guards = {draw(_exprs(_HOSTILE))}" if edit == "guard" else "",
    ]
    if edit == "big topology":
        lines += ["[topology]", f"points = {_POINTS}", f"opens = {{}}; {{{_POINTS}}}"]
    if chained:
        process = ["-y", "x", "0", "1"]
        circle = ["0.5*cos(2*pi*u0)", "0.5*sin(2*pi*u0)", "0", "0"]
        if edit == "process component":
            process[draw(st.integers(0, 3))] = draw(_exprs(_PLAIN | _HOSTILE))
        if edit == "chain component":
            circle[draw(st.integers(0, 3))] = draw(_exprs(_PLAIN | _HOSTILE, ("u0", "a", "pi")))
        degree = draw(st.sampled_from(["0", "5", "1" + "0" * 39])) if edit == "degree" else 1
        lines += ["[process p]", f"components = {', '.join(process)}",
                  "[chain c]", f"degree = {degree}", f"components = {', '.join(circle)}",
                  "closed = true"]
    return "\n".join(lines) + "\n"


@settings(max_examples=50, deadline=None)
@given(text=hostile_configs())
def test_exit_codes_hold_for_hostile_configs(text, tmp_path_factory):
    cfg = tmp_path_factory.mktemp("hostile") / "hostile.cfg"
    cfg.write_text(text)
    crashes = []
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_internal_error", lambda e: crashes.append(e) or 3)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["run", str(cfg)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert crashes == [], text
