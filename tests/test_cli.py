"""Config parsing, report assembly, and command-line behavior."""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

import formflow.chains as ch
import formflow.cli as cli
import formflow.expr as ex
import formflow.systems as sy

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
    assert cfg.velocity == ("S*y", "0", "0")
    assert cfg.params == (("S", 1.25),)
    assert cfg.processes[0].name == "drift"
    assert cfg.chains[0].name == "loop" and cfg.chains[0].closed
    assert cfg.selected_batteries() == ("pfaff", "thermo")


def test_selected_batteries_expand_all_in_canonical_order():
    cfg = cli.RunConfig(batteries=("all",))
    assert cfg.selected_batteries() == cli.BATTERIES
    cfg = cli.RunConfig(batteries=("thermo", "pfaff"))
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
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config(text)
    assert fragment in str(err.value)
    assert err.value.line == line


def test_expression_errors_point_into_the_config():
    text = FULL_CONFIG.replace("components = S*y, 0, 0, 1", "components = S*y, +*2, 0, 1")
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config(text)
    assert err.value.line == text.splitlines().index("components = S*y, +*2, 0, 1") + 1


def test_unbound_parameter_is_a_parse_error():
    text = FULL_CONFIG.replace("S = 1.25", "R = 1.25")
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config(text)
    assert "parameter 'S' has no value" in str(err.value)


def test_system_section_demands_exactly_one_kind():
    text = FULL_CONFIG + "\n"
    both = text.replace(
        "[system]\nvelocity", "[system]\naction = y, 0, 0, 0\nvelocity"
    )
    with pytest.raises(cli.ConfigError):
        cli.parse_config(both)
    neither = "[run]\nbattery = pfaff\n[chart]\ncoordinates = x, y, z, t\n"
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config(neither)
    assert "nothing to analyze" in str(err.value)


def test_preset_and_system_are_mutually_exclusive():
    text = FULL_CONFIG.replace("battery = pfaff, thermo", "battery = pfaff\npreset = harmonic.winding")
    with pytest.raises(cli.ConfigError):
        cli.parse_config(text)


def test_round_trip_serialization():
    for source in (
        FULL_CONFIG,
        (CONFIGS / "figure1.cfg").read_text(),
        (CONFIGS / "em_torsion.cfg").read_text(),
    ):
        cfg = cli.parse_config(source)
        again = cli.parse_config(cli.serialize_config(cfg))
        assert again == cfg


def test_run_winding_preset_passes():
    cfg = cli.parse_config("[run]\npreset = harmonic.winding\n")
    report = cli.run(cfg)
    assert report.passed and not report.inconclusive
    doc = report.document
    assert doc["schema"] == cli.SCHEMA
    assert doc["provenance"]["preset"] == "harmonic.winding"
    assert set(doc["batteries"]) == set(cli.BATTERIES)
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


def test_topology_only_config_runs_without_system():
    cfg = cli.parse_config((CONFIGS / "figure1.cfg").read_text())
    report = cli.run(cfg)
    assert report.passed
    topo = report.document["batteries"]["topology"]
    assert topo["forward_continuous"]
    assert topo["closure_definition_continuous"]
    assert not topo["inverse_continuous"]
    assert topo["inverse_witness"] == ["a", "b"]


def test_main_list_presets(capsys):
    assert cli.main(["--list-presets"]) == 0
    out = capsys.readouterr().out
    assert "harmonic.winding" in out and "euler.rigid_rotation" in out


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
    arc = ch.Chain(
        1,
        (ch.ExprCell(sy.SPACETIME, 1, (ex.Coord(0), ex.ZERO, ex.ZERO, ex.ZERO), name="arc"),),
        closed=False,
        name="arc",
    )
    p = sy.get_preset("euler.rigid_rotation")
    preset = replace(p, chains=p.chains + (arc,))
    assert [c.name for c in preset.anatomy(ex.ZeroTester(p.box)).cycles] == ["circle"]

    text = (
        "[run]\npreset = euler.rigid_rotation\n\n[chain arc]\ndegree = 1\n"
        "components = u0, 0, 0, 0\nclosed = false\n"
    )
    rt = cli._build_runtime(cli.parse_config(text))
    assert [c.name for c in rt.anatomy.cycles] == ["circle"]


# sha256 of the report bytes at the default seed, each preset run with
# battery = all.  couette_shear.cfg sets seed = 7, which reaches its Pfaff
# sequence verdicts.
REPORT_DIGESTS = {
    "euler.rigid_rotation": "2ada95d2000bb97c264bb766a017c897f0ed76ba8e7637c94e945776cb4e5572",
    "ns.decaying_shear": "6515262dfdace6cceebee86d735bcf125223f4b8b4cb9093378ac1d8a00ddbf6",
    "fluid.beltrami_abc": "5d25cabb9e74e3cfb35c8af2f21a970242d0deb50ce52fdfca03f2c837a89240",
    "em.plane_wave": "e207b61a002cdb7d9c910ab1b443c5a5fc8b277dca074547a804b0918306ed93",
    "em.torsion_nonzero": "0802eb3fa067c7c9a2b9dc74fa4734c2dfa4928d5b8de3488f9d124b9efd7f77",
    "harmonic.winding": "c5cf53e81f5783b1a51c6adf849124a64d4323ab5f1f892d3b4d64dc419ff245",
    "em_torsion.cfg": "0802eb3fa067c7c9a2b9dc74fa4734c2dfa4928d5b8de3488f9d124b9efd7f77",
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
