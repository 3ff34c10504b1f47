"""The config format on its own: [topology] checks, [run] flags, the merge
with a preset's bundled text, the probe point and the parse's memo scope."""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

import formflow.cli as cli
import formflow.config as config
import formflow.expr as ex
import formflow.finite_topology as ft
from test_batteries import _bench_workloads

REPO = Path(__file__).resolve().parents[1]

POINTS = ", ".join(f"p{i}" for i in range(ft.MAX_GROUND + 1))

# a valid topology config; each case below replaces or adds some of its keys
TOPOLOGY = {
    "points": "a, b",
    "opens": "{}; {a}; {a, b}",
    "map": "a:a, b:b",
}


def _topology_config(keys: dict[str, str]) -> str:
    lines = ["[run]", "battery = topology", "", "[topology]"]
    lines += [f"{key} = {value}" for key, value in keys.items()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "edit,key,message",
    [
        ({"opens": "{}; {a}"}, "opens", "opens do not form a topology: ground set missing"),
        ({"codomain_opens": "{}; {x}"}, "codomain_opens",
         "[topology] codomain needs both points and opens"),
        ({"codomain_points": "x, y", "codomain_opens": "{}; {x}"}, "codomain_opens",
         "codomain opens do not form a topology: ground set missing"),
        ({"map": "a:a, b:b, c:a"}, "map", "map source 'c' is not a domain point"),
        ({"map": "a:a, b:z"}, "map", "map image 'z' is not a codomain point"),
        ({"map": "a:a"}, "map", "map must cover every domain point"),
        ({"points": POINTS, "opens": "{}; {" + POINTS + "}"}, "points",
         "a topology has at most 16 points, got 17"),
        ({"codomain_points": POINTS, "codomain_opens": "{}; {" + POINTS + "}"},
         "codomain_points", "a topology has at most 16 points, got 17"),
        ({"points": "a, b, a"}, "points", "duplicate point 'a'"),
        ({"codomain_points": "x, x", "codomain_opens": "{}; {x}"}, "codomain_points",
         "duplicate point 'x'"),
        ({"map": "a:a, a:b, b:b"}, "map", "map source 'a' appears twice"),
    ],
    ids=[
        "not a topology", "codomain opens without points", "codomain not a topology",
        "map source outside", "map image outside", "map not covering", "17 points",
        "17 codomain points", "duplicate point", "duplicate codomain point",
        "duplicate map source",
    ],
)
def test_topology_errors_name_their_key(edit, key, message):
    keys = {**TOPOLOGY, **edit}
    with pytest.raises(config.ConfigError) as err:
        config.parse_config(_topology_config(keys))
    line, column = 5 + list(keys).index(key), len(f"{key} = ") + 1  # the key's value
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"line {line}, column {column}: {message}"


def test_flags_override_the_run_section_and_pass_its_checks():
    text = "[run]\npreset = harmonic.winding\nseed = 4\n"
    cfg = config.parse_config(text, {"seed": 9, "battery": "pfaff", "out": None, "config": "x"})
    assert (cfg.seed, cfg.batteries, cfg.out) == (9, ("pfaff",), "")
    # names that are no [run] key, like the command's own, are left out
    assert config.parse_config(text, {"command": "run", "list_presets": False}).seed == 4
    with pytest.raises(config.ConfigError, match="tolerance must be positive"):
        config.parse_config(text, {"tolerance": -1.0})


def test_the_command_parses_through_the_one_parse_config(monkeypatch, capsys):
    assert cli.parse_config is config.parse_config
    seen = []

    def parse(text, flags=None):
        seen.append(flags["preset"])
        raise config.ConfigError("stop")

    monkeypatch.setattr(cli, "parse_config", parse)
    assert cli.main(["run", "--preset", "harmonic.winding"]) == 2
    assert seen == ["harmonic.winding"]
    assert capsys.readouterr().err == "config error: stop\n"


def _trees(value) -> list[ex.ScalarExpr]:
    """The tree of every Source in a parsed config, in field order."""
    if isinstance(value, config.Source):
        return [value.tree]
    if isinstance(value, tuple):
        return [tree for item in value for tree in _trees(item)]
    if dataclasses.is_dataclass(value):
        return [tree for f in dataclasses.fields(value) for tree in _trees(getattr(value, f.name))]
    return []


def _texts() -> list[str]:
    texts = [path.read_text() for path in sorted((REPO / "configs").glob("*.cfg"))]
    workloads = _bench_workloads()
    for make in workloads.WORKLOADS.values():
        texts += [job.text for job in make(1, REPO)]
    return texts


def test_the_parse_builds_in_a_scope_of_its_own():
    # the parse's memo ends with it; the trees are the nodes a parse with no
    # memo builds (nodes are interned, so equal trees are one object)
    texts = _texts()
    assert sum(len(_trees(config.parse_config(text))) for text in texts) > 100
    for text in texts:
        scoped = config.parse_config(text)
        assert ex._MEMO.get() is None
        unscoped = config._config_of(config._split_sections(text))
        got, want = _trees(scoped), _trees(unscoped)
        assert len(got) == len(want) and all(g is w for g, w in zip(got, want))


def test_a_parse_that_raises_leaves_no_scope():
    # the velocity, the process and the first chain are built before the
    # last chain's unknown function stops the parse
    text = (REPO / "configs" / "couette_shear.cfg").read_text()
    bad = text + "\n[chain late]\ndegree = 1\ncomponents = 2*pi*u0, frob(u0), 0, 0\n"
    with pytest.raises(config.ConfigError, match="unknown function 'frob'"):
        config.parse_config(bad)
    assert ex._MEMO.get() is None


def _guard_texts(cfg: config.RunConfig) -> tuple[str, ...]:
    return tuple(map(str, cfg.guards))


# (preset, the config's own sections, what the merge gives: a field's value
# read by `get`, or the located error)
MERGES = {
    "params override in place": (
        "ns.decaying_shear", "[params]\nU = 1.0\n",
        lambda cfg: cfg.params, (("U", 1.0), ("k", 1.0), ("nu", 0.15)),
    ),
    "range overrides in place": (
        "ns.decaying_shear", "[sampling]\nrange nu = 0.05, 0.5\n",
        lambda cfg: cfg.param_ranges, (("nu", 0.05, 0.5),),
    ),
    "lows and highs replace": (
        "harmonic.winding", "[sampling]\nlows = -2, -2, -2, -2\nhighs = 2, 2, 2, 2\n",
        lambda cfg: (cfg.lows, cfg.highs), ((-2.0,) * 4, (2.0,) * 4),
    ),
    "guards append": (
        "harmonic.winding", "[sampling]\nguards = x + 3\n",
        _guard_texts, ("x^2 + y^2", "x + 3"),
    ),
    "process in both": (
        "em.torsion_nonzero", "[process torsion]\ncomponents = 1, 0, 0, 1\n", None,
        "line 4, column 1: process name 'torsion' is already used by the preset",
    ),
    "chain in both": (
        "harmonic.winding", "[chain  winding2]\ndegree = 1\ncomponents = u0, 0, 0, 0\n", None,
        "line 4, column 1: chain name 'winding2' is already used by the preset",
    ),
    "system in both": (
        "em.plane_wave", "[system]\naction = y, 0, 0, 0\n", None,
        "line 4, column 1: a preset and an explicit [system] are mutually exclusive",
    ),
}


@pytest.mark.parametrize("name", list(MERGES))
def test_a_preset_merges_its_bundled_text_with_the_config(name):
    preset, own, get, want = MERGES[name]
    plain = f"[run]\npreset = {preset}\n"
    text = plain + "\n" + own
    if get is None:
        with pytest.raises(config.ConfigError) as err:
            config.parse_config(text)
        assert str(err.value) == want
        return
    cfg = config.parse_config(text)
    assert get(cfg) == want
    assert config.parse_config(config.serialize_config(cfg)) == cfg
    if name.endswith("in place"):  # the bundled value again: the same run
        assert cfg == config.parse_config(plain)
        assert cli.run(cfg).to_json() == cli.run(config.parse_config(plain)).to_json()


def test_the_probe_gives_a_config_system_its_pointwise_dimension():
    text = "[run]\nbattery = pfaff\n\n[system]\naction = y, 0, 0, 0\n\n[sampling]\n"
    doc = cli.run(config.parse_config(text + "probe = 0.5, 0.25, 0, 0\n")).document
    pointwise = doc["batteries"]["pfaff"]["sequence"]["pointwise"]
    assert pointwise == [{"point": [0.5, 0.25, 0.0, 0.0], "dimension": 2}]
    with pytest.raises(config.ConfigError, match="line 8, column 9: probe needs 4 entries"):
        config.parse_config(text + "probe = 0.5, 0.25\n")

