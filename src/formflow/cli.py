"""Command-line surface: parse a run config, execute batteries, report.

The config format is line-oriented: `[section]` headers and `key = value`
lines, `#` comments, blank lines ignored.  Expression values use the same
grammar as the expression parser.  Reports serialize to JSON with sorted
keys and no timestamps, so identical config plus seed yields byte-identical
output.

Exit codes: 0 every selected check passed, 1 at least one check failed,
2 configuration error, 3 internal error or inconclusive verdict.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Callable

import numpy as np

from . import __version__
from . import chains as ch
from . import expr as ex
from . import finite_topology as ft
from . import forms as fm
from . import parse as ps
from . import pfaff as pf
from . import systems as sy
from . import thermo as th
from .expr import Box, InconclusiveError, ZeroVerdict
from .forms import DifferentialForm, VectorField
from .parse import quoted
from .pfaff import InternalConsistencyError

__all__ = [
    "BATTERIES",
    "ChainSpec",
    "ConfigError",
    "ProcessSpec",
    "Report",
    "RunConfig",
    "Source",
    "TopologySpec",
    "main",
    "parse_config",
    "run",
    "serialize_config",
]

SCHEMA = "formflow-report/1"
BATTERIES = ("pfaff", "thermo", "theorems", "periods", "residuals", "topology")


class ConfigError(Exception):
    """Config rejection with the offending location."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        where = f"line {line}, column {column}: " if line else ""
        super().__init__(f"{where}{message}")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# Run configuration


@dataclass(frozen=True)
class Source:
    """A config expression: its text and the tree parsed from it, once.

    Two sources are equal when their texts are; the tree follows from the
    text and the config's chart.
    """

    text: str
    tree: ex.ScalarExpr = field(compare=False, repr=False)

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class ProcessSpec:
    name: str
    components: tuple[Source, ...]
    support: Source | None = None


@dataclass(frozen=True)
class ChainSpec:
    name: str
    degree: int
    components: tuple[Source, ...]
    closed: bool = True


@dataclass(frozen=True)
class TopologySpec:
    points: tuple[str, ...]
    opens: tuple[tuple[str, ...], ...]
    codomain_points: tuple[str, ...] = ()
    codomain_opens: tuple[tuple[str, ...], ...] = ()
    map: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; expression fields hold Source values."""

    batteries: tuple[str, ...] = ("all",)
    seed: int = ex.DEFAULT_SEED
    tolerance: float = 1e-6
    preset: str = ""
    out: str = ""
    summary: bool = True
    coordinates: tuple[str, ...] = ()
    action: tuple[Source, ...] = ()
    velocity: tuple[Source, ...] = ()
    pressure_potential: Source | None = None
    viscosity: Source | None = None
    vector_potential: tuple[Source, ...] = ()
    scalar_potential: Source | None = None
    params: tuple[tuple[str, float], ...] = ()
    processes: tuple[ProcessSpec, ...] = ()
    chains: tuple[ChainSpec, ...] = ()
    lows: tuple[float, ...] = ()
    highs: tuple[float, ...] = ()
    guards: tuple[Source, ...] = ()
    param_ranges: tuple[tuple[str, float, float], ...] = ()
    topology: TopologySpec | None = None

    def selected_batteries(self) -> tuple[str, ...]:
        if "all" in self.batteries:
            return BATTERIES
        return tuple(b for b in BATTERIES if b in self.batteries)


# ---------------------------------------------------------------------------
# Config text


@dataclass
class _Entry:
    key: str
    value: str
    line: int
    column: int  # of the value


@dataclass
class _Section:
    name: str  # runs of whitespace collapsed: [process  a] is "process a"
    line: int
    entries: dict[str, _Entry]

    @property
    def kind(self) -> str:
        return self.name.partition(" ")[0]

    @property
    def label(self) -> str:
        """The NAME of [process NAME] and [chain NAME]."""
        return self.name.partition(" ")[2]


def _split_sections(text: str) -> dict[str, _Section]:
    sections: dict[str, _Section] = {}
    current: _Section | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError("unterminated section header", lineno, len(line))
            name = " ".join(stripped[1:-1].split())
            if not name:
                raise ConfigError("empty section name", lineno, 1)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", lineno, 1)
            current = sections[name] = _Section(name, lineno, {})
            continue
        if current is None:
            raise ConfigError("key outside any [section]", lineno, 1)
        if "=" not in line:
            raise ConfigError("expected key = value", lineno, 1)
        key, _, value = line.partition("=")
        key_name = " ".join(key.split())
        if not key_name:
            raise ConfigError("empty key", lineno, 1)
        if key_name in current.entries:
            raise ConfigError(
                f"duplicate key {quoted(key_name)} in [{current.name}]", lineno, 1
            )
        column = len(key) + 2 + (len(value) - len(value.lstrip()))
        current.entries[key_name] = _Entry(key_name, value.strip(), lineno, column)
    return sections


def _csv(entry: _Entry) -> tuple[str, ...]:
    """The value's pieces between commas outside parentheses: atan2(y, x) is one."""
    pieces, depth = [""], 0
    for c in entry.value:
        depth += (c == "(") - (c == ")")
        if c == "," and depth == 0:
            pieces.append("")
        else:
            pieces[-1] += c
    if depth:
        raise ConfigError("unbalanced parentheses", entry.line, entry.column)
    return tuple(p.strip() for p in pieces if p.strip())


def _float(entry: _Entry, text: str) -> float:
    try:
        v = float(text)
    except ValueError:  # reported as not finite
        v = math.nan
    if not math.isfinite(v):
        raise ConfigError(
            f"expected a finite number, got {quoted(text)}", entry.line, entry.column
        )
    return v


# ---------------------------------------------------------------------------
# Readers: (entry, scope) -> value, raising a located ConfigError


@dataclass
class _Scope:
    """What a reader sees: the chart its expressions use, the values its
    section has read so far, and the list of (entry, parameter, guard only)
    that the expressions read so far need bound."""

    chart: ex.Chart | None
    got: dict[str, object]
    needed: list[tuple[_Entry, str, bool]]


def _floats(e: _Entry, s: _Scope) -> tuple[float, ...]:
    return tuple(_float(e, piece) for piece in _csv(e))


def _int(e: _Entry, s: _Scope) -> int:
    try:
        v = int(e.value)
    except ValueError:  # not an integer, or past int()'s digit limit
        v = -1
    if v < 0:
        raise ConfigError(
            f"expected a nonnegative integer, got {quoted(e.value)}", e.line, e.column
        )
    return v


def _bool(e: _Entry, s: _Scope) -> bool:
    v = e.value.lower()
    if v in ("true", "yes", "on", "1"):
        return True
    if v in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {quoted(e.value)}", e.line, e.column)


def _preset(e: _Entry, s: _Scope) -> str:
    if e.value not in sy.PRESETS:
        raise ConfigError(
            f"unknown preset {quoted(e.value)}; available: {', '.join(sy.PRESETS)}",
            e.line,
            e.column,
        )
    return e.value


def _batteries(e: _Entry, s: _Scope) -> tuple[str, ...]:
    names = _csv(e)
    if not names:
        raise ConfigError("at least one battery required", e.line, e.column)
    for n in names:
        if n != "all" and n not in BATTERIES:
            raise ConfigError(
                f"unknown battery {quoted(n)}; choose from all, {', '.join(BATTERIES)}",
                e.line,
                e.column,
            )
    return names


def _tolerance(e: _Entry, s: _Scope) -> float:
    tol = _float(e, e.value)
    if not tol > 0:
        raise ConfigError("tolerance must be positive", e.line, e.column)
    return tol


def _coordinates(e: _Entry, s: _Scope) -> tuple[str, ...]:
    coords = _csv(e)
    if len(coords) != len(set(coords)):
        raise ConfigError("duplicate coordinate names", e.line, e.column)
    return coords


def _parsed(e: _Entry, s: _Scope, text: str, guard_only: bool = False) -> Source:
    try:
        tree = ps.parse_scalar(text, s.chart)
    except ps.ParseError as err:
        raise ConfigError(str(err), e.line, e.column) from None
    s.needed.extend((e, name, guard_only) for name in ex.Tape((tree,)).params)
    return Source(text, tree)


def _expr(e: _Entry, s: _Scope) -> Source:
    return _parsed(e, s, e.value)


def _exprs(e: _Entry, s: _Scope) -> tuple[Source, ...]:
    return tuple(_parsed(e, s, text) for text in _csv(e))


def _guards(e: _Entry, s: _Scope) -> tuple[Source, ...]:
    pieces = (p.strip() for p in e.value.split(";"))
    return tuple(_parsed(e, s, p, guard_only=True) for p in pieces if p)


def _param(e: _Entry, s: _Scope) -> tuple[str, float]:
    return e.key, _float(e, e.value)


def _range(e: _Entry, s: _Scope) -> tuple[str, float, float]:
    name = e.key.split(" ", 1)[1]
    vals = _floats(e, s)
    if len(vals) != 2 or not (vals[0] < vals[1] and math.isfinite(vals[1] - vals[0])):
        raise ConfigError(
            f"range {name} needs `low, high` with low < high and a finite width",
            e.line,
            e.column,
        )
    return name, vals[0], vals[1]


def _degree(e: _Entry, s: _Scope) -> int:
    # checked here, before the chain's components are parsed in u0..u{degree-1}
    degree = _int(e, s)
    if not 1 <= degree <= s.chart.dim:
        raise ConfigError(f"chain degree must be in 1..{s.chart.dim}", e.line, e.column)
    return degree


def _cell_map(e: _Entry, s: _Scope) -> tuple[Source, ...]:
    return _exprs(e, replace(s, chart=ch.param_chart(s.got["degree"])))


def _braced_sets(e: _Entry, s: _Scope) -> tuple[tuple[str, ...], ...]:
    """Parse `{a,b}; {}; {a}` into canonical sorted tuples."""
    out = []
    for piece in e.value.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        if not (piece.startswith("{") and piece.endswith("}")):
            raise ConfigError(
                f"expected a braced set, got {quoted(piece)}", e.line, e.column
            )
        out.append(tuple(sorted(p.strip() for p in piece[1:-1].split(",") if p.strip())))
    return tuple(out)


def _map(e: _Entry, s: _Scope) -> tuple[tuple[str, str], ...]:
    mapping = []
    for piece in _csv(e):
        if ":" not in piece:
            raise ConfigError(
                f"map entries are `point:image`, got {quoted(piece)}", e.line, e.column
            )
        a, _, b = piece.partition(":")
        mapping.append((a.strip(), b.strip()))
    return tuple(mapping)


def _list(values) -> str:
    return ", ".join(map(str, values))


def _numbers(values) -> str:
    return ", ".join(map(repr, values))


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _sets(sets) -> str:
    return "; ".join("{" + ", ".join(members) + "}" for members in sets)


# ---------------------------------------------------------------------------
# The key table


@dataclass(frozen=True)
class _Key:
    """One config key: its section, the field it fills, its reader and its
    writer.  A key ending in NAME stands for every key with that prefix; its
    field holds one item per key, the name first."""

    section: str
    key: str
    field: str
    read: Callable[[_Entry, _Scope], object]
    write: Callable[[object], str]

    @property
    def prefix(self) -> str | None:
        """What precedes NAME in a key that ends in it, else None."""
        return self.key[: -len("NAME")] if self.key.endswith("NAME") else None

    def matches(self, key: str) -> bool:
        if self.prefix is None:
            return key == self.key
        return key.startswith(self.prefix) and len(key) > len(self.prefix)

    def lines(self, owner) -> list[str]:
        """The `key = value` lines that write owner's field back."""
        value = getattr(owner, self.field)
        if self.prefix is not None:
            return [f"{self.prefix}{item[0]} = {self.write(item)}" for item in value]
        if value == _DEFAULTS[type(owner)][self.field]:
            return []
        return [f"{self.key} = {self.write(value)}"]


# [process NAME] and [chain NAME] fill a ProcessSpec and a ChainSpec each,
# [topology] the TopologySpec, every other section the RunConfig itself;
# within a section the keys are read in this order
_KEYS = (
    _Key("run", "preset", "preset", _preset, str),
    _Key("run", "battery", "batteries", _batteries, _list),
    _Key("run", "seed", "seed", _int, str),
    _Key("run", "tolerance", "tolerance", _tolerance, repr),
    _Key("run", "out", "out", lambda e, s: e.value, str),
    _Key("run", "summary", "summary", _bool, _flag),
    _Key("chart", "coordinates", "coordinates", _coordinates, _list),
    _Key("system", "action", "action", _exprs, _list),
    _Key("system", "velocity", "velocity", _exprs, _list),
    _Key("system", "pressure_potential", "pressure_potential", _expr, str),
    _Key("system", "viscosity", "viscosity", _expr, str),
    _Key("system", "vector_potential", "vector_potential", _exprs, _list),
    _Key("system", "scalar_potential", "scalar_potential", _expr, str),
    _Key("params", "NAME", "params", _param, lambda item: repr(item[1])),
    _Key("sampling", "lows", "lows", _floats, _numbers),
    _Key("sampling", "highs", "highs", _floats, _numbers),
    _Key("sampling", "guards", "guards", _guards, lambda v: "; ".join(map(str, v))),
    _Key("sampling", "range NAME", "param_ranges", _range,
         lambda item: f"{item[1]!r}, {item[2]!r}"),
    _Key("process", "components", "components", _exprs, _list),
    _Key("process", "support", "support", _expr, str),
    _Key("chain", "degree", "degree", _degree, str),
    _Key("chain", "components", "components", _cell_map, _list),
    _Key("chain", "closed", "closed", _bool, _flag),
    _Key("topology", "points", "points", lambda e, s: _csv(e), _list),
    _Key("topology", "opens", "opens", _braced_sets, _sets),
    _Key("topology", "codomain_points", "codomain_points", lambda e, s: _csv(e), _list),
    _Key("topology", "codomain_opens", "codomain_opens", _braced_sets, _sets),
    _Key("topology", "map", "map", _map, lambda v: ", ".join(f"{a}:{b}" for a, b in v)),
)
_KINDS = {row.section for row in _KEYS}
_NAMED = ("process", "chain")
_SPECS = {"process": ProcessSpec, "chain": ChainSpec, "topology": TopologySpec}
_DEFAULTS = {
    cls: {f.name: f.default for f in fields(cls)} for cls in (RunConfig, *_SPECS.values())
}


def _read(section: _Section | None, kind: str, chart: ex.Chart | None, needed: list) -> dict:
    """The section's values by field name, each key read by its row of the
    table in table order; a field without a default needs its key."""
    entries = section.entries if section else {}
    defaults = _DEFAULTS[_SPECS.get(kind, RunConfig)]
    s = _Scope(chart, {}, needed)
    for row in _KEYS:
        if row.section != kind:
            continue
        if row.prefix is not None:
            s.got[row.field] = tuple(row.read(e, s) for k, e in entries.items() if row.matches(k))
        elif row.key in entries:
            s.got[row.field] = row.read(entries[row.key], s)
        elif defaults[row.field] is MISSING:
            raise ConfigError(f"[{section.name}] has no {row.key} key", section.line, 1)
    return s.got


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config document; raise ConfigError with the
    offending line and column on any syntactic or semantic problem."""
    return _config_of(_split_sections(text))


def _config_of(sections: dict[str, _Section]) -> RunConfig:
    for section in sections.values():
        kind, label = section.kind, section.label
        if kind in _NAMED and not label:
            raise ConfigError(f"section [{kind}] needs a name, like [{kind} orbit]")
        if kind not in _KINDS or (label and kind not in _NAMED):
            raise ConfigError(f"unknown section [{section.name}]")
        for key, entry in section.entries.items():
            if not any(row.section == kind and row.matches(key) for row in _KEYS):
                raise ConfigError(
                    f"unknown key {quoted(key)} in [{section.name}]", entry.line, 1
                )

    def entries(name: str) -> dict[str, _Entry]:
        return sections[name].entries if name in sections else {}

    def at(name: str, key: str) -> tuple[int, int]:
        return sections[name].entries[key].line, sections[name].entries[key].column

    needed: list[tuple[_Entry, str, bool]] = []
    head = RunConfig(
        **_read(sections.get("run"), "run", None, needed),
        **_read(sections.get("chart"), "chart", None, needed),
    )
    preset = sy.get_preset(head.preset) if head.preset else None
    chart = _chart_of(head, preset)
    body = {}
    for kind in ("system", "params", "sampling"):
        body.update(_read(sections.get(kind), kind, chart, needed))
    named = {kind: [s for s in sections.values() if s.kind == kind] for kind in _NAMED}
    cfg = replace(
        head,
        **body,
        processes=tuple(
            ProcessSpec(s.label, **_read(s, "process", chart, needed))
            for s in named["process"]
        ),
        chains=tuple(
            ChainSpec(s.label, **_read(s, "chain", chart, needed))
            for s in named["chain"]
        ),
        topology=(
            TopologySpec(**_read(sections["topology"], "topology", chart, needed))
            if "topology" in sections else None
        ),
    )

    # rules across keys
    if cfg.preset and cfg.coordinates and chart.names != cfg.coordinates:
        raise ConfigError(
            f"coordinates {cfg.coordinates} do not match preset chart {chart.names}",
            *at("chart", "coordinates"),
        )
    system = entries("system")
    system_keys = [k for k in ("action", "velocity", "vector_potential") if k in system]
    if cfg.preset and system_keys:
        raise ConfigError(
            "a preset and an explicit [system] are mutually exclusive",
            *at("system", system_keys[0]),
        )
    if len(system_keys) > 1:
        raise ConfigError(
            "give exactly one of action, velocity, vector_potential",
            *at("system", system_keys[1]),
        )
    needs_system = any(b != "topology" for b in cfg.selected_batteries())
    if not cfg.preset and not system_keys and (needs_system or "topology" not in sections):
        raise ConfigError("no preset and no [system] section: nothing to analyze")
    for key, count, kind in (("action", chart.dim, ""), ("velocity", 3, "fluid"),
                             ("vector_potential", 3, "em")):
        if key not in system:
            continue
        got = len(getattr(cfg, key))
        if got != count:
            raise ConfigError(f"{key} needs {count} components, got {got}", *at("system", key))
        if kind and chart.dim != 4:
            raise ConfigError(f"{kind} systems need a 4-coordinate chart", *at("system", key))
    if (cfg.pressure_potential or cfg.viscosity) and not cfg.velocity:
        raise ConfigError("pressure_potential/viscosity need a velocity field")
    if cfg.scalar_potential and not cfg.vector_potential:
        raise ConfigError("scalar_potential needs a vector_potential")

    # a process or chain named like one the preset, or the config's velocity
    # system, brings would merge two entries of the report into one
    taken = {
        "process": (
            [n for n, _ in preset.processes] if preset
            else ["spacetime"] if cfg.velocity else []
        ),
        "chain": [c.name for c in preset.chains] if preset else [],
    }
    for kind, specs in (("process", cfg.processes), ("chain", cfg.chains)):
        for section, spec in zip(named[kind], specs):
            if spec.name in taken[kind]:
                owner = "the preset" if preset else "the velocity system"
                raise ConfigError(
                    f"{kind} name {quoted(spec.name)} is already used by {owner}",
                    section.line,
                    1,
                )
            if len(spec.components) != chart.dim:
                what = "chain map" if kind == "chain" else kind
                raise ConfigError(
                    f"{what} needs {chart.dim} components, got {len(spec.components)}",
                    *at(section.name, "components"),
                )

    sampling = entries("sampling")
    if ("lows" in sampling) != ("highs" in sampling):
        raise ConfigError("[sampling] needs both lows and highs")
    if "lows" in sampling:
        if len(cfg.lows) != chart.dim or len(cfg.highs) != chart.dim:
            raise ConfigError(
                f"sampling bounds need {chart.dim} entries", *at("sampling", "lows")
            )
        for lo, hi in zip(cfg.lows, cfg.highs):
            if not (lo < hi and math.isfinite(hi - lo)):
                raise ConfigError(
                    f"sampling interval [{lo}, {hi}] needs lo < hi and a finite width",
                    *at("sampling", "lows"),
                )

    if cfg.topology is not None:
        topo = sections["topology"].entries
        if ("codomain_points" in topo) != ("codomain_opens" in topo):
            raise ConfigError("[topology] codomain needs both points and opens")
        _validate_topology(cfg.topology, topo)

    bound = {name for name, _ in cfg.params}
    ranged = {name for name, _, _ in cfg.param_ranges}
    if preset is not None:
        bound |= set(preset.params)
        if preset.box is not None:
            ranged |= set(preset.box.param_ranges)
    ranged |= bound
    for entry, pname, guard_only in needed:
        if pname not in (ranged if guard_only else bound):
            raise ConfigError(
                f"parameter {quoted(pname)} has no value; add it to [params]",
                entry.line,
                entry.column,
            )
    return cfg


def _validate_topology(spec: TopologySpec, entries: dict[str, _Entry]):
    def fail(key: str, message: str):
        entry = entries[key]
        raise ConfigError(message, entry.line, entry.column)

    verdict = ft.is_topology(spec.opens, spec.points)
    if not verdict:
        fail("opens", f"opens do not form a topology: {verdict.reason}")
    if spec.codomain_points:
        v2 = ft.is_topology(spec.codomain_opens, spec.codomain_points)
        if not v2:
            fail("codomain_opens", f"codomain opens do not form a topology: {v2.reason}")
    if spec.map:
        domain = set(spec.points)
        codomain = set(spec.codomain_points or spec.points)
        for a, b in spec.map:
            if a not in domain:
                fail("map", f"map source {quoted(a)} is not a domain point")
            if b not in codomain:
                fail("map", f"map image {quoted(b)} is not a codomain point")
        if set(a for a, _ in spec.map) != domain:
            fail("map", "map must cover every domain point")


def _chart_of(cfg: RunConfig, preset: sy.Preset | None) -> ex.Chart:
    if preset is not None:
        return preset.chart
    if cfg.coordinates:
        return ex.Chart(cfg.coordinates)
    return sy.SPACETIME


def serialize_config(cfg: RunConfig) -> str:
    """The config text parse_config reads back to cfg; a key whose value is
    its field's default is left out."""
    blocks = [(f"[{kind}]", kind, cfg) for kind in ("run", "chart", "system", "params", "sampling")]
    blocks += [(f"[process {p.name}]", "process", p) for p in cfg.processes]
    blocks += [(f"[chain {c.name}]", "chain", c) for c in cfg.chains]
    if cfg.topology is not None:
        blocks.append(("[topology]", "topology", cfg.topology))
    out = []
    for header, kind, owner in blocks:
        lines = [line for row in _KEYS if row.section == kind for line in row.lines(owner)]
        if lines:
            out.append("\n".join([header, *lines]))
    return "\n\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Report assembly


@dataclass
class _Check:
    battery: str
    name: str
    passed: bool
    value: float | None = None
    tolerance: float | None = None
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "battery": self.battery,
            "name": self.name,
            "passed": self.passed,
            "value": self.value,
            "tolerance": self.tolerance,
            "detail": self.detail,
        }


@dataclass
class Report:
    document: dict
    passed: bool
    inconclusive: bool

    def to_json(self) -> str:
        return json.dumps(self.document, sort_keys=True, indent=2,
                          default=_json_default) + "\n"


def _json_default(o):
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def _verdict_dict(v: ZeroVerdict) -> dict:
    out = {
        "zero": v.zero,
        "syntactic": v.syntactic,
        "samples": v.samples,
        "skipped": v.skipped,
    }
    if v.witness is not None:
        out["witness"] = list(v.witness)
        out["witness_value"] = v.witness_value
    return out


@dataclass
class _Runtime:
    """One run's inputs and the anatomy of its action.

    anatomy.context is the run's zero tester: the resolved box with the
    config's seed.  Every sampled verdict of the run uses it.
    """

    cfg: RunConfig
    chart: ex.Chart
    anatomy: pf.Anatomy
    processes: tuple[tuple[str, VectorField], ...]
    chains: tuple[ch.Chain, ...]
    params: dict[str, float]
    system: sy.FluidSystem | sy.EMSystem | None
    tol: float

    @property
    def action(self) -> DifferentialForm:
        return self.anatomy.A

    @property
    def context(self) -> ex.ZeroTester:
        return self.anatomy.context

    def probe_point(self) -> tuple[float, ...]:
        if self.anatomy.points:
            return self.anatomy.points[0]
        box = self.context.box
        return tuple((lo + hi) / 2.0 for lo, hi in zip(box.lows, box.highs))

    def sample(self, e: ex.ScalarExpr) -> float | None:
        """e at the probe point, or None where it is singular there."""
        try:
            return ex.Tape((e,)).at(self.probe_point(), self.params)[0]
        except ex.ExprError:
            return None


def _build_runtime(cfg: RunConfig) -> _Runtime:
    preset = sy.get_preset(cfg.preset) if cfg.preset else None
    chart = _chart_of(cfg, preset)
    params: dict[str, float] = {}
    processes: list[tuple[str, VectorField]] = []
    chains: list[ch.Chain] = []
    points: tuple[tuple[float, ...], ...] = ()
    system: sy.FluidSystem | sy.EMSystem | None = None
    box: Box | None = None
    action: DifferentialForm | None = None

    if preset is not None:
        action = preset.action
        processes.extend(preset.processes)
        chains.extend(preset.chains)
        params.update(preset.params)
        points = preset.points
        system = preset.system
        box = preset.box

    def trees(sources: tuple[Source, ...]) -> tuple[ex.ScalarExpr, ...]:
        return tuple(s.tree for s in sources)

    def tree(source: Source | None, default: ex.ScalarExpr) -> ex.ScalarExpr:
        return source.tree if source else default

    if cfg.action:
        action = fm.one_form(chart, trees(cfg.action))
    elif cfg.velocity:
        system = sy.FluidSystem(
            trees(cfg.velocity),
            tree(cfg.pressure_potential, ex.ZERO),
            tree(cfg.viscosity, ex.ZERO),
            name="config.fluid",
        )
        action = system.action()
        processes.append(("spacetime", system.spacetime_velocity()))
    elif cfg.vector_potential:
        system = sy.EMSystem(
            trees(cfg.vector_potential), tree(cfg.scalar_potential, ex.ZERO), name="config.em"
        )
        action = system.action()

    for spec in cfg.processes:
        J = VectorField(chart, trees(spec.components), tree(spec.support, ex.ONE))
        processes.append((spec.name, J))

    for spec in cfg.chains:
        cell = ch.ExprCell(chart, spec.degree, trees(spec.components), name=spec.name)
        chains.append(ch.Chain(spec.degree, (cell,), (1,), spec.closed, spec.name))

    for name, value in cfg.params:
        params[name] = value

    # the config's sampling goes into the preset's box, or the default box:
    # lows and highs replace its bounds, ranges and guards are merged in
    box = box or ex.default_box(chart.dim)
    box = replace(
        box,
        lows=cfg.lows or box.lows,
        highs=cfg.highs or box.highs,
        param_ranges={**box.param_ranges, **{n: (lo, hi) for n, lo, hi in cfg.param_ranges}},
        guards=box.guards + trees(cfg.guards),
    )

    if action is None and cfg.topology is None:
        raise ConfigError("nothing to analyze: no action and no topology")
    if action is None:
        action = fm.one_form(chart, (ex.ZERO,) * chart.dim)

    context = ex.ZeroTester(box, seed=cfg.seed)
    return _Runtime(
        cfg=cfg,
        chart=chart,
        anatomy=pf.Anatomy(action, context, chains, points, params),
        processes=tuple(processes),
        chains=tuple(chains),
        params=params,
        system=system,
        tol=cfg.tolerance,
    )


# ---------------------------------------------------------------------------
# Batteries


def _battery_pfaff(rt: _Runtime, checks: list[_Check]) -> dict:
    out: dict = {}
    seq = rt.anatomy.sequence
    out["sequence"] = {
        "labels": list(seq.labels),
        "verdicts": [_verdict_dict(v) for v in seq.verdicts],
        "dimension": seq.dimension,
        "pointwise": [
            {"point": list(p), "dimension": d} for p, d in seq.pointwise
        ],
    }
    base = pf.cartan_topological_base(rt.anatomy)
    out["topological_base"] = {
        "elements": [name for name, _ in base.elements],
        "disconnected": base.disconnected,
    }
    consistent = base.disconnected == (seq.dimension >= 3)
    checks.append(
        _Check(
            "pfaff",
            "base_disconnection_matches_dimension",
            consistent,
            detail=f"dimension {seq.dimension}, disconnected {base.disconnected}",
        )
    )
    if rt.chart.dim == 4 and rt.action.degree == 1:
        data = rt.anatomy.torsion
        out["torsion"] = {
            "vector": [ex.to_text(c, rt.chart) for c in data.vector.components],
            "gamma": ex.to_text(data.gamma, rt.chart),
            "gamma_at_probe": rt.sample(data.gamma),
            "parity_coefficient": ex.to_text(data.parity_coefficient, rt.chart),
            "parity_at_probe": rt.sample(data.parity_coefficient),
            "helicity_density": ex.to_text(data.helicity_density, rt.chart),
        }
        genus = rt.anatomy.genus
        out["genus"] = {
            "genus": genus.genus,
            "torsion_current_zero": genus.torsion_current_zero,
        }
        checks.append(
            _Check(
                "pfaff",
                "low_dimension_forces_genus_3",
                genus.genus == 3 or seq.dimension >= 3,
                detail=f"genus {genus.genus}, dimension {seq.dimension}",
            )
        )
        out["frobenius_integrable"] = not base.disconnected
    return out


def _battery_thermo(rt: _Runtime, checks: list[_Check]) -> dict:
    out: dict = {}
    for name, J in rt.processes:
        rep = th.process_report(rt.anatomy, J)
        entry = {
            "category": rep.category,
            "flags": rep.flags.as_dict(),
            "Q": fm.form_to_text(rep.Q),
            "W": fm.form_to_text(rep.W),
            "U": fm.form_to_text(rep.U),
            "heat_pfaff_dimension": rep.pfaff.dimension,
            "work_periods": list(rep.work_periods),
            "second_variation": {
                "closed_flow": rep.second.closed_flow,
                "dR_zero": rep.second.dR_zero,
                "exactness_residual_zero": rep.second.exactness_residual_zero,
                "wedge_comparison_zero": rep.second.wedge_comparison_zero,
                "periods": list(rep.second.periods),
                "periods_vanish": rep.second.periods_vanish,
            },
        }
        out[name] = entry
        transversal = pf.form_is_zero(fm.interior(J, rep.W), rt.context)
        checks.append(
            _Check(
                "thermo",
                f"work_transversality.{name}",
                transversal.zero,
                detail="i(J)W = 0",
            )
        )
        checks.append(
            _Check(
                "thermo",
                f"category_assigned.{name}",
                rep.category != th.CATEGORY_UNCLASSIFIED,
                detail=rep.category,
            )
        )
        if rep.flags.closed_flow:
            ok = (
                rep.second.dR_zero
                and rep.second.exactness_residual_zero
                and rep.second.wedge_comparison_zero
                and rep.second.periods_vanish is not False
            )
            checks.append(
                _Check(
                    "thermo",
                    f"closed_flow_second_variation.{name}",
                    ok,
                    detail="R exact with vanishing periods",
                )
            )
    return out


def _battery_theorems(rt: _Runtime, checks: list[_Check]) -> dict:
    out: dict = {}
    F, H = rt.anatomy.dA, rt.anatomy.H
    closed_2 = [c for c in rt.chains if c.degree == 2 and c.closed]
    closed_1 = rt.anatomy.cycles
    closed_3 = [c for c in rt.chains if c.degree == 3 and c.closed]

    def record(kind: str, pname: str, cname: str, inv: ch.InvarianceResult):
        key = f"{kind}.{pname}.{cname}"
        out[key] = {
            "derivative_estimate": inv.derivative_estimate,
            "lie_integral": inv.lie_integral,
            "scale": inv.scale,
            "mode": inv.mode,
            "passed": inv.passed,
        }
        checks.append(
            _Check(
                "theorems",
                key,
                inv.passed,
                value=inv.derivative_estimate,
                tolerance=inv.tolerance * inv.scale,
            )
        )

    for pname, J in rt.processes:
        rep = th.process_report(rt.anatomy, J)
        # (theorems recorded, form, chain), checked in one batch per process
        flux = ("theorem_I_flux", "theorem_II_helmholtz")
        jobs = [(flux if rep.flags.extremal else flux[:1], F, c) for c in closed_2]
        if rep.flags.extremal:
            jobs += [(("theorem_III_circulation",), rt.action, c) for c in closed_1]
            jobs += [(("theorem_III_torsion_flux",), H, c) for c in closed_3]
        results = ch.invariance_checks(
            [(w, c) for _, w, c in jobs], J, tol=rt.tol, params=rt.params or None
        )
        for (kinds, _, chain), inv in zip(jobs, results):
            for kind in kinds:
                record(kind, pname, chain.name, inv)
        if rep.flags.closed_flow:
            # the second variation integrated R over exactly these cycles
            for chain, result in zip(closed_1, rep.second.integrals):
                bound = rt.tol * (1.0 + result.scale)
                key = f"theorem_IV_radiation_period.{pname}.{chain.name}"
                out[key] = {
                    "period": result.value,
                    "scale": result.scale,
                    "passed": abs(result.value) <= bound,
                }
                checks.append(
                    _Check(
                        "theorems",
                        key,
                        abs(result.value) <= bound,
                        value=result.value,
                        tolerance=bound,
                    )
                )
    return out


def _battery_periods(rt: _Runtime, checks: list[_Check]) -> dict:
    out: dict = {}
    closed_action = rt.anatomy.closed
    out["action_closed"] = _verdict_dict(closed_action)
    cycles = rt.anatomy.cycles
    if not closed_action.zero or not cycles:
        out["applicable"] = False
        return out
    out["applicable"] = True
    # closedness was just tested; the spectrum is built from the periods alone
    spectrum = ch.PeriodSpectrum.of(
        [ch.integrate(rt.action, c, params=rt.anatomy.params) for c in cycles]
    )
    out["spectrum"] = {
        "cycles": [c.name for c in cycles],
        "periods": list(spectrum.periods),
        "base": spectrum.base,
        "ratios": list(spectrum.ratios),
        "integer_deviation": list(spectrum.integer_deviation),
    }
    for cycle, dev in zip(cycles, spectrum.integer_deviation):
        checks.append(
            _Check(
                "periods",
                f"integer_ratio.{cycle.name}",
                dev <= rt.tol,
                value=dev,
                tolerance=rt.tol,
            )
        )
    return out


def _battery_residuals(rt: _Runtime, checks: list[_Check]) -> dict:
    out: dict = {}
    if isinstance(rt.system, sy.FluidSystem):
        rep = sy.fluid_diagnostics(rt.system, rt.anatomy)
        eng = rep.engineering
        torsion = eng.kinematic
        out["vorticity"] = [ex.to_text(c, rt.chart) for c in rep.vorticity.omega]
        out["acceleration"] = [ex.to_text(c, rt.chart) for c in rep.vorticity.acceleration]
        out["euler_residual"] = [ex.to_text(c, rt.chart) for c in rep.euler]
        out["euler_satisfied"] = rep.euler_satisfied
        out["momentum_residual"] = [ex.to_text(c, rt.chart) for c in rep.ns.residual]
        out["work_form"] = fm.form_to_text(rep.ns.work_form)
        out["torsion_current"] = [ex.to_text(c, rt.chart) for c in torsion.current]
        out["helicity_density"] = ex.to_text(torsion.helicity_density, rt.chart)
        out["anomaly"] = ex.to_text(torsion.anomaly, rt.chart)
        out["engineering_torsion"] = {
            "current": [ex.to_text(c, rt.chart) for c in eng.current],
            "agrees_on_solution": eng.ns_satisfied,
            "warning": eng.warning,
        }
        out["incompressibility"] = _verdict_dict(rep.incompressible)
        checks.extend(
            _Check("residuals", name, passed, detail=detail)
            for name, passed, detail in (
                ("induction_identities", True, "curl a + dw/dt = 0, div w = 0"),
                ("momentum_balance", rep.ns.satisfied, "viscous momentum residual zero verdict"),
                ("torsion_balance_law", True, "div T + dh/dt = anomaly"),
                ("mass_conservation_unit_density", rep.incompressible.zero,
                 "div v = 0 with rho = 1"),
            )
        )
    elif isinstance(rt.system, sy.EMSystem):
        rep = sy.em_diagnostics(rt.system, rt.anatomy)
        out["E"] = [ex.to_text(c, rt.chart) for c in rep.E]
        out["B"] = [ex.to_text(c, rt.chart) for c in rep.B]
        out["current"] = [ex.to_text(c, rt.chart) for c in rep.current]
        out["helicity_density"] = ex.to_text(rep.helicity_density, rt.chart)
        out["gamma"] = ex.to_text(rep.torsion.gamma, rt.chart)
        out["gamma_at_probe"] = rt.sample(rep.torsion.gamma)
        out["parity_coefficient"] = ex.to_text(rep.parity_coefficient, rt.chart)
        out["listed_parity"] = ex.to_text(rep.listed_parity, rt.chart)
        out["parity_at_probe"] = rt.sample(rep.parity_coefficient)
        out["genus"] = rep.genus.genus
        out["torsion_process_category"] = rep.process.category
        checks.append(
            _Check(
                "residuals",
                "field_identities",
                True,
                detail="dF = 0, current list, gamma = E.B, parity = 2 E.B, divergence law",
            )
        )
    else:
        out["applicable"] = False
    return out


def _battery_topology(rt: _Runtime, checks: list[_Check]) -> dict:
    spec = rt.cfg.topology
    if spec is None:
        return {"applicable": False}
    out: dict = {"applicable": True}
    t1 = ft.FiniteTopology(spec.points, [frozenset(s) for s in spec.opens])
    out["domain"] = {
        "points": sorted(t1.ground),
        "opens": [sorted(s) for s in t1.opens],
    }
    if spec.codomain_points:
        t2 = ft.FiniteTopology(
            spec.codomain_points, [frozenset(s) for s in spec.codomain_opens]
        )
    else:
        t2 = t1
    out["codomain"] = {
        "points": sorted(t2.ground),
        "opens": [sorted(s) for s in t2.opens],
    }
    if not spec.map:
        return out
    f = ft.PointMap(dict(spec.map), t1.ground, t2.ground)
    forward = ft.is_continuous(f, t1, t2)
    closure_def = ft.is_continuous_via_closure(f, t1, t2)
    inverse = ft.inverse_continuous(f, t1, t2)
    out["forward_continuous"] = bool(forward)
    out["forward_witness"] = sorted(forward.witness) if forward.witness else None
    out["closure_definition_continuous"] = bool(closure_def)
    out["inverse_continuous"] = bool(inverse)
    out["inverse_witness"] = sorted(inverse.witness) if inverse.witness else None
    checks.append(
        _Check(
            "topology",
            "continuity_definitions_agree",
            bool(forward) == bool(closure_def),
            detail="preimage and closure definitions",
        )
    )
    return out


_BATTERY_FUNCS = {
    "pfaff": _battery_pfaff,
    "thermo": _battery_thermo,
    "theorems": _battery_theorems,
    "periods": _battery_periods,
    "residuals": _battery_residuals,
    "topology": _battery_topology,
}


# ---------------------------------------------------------------------------
# Run


def run(cfg: RunConfig) -> Report:
    """Execute the selected batteries and assemble the structured report.

    Battery errors are retained as partial results; an internal or
    inconclusive error marks the report inconclusive rather than failed.
    """
    rt = _build_runtime(cfg)
    checks: list[_Check] = []
    batteries: dict[str, dict] = {}
    errors: dict[str, str] = {}

    for name in cfg.selected_batteries():
        try:
            batteries[name] = _BATTERY_FUNCS[name](rt, checks)
        except (InconclusiveError, InternalConsistencyError) as e:
            batteries[name] = {"error": f"{type(e).__name__}: {e}"}
            errors[name] = str(e)

    checks.sort(key=lambda c: (c.battery, c.name))
    passed = all(c.passed for c in checks) and not errors
    document = {
        "schema": SCHEMA,
        "provenance": {
            "version": __version__,
            "seed": cfg.seed,
            "tolerance": cfg.tolerance,
            "preset": cfg.preset or None,
            "batteries": list(cfg.selected_batteries()),
            "params": {k: v for k, v in sorted(rt.params.items())},
        },
        "batteries": batteries,
        "checks": [c.as_dict() for c in checks],
        "counts": {
            "passed": sum(1 for c in checks if c.passed),
            "failed": sum(1 for c in checks if not c.passed),
            "errors": len(errors),
        },
        "passed": passed,
    }
    return Report(document=document, passed=passed, inconclusive=bool(errors))


def _summary_lines(report: Report, cfg: RunConfig) -> list[str]:
    doc = report.document
    head = f"formflow {__version__}"
    if cfg.preset:
        head += f" — preset {cfg.preset}"
    lines = [head, f"batteries: {', '.join(doc['provenance']['batteries'])}"]
    for c in doc["checks"]:
        mark = "PASS" if c["passed"] else "FAIL"
        extra = ""
        if c["value"] is not None and c["tolerance"] is not None:
            extra = f" ({c['value']:.3e} vs {c['tolerance']:.3e})"
        lines.append(f"  {mark} {c['battery']}.{c['name']}{extra}")
    for name, body in doc["batteries"].items():
        if "error" in body:
            lines.append(f"  ERROR {name}: {body['error']}")
    counts = doc["counts"]
    lines.append(
        f"{counts['passed']} passed, {counts['failed']} failed, "
        f"{counts['errors']} errors"
    )
    lines.append("RESULT " + ("PASS" if report.passed else
                              "INCONCLUSIVE" if report.inconclusive else "FAIL"))
    return lines


# ---------------------------------------------------------------------------
# Entry point


def _flag_entries(args: argparse.Namespace) -> dict[str, _Entry]:
    """The run flags, each named after its [run] key, as [run] entries, so
    that the config's checks apply to them."""
    flags = {**vars(args), "battery": ",".join(args.battery) if args.battery else None}
    keys = [row.key for row in _KEYS if row.section == "run"]
    return {k: _Entry(k, str(flags[k]), 0, 0) for k in keys if flags[k] is not None}


def _internal_error(e: Exception) -> int:
    lines = str(e).splitlines()
    print(f"internal error: {type(e).__name__}: {lines[0] if lines else ''}", file=sys.stderr)
    return 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="formflow",
        description="exterior-calculus diagnostics for action 1-forms",
    )
    parser.add_argument(
        "--list-presets", action="store_true", help="list bundled presets and exit"
    )
    sub = parser.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="run a diagnostic battery")
    runp.add_argument("config", nargs="?", help="config file path")
    runp.add_argument("--battery", action="append", help="comma-separated batteries")
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--tolerance", type=float, default=None)
    runp.add_argument("--preset", default=None)
    runp.add_argument("--out", default=None)
    runp.add_argument(
        "--summary",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="print a human-readable summary to stderr",
    )
    args = parser.parse_args(argv)

    if args.list_presets:
        for name in sy.preset_names():
            print(f"{name}: {sy.get_preset(name).summary}")
        return 0
    if args.command != "run":
        parser.print_usage(sys.stderr)
        return 2

    if not args.config and not args.preset:
        print("config error: give a config file or --preset", file=sys.stderr)
        return 2
    try:
        text = ""
        if args.config:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as e:
                print(f"config error: {e}", file=sys.stderr)
                return 2
        # flags override the file's [run] values and pass the same checks
        sections = _split_sections(text)
        sections.setdefault("run", _Section("run", 0, {})).entries.update(_flag_entries(args))
        cfg = _config_of(sections)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a crash is exit 3 with one line, never a traceback
        return _internal_error(e)

    try:
        report = run(cfg)
    # InconclusiveError is an ExprError, so it must be caught first
    except (InconclusiveError, InternalConsistencyError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except (ConfigError, sy.PresetError, fm.FormError, ch.ChainError, th.ThermoError,
            ex.ExprError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        return _internal_error(e)

    payload = report.to_json()
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    if cfg.summary:
        for line in _summary_lines(report, cfg):
            print(line, file=sys.stderr)
    if report.inconclusive:
        return 3
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
