"""The formflow config format: read, check and write a run description.

A config is line-oriented: `[section]` headers and `key = value` lines,
`#` comments, blank lines ignored; expression values use the expression
parser's grammar.  One table of keys gives each key its section, field,
reader and writer; parse_config and serialize_config both go through it.
A preset is a bundled config text (systems.PRESETS) that parse_config
merges with the config naming it, and build_runtime makes a run's inputs,
its batteries.Runtime, from the parsed RunConfig; systems.get_preset
returns the Runtime built from a preset's text alone.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Callable, Mapping

from . import batteries as bt
from . import chains as ch
from . import expr as ex
from . import finite_topology as ft
from . import forms as fm
from . import parse as ps
from . import pfaff as pf
from . import systems as sy
from .forms import VectorField
from .parse import quoted

__all__ = [
    "BATTERIES", "ChainSpec", "ConfigError", "ProcessSpec", "RunConfig", "Source",
    "TopologySpec", "build_runtime", "chart_of", "parse_config", "serialize_config",
]

BATTERIES = tuple(bt.BATTERY_FUNCS)


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
    probe: tuple[float, ...] = ()
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


def _pieces(entry: _Entry, sep: str = ",") -> list[tuple[int, str]]:
    """The value's nonempty pieces between separators, stripped, each with
    the offset of its first character in the value.  A separator inside
    parentheses separates nothing: atan2(y, x) is one piece."""
    pieces, depth, start = [], 0, 0
    for i, c in enumerate(entry.value + sep):
        depth += (c == "(") - (c == ")")
        if c == sep and depth == 0:
            piece = entry.value[start:i]
            if piece.strip():
                pieces.append((start + len(piece) - len(piece.lstrip()), piece.strip()))
            start = i + 1
    if depth:
        raise ConfigError("unbalanced parentheses", entry.line, entry.column)
    return pieces


def _csv(entry: _Entry) -> tuple[str, ...]:
    return tuple(text for _, text in _pieces(entry))


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


def _names(what: str) -> Callable[[_Entry, _Scope], tuple[str, ...]]:
    """The reader of a list of names, none of them twice."""
    def read(e: _Entry, s: _Scope) -> tuple[str, ...]:
        names = _csv(e)
        seen: set[str] = set()
        for name in names:
            if name in seen:
                raise ConfigError(f"duplicate {what} {quoted(name)}", e.line, e.column)
            seen.add(name)
        return names
    return read


def _parsed(e: _Entry, s: _Scope, text: str, guard_only: bool = False, at: int = 0) -> Source:
    """text, the piece of e's value at offset at, parsed; an error names the
    file position of the character, or of the piece for a parameter."""
    try:
        tree = ps.parse_scalar(text, s.chart)
    except ps.ParseError as err:
        raise ConfigError(err.message, e.line, e.column + at + err.column - 1) from None
    piece = replace(e, column=e.column + at)
    s.needed.extend((piece, name, guard_only) for name in ex.param_names(tree))
    return Source(text, tree)


def _expr(e: _Entry, s: _Scope) -> Source:
    return _parsed(e, s, e.value)


def _exprs(e: _Entry, s: _Scope) -> tuple[Source, ...]:
    return tuple(_parsed(e, s, text, at=at) for at, text in _pieces(e))


def _guards(e: _Entry, s: _Scope) -> tuple[Source, ...]:
    return tuple(_parsed(e, s, text, True, at) for at, text in _pieces(e, ";"))


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
    degree, top = _int(e, s), min(s.chart.dim, max(ch.DEFAULT_QUAD_ORDER))
    if not 1 <= degree <= top:
        raise ConfigError(f"chain degree must be in 1..{top}", e.line, e.column)
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
    mapping: dict[str, str] = {}
    for piece in _csv(e):
        if ":" not in piece:
            raise ConfigError(
                f"map entries are `point:image`, got {quoted(piece)}", e.line, e.column
            )
        a, _, b = (p.strip() for p in piece.partition(":"))
        if a in mapping:
            raise ConfigError(f"map source {quoted(a)} appears twice", e.line, e.column)
        mapping[a] = b
    return tuple(mapping.items())


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
    _Key("chart", "coordinates", "coordinates", _names("coordinate"), _list),
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
    _Key("sampling", "probe", "probe", _floats, _numbers),
    _Key("process", "components", "components", _exprs, _list),
    _Key("process", "support", "support", _expr, str),
    _Key("chain", "degree", "degree", _degree, str),
    _Key("chain", "components", "components", _cell_map, _list),
    _Key("chain", "closed", "closed", _bool, _flag),
    _Key("topology", "points", "points", _names("point"), _list),
    _Key("topology", "opens", "opens", _braced_sets, _sets),
    _Key("topology", "codomain_points", "codomain_points", _names("point"), _list),
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


def parse_config(text: str, flags: Mapping[str, object] | None = None) -> RunConfig:
    """Parse and validate a config document; raise ConfigError with the
    offending line and column on any syntactic or semantic problem.

    flags named after [run] keys override the document's [run] values and
    pass the same checks; other names and None values are left out.

    The expressions are built in a run memo scope of the parse's own, so
    a subexpression repeated across keys is built once; the scope ends
    when the parse returns or raises, and the trees are the nodes a parse
    without it builds."""
    sections = _split_sections(text)
    if flags:
        sections.setdefault("run", _Section("run", 0, {})).entries.update(_flag_entries(flags))
    with ex.run_memo():
        return _config_of(sections)


def _flag_entries(flags: Mapping[str, object]) -> dict[str, _Entry]:
    """The flags named after [run] keys, as [run] entries."""
    keys = [row.key for row in _KEYS if row.section == "run"]
    return {k: _Entry(k, str(flags[k]), 0, 0) for k in keys if flags.get(k) is not None}


def _with_preset(sections: dict[str, _Section]) -> dict[str, _Section]:
    """The sections of the bundled text that [run] preset names, with the
    config's own merged in; without a preset, the config's own.

    A [params] entry, a range and lows, highs or probe replace the bundled
    one in place, guards are added to the bundled ones, and other sections
    follow the bundled ones.  A [system] in both texts, a process or chain
    name in both, or coordinates other than the bundled x, y, z, t are
    errors at the config's line."""
    entry = sections["run"].entries.get("preset") if "run" in sections else None
    if entry is None:
        return sections
    merged = _split_sections(sy.PRESETS[_preset(entry, None)])
    coords = sections["chart"].entries.get("coordinates") if "chart" in sections else None
    if coords and (names := _names("coordinate")(coords, None)) != sy.SPACETIME.names:
        raise ConfigError(
            f"coordinates {names} do not match preset chart {sy.SPACETIME.names}",
            coords.line,
            coords.column,
        )
    for name, section in sections.items():
        bundled = merged.setdefault(name, section)
        if bundled is section:
            continue
        if section.kind == "system":
            raise ConfigError(
                "a preset and an explicit [system] are mutually exclusive", section.line, 1
            )
        if section.kind in _NAMED:
            raise ConfigError(
                f"{section.kind} name {quoted(section.label)} is already used by the preset",
                section.line,
                1,
            )
        guards = bundled.entries.get("guards")  # [params] and [sampling]
        bundled.entries.update(section.entries)
        if guards and "guards" in section.entries:
            own, joined = section.entries["guards"], f"{guards.value}; "
            # own's pieces keep their file columns behind the bundled text
            column = own.column - len(joined)
            bundled.entries["guards"] = replace(own, value=joined + own.value, column=column)
    return merged


def _config_of(sections: dict[str, _Section]) -> RunConfig:
    sections = _with_preset(sections)
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
    chart = chart_of(head)
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
    system = entries("system")
    system_keys = [k for k in ("action", "velocity", "vector_potential") if k in system]
    if len(system_keys) > 1:
        raise ConfigError(
            "give exactly one of action, velocity, vector_potential",
            *at("system", system_keys[1]),
        )
    needs_system = any(b != "topology" for b in cfg.selected_batteries())
    if not system_keys and (needs_system or "topology" not in sections):
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

    for kind, specs in (("process", cfg.processes), ("chain", cfg.chains)):
        for section, spec in zip(named[kind], specs):
            # a velocity system brings its own spacetime process
            if kind == "process" and spec.name == "spacetime" and cfg.velocity:
                raise ConfigError(
                    "process name 'spacetime' is already used by the velocity system",
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
    if cfg.probe and len(cfg.probe) != chart.dim:
        raise ConfigError(f"probe needs {chart.dim} entries", *at("sampling", "probe"))

    if cfg.topology is not None:
        _validate_topology(cfg.topology, sections["topology"].entries)

    bound = {name for name, _ in cfg.params}
    ranged = bound | {name for name, _, _ in cfg.param_ranges}
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

    given = [key for key in ("codomain_points", "codomain_opens") if key in entries]
    if len(given) == 1:
        fail(given[0], "[topology] codomain needs both points and opens")
    for key, points in (("points", spec.points), ("codomain_points", spec.codomain_points)):
        if len(points) > ft.MAX_GROUND:
            fail(key, f"a topology has at most {ft.MAX_GROUND} points, got {len(points)}")
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


def chart_of(cfg: RunConfig) -> ex.Chart:
    """The chart of cfg's expressions: its coordinates' or spacetime."""
    return ex.Chart(cfg.coordinates) if cfg.coordinates else sy.SPACETIME


def build_runtime(cfg: RunConfig) -> bt.Runtime:
    """The run's inputs, built from cfg's parsed expressions: its system and
    processes, chains, parameters, probe point and sampling box."""
    chart = chart_of(cfg)

    def trees(sources: tuple[Source, ...]) -> tuple[ex.ScalarExpr, ...]:
        return tuple(s.tree for s in sources)

    def tree(source: Source | None, default: ex.ScalarExpr) -> ex.ScalarExpr:
        return source.tree if source else default

    processes: dict[str, VectorField] = {}
    system: sy.FluidSystem | sy.EMSystem | None = None
    if cfg.action:
        action = fm.one_form(chart, trees(cfg.action))
    elif cfg.velocity:
        system = sy.FluidSystem(
            trees(cfg.velocity),
            tree(cfg.pressure_potential, ex.ZERO),
            tree(cfg.viscosity, ex.ZERO),
        )
        action = system.action()
        processes["spacetime"] = system.spacetime_velocity()
    elif cfg.vector_potential:
        system = sy.EMSystem(trees(cfg.vector_potential), tree(cfg.scalar_potential, ex.ZERO))
        action = system.action()
    elif cfg.topology is not None:
        action = fm.one_form(chart, (ex.ZERO,) * chart.dim)
    else:
        raise ConfigError("nothing to analyze: no action and no topology")

    for spec in cfg.processes:
        J = VectorField(chart, trees(spec.components), tree(spec.support, ex.ONE))
        processes[spec.name] = J
    chains: dict[str, ch.Chain] = {}
    for spec in cfg.chains:
        cell = ch.ExprCell(chart, spec.degree, trees(spec.components), name=spec.name)
        chains[spec.name] = ch.Chain(cell, spec.closed)
    # lows and highs replace the default box's bounds
    box = ex.default_box(chart.dim)
    box = ex.Box(
        cfg.lows or box.lows,
        cfg.highs or box.highs,
        {n: (lo, hi) for n, lo, hi in cfg.param_ranges},
        trees(cfg.guards),
    )
    context = ex.ZeroTester(box, seed=cfg.seed)
    points = (cfg.probe,) if cfg.probe else ()
    return bt.Runtime(
        topology=cfg.topology,
        chart=chart,
        anatomy=pf.Anatomy(action, context, chains.values(), points, dict(cfg.params)),
        processes=processes,
        chains=chains,
        system=system,
        tol=cfg.tolerance,
    )


def _less_preset(cfg: RunConfig) -> RunConfig:
    """cfg without what the bundled text of its preset gives, so that
    merging that text with it again gives cfg back."""
    base = _config_of(_split_sections(sy.PRESETS[cfg.preset]))

    def own(name: str, mine, bundled):
        if name == "guards":  # added to the bundled ones
            return mine[len(bundled):]
        if name in ("params", "param_ranges", "processes", "chains"):
            return tuple(item for item in mine if item not in bundled)
        return _DEFAULTS[RunConfig][name] if mine == bundled else mine

    return replace(
        cfg, **{f.name: own(f.name, getattr(cfg, f.name), getattr(base, f.name))
                for f in fields(RunConfig)}
    )


def serialize_config(cfg: RunConfig) -> str:
    """The config text parse_config reads back to cfg; a key whose value is
    its field's default, or with a preset the bundled text's, is left out."""
    if cfg.preset:
        cfg = _less_preset(cfg)
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
