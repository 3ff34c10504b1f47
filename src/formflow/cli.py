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
from dataclasses import dataclass, replace

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
from .pfaff import InternalConsistencyError

__all__ = [
    "BATTERIES",
    "ChainSpec",
    "ConfigError",
    "ProcessSpec",
    "Report",
    "RunConfig",
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
class ProcessSpec:
    name: str
    components: tuple[str, ...]
    support: str = ""


@dataclass(frozen=True)
class ChainSpec:
    name: str
    degree: int
    components: tuple[str, ...]
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
    """Validated run description; expression fields stay as source strings."""

    batteries: tuple[str, ...] = ("all",)
    seed: int = ex.DEFAULT_SEED
    tolerance: float = 1e-6
    preset: str = ""
    out: str = ""
    summary: bool = True
    coordinates: tuple[str, ...] = ()
    action: tuple[str, ...] = ()
    velocity: tuple[str, ...] = ()
    pressure_potential: str = ""
    viscosity: str = ""
    vector_potential: tuple[str, ...] = ()
    scalar_potential: str = ""
    params: tuple[tuple[str, float], ...] = ()
    processes: tuple[ProcessSpec, ...] = ()
    chains: tuple[ChainSpec, ...] = ()
    lows: tuple[float, ...] = ()
    highs: tuple[float, ...] = ()
    guards: tuple[str, ...] = ()
    param_ranges: tuple[tuple[str, float, float], ...] = ()
    topology: TopologySpec | None = None

    def selected_batteries(self) -> tuple[str, ...]:
        if "all" in self.batteries:
            return BATTERIES
        return tuple(b for b in BATTERIES if b in self.batteries)


# ---------------------------------------------------------------------------
# Config text parsing


@dataclass
class _Entry:
    value: str
    line: int
    column: int  # of the value


def _split_sections(text: str) -> dict[str, dict[str, _Entry]]:
    sections: dict[str, dict[str, _Entry]] = {}
    current: dict[str, _Entry] | None = None
    current_name = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError("unterminated section header", lineno, len(line))
            name = stripped[1:-1].strip()
            if not name:
                raise ConfigError("empty section name", lineno, 1)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", lineno, 1)
            current = sections.setdefault(name, {})
            current_name = name
            continue
        if current is None:
            raise ConfigError("key outside any [section]", lineno, 1)
        if "=" not in line:
            raise ConfigError("expected key = value", lineno, 1)
        key, _, value = line.partition("=")
        key_name = key.strip()
        if not key_name:
            raise ConfigError("empty key", lineno, 1)
        if key_name in current:
            raise ConfigError(
                f"duplicate key {key_name!r} in [{current_name}]", lineno, 1
            )
        column = len(key) + 2 + (len(value) - len(value.lstrip()))
        current[key_name] = _Entry(value.strip(), lineno, column)
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


def _floats(entry: _Entry) -> tuple[float, ...]:
    return tuple(_float(entry, piece) for piece in _csv(entry))


def _float(entry: _Entry, text: str) -> float:
    try:
        v = float(text)
    except ValueError:  # reported as not finite
        v = math.nan
    if not math.isfinite(v):
        raise ConfigError(f"expected a finite number, got {text!r}", entry.line, entry.column)
    return v


def _int(entry: _Entry) -> int:
    try:
        v = int(entry.value)
    except ValueError:  # not an integer, or past int()'s digit limit
        v = -1
    if v < 0:
        raise ConfigError(
            f"expected a nonnegative integer, got {entry.value!r}", entry.line, entry.column
        )
    return v


def _bool(entry: _Entry) -> bool:
    v = entry.value.lower()
    if v in ("true", "yes", "on", "1"):
        return True
    if v in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {entry.value!r}", entry.line, entry.column)


def _check_expr(entry: _Entry, text: str, chart: ex.Chart) -> tuple[str, ...]:
    try:
        parsed = ps.parse_scalar(text, chart)
    except ps.ParseError as e:
        raise ConfigError(str(e), entry.line, entry.column) from None
    return ex.collect_params(parsed)


def _check_expr_list(entry: _Entry, texts: tuple[str, ...], chart: ex.Chart) -> tuple[str, ...]:
    names: list[str] = []
    for t in texts:
        names.extend(_check_expr(entry, t, chart))
    return tuple(names)


def _braced_sets(entry: _Entry) -> tuple[tuple[str, ...], ...]:
    """Parse `{a,b}; {}; {a}` into canonical sorted tuples."""
    out = []
    for piece in entry.value.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        if not (piece.startswith("{") and piece.endswith("}")):
            raise ConfigError(
                f"expected a braced set, got {piece!r}", entry.line, entry.column
            )
        inner = piece[1:-1].strip()
        members = tuple(sorted(p.strip() for p in inner.split(",") if p.strip()))
        out.append(members)
    return tuple(out)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config document; raise ConfigError with the
    offending line and column on any syntactic or semantic problem."""
    return _config_of(_split_sections(text))


def _config_of(sections: dict[str, dict[str, _Entry]]) -> RunConfig:
    known = {"run", "chart", "system", "params", "sampling", "topology"}
    for name in sections:
        base = name.split(None, 1)[0]
        if name not in known and base not in ("process", "chain"):
            raise ConfigError(f"unknown section [{name}]")
        if base in ("process", "chain") and len(name.split(None, 1)) != 2:
            raise ConfigError(f"section [{name}] needs a name, like [{base} orbit]")

    def take(section: str, key: str) -> _Entry | None:
        return sections.get(section, {}).get(key)

    def consume(section: str, allowed: set[str]):
        for key, entry in sections.get(section, {}).items():
            if key not in allowed:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]", entry.line, 1
                )

    consume("run", {"preset", "battery", "seed", "tolerance", "out", "summary"})
    consume("chart", {"coordinates"})
    consume(
        "system",
        {
            "action",
            "velocity",
            "pressure_potential",
            "viscosity",
            "vector_potential",
            "scalar_potential",
        },
    )
    consume("sampling", {"lows", "highs", "guards"} | {
        k for k in sections.get("sampling", {}) if k.startswith("range ")
    })
    consume(
        "topology",
        {"points", "opens", "codomain_points", "codomain_opens", "map"},
    )

    cfg = RunConfig()
    needed: list[tuple[_Entry, str, bool]] = []  # (entry, param name, guard only)

    def need(entry: _Entry, names: tuple[str, ...], guard_only: bool = False):
        for n in names:
            needed.append((entry, n, guard_only))

    e = take("run", "preset")
    if e is not None:
        if e.value not in sy.PRESETS:
            raise ConfigError(
                f"unknown preset {e.value!r}; available: {', '.join(sy.PRESETS)}",
                e.line,
                e.column,
            )
        cfg = replace(cfg, preset=e.value)
    e = take("run", "battery")
    if e is not None:
        names = _csv(e)
        if not names:
            raise ConfigError("at least one battery required", e.line, e.column)
        for n in names:
            if n != "all" and n not in BATTERIES:
                raise ConfigError(
                    f"unknown battery {n!r}; choose from all, {', '.join(BATTERIES)}",
                    e.line,
                    e.column,
                )
        cfg = replace(cfg, batteries=names)
    e = take("run", "seed")
    if e is not None:
        cfg = replace(cfg, seed=_int(e))
    e = take("run", "tolerance")
    if e is not None:
        tol = _float(e, e.value)
        if not tol > 0:
            raise ConfigError("tolerance must be positive", e.line, e.column)
        cfg = replace(cfg, tolerance=tol)
    e = take("run", "out")
    if e is not None:
        cfg = replace(cfg, out=e.value)
    e = take("run", "summary")
    if e is not None:
        cfg = replace(cfg, summary=_bool(e))

    e = take("chart", "coordinates")
    if e is not None:
        coords = _csv(e)
        if len(coords) != len(set(coords)):
            raise ConfigError("duplicate coordinate names", e.line, e.column)
        cfg = replace(cfg, coordinates=coords)

    preset = sy.get_preset(cfg.preset) if cfg.preset else None
    chart = _chart_of(cfg, preset)
    if cfg.preset and cfg.coordinates and chart.names != cfg.coordinates:
        e = take("chart", "coordinates")
        raise ConfigError(
            f"coordinates {cfg.coordinates} do not match preset chart {chart.names}",
            e.line,
            e.column,
        )

    system_keys = [k for k in ("action", "velocity", "vector_potential") if take("system", k)]
    if cfg.preset and system_keys:
        e = take("system", system_keys[0])
        raise ConfigError(
            "a preset and an explicit [system] are mutually exclusive", e.line, e.column
        )
    if len(system_keys) > 1:
        e = take("system", system_keys[1])
        raise ConfigError(
            "give exactly one of action, velocity, vector_potential", e.line, e.column
        )
    needs_system = any(b != "topology" for b in cfg.selected_batteries())
    if not cfg.preset and not system_keys and (needs_system or "topology" not in sections):
        raise ConfigError("no preset and no [system] section: nothing to analyze")

    e = take("system", "action")
    if e is not None:
        comps = _csv(e)
        if len(comps) != chart.dim:
            raise ConfigError(
                f"action needs {chart.dim} components, got {len(comps)}",
                e.line,
                e.column,
            )
        need(e, _check_expr_list(e, comps, chart))
        cfg = replace(cfg, action=comps)
    e = take("system", "velocity")
    if e is not None:
        comps = _csv(e)
        if len(comps) != 3:
            raise ConfigError(
                f"velocity needs 3 components, got {len(comps)}", e.line, e.column
            )
        if chart.dim != 4:
            raise ConfigError("fluid systems need a 4-coordinate chart", e.line, e.column)
        need(e, _check_expr_list(e, comps, chart))
        cfg = replace(cfg, velocity=comps)
    e = take("system", "pressure_potential")
    if e is not None:
        need(e, _check_expr(e, e.value, chart))
        cfg = replace(cfg, pressure_potential=e.value)
    e = take("system", "viscosity")
    if e is not None:
        need(e, _check_expr(e, e.value, chart))
        cfg = replace(cfg, viscosity=e.value)
    e = take("system", "vector_potential")
    if e is not None:
        comps = _csv(e)
        if len(comps) != 3:
            raise ConfigError(
                f"vector_potential needs 3 components, got {len(comps)}",
                e.line,
                e.column,
            )
        if chart.dim != 4:
            raise ConfigError("em systems need a 4-coordinate chart", e.line, e.column)
        need(e, _check_expr_list(e, comps, chart))
        cfg = replace(cfg, vector_potential=comps)
    e = take("system", "scalar_potential")
    if e is not None:
        need(e, _check_expr(e, e.value, chart))
        cfg = replace(cfg, scalar_potential=e.value)
    if (cfg.pressure_potential or cfg.viscosity) and not cfg.velocity:
        raise ConfigError("pressure_potential/viscosity need a velocity field")
    if cfg.scalar_potential and not cfg.vector_potential:
        raise ConfigError("scalar_potential needs a vector_potential")

    params = []
    for key, entry in sections.get("params", {}).items():
        params.append((key, _float(entry, entry.value)))
    cfg = replace(cfg, params=tuple(params))

    processes = []
    for name, body in sections.items():
        if not name.startswith("process "):
            continue
        pname = name.split(None, 1)[1]
        e = body.get("components")
        if e is None:
            raise ConfigError(f"[{name}] needs a components key")
        comps = _csv(e)
        if len(comps) != chart.dim:
            raise ConfigError(
                f"process needs {chart.dim} components, got {len(comps)}",
                e.line,
                e.column,
            )
        need(e, _check_expr_list(e, comps, chart))
        support = ""
        se = body.get("support")
        if se is not None:
            need(se, _check_expr(se, se.value, chart))
            support = se.value
        for key in body:
            if key not in ("components", "support"):
                raise ConfigError(f"unknown key {key!r} in [{name}]", body[key].line, 1)
        processes.append(ProcessSpec(pname, comps, support))
    cfg = replace(cfg, processes=tuple(processes))

    chain_specs = []
    for name, body in sections.items():
        if not name.startswith("chain "):
            continue
        cname = name.split(None, 1)[1]
        de = body.get("degree")
        if de is None:
            raise ConfigError(f"[{name}] needs a degree key")
        degree = _int(de)
        if not 1 <= degree <= chart.dim:
            raise ConfigError(
                f"chain degree must be in 1..{chart.dim}", de.line, de.column
            )
        e = body.get("components")
        if e is None:
            raise ConfigError(f"[{name}] needs a components key")
        comps = _csv(e)
        if len(comps) != chart.dim:
            raise ConfigError(
                f"chain map needs {chart.dim} components, got {len(comps)}",
                e.line,
                e.column,
            )
        pchart = ch.param_chart(degree)
        for t in comps:
            need(e, _check_expr(e, t, pchart))
        closed = True
        ce = body.get("closed")
        if ce is not None:
            closed = _bool(ce)
        for key in body:
            if key not in ("degree", "components", "closed"):
                raise ConfigError(f"unknown key {key!r} in [{name}]", body[key].line, 1)
        chain_specs.append(ChainSpec(cname, degree, comps, closed))
    cfg = replace(cfg, chains=tuple(chain_specs))

    sampling = sections.get("sampling", {})
    if "lows" in sampling or "highs" in sampling:
        if not ("lows" in sampling and "highs" in sampling):
            raise ConfigError("[sampling] needs both lows and highs")
        lows = _floats(sampling["lows"])
        highs = _floats(sampling["highs"])
        if len(lows) != chart.dim or len(highs) != chart.dim:
            raise ConfigError(
                f"sampling bounds need {chart.dim} entries",
                sampling["lows"].line,
                sampling["lows"].column,
            )
        for lo, hi in zip(lows, highs):
            if not (lo < hi and math.isfinite(hi - lo)):
                raise ConfigError(
                    f"sampling interval [{lo}, {hi}] needs lo < hi and a finite width",
                    sampling["lows"].line,
                    sampling["lows"].column,
                )
        cfg = replace(cfg, lows=lows, highs=highs)
    if "guards" in sampling:
        e = sampling["guards"]
        guards = tuple(p.strip() for p in e.value.split(";") if p.strip())
        for g in guards:
            need(e, _check_expr(e, g, chart), guard_only=True)
        cfg = replace(cfg, guards=guards)
    ranges = []
    for key, entry in sampling.items():
        if not key.startswith("range "):
            continue
        pname = key.split(None, 1)[1]
        vals = _floats(entry)
        if len(vals) != 2 or not (vals[0] < vals[1] and math.isfinite(vals[1] - vals[0])):
            raise ConfigError(
                f"range {pname} needs `low, high` with low < high and a finite width",
                entry.line,
                entry.column,
            )
        ranges.append((pname, vals[0], vals[1]))
    cfg = replace(cfg, param_ranges=tuple(ranges))

    topo = sections.get("topology")
    if topo is not None:
        pe = topo.get("points")
        oe = topo.get("opens")
        if pe is None or oe is None:
            raise ConfigError("[topology] needs points and opens keys")
        points = _csv(pe)
        opens = _braced_sets(oe)
        cod_points = _csv(topo["codomain_points"]) if "codomain_points" in topo else ()
        cod_opens = _braced_sets(topo["codomain_opens"]) if "codomain_opens" in topo else ()
        if ("codomain_points" in topo) != ("codomain_opens" in topo):
            raise ConfigError("[topology] codomain needs both points and opens")
        mapping = []
        if "map" in topo:
            me = topo["map"]
            for piece in _csv(me):
                if ":" not in piece:
                    raise ConfigError(
                        f"map entries are `point:image`, got {piece!r}",
                        me.line,
                        me.column,
                    )
                a, _, b = piece.partition(":")
                mapping.append((a.strip(), b.strip()))
        spec = TopologySpec(points, opens, cod_points, cod_opens, tuple(mapping))
        _validate_topology(spec, topo)
        cfg = replace(cfg, topology=spec)

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
                f"parameter {pname!r} has no value; add it to [params]",
                entry.line,
                entry.column,
            )

    if not cfg.selected_batteries():
        raise ConfigError("battery selection matches nothing")
    return cfg


def _validate_topology(spec: TopologySpec, section: dict[str, _Entry]):
    def fail(key: str, message: str):
        entry = section[key]
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
                fail("map", f"map source {a!r} is not a domain point")
            if b not in codomain:
                fail("map", f"map image {b!r} is not a codomain point")
        if set(a for a, _ in spec.map) != domain:
            fail("map", "map must cover every domain point")


def _chart_of(cfg: RunConfig, preset: sy.Preset | None) -> ex.Chart:
    if preset is not None:
        return preset.chart
    if cfg.coordinates:
        return ex.Chart(cfg.coordinates)
    return sy.SPACETIME


# ---------------------------------------------------------------------------
# Config serialization (round-trip partner of parse_config)


def serialize_config(cfg: RunConfig) -> str:
    lines: list[str] = ["[run]"]
    if cfg.preset:
        lines.append(f"preset = {cfg.preset}")
    lines.append(f"battery = {', '.join(cfg.batteries)}")
    lines.append(f"seed = {cfg.seed}")
    lines.append(f"tolerance = {cfg.tolerance!r}")
    if cfg.out:
        lines.append(f"out = {cfg.out}")
    lines.append(f"summary = {'true' if cfg.summary else 'false'}")

    if cfg.coordinates:
        lines += ["", "[chart]", f"coordinates = {', '.join(cfg.coordinates)}"]

    if cfg.action or cfg.velocity or cfg.vector_potential:
        lines += ["", "[system]"]
        if cfg.action:
            lines.append(f"action = {', '.join(cfg.action)}")
        if cfg.velocity:
            lines.append(f"velocity = {', '.join(cfg.velocity)}")
        if cfg.pressure_potential:
            lines.append(f"pressure_potential = {cfg.pressure_potential}")
        if cfg.viscosity:
            lines.append(f"viscosity = {cfg.viscosity}")
        if cfg.vector_potential:
            lines.append(f"vector_potential = {', '.join(cfg.vector_potential)}")
        if cfg.scalar_potential:
            lines.append(f"scalar_potential = {cfg.scalar_potential}")

    if cfg.params:
        lines += ["", "[params]"]
        for name, value in cfg.params:
            lines.append(f"{name} = {value!r}")

    if cfg.lows or cfg.guards or cfg.param_ranges:
        lines += ["", "[sampling]"]
        if cfg.lows:
            lines.append(f"lows = {', '.join(repr(v) for v in cfg.lows)}")
            lines.append(f"highs = {', '.join(repr(v) for v in cfg.highs)}")
        if cfg.guards:
            lines.append(f"guards = {'; '.join(cfg.guards)}")
        for name, lo, hi in cfg.param_ranges:
            lines.append(f"range {name} = {lo!r}, {hi!r}")

    for p in cfg.processes:
        lines += ["", f"[process {p.name}]", f"components = {', '.join(p.components)}"]
        if p.support:
            lines.append(f"support = {p.support}")

    for c in cfg.chains:
        lines += [
            "",
            f"[chain {c.name}]",
            f"degree = {c.degree}",
            f"components = {', '.join(c.components)}",
            f"closed = {'true' if c.closed else 'false'}",
        ]

    if cfg.topology is not None:
        t = cfg.topology
        lines += ["", "[topology]", f"points = {', '.join(t.points)}"]
        lines.append(f"opens = {'; '.join(_fmt_set(s) for s in t.opens)}")
        if t.codomain_points:
            lines.append(f"codomain_points = {', '.join(t.codomain_points)}")
            lines.append(
                f"codomain_opens = {'; '.join(_fmt_set(s) for s in t.codomain_opens)}"
            )
        if t.map:
            lines.append(f"map = {', '.join(f'{a}:{b}' for a, b in t.map)}")
    return "\n".join(lines) + "\n"


def _fmt_set(members: tuple[str, ...]) -> str:
    return "{" + ", ".join(members) + "}"


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
            return ex.eval_at(e, self.probe_point(), self.params)
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

    if cfg.action:
        comps = tuple(ps.parse_scalar(t, chart) for t in cfg.action)
        action = fm.one_form(chart, comps)
    elif cfg.velocity:
        v = tuple(ps.parse_scalar(t, chart) for t in cfg.velocity)
        p_rho = (
            ps.parse_scalar(cfg.pressure_potential, chart)
            if cfg.pressure_potential
            else ex.ZERO
        )
        nu = ps.parse_scalar(cfg.viscosity, chart) if cfg.viscosity else ex.ZERO
        system = sy.FluidSystem(v, p_rho, nu, name="config.fluid")
        action = system.action()
        processes.append(("spacetime", system.spacetime_velocity()))
    elif cfg.vector_potential:
        a = tuple(ps.parse_scalar(t, chart) for t in cfg.vector_potential)
        phi = (
            ps.parse_scalar(cfg.scalar_potential, chart)
            if cfg.scalar_potential
            else ex.ZERO
        )
        system = sy.EMSystem(a, phi, name="config.em")
        action = system.action()

    for spec in cfg.processes:
        comps = tuple(ps.parse_scalar(t, chart) for t in spec.components)
        support = ps.parse_scalar(spec.support, chart) if spec.support else ex.ONE
        processes.append((spec.name, VectorField(chart, comps, support)))

    for spec in cfg.chains:
        pchart = ch.param_chart(spec.degree)
        comps = tuple(ps.parse_scalar(t, pchart) for t in spec.components)
        cell = ch.ExprCell(chart, spec.degree, comps, name=spec.name)
        chains.append(ch.Chain(spec.degree, (cell,), (1,), spec.closed, spec.name))

    for name, value in cfg.params:
        params[name] = value

    if cfg.lows:
        box = Box(
            lows=cfg.lows,
            highs=cfg.highs,
            param_ranges={n: (lo, hi) for n, lo, hi in cfg.param_ranges},
            guards=tuple(ps.parse_scalar(g, chart) for g in cfg.guards),
        )
    elif cfg.guards or cfg.param_ranges:
        box = box or ex.default_box(chart.dim)
        merged = dict(box.param_ranges)
        merged.update({n: (lo, hi) for n, lo, hi in cfg.param_ranges})
        box = Box(
            lows=box.lows,
            highs=box.highs,
            param_ranges=merged,
            guards=box.guards + tuple(ps.parse_scalar(g, chart) for g in cfg.guards),
        )
    box = box or ex.default_box(chart.dim)

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
        for chain in closed_2:
            inv = ch.invariance_check(
                F, chain, J, tol=rt.tol, params=rt.params or None
            )
            record("theorem_I_flux", pname, chain.name, inv)
            if rep.flags.extremal:
                record("theorem_II_helmholtz", pname, chain.name, inv)
        if rep.flags.extremal:
            for chain in closed_1:
                inv = ch.invariance_check(
                    rt.action, chain, J, tol=rt.tol, params=rt.params or None
                )
                record("theorem_III_circulation", pname, chain.name, inv)
            for chain in closed_3:
                inv = ch.invariance_check(
                    H, chain, J, tol=rt.tol, params=rt.params or None
                )
                record("theorem_III_torsion_flux", pname, chain.name, inv)
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
    closed_action = pf.form_is_zero(rt.anatomy.dA, rt.context)
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
    tester = rt.context
    if isinstance(rt.system, sy.FluidSystem):
        s = rt.system
        vort = sy.vorticity_fields(s, tester)  # raises on broken induction identities
        out["vorticity"] = [ex.to_text(c, rt.chart) for c in vort.omega]
        out["acceleration"] = [ex.to_text(c, rt.chart) for c in vort.acceleration]
        checks.append(
            _Check("residuals", "induction_identities", True, detail="curl a + dw/dt = 0, div w = 0")
        )
        euler = sy.euler_residual(s)
        euler_zero = all(tester.test(c).zero for c in euler)
        out["euler_residual"] = [ex.to_text(c, rt.chart) for c in euler]
        out["euler_satisfied"] = euler_zero
        # the engineering comparison computes the momentum residual and the
        # kinematic torsion current it is built from; both are read off it
        eng = sy.ns_engineering_torsion(s, rt.anatomy)
        ns = eng.ns
        out["momentum_residual"] = [ex.to_text(c, rt.chart) for c in ns.residual]
        out["work_form"] = fm.form_to_text(ns.work_form)
        checks.append(
            _Check(
                "residuals",
                "momentum_balance",
                ns.satisfied,
                detail="viscous momentum residual zero verdict",
            )
        )
        torsion = eng.kinematic
        out["torsion_current"] = [ex.to_text(c, rt.chart) for c in torsion.current]
        out["helicity_density"] = ex.to_text(torsion.helicity_density, rt.chart)
        out["anomaly"] = ex.to_text(torsion.anomaly, rt.chart)
        checks.append(
            _Check("residuals", "torsion_balance_law", True, detail="div T + dh/dt = anomaly")
        )
        out["engineering_torsion"] = {
            "current": [ex.to_text(c, rt.chart) for c in eng.current],
            "agrees_on_solution": eng.ns_satisfied,
            "warning": eng.warning,
        }
        mass = sy.mass_current(ex.ONE, s.velocity, tester)
        incompressible = tester.test(mass.residual)
        out["incompressibility"] = _verdict_dict(incompressible)
        checks.append(
            _Check(
                "residuals",
                "mass_conservation_unit_density",
                incompressible.zero,
                detail="div v = 0 with rho = 1",
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
    """The run flags as [run] entries, so that the config's checks apply to them."""
    values = {
        "preset": args.preset,
        "battery": ",".join(args.battery) if args.battery else None,
        "seed": args.seed,
        "tolerance": args.tolerance,
        "out": args.out,
        "summary": args.summary,
    }
    return {k: _Entry(str(v), 0, 0) for k, v in values.items() if v is not None}


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
        sections.setdefault("run", {}).update(_flag_entries(args))
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
    except (ConfigError, ps.ParseError, sy.PresetError, fm.FormError, ch.ChainError,
            th.ThermoError, ex.ExprError) as e:
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
