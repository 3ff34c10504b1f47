"""The six batteries of a run, and one declaration per kind of check.

A battery reads the run's Runtime, returns its body of the report and adds
its checks through Checks.add, which makes each check from its kind's row
of CHECKS and the evidence and fields the battery hands over.  Batteries
call the library through module attributes (sy.fluid_diagnostics,
ft.is_continuous, ...), so wrapping a module attribute sees every call.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import chains as ch
from . import expr as ex
from . import finite_topology as ft
from . import forms as fm
from . import pfaff as pf
from . import systems as sy
from . import thermo as th
from .expr import ZeroVerdict
from .forms import DifferentialForm, VectorField

if TYPE_CHECKING:  # config imports this module for the battery names
    from .config import TopologySpec

__all__ = ["BATTERY_FUNCS", "CHECKS", "EVIDENCE", "CheckKind", "Checks", "Runtime"]

# evidence kind -> (passed, value, tolerance) of the evidence a battery hands over
EVIDENCE = {
    "identity": lambda _: (True, None, None),  # the battery raises where it fails
    "verdict": lambda zero: (bool(zero), None, None),  # a zero verdict, or several ANDed
    "numeric": lambda pair: (abs(pair[0]) <= pair[1], *pair),  # (value, tolerance)
    "invariance": lambda inv: (inv.passed, inv.derivative_estimate, inv.tolerance * inv.scale),
    "fact": lambda holds: (bool(holds), None, None),  # a boolean cross-check
}

# One row per kind of check, keyed by its name pattern's first part; the
# pattern's and the detail's {fields} are filled in per check
CheckKind = namedtuple("CheckKind", "battery pattern evidence detail")
CHECKS = {
    row[1].partition(".")[0]: CheckKind(*row)
    for row in (
        ("pfaff", "base_disconnection_matches_dimension", "fact",
         "dimension {dimension}, disconnected {disconnected}"),
        ("pfaff", "low_dimension_forces_genus_3", "fact", "genus {genus}, dimension {dimension}"),
        ("thermo", "work_transversality.{process}", "verdict", "i(J)W = 0"),
        ("thermo", "category_assigned.{process}", "fact", "{category}"),
        ("thermo", "closed_flow_second_variation.{process}", "fact",
         "R exact with vanishing periods"),
        ("theorems", "theorem_I_flux.{process}.{chain}", "invariance", ""),
        ("theorems", "theorem_II_helmholtz.{process}.{chain}", "invariance", ""),
        ("theorems", "theorem_III_circulation.{process}.{chain}", "invariance", ""),
        ("theorems", "theorem_III_torsion_flux.{process}.{chain}", "invariance", ""),
        ("theorems", "theorem_IV_radiation_period.{process}.{chain}", "numeric", ""),
        ("periods", "integer_ratio.{cycle}", "numeric", ""),
        ("residuals", "induction_identities", "identity", "curl a + dw/dt = 0, div w = 0"),
        ("residuals", "momentum_balance", "verdict", "viscous momentum residual zero verdict"),
        ("residuals", "torsion_balance_law", "identity", "div T + dh/dt = anomaly"),
        ("residuals", "mass_conservation_unit_density", "verdict", "div v = 0 with rho = 1"),
        ("residuals", "field_identities", "identity",
         "dF = 0, current list, gamma = E.B, parity = 2 E.B, divergence law"),
        ("topology", "continuity_definitions_agree", "fact", "preimage and closure definitions"),
    )
}


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


class Checks(list):
    """The checks of one run; add makes each, from its kind's row of CHECKS."""

    def add(self, kind: str, evidence=None, **fields) -> _Check:
        battery, pattern, how, detail = CHECKS[kind]
        passed, value, tolerance = EVIDENCE[how](evidence)
        self.append(_Check(battery, pattern.format(**fields), passed, value, tolerance,
                           detail.format(**fields)))
        return self[-1]


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
class Runtime:
    """One run's inputs and the anatomy of its action.

    anatomy.context is the run's zero tester: the resolved box with the
    config's seed.  Every sampled verdict of the run uses it.
    """

    topology: TopologySpec | None  # read by the topology battery
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


# ---------------------------------------------------------------------------
# Batteries


def _battery_pfaff(rt: Runtime, checks: Checks) -> dict:
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
    checks.add("base_disconnection_matches_dimension", base.disconnected == (seq.dimension >= 3),
               dimension=seq.dimension, disconnected=base.disconnected)
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
        checks.add("low_dimension_forces_genus_3", genus.genus == 3 or seq.dimension >= 3,
                   genus=genus.genus, dimension=seq.dimension)
        out["frobenius_integrable"] = not base.disconnected
    return out


def _battery_thermo(rt: Runtime, checks: Checks) -> dict:
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
        checks.add("work_transversality", transversal, process=name)
        checks.add("category_assigned", rep.category != th.CATEGORY_UNCLASSIFIED,
                   process=name, category=rep.category)
        if rep.flags.closed_flow:
            ok = (
                rep.second.dR_zero
                and rep.second.exactness_residual_zero
                and rep.second.wedge_comparison_zero
                and rep.second.periods_vanish is not False
            )
            checks.add("closed_flow_second_variation", ok, process=name)
    return out


def _battery_theorems(rt: Runtime, checks: Checks) -> dict:
    out: dict = {}
    F, H = rt.anatomy.dA, rt.anatomy.H
    closed_2 = [c for c in rt.chains if c.degree == 2 and c.closed]
    closed_1 = rt.anatomy.cycles
    closed_3 = [c for c in rt.chains if c.degree == 3 and c.closed]

    def record(kind: str, pname: str, cname: str, inv: ch.InvarianceResult):
        check = checks.add(kind, inv, process=pname, chain=cname)
        out[check.name] = {
            "derivative_estimate": inv.derivative_estimate,
            "lie_integral": inv.lie_integral,
            "scale": inv.scale,
            "mode": inv.mode,
            "passed": inv.passed,
        }

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
                check = checks.add("theorem_IV_radiation_period", (result.value, bound),
                                   process=pname, chain=chain.name)
                out[check.name] = {
                    "period": result.value,
                    "scale": result.scale,
                    "passed": check.passed,
                }
    return out


def _battery_periods(rt: Runtime, checks: Checks) -> dict:
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
        checks.add("integer_ratio", (dev, rt.tol), cycle=cycle.name)
    return out


def _battery_residuals(rt: Runtime, checks: Checks) -> dict:
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
        checks.add("induction_identities")
        checks.add("momentum_balance", rep.ns.satisfied)
        checks.add("torsion_balance_law")
        checks.add("mass_conservation_unit_density", rep.incompressible)
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
        checks.add("field_identities")
    else:
        out["applicable"] = False
    return out


def _battery_topology(rt: Runtime, checks: Checks) -> dict:
    spec = rt.topology
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
    checks.add("continuity_definitions_agree", bool(forward) == bool(closure_def))
    return out


# in report order: config.BATTERIES is this table's keys
BATTERY_FUNCS = {
    "pfaff": _battery_pfaff,
    "thermo": _battery_thermo,
    "theorems": _battery_theorems,
    "periods": _battery_periods,
    "residuals": _battery_residuals,
    "topology": _battery_topology,
}
