"""Seeded job generators for the formflow benchmark.

A job is one config text handed to `formflow.cli.parse_config` plus the
answer its report must contain.  Every answer here is derived from the
construction of the input (or, for the bundled presets and shipped configs,
from the physics documented in README.md), never by running formflow.

Nothing in this module imports formflow.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

COORDS = ("x", "y", "z", "t")


@dataclass(frozen=True)
class Expect:
    """Known answer for one report.

    `checks` maps every check name the report must contain to its expected
    pass/fail; a report with a missing or extra check fails.  The other
    fields are optional facts about battery bodies (None means unchecked).
    """

    checks: dict[str, bool]
    pfaff_dimension: int | None = None
    euler_satisfied: bool | None = None
    genus: int | None = None
    period_ratios: tuple[float, ...] | None = None
    topology: dict[str, bool] | None = None


@dataclass(frozen=True)
class Job:
    name: str
    text: str
    expect: Expect
    family: str = ""  # scaling family, for the size-step table
    step: int = 0  # size parameter within the family
    size_exprs: tuple[str, ...] = field(default=(), repr=False)  # inputs whose tree size is reported


def _checks(passing: list[str]) -> dict[str, bool]:
    return {name: True for name in passing}


# ---------------------------------------------------------------------------
# presets: the six bundled presets and the three shipped configs

_PFAFF_BASE = ["base_disconnection_matches_dimension", "low_dimension_forces_genus_3"]
_FLUID_RESIDUALS = [
    "induction_identities",
    "mass_conservation_unit_density",
    "momentum_balance",
    "torsion_balance_law",
]


def _battery_checks(**by_battery: list[str]) -> dict[str, bool]:
    return _checks([name for names in by_battery.values() for name in names])


def _thermo(process: str, closed: bool) -> list[str]:
    out = [f"category_assigned.{process}", f"work_transversality.{process}"]
    if closed:
        out.append(f"closed_flow_second_variation.{process}")
    return out


def _extremal_theorems(process: str, circles=(), tori=(), shells=(), closed=True) -> list[str]:
    """Checks the theorems battery emits for an extremal process.

    Flux (I) and Helmholtz (II) on every closed 2-chain, circulation (III)
    on every closed 1-chain, torsion flux (III) on every closed 3-chain,
    and the radiation period (IV) on every 1-chain when the flow is closed.
    """
    out = []
    for c in tori:
        out += [f"theorem_I_flux.{process}.{c}", f"theorem_II_helmholtz.{process}.{c}"]
    for c in circles:
        out.append(f"theorem_III_circulation.{process}.{c}")
        if closed:
            out.append(f"theorem_IV_radiation_period.{process}.{c}")
    for c in shells:
        out.append(f"theorem_III_torsion_flux.{process}.{c}")
    return out


# Pfaff dimensions, by hand from A = v.dx - (|v|^2/2 + p) dt for fluids
# and A = a.dx - phi dt for potentials:
#   rigid rotation: A^dA = 2 W^3 (x^2 + y^2 - r^2) dx dy dt = 0          -> 2
#   decaying shear, Couette: A^dA ~ f^2 f_y dx dy dt != 0, no dz in dA -> 3
#   Beltrami ABC:   H = 1.5, dA = curl v is spatial, A^dA = |v|^2 dV     -> 3
#   plane wave:     A = cos(z - t) dy, A^dA = 0                          -> 2
#   rotating potential with axial bias: E.B != 0                         -> 4
#   winding:        closed, dA = 0                                       -> 1
_TORSION_PRESET = dict(
    checks=_battery_checks(
        pfaff=_PFAFF_BASE,
        residuals=["field_identities"],
        theorems=[
            "theorem_IV_radiation_period.timelike.circle",
            "theorem_I_flux.timelike.torus",
            "theorem_I_flux.torsion.torus",
        ],
        thermo=_thermo("timelike", True) + ["category_assigned.torsion", "work_transversality.torsion"],
    ),
    pfaff_dimension=4,
    genus=2,
)

PRESET_EXPECT: dict[str, Expect] = {
    "euler.rigid_rotation": Expect(
        _battery_checks(
            pfaff=_PFAFF_BASE,
            residuals=_FLUID_RESIDUALS,
            theorems=_extremal_theorems("spacetime", ["circle"], ["torus"], ["shell"])
            + [
                "theorem_IV_radiation_period.spatial.circle",
                "theorem_I_flux.probe.torus",
                "theorem_I_flux.spatial.torus",
            ],
            thermo=_thermo("spacetime", True) + _thermo("spatial", True) + _thermo("probe", False),
        ),
        pfaff_dimension=2,
        euler_satisfied=True,
        genus=3,
    ),
    "ns.decaying_shear": Expect(
        _battery_checks(
            pfaff=_PFAFF_BASE,
            residuals=_FLUID_RESIDUALS,
            theorems=["theorem_I_flux.spacetime.torus"],
            thermo=_thermo("spacetime", False),
        ),
        pfaff_dimension=3,
        euler_satisfied=False,  # viscous: only the Navier-Stokes balance holds
    ),
    "fluid.beltrami_abc": Expect(
        _battery_checks(
            pfaff=_PFAFF_BASE,
            residuals=_FLUID_RESIDUALS,
            theorems=_extremal_theorems("spacetime", ["circle"], ["torus"], ["shell"]),
            thermo=_thermo("spacetime", True),
        ),
        pfaff_dimension=3,
        euler_satisfied=True,
    ),
    "em.plane_wave": Expect(
        _battery_checks(
            pfaff=_PFAFF_BASE,
            residuals=["field_identities"],
            theorems=_extremal_theorems("ray", ["circle"], ["torus"]),
            thermo=_thermo("ray", True),
        ),
        pfaff_dimension=2,
        genus=3,
    ),
    "em.torsion_nonzero": Expect(**_TORSION_PRESET),
    "harmonic.winding": Expect(
        _battery_checks(
            periods=["integer_ratio.circle", "integer_ratio.winding2"],
            pfaff=_PFAFF_BASE,
            theorems=_extremal_theorems("translate_x", ["circle", "winding2"]),
            thermo=_thermo("translate_x", True),
        ),
        pfaff_dimension=1,
        period_ratios=(-1.0, -2.0),  # counterclockwise: period -2 pi sigma w
    ),
}

CONFIG_EXPECT: dict[str, Expect] = {
    "couette_shear.cfg": Expect(
        _battery_checks(
            pfaff=_PFAFF_BASE,
            theorems=_extremal_theorems("drift", ["loop"]) + _extremal_theorems("spacetime", ["loop"]),
            thermo=_thermo("drift", True) + _thermo("spacetime", True),
        ),
        pfaff_dimension=3,
    ),
    "em_torsion.cfg": Expect(**_TORSION_PRESET),
    # map continuous, inverse image assignment not open (configs/figure1.cfg)
    "figure1.cfg": Expect(
        _checks(["continuity_definitions_agree"]),
        topology={
            "forward_continuous": True,
            "closure_definition_continuous": True,
            "inverse_continuous": False,
        },
    ),
}


def presets(seed: int, root: Path) -> list[Job]:
    """The bundled presets with every battery, then the shipped configs.

    The inputs are fixed: the seed does not change them.
    """
    del seed
    jobs = [
        Job(name, f"[run]\npreset = {name}\nbattery = all\n", expect)
        for name, expect in PRESET_EXPECT.items()
    ]
    for fname, expect in CONFIG_EXPECT.items():
        text = (root / "configs" / fname).read_text(encoding="utf-8")
        jobs.append(Job(fname, text, expect))
    return jobs


# ---------------------------------------------------------------------------
# symbolic: phase-shifted ABC flows and Pfaff-class polynomial actions

ABC_MODES = (1, 2, 4, 8)
PFAFF_DEGREES = (2, 3)


def _num(v: float) -> str:
    return repr(round(v, 6))


def abc_velocity(n_modes: int, rng: random.Random) -> tuple[str, str, str]:
    """Sum of n Beltrami modes, each with curl eigenvalue 1.

    Mode k runs along axis k mod 3 with amplitude a and phase c:
      along z: a (sin(z + c), cos(z + c), 0)
      along x: a (0, sin(x + c), cos(x + c))
      along y: a (cos(y + c), 0, sin(y + c))
    so curl v = v and the flow with pressure potential -|v|^2/2 is a
    steady Euler solution.
    """
    comps: list[list[str]] = [[], [], []]
    for k in range(n_modes):
        a = _num(rng.uniform(0.5, 1.5))
        c = _num(rng.uniform(0.0, 2.0 * math.pi))
        axis = (2, 0, 1)[k % 3]
        arg = f"{COORDS[axis]} + {c}"
        sin_i, cos_i = {2: (0, 1), 0: (1, 2), 1: (2, 0)}[axis]
        comps[sin_i].append(f"{a}*sin({arg})")
        comps[cos_i].append(f"{a}*cos({arg})")
    return tuple(" + ".join(c) if c else "0" for c in comps)  # type: ignore[return-value]


def abc_job(n_modes: int, rng: random.Random, run_seed: int) -> Job:
    v = abc_velocity(n_modes, rng)
    pressure = "-0.5*(" + " + ".join(f"({c})^2" for c in v) + ")"
    text = (
        "[run]\n"
        "battery = pfaff, thermo, residuals\n"
        f"seed = {run_seed}\n\n"
        "[system]\n"
        f"velocity = {', '.join(v)}\n"
        f"pressure_potential = {pressure}\n"
    )
    # H = |v|^2/2 + p = 0, so A = v.dx, dA = curl v dx = v dx (spatial):
    # A^dA = |v|^2 dV != 0 and dA^dA = 0 -> Pfaff dimension 3.  The
    # spacetime process is extremal and i(V)dA = 0, so its flow is closed.
    expect = Expect(
        _battery_checks(
            pfaff=_PFAFF_BASE, residuals=_FLUID_RESIDUALS, thermo=_thermo("spacetime", True)
        ),
        pfaff_dimension=3,
        euler_satisfied=True,
    )
    return Job(f"abc.{n_modes}", text, expect, "abc", n_modes, v)


# Polynomials are {exponent tuple: integer coefficient} over (x, y, z, t).
Poly = dict[tuple[int, int, int, int], int]


def random_poly(lead: int, degree: int, rng: random.Random) -> Poly:
    """coordinate[lead] plus c_k * x[lead+1]^(k-1) * x[lead+k] for k = 2..degree,
    indices mod 4, with seeded coefficients c_k in +-{1, 2, 3}.

    The monomials are fixed so that the cost of a report depends on the
    degree, not on the seed.  The linear lead term makes the gradients of
    polynomials with different leads independent at the origin, which fixes
    the Pfaff dimension.
    """
    p: Poly = {tuple(int(i == lead) for i in range(4)): 1}  # type: ignore[misc]
    for k in range(2, degree + 1):
        m = [0, 0, 0, 0]
        m[(lead + 1) % 4] += k - 1
        m[(lead + k) % 4] += 1
        p[tuple(m)] = rng.choice((-3, -2, -1, 1, 2, 3))  # type: ignore[index]
    return p


def poly_diff(p: Poly, i: int) -> Poly:
    out: Poly = {}
    for m, c in p.items():
        if m[i]:
            dm = tuple(e - (j == i) for j, e in enumerate(m))
            out[dm] = out.get(dm, 0) + c * m[i]  # type: ignore[index]
    return {m: c for m, c in out.items() if c}


def poly_text(p: Poly) -> str:
    terms = []
    for m, c in sorted(p.items(), key=lambda mc: (-sum(mc[0]), mc[0])):
        factors = [
            COORDS[i] if e == 1 else f"{COORDS[i]}^{e}" for i, e in enumerate(m) if e
        ]
        mono = "*".join(factors)
        mag = abs(c)
        body = mono if mono and mag == 1 else f"{mag}*{mono}" if mono else str(mag)
        terms.append(("- " if c < 0 else "+ ") + body)
    if not terms:
        return "0"
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _term(f: Poly | None, g: Poly) -> str:
    """Text of f * g, or of g alone when f is None; "" when g is zero."""
    if not g:
        return ""
    return poly_text(g) if f is None else f"({poly_text(f)})*({poly_text(g)})"


def _join(*parts: str) -> str:
    kept = [p for p in parts if p]
    return " + ".join(kept) if kept else "0"


def pfaff_action(cls: int, degree: int, rng: random.Random) -> tuple[str, ...]:
    """Components of a 1-form with Pfaff dimension `cls`:
    1: d(phi)   2: g d(phi)   3: d(phi) + g d(psi)   4: f d(g) + h d(k).
    """
    if cls not in _PFAFF_TERMS:
        raise ValueError(f"Pfaff class must be 1..4, got {cls}")
    p = [random_poly(lead, degree, rng) for lead in range(cls)]
    terms = [(None if f is None else p[f], p[g]) for f, g in _PFAFF_TERMS[cls]]
    return tuple(_join(*(_term(f, poly_diff(g, i)) for f, g in terms)) for i in range(4))


# Pfaff class -> terms f d(g) of the action, as polynomial indices (None: f = 1).
_PFAFF_TERMS = {1: [(None, 0)], 2: [(1, 0)], 3: [(None, 0), (1, 2)], 4: [(0, 1), (2, 3)]}


def pfaff_job(cls: int, degree: int, rng: random.Random, run_seed: int) -> Job:
    comps = pfaff_action(cls, degree, rng)
    text = (
        "[run]\n"
        "battery = pfaff\n"
        f"seed = {run_seed}\n\n"
        "[system]\n"
        f"action = {', '.join(comps)}\n"
    )
    return Job(
        f"pfaff{cls}.deg{degree}",
        text,
        Expect(_checks(_PFAFF_BASE), pfaff_dimension=cls),
        f"pfaff{cls}",
        degree,
        comps,
    )


def symbolic(seed: int, root: Path) -> list[Job]:
    """ABC flows with 1, 2, 4 and 8 modes; Pfaff classes 1..4 at degrees 2 and 3."""
    del root
    rng = random.Random(f"symbolic:{seed}")
    jobs = [abc_job(n, rng, rng.randrange(1, 2**31)) for n in ABC_MODES]
    for degree in PFAFF_DEGREES:
        for cls in (1, 2, 3, 4):
            jobs.append(pfaff_job(cls, degree, rng, rng.randrange(1, 2**31)))
    return jobs


# ---------------------------------------------------------------------------
# transport: advected chains on rigid rotation, periods of the winding form

KELVIN_CONFIGS = 5
CIRCLES, TORI = 3, 1
WINDING_CONFIGS = 3


def _unit_frame(rng: random.Random) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Two orthonormal spatial directions at a random orientation."""
    def unit(v):
        n = math.sqrt(sum(c * c for c in v))
        return tuple(c / n for c in v)

    e1 = unit([rng.gauss(0, 1) for _ in range(3)])
    w = [rng.gauss(0, 1) for _ in range(3)]
    dot = sum(a * b for a, b in zip(w, e1))
    e2 = unit([a - dot * b for a, b in zip(w, e1)])
    return e1, e2


def _circle_text(center, e1, e2, radius: float, turns: int, t0: float) -> str:
    ang = f"{2 * turns}*pi*u0"
    comps = [
        f"{_num(center[i])} + {_num(radius * e1[i])}*cos({ang}) + {_num(radius * e2[i])}*sin({ang})"
        for i in range(3)
    ]
    return ", ".join(comps + [_num(t0)])


def _torus_text(center, big: float, small: float, t0: float) -> str:
    ring = f"({_num(big)} + {_num(small)}*cos(2*pi*u1))"
    return ", ".join(
        [
            f"{_num(center[0])} + {ring}*cos(2*pi*u0)",
            f"{_num(center[1])} + {ring}*sin(2*pi*u0)",
            f"{_num(center[2])} + {_num(small)}*sin(2*pi*u1)",
            _num(t0),
        ]
    )


def _shell_text(big: float, small: float, sway: float) -> str:
    ring = f"({_num(big)} + {_num(small)}*cos(2*pi*u2))"
    return ", ".join(
        [
            f"{ring}*cos(2*pi*u0)",
            f"{ring}*sin(2*pi*u0)",
            f"{_num(small)}*sin(2*pi*u2) + {_num(sway)}*cos(2*pi*u1)",
            f"{_num(sway)}*sin(2*pi*u1)",
        ]
    )


def _chain(name: str, degree: int, comps: str) -> str:
    return f"[chain {name}]\ndegree = {degree}\ncomponents = {comps}\nclosed = true\n"


def kelvin_job(index: int, rng: random.Random) -> Job:
    """Rigid rotation with centripetal pressure, an Euler solution: every
    circulation, flux and torsion-flux integral over a closed chain is
    invariant along the spacetime flow (Kelvin, Helmholtz)."""
    w = _num(rng.uniform(0.5, 1.0))
    chains, circles, tori = [], [], []
    for i in range(CIRCLES):
        e1, e2 = _unit_frame(rng)
        center = [rng.uniform(-0.5, 0.5) for _ in range(3)]
        name = f"circle{i}"
        circles.append(name)
        chains.append(_chain(name, 1, _circle_text(center, e1, e2, rng.uniform(0.3, 0.9), 1,
                                                   rng.uniform(-0.5, 0.5))))
    for i in range(TORI):
        center = [rng.uniform(-0.3, 0.3) for _ in range(3)]
        name = f"torus{i}"
        tori.append(name)
        chains.append(_chain(name, 2, _torus_text(center, rng.uniform(0.8, 1.4),
                                                  rng.uniform(0.2, 0.5), rng.uniform(-0.5, 0.5))))
    chains.append(_chain("shell", 3, _shell_text(rng.uniform(1.2, 1.6), rng.uniform(0.3, 0.6),
                                                  rng.uniform(0.1, 0.3))))
    text = (
        "[run]\nbattery = theorems\n\n"
        "[system]\n"
        "velocity = -W*y, W*x, 0\n"
        "pressure_potential = 0.5*W^2*(x^2 + y^2)\n\n"
        f"[params]\nW = {w}\n\n" + "\n".join(chains)
    )
    expect = Expect(
        _checks(_extremal_theorems("spacetime", circles, tori, ["shell"])),
    )
    return Job(f"kelvin.{index}", text, expect)


def winding_job(index: int, rng: random.Random) -> Job:
    """sigma (y dx - x dy)/(x^2 + y^2) is closed; its period over a loop
    that winds w times around the z axis is -2 pi sigma w, and zero over a
    loop that avoids the axis.  Every loop is counterclockwise in its
    z = const plane and the first winds once, so the ratios to the smallest
    nonzero period are minus the winding numbers."""
    sigma = _num(rng.uniform(0.5, 2.0))
    turns = [rng.choice((1, 2, 3)) for _ in range(3)] + [0, 0]
    turns[0] = 1  # the smallest nonzero period is one full turn
    chains, names = [], []
    for i, w in enumerate(turns):
        # Quadrature keeps the integer test at 1e-6 only for loops nearly
        # centred on the axis (offset <= r/20) or far from it (>= 4r).
        r = rng.uniform(0.3, 0.6)
        off = r * (rng.uniform(0.0, 0.05) if w else rng.uniform(4.0, 5.0))
        phi = rng.uniform(0.0, 2 * math.pi)
        center = (off * math.cos(phi), off * math.sin(phi), rng.uniform(-0.5, 0.5))
        name = f"loop{i}"
        names.append(name)
        chains.append(_chain(name, 1, _circle_text(center, (1, 0, 0), (0, 1, 0), r, max(w, 1),
                                                   rng.uniform(-0.5, 0.5))))
    text = (
        "[run]\nbattery = periods\n\n"
        "[system]\n"
        "action = sigma*y/(x^2 + y^2), -sigma*x/(x^2 + y^2), 0, 0\n\n"
        f"[params]\nsigma = {sigma}\n\n"
        "[sampling]\nlows = -1.0, -1.0, -1.0, -1.0\nhighs = 1.0, 1.0, 1.0, 1.0\n"
        "guards = x^2 + y^2\n\n" + "\n".join(chains)
    )
    expect = Expect(
        _checks([f"integer_ratio.{n}" for n in names]),
        period_ratios=tuple(-float(w) for w in turns),
    )
    return Job(f"winding.{index}", text, expect)


def transport(seed: int, root: Path) -> list[Job]:
    del root
    rng = random.Random(f"transport:{seed}")
    jobs = [kelvin_job(i, rng) for i in range(KELVIN_CONFIGS)]
    jobs += [winding_job(i, rng) for i in range(WINDING_CONFIGS)]
    return jobs


WORKLOADS = {"presets": presets, "symbolic": symbolic, "transport": transport}
