"""Built-in model systems: kinematic fluids and electromagnetic potentials.

Each system packages a velocity or potential description, derives the
action 1-form it induces on the (x, y, z, t) chart, and exposes the
diagnostics that connect vector-calculus identities to the exterior
calculus: vorticity and acceleration fields, Euler and Navier-Stokes
residuals, torsion currents with their balance law, mass currents, and
field invariants.  Presets are bundled config texts, each a concrete system
with registered test chains, read by formflow.config as a user's config is,
so the CLI and the test suite can run every diagnostic end to end.

Sign convention. The torsion 3-form is converted to a 4-component current
through i(T)Omega = A^dA with Omega = dx^dy^dz^dt.  The classical
component list (T_x, T_y, T_z, h) used in the vector-calculus statements
below is the negative of that solving vector; COMPONENT_LIST_SIGN records
the factor once.  With it, every divergence law here reads exactly as its
classical form: div T + dh/dt equals the stated anomaly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import chains as ch
from . import expr as ex
from . import forms as fm
from . import pfaff as pf
from . import thermo as th
from .expr import Box, ScalarExpr, ZeroTester
from .forms import DifferentialForm, VectorField
from .pfaff import Anatomy

__all__ = [
    "COMPONENT_LIST_SIGN",
    "SPACETIME",
    "EMReport",
    "EMSystem",
    "EngineeringTorsion",
    "FluidReport",
    "FluidSystem",
    "MassCurrent",
    "NSReport",
    "Preset",
    "PresetError",
    "TorsionCurrent",
    "VorticityFields",
    "em_diagnostics",
    "euler_residual",
    "fluid_diagnostics",
    "get_preset",
    "mass_current",
    "navier_stokes_residual",
    "ns_engineering_torsion",
    "preset_names",
    "torsion_current",
    "transversal_current_comparison",
    "vorticity_fields",
]

SPACETIME = ex.spacetime_chart()

# The classical (T_x, T_y, T_z, h) list is -1 times the vector solving
# i(T)Omega = A^dA in the x,y,z,t orientation.
COMPONENT_LIST_SIGN = -1

Vec3 = tuple[ScalarExpr, ScalarExpr, ScalarExpr]


class PresetError(Exception):
    """Unknown preset name or invalid preset request."""


# ---------------------------------------------------------------------------
# Three-vector calculus on the spacetime chart (indices 0,1,2 spatial, 3 time)


def _d(e: ScalarExpr, i: int) -> ScalarExpr:
    return ex.differentiate(e, i)


def _grad(f: ScalarExpr) -> Vec3:
    return (_d(f, 0), _d(f, 1), _d(f, 2))


def _curl(u: Vec3) -> Vec3:
    return (
        ex.add(_d(u[2], 1), ex.negate(_d(u[1], 2))),
        ex.add(_d(u[0], 2), ex.negate(_d(u[2], 0))),
        ex.add(_d(u[1], 0), ex.negate(_d(u[0], 1))),
    )


def _div(u: Vec3) -> ScalarExpr:
    return ex.add(_d(u[0], 0), _d(u[1], 1), _d(u[2], 2))


def _cross(u: Vec3, v: Vec3) -> Vec3:
    return (
        ex.add(ex.mul(u[1], v[2]), ex.negate(ex.mul(u[2], v[1]))),
        ex.add(ex.mul(u[2], v[0]), ex.negate(ex.mul(u[0], v[2]))),
        ex.add(ex.mul(u[0], v[1]), ex.negate(ex.mul(u[1], v[0]))),
    )


def _dot(u: Vec3, v: Vec3) -> ScalarExpr:
    return ex.add(ex.mul(u[0], v[0]), ex.mul(u[1], v[1]), ex.mul(u[2], v[2]))


def _time(u: Vec3) -> Vec3:
    return (_d(u[0], 3), _d(u[1], 3), _d(u[2], 3))


def _add3(u: Vec3, v: Vec3) -> Vec3:
    return tuple(ex.add(a, b) for a, b in zip(u, v))


def _sub3(u: Vec3, v: Vec3) -> Vec3:
    return tuple(ex.add(a, ex.negate(b)) for a, b in zip(u, v))


def _scale3(f: ScalarExpr, u: Vec3) -> Vec3:
    return tuple(ex.mul(f, c) for c in u)


def _neg3(u: Vec3) -> Vec3:
    return tuple(ex.negate(c) for c in u)


def _as_vec3(components) -> Vec3:
    comps = tuple(ex.as_expr(c) for c in components)
    if len(comps) != 3:
        raise fm.FormError(f"expected 3 components, got {len(comps)}")
    return comps


def _require_listed(T: VectorField, listed, context: ZeroTester, what: str) -> None:
    """The solving vector T must equal COMPONENT_LIST_SIGN times a classical
    (T_x, T_y, T_z, h) list."""
    sign = ex.Const(COMPONENT_LIST_SIGN)
    gaps = [ex.add(t, ex.negate(ex.mul(sign, c))) for t, c in zip(T.components, listed)]
    pf.require_zero(gaps, context, what)


def _transversal_form(coeffs: Vec3, v: Vec3) -> DifferentialForm:
    """Sum of c_i (dx^i - v^i dt): the co-moving 1-form format."""
    dt_coeff = ex.negate(_dot(coeffs, v))
    return fm.one_form(SPACETIME, (coeffs[0], coeffs[1], coeffs[2], dt_coeff))


# ---------------------------------------------------------------------------
# Systems


@dataclass(frozen=True)
class FluidSystem:
    """Kinematic fluid: velocity, barotropic pressure potential, viscosity.

    pressure_potential stands for the accumulated grad P / rho term, so the
    stream function H = v.v/2 + pressure_potential drives the dynamics.
    The derived fields omega, acceleration, curl_omega and euler are each
    built on first use and kept; the diagnostics below read them.
    """

    velocity: Vec3
    pressure_potential: ScalarExpr = ex.ZERO
    viscosity: ScalarExpr = ex.ZERO

    def __post_init__(self):
        object.__setattr__(self, "velocity", _as_vec3(self.velocity))
        object.__setattr__(
            self, "pressure_potential", ex.as_expr(self.pressure_potential)
        )
        object.__setattr__(self, "viscosity", ex.as_expr(self.viscosity))

    @property
    def chart(self) -> ex.Chart:
        return SPACETIME

    def hamiltonian(self) -> ScalarExpr:
        v = self.velocity
        return ex.add(ex.mul(ex.Const(0.5), _dot(v, v)), self.pressure_potential)

    def action(self) -> DifferentialForm:
        v = self.velocity
        return fm.one_form(
            SPACETIME, (v[0], v[1], v[2], ex.negate(self.hamiltonian()))
        )

    def spacetime_velocity(self) -> VectorField:
        v = self.velocity
        return VectorField(SPACETIME, (v[0], v[1], v[2], ex.ONE))

    def spatial_velocity(self) -> VectorField:
        v = self.velocity
        return VectorField(SPACETIME, (v[0], v[1], v[2], ex.ZERO))

    @cached_property
    def omega(self) -> Vec3:
        """Vorticity curl v."""
        return _curl(self.velocity)

    @cached_property
    def acceleration(self) -> Vec3:
        """a = -dv/dt - grad H."""
        return _sub3(_neg3(_time(self.velocity)), _grad(self.hamiltonian()))

    @cached_property
    def curl_omega(self) -> Vec3:
        """curl omega, the rotational part of -Laplacian(v)."""
        return _curl(self.omega)

    @cached_property
    def euler(self) -> Vec3:
        """dv/dt + grad(v.v/2) - v x curl v + grad(pressure potential)."""
        v = self.velocity
        return _add3(
            _add3(_time(v), _grad(ex.mul(ex.Const(0.5), _dot(v, v)))),
            _sub3(_grad(self.pressure_potential), _cross(v, self.omega)),
        )


@dataclass(frozen=True)
class EMSystem:
    """Electromagnetic potentials on the spacetime chart."""

    vector_potential: Vec3
    scalar_potential: ScalarExpr = ex.ZERO

    def __post_init__(self):
        object.__setattr__(
            self, "vector_potential", _as_vec3(self.vector_potential)
        )
        object.__setattr__(
            self, "scalar_potential", ex.as_expr(self.scalar_potential)
        )

    @property
    def chart(self) -> ex.Chart:
        return SPACETIME

    def action(self) -> DifferentialForm:
        a = self.vector_potential
        return fm.one_form(
            SPACETIME, (a[0], a[1], a[2], ex.negate(self.scalar_potential))
        )

    def fields(self) -> tuple[Vec3, Vec3]:
        """(E, B) with B = curl of the vector potential and
        E = -d(vector potential)/dt - grad of the scalar potential."""
        B = _curl(self.vector_potential)
        E = _sub3(_neg3(_time(self.vector_potential)), _grad(self.scalar_potential))
        return E, B


# ---------------------------------------------------------------------------
# Fluid diagnostics


@dataclass(frozen=True)
class VorticityFields:
    omega: Vec3  # curl v
    acceleration: Vec3  # -dv/dt - grad H
    F: DifferentialForm  # dA, assembled from (omega, a) and cross-checked


def vorticity_fields(s: FluidSystem, context: ZeroTester) -> VorticityFields:
    """Vorticity and acceleration with their induction identities.

    The 2-form F is assembled directly from (omega, a) and must agree with
    d(action); curl a + d(omega)/dt = 0 and div omega = 0 must vanish on
    `context`, the run's zero tester.  Failures raise: these hold for any
    twice-differentiable velocity, so a failure is a library bug, not a
    modeling problem.
    """
    omega, a = s.omega, s.acceleration
    F_built = fm.form_from_coeffs(
        SPACETIME,
        2,
        {
            (0, 1): omega[2],
            (1, 2): omega[0],
            (0, 2): ex.negate(omega[1]),
            (0, 3): a[0],
            (1, 3): a[1],
            (2, 3): a[2],
        },
    )
    dA = fm.exterior_derivative(s.action())
    what = "assembled vorticity 2-form disagrees with d(action)"
    pf.require_zero(fm.sub_forms(F_built, dA), context, what)
    pf.require_zero(
        _add3(_curl(a), _time(omega)), context, "curl a + d(omega)/dt failed to vanish"
    )
    pf.require_zero(_div(omega), context, "div omega failed to vanish")
    return VorticityFields(omega, a, F_built)


def euler_residual(s: FluidSystem) -> Vec3:
    """dv/dt + grad(v.v/2) - v x curl v + grad(pressure potential).

    Zero exactly when the spacetime velocity (v, 1) is extremal for the
    action: i(V)dA = residual . (dx - v dt).
    """
    return s.euler


@dataclass(frozen=True)
class NSReport:
    residual: Vec3  # Euler residual + nu curl curl v
    work_form: DifferentialForm  # -nu (curl omega) . (dx - v dt)
    satisfied: bool  # zero verdict of the residual


def navier_stokes_residual(s: FluidSystem, anatomy: Anatomy) -> NSReport:
    """Viscous momentum residual and the dissipative work 1-form.

    The residual adds nu curl(curl v) to the Euler residual, so zero means
    the classical viscous momentum balance holds (the viscous force enters
    as -nu curl curl v, the rotational part of nu Laplacian(v)).  The work
    form is the transversal format -nu (curl omega) . (dx - v dt); the
    identity  i(V)dA - work_form = residual . (dx - v dt)  is checked on
    the anatomy's context, which is exactly the statement that the
    first-law work i(V)dA reduces to the viscous work on solutions.  `anatomy`
    is that of s.action().
    """
    v = s.velocity
    nu = s.viscosity
    residual = _add3(s.euler, _scale3(nu, s.curl_omega))

    work = _transversal_form(_scale3(ex.negate(nu), s.curl_omega), v)
    first_law_work = fm.interior(s.spacetime_velocity(), anatomy.dA)
    gap = fm.sub_forms(
        fm.sub_forms(first_law_work, work), _transversal_form(residual, v)
    )
    tester = anatomy.context
    pf.require_zero(
        gap, tester, "first-law work does not split into viscous work plus residual"
    )
    satisfied = all(tester.test(c).zero for c in residual)
    return NSReport(residual, work, satisfied)


@dataclass(frozen=True)
class TorsionCurrent:
    current: Vec3  # a x v + H omega
    helicity_density: ScalarExpr  # v . omega
    anomaly: ScalarExpr  # -2 (a . omega)


def torsion_current(s: FluidSystem, anatomy: Anatomy) -> TorsionCurrent:
    """Torsion current (a x v + H omega, v . omega) and its balance law.

    div T + dh/dt = -2 (a . omega) holds for any velocity field; the
    residual is checked on the anatomy's context.  The current is also
    cross-checked against the solving vector of i(T)Omega = A^dA,
    which it must equal up to COMPONENT_LIST_SIGN.  `anatomy` is that of
    s.action().
    """
    v, omega, a = s.velocity, s.omega, s.acceleration
    H = s.hamiltonian()
    tester = anatomy.context
    current = _add3(_cross(a, v), _scale3(H, omega))
    h = _dot(v, omega)
    anomaly = ex.mul(ex.Const(-2), _dot(a, omega))

    balance = ex.add(_div(current), _d(h, 3), ex.negate(anomaly))
    pf.require_zero(balance, tester, "torsion balance law failed")
    _require_listed(
        anatomy.torsion.vector,
        (current[0], current[1], current[2], h),
        tester,
        "torsion current disagrees with the solving vector of i(T)Omega = A^dA",
    )
    return TorsionCurrent(current, h, anomaly)


@dataclass(frozen=True)
class EngineeringTorsion:
    current: Vec3  # h v - L curl v - nu v x (curl curl v)
    kinematic: TorsionCurrent  # current a x v + H omega
    difference: Vec3  # kinematic - engineering = -(residual x v)
    ns: NSReport
    warning: str | None

    @property
    def kinematic_current(self) -> Vec3:
        return self.kinematic.current

    @property
    def ns_satisfied(self) -> bool:
        return self.ns.satisfied


def ns_engineering_torsion(s: FluidSystem, anatomy: Anatomy) -> EngineeringTorsion:
    """Torsion current in engineering variables, against the kinematic one.

    With L = v.v/2 - pressure potential, the two currents differ by
    -(viscous residual) x v, an identity verified here; they therefore
    agree exactly on viscous momentum-balance solutions.  Non-solutions get
    a warning attached and both currents returned for comparison.  The
    viscous residual and the kinematic current it is built from are
    returned with it.  `anatomy` is that of s.action().
    """
    v, omega = s.velocity, s.omega
    h = _dot(v, omega)
    L = ex.add(ex.mul(ex.Const(0.5), _dot(v, v)), ex.negate(s.pressure_potential))
    engineering = _sub3(
        _sub3(_scale3(h, v), _scale3(L, omega)),
        _scale3(s.viscosity, _cross(v, s.curl_omega)),
    )

    ns = navier_stokes_residual(s, anatomy)
    kinematic = torsion_current(s, anatomy)
    difference = _sub3(kinematic.current, engineering)
    pf.require_zero(
        _sub3(difference, _neg3(_cross(ns.residual, v))),
        anatomy.context,
        "engineering/kinematic torsion difference is not -(residual x v)",
    )

    warning = None
    if not ns.satisfied:
        warning = (
            "velocity field does not satisfy the viscous momentum balance; "
            "the two torsion currents differ by -(residual x v)"
        )
    return EngineeringTorsion(engineering, kinematic, difference, ns, warning)


# ---------------------------------------------------------------------------
# Mass current


@dataclass(frozen=True)
class MassCurrent:
    J: DifferentialForm  # rho (dx - vx dt)^(dy - vy dt)^(dz - vz dt)
    residual: ScalarExpr  # div(rho v) + drho/dt


def mass_current(rho: ScalarExpr, v, context: ZeroTester) -> MassCurrent:
    """Transversal-volume mass current and its conservation residual.

    dJ = -{div(rho v) + drho/dt} Omega in the x,y,z,t orientation; the
    identity is verified on `context`, the run's zero tester.  The bracket
    is the conservation test: zero means mass is conserved along the flow.
    """
    rho = ex.as_expr(rho)
    v = _as_vec3(v)
    legs = [
        fm.one_form(
            SPACETIME,
            tuple(
                ex.ONE if j == i else (ex.negate(v[i]) if j == 3 else ex.ZERO)
                for j in range(4)
            ),
        )
        for i in range(3)
    ]
    J = fm.scale_form(rho, fm.wedge(fm.wedge(legs[0], legs[1]), legs[2]))

    residual = ex.add(_div(_scale3(rho, v)), _d(rho, 3))
    want = fm.scale_form(ex.negate(residual), fm.volume_form(SPACETIME))
    pf.require_zero(
        fm.sub_forms(fm.exterior_derivative(J), want),
        context,
        "dJ does not reduce to the continuity bracket times the volume form",
    )
    return MassCurrent(J, residual)


def transversal_current_comparison(
    anatomy: Anatomy, rho: ScalarExpr, v
) -> tuple[DifferentialForm, DifferentialForm, ex.ZeroVerdict]:
    """Compare the transversal mass current with i(rho V)d(A^dA), A = anatomy.A.

    The two 3-forms coincide only for special actions, so the verdict is a
    report, never an assertion.
    """
    rho = ex.as_expr(rho)
    v = _as_vec3(v)
    J = mass_current(rho, v, anatomy.context).J
    V = VectorField(SPACETIME, (v[0], v[1], v[2], ex.ONE), support=rho)
    pulled = fm.interior(V, anatomy.K)
    verdict = pf.form_is_zero(fm.sub_forms(pulled, J), anatomy.context)
    return J, pulled, verdict


# ---------------------------------------------------------------------------
# Bundled diagnostics


@dataclass(frozen=True)
class EMReport:
    system: EMSystem
    E: Vec3
    B: Vec3
    torsion: pf.TorsionData
    current: Vec3  # E x A + phi B (classical list)
    helicity_density: ScalarExpr  # A . B
    parity_coefficient: ScalarExpr  # +2 E.B in the x,y,z,t orientation
    listed_parity: ScalarExpr  # COMPONENT_LIST_SIGN * parity = -2 E.B
    divergence_residual: ScalarExpr  # div T + dh/dt + 2 E.B, verified zero
    genus: pf.GenusReport
    process: th.ProcessReport  # evolution along the torsion vector


def em_diagnostics(s: EMSystem, anatomy: Anatomy) -> EMReport:
    """Field invariants and the torsion process for a potential system.

    `anatomy` is that of s.action().  Verifies on its context, the run's
    zero tester (a syntactic zero draws no sample, anything else is
    sampled): dF = 0; the torsion current equals E x A + phi B with
    helicity A.B (up to COMPONENT_LIST_SIGN); the scaling factor of i(T)dA
    along A equals E.B; the parity coefficient equals 2 E.B; and the
    classical divergence law div T + dh/dt = -2 E.B.
    """
    E, B = s.fields()
    Avec = s.vector_potential
    phi = s.scalar_potential

    tester = anatomy.context
    dF = fm.exterior_derivative(anatomy.dA)
    pf.require_zero(dF, tester, "dF failed to vanish for a potential system")

    data = anatomy.torsion
    current = _add3(_cross(E, Avec), _scale3(phi, B))
    h = _dot(Avec, B)
    _require_listed(
        data.vector,
        (current[0], current[1], current[2], h),
        tester,
        "torsion current disagrees with E x A + phi B",
    )

    EdotB = _dot(E, B)
    pf.require_zero(
        ex.add(data.gamma, ex.negate(EdotB)), tester, "i(T)dA scaling factor is not E.B"
    )

    parity = data.parity_coefficient
    pf.require_zero(
        ex.add(parity, ex.negate(ex.mul(ex.Const(2), EdotB))),
        tester,
        "parity coefficient is not 2 E.B",
    )
    listed_parity = ex.mul(ex.Const(COMPONENT_LIST_SIGN), parity)

    divergence = ex.add(_div(current), _d(h, 3), ex.mul(ex.Const(2), EdotB))
    pf.require_zero(divergence, tester, "divergence law div T + dh/dt = -2 E.B failed")

    return EMReport(
        system=s,
        E=E,
        B=B,
        torsion=data,
        current=current,
        helicity_density=h,
        parity_coefficient=parity,
        listed_parity=listed_parity,
        divergence_residual=divergence,
        genus=anatomy.genus,
        process=th.process_report(anatomy, data.vector),
    )


@dataclass(frozen=True)
class FluidReport:
    vorticity: VorticityFields
    euler: Vec3
    euler_satisfied: bool
    engineering: EngineeringTorsion  # with the viscous residual and kinematic current
    incompressible: ex.ZeroVerdict  # div v = 0, the unit-density mass balance
    parity_coefficient: ScalarExpr  # +2 a.omega
    viscous_parity_source: ScalarExpr  # -2 nu (omega . curl omega)

    @property
    def ns(self) -> NSReport:
        return self.engineering.ns


def fluid_diagnostics(s: FluidSystem, anatomy: Anatomy) -> FluidReport:
    """Full fluid diagnostic bundle for a system; `anatomy` is that of
    s.action().

    Runs the identity checks of vorticity_fields and ns_engineering_torsion,
    the unit-density mass balance, and d(A^dA) = K.  Includes the parity
    coefficient in both orientations: ours equals 2(a . omega) identically,
    a checked identity; on viscous momentum-balance solutions the
    classical list value reduces to -2 nu (omega . curl omega), the source
    that vanishes exactly when the vorticity field is Frobenius-integrable.
    """
    tester = anatomy.context
    vort = vorticity_fields(s, tester)
    euler_ok = all(tester.test(c).zero for c in s.euler)
    engineering = ns_engineering_torsion(s, anatomy)
    incompressible = tester.test(mass_current(ex.ONE, s.velocity, tester).residual)

    _, parity = pf.parity(anatomy)
    expected = ex.mul(ex.Const(2), _dot(s.acceleration, s.omega))
    pf.require_zero(
        ex.add(parity, ex.negate(expected)), tester, "parity coefficient is not 2 (a . omega)"
    )
    viscous_source = ex.mul(ex.Const(-2), s.viscosity, _dot(s.omega, s.curl_omega))

    return FluidReport(
        vorticity=vort,
        euler=s.euler,
        euler_satisfied=euler_ok,
        engineering=engineering,
        incompressible=incompressible,
        parity_coefficient=parity,
        viscous_parity_source=viscous_source,
    )


# ---------------------------------------------------------------------------
# Presets


@dataclass(frozen=True)
class Preset:
    """A named system with registered test chains and sampling context."""

    name: str
    summary: str
    chart: ex.Chart
    action: DifferentialForm
    processes: tuple[tuple[str, VectorField], ...]
    chains: tuple[ch.Chain, ...] = ()
    box: Box | None = None
    params: dict[str, float] = field(default_factory=dict)
    system: FluidSystem | EMSystem | None = None
    points: tuple[tuple[float, ...], ...] = ()

    def anatomy(self, context: ZeroTester) -> Anatomy:
        """The action's anatomy, verified by context and probed by this
        preset's chains, points and parameters."""
        return Anatomy(self.action, context, self.chains, self.points, self.params)

    def process(self, name: str) -> VectorField:
        for n, v in self.processes:
            if n == name:
                return v
        raise PresetError(
            f"preset {self.name!r} has no process {name!r}; "
            f"available: {', '.join(n for n, _ in self.processes)}"
        )

    def chain(self, name: str) -> ch.Chain:
        for c in self.chains:
            if c.name == name:
                return c
        raise PresetError(
            f"preset {self.name!r} has no chain {name!r}; "
            f"available: {', '.join(c.name for c in self.chains)}"
        )


# The shared test chains: a unit circle in the z = t = 0 plane, a donut
# torus in the t = 0 slice, and an immersed 3-torus touching all four
# coordinates; each is closed.
_CIRCLE = """
[chain circle]
degree = 1
components = cos(2*pi*u0), sin(2*pi*u0), 0.0, 0.0
"""
_TORUS = """
[chain torus]
degree = 2
components = (1.5 + 0.5*cos(2*pi*u1))*cos(2*pi*u0), (1.5 + 0.5*cos(2*pi*u1))*sin(2*pi*u0), \
0.5*sin(2*pi*u1), 0.0
"""
_SHELL = """
[chain shell]
degree = 3
components = (1.5 + 0.5*cos(2*pi*u2))*cos(2*pi*u0), (1.5 + 0.5*cos(2*pi*u2))*sin(2*pi*u0), \
0.5*sin(2*pi*u2) + 0.25*cos(2*pi*u1), 0.25*sin(2*pi*u1)
"""

# Each text's first line is its summary; every [sampling] block names the
# one probe point of the pointwise Pfaff dimension.
PRESETS: dict[str, str] = {
    "euler.rigid_rotation": """\
# rigid rotation with centripetal pressure: inviscid solution, integrable action, \
conservative work along the spatial flow
[system]
velocity = -Omega*y, Omega*x, 0
pressure_potential = 0.5*Omega*Omega*(x^2 + y^2)

[params]
Omega = 0.7

[sampling]
probe = 0.3, -0.2, 0.4, 0.1

[process spatial]
components = -Omega*y, Omega*x, 0, 0

[process probe]
components = 0.3*y + 0.1*z, -0.2*x, 0.1*x*y, 0.05*x
""" + _CIRCLE + _TORUS + _SHELL,
    "ns.decaying_shear": """\
# decaying shear layer: viscous momentum balance holds, heat form is not closed, \
circulation drifts on off-center cycles
[system]
velocity = U*cos(k*y)*exp(-nu*k*k*t), 0, 0
viscosity = nu

[params]
U = 1.0
k = 1.0
nu = 0.15

[sampling]
range nu = 0.05, 0.5
probe = 0.3, -0.2, 0.4, 0.1

[chain circle]
degree = 1
components = 0.3 + cos(2*pi*u0), 0.4 + sin(2*pi*u0), 0.0, 0.0
""" + _TORUS + _SHELL,
    "fluid.beltrami_abc": """\
# swirl field equal to its own curl: inviscid solution with nonzero helicity, \
torsion current parallel to the velocity
[system]
velocity = sin(z) + cos(y), sin(x) + cos(z), sin(y) + cos(x)
pressure_potential = 1.5 - 0.5*((sin(z) + cos(y))^2 + (sin(x) + cos(z))^2 + (sin(y) + cos(x))^2)

[sampling]
probe = 0.3, -0.2, 0.4, 0.1
""" + _CIRCLE + _TORUS + _SHELL,
    "em.plane_wave": """\
# transverse travelling wave: E.B = 0, torsion current vanishes, the propagation ray \
is characteristic
[system]
vector_potential = 0, cos(z - t), 0

[sampling]
probe = 0.3, -0.2, 0.4, 0.1

[process ray]
components = 0, 0, 1, 1
""" + _CIRCLE + _TORUS,
    "em.torsion_nonzero": """\
# rotating potential with axial bias: maximal Pfaff dimension, evolution along the \
torsion vector is irreversible
[system]
vector_potential = -lam*y, lam*x, 0
scalar_potential = mu*z

[params]
lam = 2.0
mu = 3.0

[sampling]
probe = 0.3, -0.2, 0.4, 0.1

[process torsion]
components = -lam*mu*x, -lam*mu*y, -2*lam*mu*z, 0

[process timelike]
components = 0, 0, 0, 1
""" + _CIRCLE + _TORUS + _SHELL,
    "harmonic.winding": """\
# angular form around an excised axis: closed, not exact, periods count the winding number
[system]
action = sigma*y/(x^2 + y^2), -(sigma*x)/(x^2 + y^2), 0, 0

[params]
sigma = 1.0

[sampling]
guards = x^2 + y^2
probe = 0.3, -0.2, 0.4, 0.1

[process translate_x]
components = 1, 0, 0, 0
""" + _CIRCLE + """
[chain winding2]
degree = 1
components = cos(4*pi*u0), sin(4*pi*u0), 0, 0
""",
}


def preset_names() -> tuple[str, ...]:
    return tuple(PRESETS)


def get_preset(name: str) -> Preset:
    """The preset parsed from its bundled text, as a config naming it is."""
    # imported here, not at the top: config imports this module
    from . import config

    try:
        text = PRESETS[name]
    except KeyError:
        raise PresetError(
            f"unknown preset {name!r}; available: {', '.join(PRESETS)}"
        ) from None
    rt = config.build_runtime(config.parse_config(text))
    return Preset(
        name, text.splitlines()[0][2:], rt.chart, rt.action, rt.processes, rt.chains,
        rt.context.box, rt.params, rt.system, rt.anatomy.points,
    )
