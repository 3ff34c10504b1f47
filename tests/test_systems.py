"""Fluid and electromagnetic model systems and their classical identities."""

from __future__ import annotations

import numpy as np
import pytest

import formflow.expr as ex
import formflow.forms as fm
import formflow.parse as ps
import formflow.pfaff as pf
import formflow.systems as sy
import formflow.thermo as th
from corpus import random_poly_scalar, rng
from oracles import failing, fluid_residuals, inexact, mass_residuals, value_at

CHART = ex.spacetime_chart()
CONTEXT = ex.ZeroTester(ex.default_box(4))


def scalar(text: str) -> ex.ScalarExpr:
    return ps.parse_scalar(text, CHART)


def is_zero(e: ex.ScalarExpr, box: ex.Box | None = None) -> bool:
    e = ex.simplify(e)
    if ex.is_syntactic_zero(e):
        return True
    return bool(ex.ZeroTester(box if box is not None else ex.default_box(4)).test(e))


def vec_is_zero(comps, box=None) -> bool:
    return all(is_zero(c, box) for c in comps)


def vec_equal(got, want, box=None) -> bool:
    return all(is_zero(ex.add(g, ex.negate(w)), box) for g, w in zip(got, want))


# --- Beltrami: the velocity is its own curl, so every downstream identity
# --- collapses; establish that first, everything below leans on it


def test_beltrami_velocity_is_its_own_curl():
    s = sy.get_preset("fluid.beltrami_abc").system
    vort = sy.vorticity_fields(s, CONTEXT)
    for w, v in zip(vort.omega, s.velocity):
        assert ex.is_syntactic_zero(ex.simplify(ex.add(w, ex.negate(v))))


def test_beltrami_stream_function_is_constant():
    s = sy.get_preset("fluid.beltrami_abc").system
    H = s.hamiltonian()
    assert ex.is_syntactic_zero(ex.simplify(ex.add(H, ex.Const(-1.5))))


def test_beltrami_solves_euler_exactly():
    s = sy.get_preset("fluid.beltrami_abc").system
    assert all(ex.is_syntactic_zero(c) for c in sy.euler_residual(s))


def test_beltrami_torsion_current_is_parallel_to_velocity():
    p = sy.get_preset("fluid.beltrami_abc")
    tc = sy.torsion_current(p.system, pf.Anatomy(p.action, p.context))
    want = tuple(ex.mul(ex.Const(1.5), v) for v in p.system.velocity)
    assert vec_equal(tc.current, want, p.context.box)
    speed_sq = ex.add(*(ex.power(v, 2) for v in p.system.velocity))
    assert is_zero(ex.add(tc.helicity_density, ex.negate(speed_sq)), p.context.box)


# --- rigid rotation


def test_rigid_rotation_vorticity_and_balance():
    p = sy.get_preset("euler.rigid_rotation")
    vort = sy.vorticity_fields(p.system, p.context)
    twice = ex.mul(ex.Const(2), ex.Param("Omega"))
    assert ex.is_syntactic_zero(vort.omega[0])
    assert ex.is_syntactic_zero(vort.omega[1])
    assert is_zero(ex.add(vort.omega[2], ex.negate(twice)), p.context.box)
    assert vec_is_zero(sy.euler_residual(p.system), p.context.box)


def test_rigid_rotation_torsion_current_vanishes():
    p = sy.get_preset("euler.rigid_rotation")
    tc = sy.torsion_current(p.system, pf.Anatomy(p.action, p.context))
    assert vec_is_zero(tc.current, p.context.box)
    assert is_zero(tc.helicity_density, p.context.box)
    assert pf.genus_diagnostic(pf.Anatomy(p.action, p.context)).genus == 3


def test_rigid_rotation_hamiltonian_is_centripetal():
    s = sy.get_preset("euler.rigid_rotation").system
    want = scalar("Omega^2 * (x^2 + y^2)")
    assert is_zero(ex.add(s.hamiltonian(), ex.negate(want)))


# --- decaying shear


def test_shear_satisfies_viscous_balance_but_not_euler():
    p = sy.get_preset("ns.decaying_shear")
    ns = sy.navier_stokes_residual(p.system, pf.Anatomy(p.action, p.context))
    assert ns.satisfied
    euler = sy.euler_residual(p.system)
    assert not vec_is_zero(euler, p.context.box)


def test_shear_torsion_current_formula():
    # unidirectional profile f(y, t): current reduces to (0, 0, f^2 f_y / 2)
    p = sy.get_preset("ns.decaying_shear")
    tc = sy.torsion_current(p.system, pf.Anatomy(p.action, p.context))
    f = p.system.velocity[0]
    want_z = ex.mul(ex.Const(0.5), f, f, ex.differentiate(f, 1))
    assert ex.is_syntactic_zero(tc.current[0])
    assert ex.is_syntactic_zero(tc.current[1])
    assert is_zero(ex.add(tc.current[2], ex.negate(want_z)), p.context.box)
    assert is_zero(tc.helicity_density, p.context.box)


def test_shear_dissipative_work_form():
    # W = -nu (curl omega) . (dx - v dt) picks up only the x and t slots
    p = sy.get_preset("ns.decaying_shear")
    ns = sy.navier_stokes_residual(p.system, pf.Anatomy(p.action, p.context))
    f = p.system.velocity[0]
    fyy = ex.differentiate(ex.differentiate(f, 1), 1)
    nu = p.system.viscosity
    want_x = ex.mul(nu, fyy)
    assert is_zero(ex.add(ns.work_form.coeff((0,)), ex.negate(want_x)), p.context.box)
    assert ex.is_syntactic_zero(ns.work_form.coeff((1,)))
    assert ex.is_syntactic_zero(ns.work_form.coeff((2,)))
    want_t = ex.negate(ex.mul(f, want_x))
    assert is_zero(ex.add(ns.work_form.coeff((3,)), ex.negate(want_t)), p.context.box)


@pytest.mark.parametrize("name", ["ns.decaying_shear", "euler.rigid_rotation"])
def test_engineering_torsion_agrees_on_solutions(name):
    p = sy.get_preset(name)
    eng = sy.ns_engineering_torsion(p.system, pf.Anatomy(p.action, p.context))
    assert eng.ns_satisfied
    assert eng.warning is None
    assert vec_is_zero(sy._sub3(eng.kinematic.current, eng.current), p.context.box)
    assert vec_equal(eng.current, eng.kinematic.current, p.context.box)


def test_engineering_torsion_warns_off_solutions():
    # rigid rotation without its pressure support violates momentum balance
    rigid = sy.get_preset("euler.rigid_rotation").system
    bad = sy.FluidSystem(rigid.velocity, ex.ZERO, ex.ZERO)
    assert any(not is_zero(c) for c in sy.euler_residual(bad))
    eng = sy.ns_engineering_torsion(bad, pf.Anatomy(bad.action(), ex.ZeroTester(ex.default_box(4))))
    assert not eng.ns_satisfied
    assert eng.warning is not None


def _non_solutions() -> dict[str, sy.FluidSystem]:
    """Velocities off the viscous momentum balance: rigid rotation without
    its pressure, and random polynomial velocities with a polynomial
    pressure potential, inviscid and viscous."""
    rigid = sy.get_preset("euler.rigid_rotation").system
    r = rng(808)
    out = {"rigid_without_pressure": sy.FluidSystem(rigid.velocity, ex.ZERO, ex.ZERO)}
    for k, nu in enumerate((ex.ZERO, ex.Const(0.5), ex.Const(2))):
        v = tuple(random_poly_scalar(r) for _ in range(3))
        out[f"polynomial{k}"] = sy.FluidSystem(v, random_poly_scalar(r), nu)
    return out


@pytest.mark.parametrize("name", sorted(_non_solutions()))
def test_fluid_identities_hold_off_solutions(name):
    # for every velocity: i(V)dA = work + residual.(dx - v dt), kinematic -
    # engineering torsion = -(residual x v), K = 2 a.omega and the unit-
    # density dJ = -residual*Omega.  fluid_diagnostics returns these as
    # built; the suite checks them where the residual is not zero
    s = _non_solutions()[name]
    a = pf.Anatomy(s.action(), ex.ZeroTester(ex.default_box(4)))
    assert not sy.navier_stokes_residual(s, a).satisfied
    assert failing(fluid_residuals(s, a)) == []


def test_fluid_identities_are_exact_off_solutions():
    # sympy reads each residual from the printed text and cancels it to 0,
    # on a viscous flow of multilinear polynomials
    r = rng(809)
    v = tuple(random_poly_scalar(r, max_terms=2, max_degree=1) for _ in range(3))
    s = sy.FluidSystem(v, random_poly_scalar(r, max_terms=2, max_degree=1), ex.Const(0.5))
    a = pf.Anatomy(s.action(), CONTEXT)
    assert not sy.navier_stokes_residual(s, a).satisfied
    assert inexact(fluid_residuals(s, a), CHART) == []


def test_extremal_flag_tracks_momentum_balance():
    # inviscid: the spacetime velocity is extremal exactly for solutions
    good = sy.get_preset("euler.rigid_rotation")
    rep = th.classify(good.anatomy, good.processes["spacetime"])
    assert rep.flags.extremal

    bad = sy.FluidSystem(good.system.velocity, ex.ZERO, ex.ZERO)
    ctx = pf.Anatomy(bad.action(), ex.ZeroTester(ex.default_box(4)), params={"Omega": 0.7})
    rep = th.classify(ctx, bad.spacetime_velocity())
    assert not rep.flags.extremal


def test_vorticity_fields_reject_broken_inputs():
    # the induction identities are theorems; feed a system whose action we
    # tamper with to show the cross-check is alive
    s = sy.get_preset("euler.rigid_rotation").system
    vort = sy.vorticity_fields(s, CONTEXT)
    dA = fm.exterior_derivative(s.action())
    assert fm.sub_forms(vort.F, dA).is_syntactically_zero


def test_mass_current_conservation_cases():
    rigid = sy.get_preset("euler.rigid_rotation").system
    # steady incompressible rotation with unit density
    m = sy.mass_current(ex.ONE, rigid.velocity)
    assert ex.is_syntactic_zero(m.residual)

    # exponential decay balanced by uniform expansion
    v = (scalar("x/3"), scalar("y/3"), scalar("z/3"))
    m = sy.mass_current(scalar("exp(-t)"), v)
    assert is_zero(m.residual)

    # uncompensated stretching leaks mass at unit rate
    m = sy.mass_current(ex.ONE, (scalar("x"), ex.ZERO, ex.ZERO))
    assert is_zero(ex.add(m.residual, ex.Const(-1.0)))
    assert not is_zero(m.residual)


def test_mass_current_three_form_shape():
    m = sy.mass_current(scalar("1 + x^2"), (scalar("y"), ex.ZERO, ex.ZERO))
    assert m.J.degree == 3
    # the pure spatial slot carries rho itself
    assert is_zero(ex.add(m.J.coeff((0, 1, 2)), ex.negate(scalar("1 + x^2"))))


def test_mass_current_with_a_rational_velocity():
    # rho v = 1/(2+x)^2: dJ reduces to the bracket, which leaks mass
    rho, v = scalar("1/(2+x)"), (scalar("1/(2+x)"), ex.ZERO, ex.ZERO)
    assert is_zero(ex.add(sy.mass_current(rho, v).residual, scalar("2/(2+x)^3")))
    assert failing(mass_residuals(rho, v, CONTEXT)) == []
    assert inexact(mass_residuals(rho, v, CONTEXT), CHART) == []


def test_broken_identity_names_its_witness_and_value(monkeypatch):
    # a wrong component-list sign breaks E x A + phi B = -T
    p = sy.get_preset("em.torsion_nonzero")
    monkeypatch.setattr(sy, "COMPONENT_LIST_SIGN", 1)
    with pytest.raises(pf.InternalConsistencyError) as err:
        sy.em_diagnostics(p.system, p.anatomy)
    what, at = str(err.value).split(" at ")
    assert what == "torsion current disagrees with E x A + phi B"
    witness, value = at.split(" (value ")
    point = tuple(float(c) for c in witness.strip("()").split(", "))
    assert len(point) == 4 and all(-1.0 <= c <= 1.0 for c in point)
    assert float(value.rstrip(")")) != 0.0


def test_transversal_comparison_is_a_report_not_a_theorem():
    p = sy.get_preset("euler.rigid_rotation")
    J, pulled, verdict = sy.transversal_current_comparison(
        pf.Anatomy(p.action, p.context), ex.ONE, p.system.velocity
    )
    assert J.degree == 3 and pulled.degree == 3
    assert not bool(verdict)  # the two currents genuinely differ here


# --- electromagnetic systems


def test_plane_wave_fields_are_transverse():
    p = sy.get_preset("em.plane_wave")
    E, B = p.system.fields()
    want_E = (ex.ZERO, ex.negate(scalar("sin(z - t)")), ex.ZERO)
    want_B = (scalar("sin(z - t)"), ex.ZERO, ex.ZERO)
    assert vec_equal(E, want_E, p.context.box)
    assert vec_equal(B, want_B, p.context.box)
    EdotB = ex.add(*(ex.mul(e, b) for e, b in zip(E, B)))
    assert is_zero(EdotB, p.context.box)


def test_plane_wave_diagnostics():
    p = sy.get_preset("em.plane_wave")
    rep = sy.em_diagnostics(p.system, p.anatomy)
    assert vec_is_zero(rep.current, p.context.box)
    assert is_zero(rep.helicity_density, p.context.box)
    assert is_zero(rep.parity_coefficient, p.context.box)
    assert rep.genus.genus == 3
    assert rep.process.flags.characteristic  # evolution along T (zero here)


def test_torsion_preset_field_identities():
    p = sy.get_preset("em.torsion_nonzero")
    rep = sy.em_diagnostics(p.system, p.anatomy)
    pt = (0.2, -0.3, 0.4, 0.1)
    lam, mu = p.params["lam"], p.params["mu"]

    want_current = (
        scalar("lam*mu*x"), scalar("lam*mu*y"), scalar("2*lam*mu*z"),
    )
    assert vec_equal(rep.current, want_current, p.context.box)
    assert is_zero(rep.helicity_density, p.context.box)

    assert value_at(rep.torsion.gamma, pt, p.params) == pytest.approx(-2 * lam * mu)
    assert value_at(rep.parity_coefficient, pt, p.params) == pytest.approx(-4 * lam * mu)
    assert value_at(rep.listed_parity, pt, p.params) == pytest.approx(4 * lam * mu)
    assert ex.is_syntactic_zero(rep.divergence_residual) or is_zero(
        rep.divergence_residual, p.context.box
    )
    assert rep.genus.genus == 2
    assert rep.process.flags.irreversible


def test_component_list_sign_relates_conventions():
    # the classical component lists solve with the opposite sign of the
    # orientation convention used by the torsion extractor
    assert sy.COMPONENT_LIST_SIGN == -1
    p = sy.get_preset("em.torsion_nonzero")
    rep = sy.em_diagnostics(p.system, p.anatomy)
    listed = (*rep.current, rep.helicity_density)
    for mine, classical in zip(rep.torsion.vector.components, listed):
        assert is_zero(ex.add(mine, classical), p.context.box)


def test_fluid_diagnostics_bundle():
    p = sy.get_preset("ns.decaying_shear")
    anatomy = p.anatomy
    rep = sy.fluid_diagnostics(p.system, anatomy)
    assert rep.ns.satisfied and not rep.euler_satisfied
    # the report leaves the anatomy's own facts to the anatomy
    assert anatomy.sequence.dimension == 3
    assert anatomy.genus.genus == 2
    assert th.process_report(anatomy, p.system.spacetime_velocity()).category == th.CATEGORY_OPEN
    # on this viscous solution the parity is the source -2 nu omega . curl omega
    s = p.system
    omega = sy._curl(s.velocity)
    want = ex.mul(ex.Const(-2), s.viscosity, sy._dot(omega, sy._curl(omega)))
    assert is_zero(ex.add(rep.parity_coefficient, ex.negate(want)), p.context.box)


def test_preset_registry():
    names = sy.preset_names()
    assert len(names) == 6
    assert set(names) == {
        "euler.rigid_rotation",
        "ns.decaying_shear",
        "fluid.beltrami_abc",
        "em.plane_wave",
        "em.torsion_nonzero",
        "harmonic.winding",
    }
    with pytest.raises(KeyError):
        sy.get_preset("no.such.system")
    p = sy.get_preset("euler.rigid_rotation")
    with pytest.raises(KeyError):
        p.processes["sideways"]
    with pytest.raises(KeyError):
        p.chains["moebius"]


def test_bundled_processes_match_the_physics_they_encode():
    # the texts write these fields out as components; each must still be
    # the field it stands for, as a zero verdict
    p = sy.get_preset("em.torsion_nonzero")
    A = p.action
    T = pf.torsion_vector(fm.wedge(A, fm.exterior_derivative(A)))
    assert vec_equal(p.processes["torsion"].components, T, p.context.box)
    r = sy.get_preset("euler.rigid_rotation")
    spatial = (*r.system.velocity, ex.ZERO)
    assert vec_equal(r.processes["spatial"].components, spatial, r.context.box)


def test_preset_actions_match_their_systems():
    for name in sy.preset_names():
        p = sy.get_preset(name)
        if p.system is None:
            continue
        assert fm.sub_forms(p.action, p.system.action()).is_syntactically_zero
