"""Chain integration, advection, invariance checks, and period spectra."""

from __future__ import annotations

import math

import numpy as np
import pytest

import formflow.chains as ch
import formflow.expr as ex
import formflow.forms as fm
import formflow.parse as ps
import formflow.systems as sy

import oracles as oc
from corpus import CHART


def scalar(text: str, chart=CHART) -> ex.ScalarExpr:
    return ps.parse_scalar(text, chart)


@pytest.fixture
def stokes_pair():
    """Off-center circle and matching disk so the curl flux is nonzero."""
    w = fm.form_from_coeffs(CHART, 1, {
        (0,): scalar("y^2 + sin(x)"),
        (1,): scalar("x*y + cos(z)"),
        (2,): scalar("x + y*z"),
    })
    kw = dict(center=(0.2, -0.1), radius=0.8, fixed={2: 0.3, 3: 0.0})
    circle = ch.Chain(1, (ch.circle_cell(CHART, **kw),), closed=True)
    disk = ch.Chain(2, (ch.disk_cell(CHART, **kw),))
    return w, circle, disk


def test_stokes_boundary_pairing(stokes_pair):
    # both sides computed through unrelated code paths inside the library,
    # then each compared against the quadrature oracle
    w, circle, disk = stokes_pair
    lhs = ch.integrate(w, circle)
    rhs = ch.integrate(fm.exterior_derivative(w), disk)
    assert lhs.value == pytest.approx(rhs.value, abs=1e-8)
    assert abs(lhs.value) > 0.1  # the fixture is not vacuous

    gamma, dgamma = oc.circle_path(0.8, (0.2, -0.1), (0, 1), fixed={2: 0.3, 3: 0.0})
    assert oc.line_integral(w, gamma, dgamma, n=96) == pytest.approx(
        lhs.value, abs=1e-10
    )


def test_exact_form_has_zero_circulation(stokes_pair):
    _, circle, _ = stokes_pair
    phi = scalar("x^2*y - z*cos(x) + t")
    df = fm.exterior_derivative(fm.scalar_form(CHART, phi))
    res = ch.integrate(df, circle)
    assert abs(res.value) <= 1e-10 * (1.0 + res.scale)


def test_disk_area_and_error_estimate():
    disk = ch.Chain(2, (ch.disk_cell(CHART, radius=0.8, fixed={2: 0.0, 3: 0.0}),))
    area_form = fm.form_from_coeffs(CHART, 2, {(0, 1): ex.ONE})
    res = ch.integrate(area_form, disk)
    assert res.value == pytest.approx(math.pi * 0.64, abs=1e-10)
    assert res.error_estimate < 1e-8
    assert res.scale >= abs(res.value)


def test_degree_mismatch_rejected(stokes_pair):
    w, circle, disk = stokes_pair
    with pytest.raises(ch.ChainError):
        ch.integrate(w, disk)
    with pytest.raises(ch.ChainError):
        ch.integrate(fm.exterior_derivative(w), circle)


def test_chain_validation():
    cell = ch.circle_cell(CHART, fixed={2: 0.0, 3: 0.0})
    with pytest.raises(ch.ChainError):
        ch.Chain(1, ())
    with pytest.raises(ch.ChainError):
        ch.Chain(1, (cell,), orientations=(2,))
    with pytest.raises(ch.ChainError):
        ch.Chain(1, (cell, cell), orientations=(1,))
    with pytest.raises(ch.ChainError):
        ch.Chain(2, (cell,))  # degree-1 cell in a degree-2 chain


def test_cell_rejects_excess_parameters():
    u = ch.param_chart(2)
    with pytest.raises(ch.ChainError):
        ch.ExprCell(CHART, 1, (
            ps.parse_scalar("u0 + u1", u), ex.ZERO, ex.ZERO, ex.ZERO,
        ))
    with pytest.raises(ch.ChainError):
        ch.ExprCell(CHART, 1, (ex.ZERO, ex.ZERO, ex.ZERO))  # wrong arity


def test_orientation_flip_negates_integral(stokes_pair):
    w, circle, _ = stokes_pair
    flipped = ch.Chain(1, circle.cells, orientations=(-1,), closed=True)
    assert ch.integrate(w, flipped).value == pytest.approx(
        -ch.integrate(w, circle).value, abs=1e-12
    )


def test_multi_cell_chain_sums():
    kw1 = dict(radius=0.5, fixed={2: 0.0, 3: 0.0})
    kw2 = dict(radius=0.7, center=(1.5, 0.0), fixed={2: 0.0, 3: 0.0})
    w = fm.form_from_coeffs(CHART, 1, {(1,): scalar("x")})  # d(w) = dx^dy
    both = ch.Chain(
        1, (ch.circle_cell(CHART, **kw1), ch.circle_cell(CHART, **kw2)),
        orientations=(1, -1), closed=True,
    )
    expected = math.pi * (0.5**2) - math.pi * (0.7**2)
    assert ch.integrate(w, both).value == pytest.approx(expected, abs=1e-10)


def test_advected_integral_matches_flow_oracle():
    # finite-time check at dt = 0.1: advect an off-center circle through the
    # decaying shear and compare with direct quadrature of the composed map
    s = sy.get_preset("ns.decaying_shear")
    V = s.process("spacetime")
    off = ch.Chain(
        1,
        (ch.circle_cell(CHART, center=(0.4, 0.2), radius=0.5, fixed={2: 0.0, 3: 0.0}),),
        closed=True,
    )
    moved = ch.advect(off, V, 0.1, params=s.params)
    lib = ch.integrate(s.action, moved, params=s.params).value

    gamma0, _ = oc.circle_path(0.5, (0.4, 0.2), (0, 1), fixed={2: 0.0, 3: 0.0})

    def gamma_t(u):
        return oc.rk4_flow(V, np.array(gamma0(u)), 0.1, steps=40, params=s.params)

    def dgamma_t(u, h=1e-6):
        return (np.array(gamma_t(u + h)) - np.array(gamma_t(u - h))) / (2 * h)

    oracle = oc.line_integral(s.action, gamma_t, dgamma_t, n=96, params=s.params)
    assert lib == pytest.approx(oracle, abs=1e-8)
    assert abs(lib - ch.integrate(s.action, off, params=s.params).value) > 1e-3


def test_advect_zero_time_is_identity():
    r = sy.get_preset("euler.rigid_rotation")
    circ = r.chain("circle")
    assert ch.advect(circ, r.process("spacetime"), 0.0, params=r.params) is circ


def test_advect_blowup_raises():
    V = fm.VectorField(CHART, (scalar("x^2 + 1"), ex.ZERO, ex.ZERO, ex.ZERO))
    circ = ch.Chain(1, (ch.circle_cell(CHART, fixed={2: 0.0, 3: 0.0}),), closed=True)
    with pytest.raises(ch.AdvectionError):
        ch.advect(circ, V, 50.0, steps=8)


def test_invariance_rigid_rotation_circulation():
    r = sy.get_preset("euler.rigid_rotation")
    res = ch.invariance_check(
        r.action, r.chain("circle"), r.process("spacetime"), params=r.params
    )
    assert res.mode == "invariant" and res.passed
    assert abs(res.derivative_estimate) < 1e-9
    assert res.identity_gap <= 1e-6 * res.scale


@pytest.mark.parametrize(
    "preset,process,chain,center",
    [
        ("ns.decaying_shear", "spacetime", None, (0.4, 0.2)),
        ("em.torsion_nonzero", "torsion", "circle", None),
    ],
)
def test_transport_identity_on_drifting_pairs(preset, process, chain, center):
    # the derivative of the moving integral equals the integral of the Lie
    # derivative even when both are far from zero
    p = sy.get_preset(preset)
    if chain is None:
        chn = ch.Chain(
            1,
            (ch.circle_cell(CHART, center=center, radius=0.5, fixed={2: 0.0, 3: 0.0}),),
            closed=True,
        )
    else:
        chn = p.chain(chain)
    # h = 0.005 keeps the O(h^4) stencil truncation below the identity
    # tolerance on the steep torsion drift
    res = ch.invariance_check(
        p.action, chn, p.process(process), mode="identity", h=0.005, params=p.params
    )
    assert res.passed
    assert abs(res.derivative_estimate) > 1e-3  # genuinely drifting
    rel = res.identity_gap / max(1.0, abs(res.lie_integral))
    assert rel <= 1e-5


def test_drift_mode_flags_torsion_counterexample():
    t = sy.get_preset("em.torsion_nonzero")
    res = ch.invariance_check(
        t.action, t.chain("circle"), t.process("torsion"),
        mode="drift", params=t.params,
    )
    assert res.passed
    assert res.derivative_estimate == pytest.approx(-48 * math.pi, rel=1e-3)


def test_invariance_mode_validation(stokes_pair):
    w, circle, _ = stokes_pair
    V = fm.VectorField(CHART, (ex.ONE, ex.ZERO, ex.ZERO, ex.ZERO))
    with pytest.raises(ch.ChainError):
        ch.invariance_check(w, circle, V, mode="sideways")


def test_period_spectrum_winding_numbers():
    p = sy.get_preset("harmonic.winding")
    cycles = [c for c in p.chains if c.degree == 1]
    spec = ch.period_spectrum(p.action, cycles, ex.ZeroTester(p.box), params=p.params)
    assert spec.periods[0] == pytest.approx(-2 * math.pi, abs=1e-8)
    assert spec.periods[1] == pytest.approx(-4 * math.pi, abs=1e-8)
    assert spec.base == pytest.approx(2 * math.pi, abs=1e-8)
    assert spec.ratios[0] == pytest.approx(-1.0, abs=1e-9)
    assert spec.ratios[1] == pytest.approx(-2.0, abs=1e-9)
    assert max(spec.integer_deviation) < 1e-9


def test_period_spectrum_rejects_non_closed_forms():
    w = fm.form_from_coeffs(CHART, 1, {(1,): scalar("x")})
    circle = ch.Chain(1, (ch.circle_cell(CHART, fixed={2: 0.0, 3: 0.0}),), closed=True)
    with pytest.raises(ch.ChainError):
        ch.period_spectrum(w, [circle], ex.ZeroTester(ex.default_box(4)))


def test_period_spectrum_all_zero_has_no_base():
    phi = fm.exterior_derivative(fm.scalar_form(CHART, scalar("x*y + z")))
    circle = ch.Chain(1, (ch.circle_cell(CHART, fixed={2: 0.0, 3: 0.0}),), closed=True)
    spec = ch.period_spectrum(phi, [circle], ex.ZeroTester(ex.default_box(4)))
    assert spec.base is None
    assert spec.ratios == (0.0,)


def test_spot_check_closed_detects_open_arcs():
    circle = ch.Chain(1, (ch.circle_cell(CHART, fixed={2: 0.0, 3: 0.0}),), closed=True)
    assert ch.spot_check_closed(circle)
    u = ch.param_chart(1)
    arc = ch.ExprCell(CHART, 1, (
        ps.parse_scalar("cos(pi*u0/2)", u),
        ps.parse_scalar("sin(pi*u0/2)", u),
        ex.ZERO,
        ex.ZERO,
    ))
    assert not ch.spot_check_closed(ch.Chain(1, (arc,), closed=True))


def test_box_cell_volume():
    cell = ch.box_cell(CHART, {0: (0.0, 2.0), 1: (-1.0, 1.0), 3: (0.0, 0.5)})
    vol = fm.form_from_coeffs(CHART, 3, {(0, 1, 3): ex.ONE})
    res = ch.integrate(vol, ch.Chain(3, (cell,)))
    assert res.value == pytest.approx(2.0 * 2.0 * 0.5, abs=1e-12)


def test_interp_cell_reproduces_expr_cell_integrals(stokes_pair):
    # re-fit the circle through the interpolation path advect() uses
    w, circle, _ = stokes_pair
    moved = ch.advect(circle, fm.VectorField(
        CHART, (ex.ZERO, ex.ZERO, ex.ZERO, ex.ONE)), 1e-9)
    assert isinstance(moved.cells[0], ch.InterpCell)
    assert ch.integrate(w, moved).value == pytest.approx(
        ch.integrate(w, circle).value, abs=1e-7
    )
