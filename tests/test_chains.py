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


# ---------------------------------------------------------------------------
# Batched transport against the one-time, one-call reference in oracles.py

def _swirl():
    return fm.VectorField(CHART, (
        scalar("-y + 0.3*z^2"), scalar("x + 0.2*sin(t)"), scalar("0.25*cos(x)*y"), ex.ONE,
    ))


def _action():
    return fm.one_form(CHART, (
        scalar("y*z + sin(x)"), scalar("x^2 - t"), scalar("cos(y)*z"), scalar("x*y"),
    ))


def _expr_chain(degree: int) -> ch.Chain:
    u = ch.param_chart(degree)
    if degree == 1:
        ring = ch.ExprCell(CHART, 1, (
            ps.parse_scalar("r*cos(2*pi*u0)", u), ex.const(0.1),
            ps.parse_scalar("r*sin(2*pi*u0)", u), ex.const(0.2),
        ), params={"r": 0.6}, name="ring")
        cells = (ch.circle_cell(CHART, center=(0.1, -0.2), radius=0.5, fixed={2: 0.3}), ring)
    elif degree == 2:
        cells = (
            ch.disk_cell(CHART, center=(0.2, 0.1), radius=0.7, fixed={2: -0.1, 3: 0.0}),
            ch.box_cell(CHART, {1: (-0.5, 0.4), 2: (0.0, 0.6)}, fixed={0: 0.3, 3: 0.1}),
        )
    else:
        shell = ch.ExprCell(CHART, 3, (
            ps.parse_scalar("(1.2 + 0.4*cos(2*pi*u2))*cos(2*pi*u0)", u),
            ps.parse_scalar("(1.2 + 0.4*cos(2*pi*u2))*sin(2*pi*u0)", u),
            ps.parse_scalar("0.4*sin(2*pi*u2) + 0.2*cos(2*pi*u1)", u),
            ps.parse_scalar("0.2*sin(2*pi*u1)", u),
        ), name="shell")
        cells = (ch.box_cell(CHART, {0: (-0.3, 0.5), 1: (0.0, 0.4), 2: (-0.2, 0.2)}), shell)
    return ch.Chain(degree, cells, orientations=(1, -1), closed=degree != 2, name=f"c{degree}")


def _form(degree: int) -> fm.DifferentialForm:
    A = _action()
    return {1: A, 2: fm.exterior_derivative(A), 3: fm.wedge(A, fm.exterior_derivative(A))}[degree]


def _chains(degree: int) -> list[ch.Chain]:
    """An expression chain and its interpolated image after a short flow."""
    base = _expr_chain(degree)
    return [base, oc.reference_advect(base, _swirl(), 0.05)]


def _assert_same_chain(got: ch.Chain, want: ch.Chain) -> None:
    assert (got.degree, got.orientations, got.closed, got.name) == (
        want.degree, want.orientations, want.closed, want.name,
    )
    for a, b in zip(got.cells, want.cells, strict=True):
        assert isinstance(a, ch.InterpCell) and a.name == b.name
        assert all(np.array_equal(x, y) for x, y in zip(a.node_axes, b.node_axes, strict=True))
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("h,steps", [(0.02, None), (0.1, None), (0.03, 5)])
def test_batched_advection_matches_one_time_reference(degree, h, steps):
    # h = 0.1 puts +-h (8 steps) and +-2h (10 steps) in different RK4 runs
    w, V = _form(degree), _swirl()
    times = (h, -h, 2 * h, 0.0, -2 * h)
    for chain in _chains(degree):
        got = ch._advect_to(chain, V, times, steps)
        for t, moved in zip(times, got, strict=True):
            if t == 0.0:
                assert moved is chain
                continue
            want = oc.reference_advect(chain, V, t, steps=steps)
            _assert_same_chain(moved, want)
            _assert_same_chain(ch.advect(chain, V, t, steps=steps), want)
            assert ch.integrate(w, moved) == oc.reference_integrate(w, want)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_integrate_matches_per_call_reference(degree):
    w = _form(degree)
    for chain in _chains(degree):
        for order in (None, 5):
            want = oc.reference_integrate(w, chain, order=order, params={"r": 0.55})
            assert ch.integrate(w, chain, order=order, params={"r": 0.55}) == want
            assert ch.integrate(w, chain, order=order, params={"r": 0.55}) == want


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("h", [0.02, 0.1])
def test_invariance_check_matches_one_time_reference(degree, h):
    w, V = _form(degree), _swirl()
    for chain in _chains(degree):
        for mode in ("invariant", "identity"):
            got = ch.invariance_check(w, chain, V, mode=mode, h=h)
            assert got == oc.reference_invariance_check(w, chain, V, mode=mode, h=h)


def test_blowup_raises_like_reference():
    V = fm.VectorField(CHART, (scalar("x^2 + 1"), ex.ZERO, ex.ZERO, ex.ZERO))
    w, chain = _form(1), _expr_chain(1)
    for run, reference in (
        (lambda: ch.advect(chain, V, 50.0, steps=8),
         lambda: oc.reference_advect(chain, V, 50.0, steps=8)),
        (lambda: ch.invariance_check(w, chain, V, h=0.9),
         lambda: oc.reference_invariance_check(w, chain, V, h=0.9)),
    ):
        with pytest.raises(ch.AdvectionError) as got:
            run()
        with pytest.raises(ch.AdvectionError) as want:
            reference()
        assert str(got.value) == str(want.value)


def test_singular_integrand_raises_like_reference():
    w = fm.form_from_coeffs(CHART, 1, {(0,): scalar("ln(x)"), (1,): scalar("y")})
    V = _swirl()
    for chain in _chains(1):
        for run, reference in (
            (lambda: ch.integrate(w, chain), lambda: oc.reference_integrate(w, chain)),
            (lambda: ch.invariance_check(w, chain, V),
             lambda: oc.reference_invariance_check(w, chain, V)),
        ):
            with pytest.raises(ex.SingularityError) as got:
                run()
            with pytest.raises(ex.SingularityError) as want:
                reference()
            assert str(got.value) == str(want.value)
            assert got.value.subexpression == want.value.subexpression
            assert got.value.point == want.value.point
            assert "on cell circle" in str(got.value)


def test_quadrature_and_interpolation_constants_are_read_only():
    nodes = ch._lobatto_nodes(7)
    query = ch._gl_axis(8)[0]
    cached = [
        *ch._gl_axis(8),
        ch._gl_weights(8, 3),
        ch._axis_operator(ch._axis_bytes(nodes), ch._axis_bytes(query), False),
        ch._axis_operator(ch._axis_bytes(nodes), ch._axis_bytes(query), True),
    ]
    for a in cached:
        with pytest.raises(ValueError):
            a[0] = 1.0
    assert ch._gl_axis(8)[0] is query


def test_cell_map_is_differentiated_once(monkeypatch):
    w, chain = _form(2), _expr_chain(2)
    ch.integrate(w, chain)
    calls = []
    real = ex.differentiate
    monkeypatch.setattr(ex, "differentiate", lambda e, i: calls.append(i) or real(e, i))
    ch.integrate(w, chain)
    assert calls == []


def _record_tapes(monkeypatch) -> tuple[list, list]:
    """(roots of each tape compiled, each tape run) from here on."""
    compiled, runs = [], []
    init, run = ex.Tape.__init__, ex.Tape.run
    monkeypatch.setattr(
        ex.Tape, "__init__", lambda self, roots: compiled.append(roots) or init(self, roots)
    )
    monkeypatch.setattr(
        ex.Tape, "run", lambda self, *a, **k: runs.append(self) or run(self, *a, **k)
    )
    return compiled, runs


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_integrate_runs_the_form_tape_once(monkeypatch, degree):
    # both quadrature orders and every cell go through one run of the form's
    # tape, and a second integral compiles nothing
    w, chain = _form(degree), _expr_chain(degree)
    want = ch.integrate(w, chain)
    compiled, runs = _record_tapes(monkeypatch)
    assert ch.integrate(w, chain) == want
    assert compiled == []
    assert [t for t in runs if t is w.tape] == [w.tape]


def test_rk4_flow_runs_one_tape_per_stage(monkeypatch):
    V = _swirl()
    X0 = np.random.default_rng(4).uniform(-1.0, 1.0, size=(30, 4))
    compiled, runs = _record_tapes(monkeypatch)
    ch.rk4_flow(V, X0, 0.1, 5)
    assert compiled == [V.effective_components()]
    assert runs == [V.tape] * 20
