"""Chain integration, advection, invariance checks, and period spectra."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

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
        got = ch._advect_all([chain], V, times, steps)[0]
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


def _exact_det(M) -> Fraction:
    """Determinant of a square list of Fractions by fraction-exact
    Gaussian elimination."""
    A = [list(row) for row in M]
    det = Fraction(1)
    for c in range(len(A)):
        pivot = next((r for r in range(c, len(A)) if A[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            A[c], A[pivot] = A[pivot], A[c]
            det = -det
        det *= A[c][c]
        for r in range(c + 1, len(A)):
            f = A[r][c] / A[c][c]
            A[r] = [a - f * b for a, b in zip(A[r], A[c])]
    return det


def _exact_permanent(M) -> Fraction:
    k = len(M)
    return sum(
        (math.prod((M[i][s[i]] for i in range(k)), start=Fraction(1))
         for s in itertools.permutations(range(k))),
        start=Fraction(0),
    )


def _minors_of(J: np.ndarray, idx: tuple[int, ...]) -> np.ndarray:
    """`_Quadrature.minor` on the stacked Jacobians J."""
    return ch._Quadrature.minor(SimpleNamespace(_flatJ=J, _minors={}), idx)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_minor_is_within_the_leibniz_rounding_bound(k):
    # each minor against the exact determinant of the same float entries:
    # k - 1 products per term and k! - 1 sums give n = k! + k - 2 roundings,
    # so |err| <= gamma_n * perm(|M|) (Higham, Accuracy and Stability of
    # Numerical Algorithms, section 3.1)
    rng = np.random.default_rng(16 + k)
    rows = 30
    plain = rng.uniform(-3.0, 3.0, size=(rows, k + 1, k))
    # the minors of rows (0, ..., k - 2, k) are near-singular and exactly
    # singular: row k is a combination of rows 0..k-2 off by ~1e-12, or a
    # copy of row 0, or row 0 scaled exactly by 2 (for k = 1, a tiny entry
    # or zero)
    near, singular = plain.copy(), plain.copy()
    mix = rng.uniform(-1.0, 1.0, size=(rows, k - 1))
    near[:, k, :] = np.einsum("ri,rij->rj", mix, plain[:, : k - 1, :]) if k > 1 else 1e-150
    near[:, k, :] *= 1.0 + 1e-12 * rng.standard_normal((rows, k))
    singular[: rows // 2, k, :] = singular[: rows // 2, 0, :] if k > 1 else 0.0
    singular[rows // 2 :, k, :] = 2.0 * singular[rows // 2 :, 0, :] if k > 1 else 0.0
    J = np.concatenate([plain, near, singular])
    n = math.factorial(k) + k - 2
    u = Fraction(2) ** -53
    gamma = n * u / (1 - n * u)
    for idx in itertools.combinations(range(k + 1), k):
        got = _minors_of(J, idx)
        for r in range(J.shape[0]):
            M = [[Fraction(float(J[r, i, j])) for j in range(k)] for i in idx]
            err = abs(Fraction(float(got[r])) - _exact_det(M))
            assert err <= gamma * _exact_permanent([[abs(m) for m in row] for row in M])


def test_one_by_one_minor_is_the_entry():
    J = np.array([2.0 * math.pi, 0.1, -2.0 * math.pi]).reshape(3, 1, 1)
    assert _minors_of(J, (0,)).tolist() == [2.0 * math.pi, 0.1, -2.0 * math.pi]


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


def test_expr_cell_compiles_one_map_tape(monkeypatch):
    # the coordinate check and the node grid of advection read one tape of
    # the map alone; the map with its partials is compiled for quadrature
    u = ch.param_chart(3)
    comps = tuple(ps.parse_scalar(t, u) for t in ("u0*u1", "sin(u2)", "u0 + u2", "0.5"))
    compiled, runs = _record_tapes(monkeypatch)
    cell = ch.ExprCell(CHART, 3, comps, name="patch")
    assert compiled == [cell.components]
    axes = [ch._lobatto_nodes(4)] * 3
    grid = cell.eval_grid(axes)
    assert compiled == [cell.components] and runs == [cell.map_tape]
    assert np.array_equal(grid, oc.reference_eval_grid(cell, axes))
    with pytest.raises(ch.ChainError, match="uses parameter u2 but the cell has degree 2"):
        ch.ExprCell(CHART, 2, comps)


def test_advection_evaluates_the_cell_map_alone():
    # d sqrt(u0)/du0 = 1 / (2*sqrt(u0)) is singular at the Lobatto node
    # u0 = 0, but advection reads only the map there
    u = ch.param_chart(1)
    cell = ch.ExprCell(CHART, 1, (
        ps.parse_scalar("sqrt(u0)", u), ex.const(0.3), ps.parse_scalar("u0^2", u), ex.ZERO,
    ), name="root")
    axes = (ch._lobatto_nodes(ch.DEFAULT_FIT_NODES[1]),)
    assert np.array_equal(cell.eval_grid(axes), oc.reference_eval_grid(cell, axes))
    chain, V = ch.Chain(1, (cell,), name="arc"), _swirl()
    _assert_same_chain(ch.advect(chain, V, 0.05), oc.reference_advect(chain, V, 0.05))


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_interp_cell_grids_match_axis_by_axis_composition(monkeypatch, degree):
    # the map and every Jacobian column apply the same operators in the
    # same order as interpolating (or differentiating) one axis at a time
    cell = _chains(degree)[1].cells[1]
    assert isinstance(cell, ch.InterpCell)
    axes = [ch._gl_axis(o)[0] for o in (5, 6, 7)[:degree]]

    def composed(derivative_axis):
        out = cell.values
        for k, q in enumerate(axes):
            op = ch._axis_operator(
                ch._axis_bytes(cell.node_axes[k]), ch._axis_bytes(q), k == derivative_axis
            )
            out = ch._apply_axis(op, out, k)
        return out.reshape(-1, cell.chart.dim)

    applied = []
    real = ch._apply_axis
    monkeypatch.setattr(ch, "_apply_axis", lambda *a: applied.append(a[2]) or real(*a))
    X, J = cell.grids(axes)
    # the shared interpolation prefix: 2, 5 and 9 operators for degrees 1-3
    assert len(applied) == degree * (degree + 3) // 2
    monkeypatch.setattr(ch, "_apply_axis", real)
    assert np.array_equal(X, composed(None))
    assert J.shape == (len(X), cell.chart.dim, degree)
    for j in range(degree):
        assert np.array_equal(J[:, :, j], composed(j))


def _blowup_field():
    return fm.VectorField(CHART, (scalar("x^2 + 1"), ex.ZERO, ex.ZERO, ex.ZERO))


def _far_circle():
    # x' = x^2 + 1 leaves every bound before s = 0.6 from x >= 2.7
    cell = ch.circle_cell(CHART, center=(3.0, 0.0), radius=0.3, fixed={2: 0.0, 3: 0.0})
    return ch.Chain(1, (cell,), closed=True, name="far")


def _log_form():
    return fm.form_from_coeffs(CHART, 1, {(0,): scalar("ln(x)"), (1,): scalar("y")})


def _raised(run) -> Exception:
    with pytest.raises((ch.ChainError, ex.ExprError)) as info:
        run()
    return info.value


def _first_error(pairs, V, h) -> tuple[Exception, Exception]:
    """The error of checking the pairs one by one, through the library and
    through the reference."""
    def one_by_one(check):
        for w, chain in pairs:
            check(w, chain, V, h=h)

    return (
        _raised(lambda: one_by_one(ch.invariance_check)),
        _raised(lambda: one_by_one(oc.reference_invariance_check)),
    )


@pytest.mark.parametrize(
    "pairs,V,h",
    [
        # the second pair blows up
        pytest.param(lambda: [(_form(1), _expr_chain(1)), (_form(1), _far_circle())],
                     _blowup_field, 0.3, id="later-blowup"),
        # a later pair's integrand is singular on its advected chain
        pytest.param(lambda: [(_form(1), _expr_chain(1)), (_form(2), _expr_chain(2)),
                              (_log_form(), _expr_chain(1))],
                     _swirl, 0.02, id="later-singular"),
        # an earlier pair is singular, a later one blows up: the earlier wins
        pytest.param(lambda: [(_log_form(), _expr_chain(1)), (_form(1), _far_circle())],
                     _blowup_field, 0.3, id="singular-before-blowup"),
    ],
)
def test_batch_raises_the_first_error_of_one_by_one_checks(pairs, V, h):
    pairs, V = pairs(), V()
    got = _raised(lambda: ch.invariance_checks(pairs, V, h=h))
    for want in _first_error(pairs, V, h):
        assert type(got) is type(want)
        assert str(got) == str(want)
        if isinstance(want, ex.SingularityError):
            assert (got.subexpression, got.point) == (want.subexpression, want.point)


def test_batch_matches_reference_on_mixed_degrees():
    V = _swirl()
    dt = fm.one_form(CHART, (ex.ZERO, ex.ZERO, ex.ZERO, ex.ONE))
    assert fm.lie_derivative(V, dt).coeffs == {}  # the Lie integral skips evaluation
    pairs = [(_form(d), c) for d in (2, 1, 3) for c in _chains(d)] + [(dt, _expr_chain(1))]
    for mode in ("invariant", "identity"):
        got = ch.invariance_checks(pairs, V, mode=mode)
        want = [oc.reference_invariance_check(w, c, V, mode=mode) for w, c in pairs]
        assert got == want
    assert ch.invariance_checks([], V) == []


KELVIN = """\
[run]
battery = theorems

[system]
velocity = -W*y, W*x, 0
pressure_potential = 0.5*W^2*(x^2 + y^2)

[params]
W = 0.75

[chain circle0]
degree = 1
components = 0.1 + 0.6*cos(2*pi*u0), -0.2 + 0.6*sin(2*pi*u0), 0.3, 0.2
closed = true

[chain circle1]
degree = 1
components = -0.3 + 0.4*cos(2*pi*u0), 0.2, 0.1 + 0.4*sin(2*pi*u0), -0.1
closed = true

[chain circle2]
degree = 1
components = 0.2, 0.5*cos(2*pi*u0), 0.5*sin(2*pi*u0), 0.4
closed = true

[chain torus]
degree = 2
components = 0.1 + (1.1 + 0.3*cos(2*pi*u1))*cos(2*pi*u0), \
-0.1 + (1.1 + 0.3*cos(2*pi*u1))*sin(2*pi*u0), 0.3*sin(2*pi*u1), 0.2
closed = true

[chain shell]
degree = 3
components = (1.4 + 0.4*cos(2*pi*u2))*cos(2*pi*u0), (1.4 + 0.4*cos(2*pi*u2))*sin(2*pi*u0), \
0.4*sin(2*pi*u2) + 0.2*cos(2*pi*u1), 0.2*sin(2*pi*u1)
closed = true
"""


def test_theorems_battery_advects_once_per_process(monkeypatch):
    # Kelvin: rigid rotation with centripetal pressure; 3 circles, a torus
    # and a shell all move along the spacetime process in one batch
    import formflow.cli as cli

    cfg = cli.parse_config(KELVIN)
    flows, grids, batches = [], [], []
    real_flow, real_checks = ch.rk4_flow, ch.invariance_checks
    real_map, real_grids = ch.ExprCell.eval_grid, ch.ExprCell.grids

    def flow(V, X0, dt, steps, params=None):
        flows.append((id(V), steps))
        return real_flow(V, X0, dt, steps, params)

    def recorded(real, jacobian):
        def cell_grid(self, axes, params=None):
            grids.append((id(self), tuple(ch._axis_bytes(a) for a in axes), jacobian))
            return real(self, axes, params)
        return cell_grid

    def checks(pairs, V, *args, **kwargs):
        grids.clear()
        out = real_checks(pairs, V, *args, **kwargs)
        batches.append((id(V), [c.name for _, c in pairs], list(grids)))
        return out

    monkeypatch.setattr(ch, "rk4_flow", flow)
    monkeypatch.setattr(ch.ExprCell, "eval_grid", recorded(real_map, False))
    monkeypatch.setattr(ch.ExprCell, "grids", recorded(real_grids, True))
    monkeypatch.setattr(ch, "invariance_checks", checks)
    report = cli.run(cfg)

    assert report.passed
    [(V, names, seen)] = batches
    assert names == ["torus", "circle0", "circle1", "circle2", "shell"]
    assert flows == [(V, 8)]  # every stencil time of every chain: 8 steps
    # each base cell: the map alone at its fit nodes once, then the map and
    # its Jacobian at each quadrature order once
    assert len(seen) == len(set(seen)) == 3 * 5
    assert sum(not jacobian for _, _, jacobian in seen) == 5
