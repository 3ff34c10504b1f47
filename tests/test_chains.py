"""Chain integration, advection, invariance checks, and period spectra."""

from __future__ import annotations

import gc
import itertools
import math
import tracemalloc
import weakref
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
    circle = ch.Chain(ch.circle_cell(CHART, **kw), closed=True)
    disk = ch.Chain(oc.disk_cell(CHART, **kw))
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
    disk = ch.Chain(oc.disk_cell(CHART, radius=0.8, fixed={2: 0.0, 3: 0.0}))
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
    # a chain's degree and name are its cell's, and the degree is 1 to 4
    cell = ch.circle_cell(CHART, fixed={2: 0.0, 3: 0.0})
    chain = ch.Chain(cell, closed=True)
    assert (chain.degree, chain.name, chain.cells) == (1, "circle", (cell,))
    for degree in (0, 5):
        with pytest.raises(ch.ChainError, match="between 1 and 4"):
            ch.Chain(ch.ExprCell(CHART, degree, (ex.ZERO,) * 4))


def test_cell_rejects_excess_parameters():
    u = ch.param_chart(2)
    with pytest.raises(ch.ChainError):
        ch.ExprCell(CHART, 1, (
            ps.parse_scalar("u0 + u1", u), ex.ZERO, ex.ZERO, ex.ZERO,
        ))
    with pytest.raises(ch.ChainError):
        ch.ExprCell(CHART, 1, (ex.ZERO, ex.ZERO, ex.ZERO))  # wrong arity


def test_advected_integral_matches_flow_oracle():
    # finite-time check at dt = 0.1: advect an off-center circle through the
    # decaying shear and compare with direct quadrature of the composed map
    s = sy.get_preset("ns.decaying_shear")
    V = s.processes["spacetime"]
    off = ch.Chain(
        ch.circle_cell(CHART, center=(0.4, 0.2), radius=0.5, fixed={2: 0.0, 3: 0.0}),
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
    circ = r.chains["circle"]
    assert ch.advect(circ, r.processes["spacetime"], 0.0, params=r.params) is circ


def test_advect_blowup_raises():
    V = fm.VectorField(CHART, (scalar("x^2 + 1"), ex.ZERO, ex.ZERO, ex.ZERO))
    circ = ch.Chain(ch.circle_cell(CHART, fixed={2: 0.0, 3: 0.0}), closed=True)
    with pytest.raises(ch.AdvectionError):
        ch.advect(circ, V, 50.0, steps=8)


def test_invariance_rigid_rotation_circulation():
    r = sy.get_preset("euler.rigid_rotation")
    res = ch.invariance_check(
        r.action, r.chains["circle"], r.processes["spacetime"], params=r.params
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
            ch.circle_cell(CHART, center=center, radius=0.5, fixed={2: 0.0, 3: 0.0}),
            closed=True,
        )
    else:
        chn = p.chains[chain]
    # h = 0.005 keeps the O(h^4) stencil truncation below the identity
    # tolerance on the steep torsion drift
    res = ch.invariance_check(
        p.action, chn, p.processes[process], mode="identity", h=0.005, params=p.params
    )
    assert res.passed
    assert abs(res.derivative_estimate) > 1e-3  # genuinely drifting
    rel = res.identity_gap / max(1.0, abs(res.lie_integral))
    assert rel <= 1e-5


def test_drift_mode_flags_torsion_counterexample():
    t = sy.get_preset("em.torsion_nonzero")
    res = ch.invariance_check(
        t.action, t.chains["circle"], t.processes["torsion"],
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
    cycles = [c for c in p.chains.values() if c.degree == 1]
    spec = ch.period_spectrum(p.action, cycles, p.context, params=p.params)
    assert spec.periods[0] == pytest.approx(-2 * math.pi, abs=1e-8)
    assert spec.periods[1] == pytest.approx(-4 * math.pi, abs=1e-8)
    assert spec.base == pytest.approx(2 * math.pi, abs=1e-8)
    assert spec.ratios[0] == pytest.approx(-1.0, abs=1e-9)
    assert spec.ratios[1] == pytest.approx(-2.0, abs=1e-9)
    assert max(spec.integer_deviation) < 1e-9


def test_period_spectrum_rejects_non_closed_forms():
    w = fm.form_from_coeffs(CHART, 1, {(1,): scalar("x")})
    circle = ch.Chain(ch.circle_cell(CHART, fixed={2: 0.0, 3: 0.0}), closed=True)
    with pytest.raises(ch.ChainError):
        ch.period_spectrum(w, [circle], ex.ZeroTester(ex.default_box(4)))


def test_period_spectrum_all_zero_has_no_base():
    phi = fm.exterior_derivative(fm.scalar_form(CHART, scalar("x*y + z")))
    circle = ch.Chain(ch.circle_cell(CHART, fixed={2: 0.0, 3: 0.0}), closed=True)
    spec = ch.period_spectrum(phi, [circle], ex.ZeroTester(ex.default_box(4)))
    assert spec.base is None
    assert spec.ratios == (0.0,)


def test_box_cell_volume():
    cell = oc.box_cell(CHART, {0: (0.0, 2.0), 1: (-1.0, 1.0), 3: (0.0, 0.5)})
    vol = fm.form_from_coeffs(CHART, 3, {(0, 1, 3): ex.ONE})
    res = ch.integrate(vol, ch.Chain(cell))
    assert res.value == pytest.approx(2.0 * 2.0 * 0.5, abs=1e-12)


def test_interp_cell_reproduces_expr_cell_integrals(stokes_pair):
    # re-fit the circle through the interpolation path advect() uses
    w, circle, _ = stokes_pair
    moved = ch.advect(circle, fm.VectorField(
        CHART, (ex.ZERO, ex.ZERO, ex.ZERO, ex.ONE)), 1e-9)
    assert isinstance(moved.cell, ch.InterpCell)
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


# the ring binds r through the params of each call
R = {"r": 0.6}


def _expr_chain(degree: int, cell: int = 0) -> ch.Chain:
    """One of the degree's two expression chains, so every cell flavour is
    covered: a circle or a ring, a disk or a box, a box or a shell."""
    u = ch.param_chart(degree)
    if degree == 1:
        ring = ch.ExprCell(CHART, 1, (
            ps.parse_scalar("r*cos(2*pi*u0)", u), ex.Const(0.1),
            ps.parse_scalar("r*sin(2*pi*u0)", u), ex.Const(0.2),
        ), name="ring")
        cells = (ch.circle_cell(CHART, center=(0.1, -0.2), radius=0.5, fixed={2: 0.3}), ring)
    elif degree == 2:
        cells = (
            oc.disk_cell(CHART, center=(0.2, 0.1), radius=0.7, fixed={2: -0.1, 3: 0.0}),
            oc.box_cell(CHART, {1: (-0.5, 0.4), 2: (0.0, 0.6)}, fixed={0: 0.3, 3: 0.1}),
        )
    else:
        shell = ch.ExprCell(CHART, 3, (
            ps.parse_scalar("(1.2 + 0.4*cos(2*pi*u2))*cos(2*pi*u0)", u),
            ps.parse_scalar("(1.2 + 0.4*cos(2*pi*u2))*sin(2*pi*u0)", u),
            ps.parse_scalar("0.4*sin(2*pi*u2) + 0.2*cos(2*pi*u1)", u),
            ps.parse_scalar("0.2*sin(2*pi*u1)", u),
        ), name="shell")
        cells = (oc.box_cell(CHART, {0: (-0.3, 0.5), 1: (0.0, 0.4), 2: (-0.2, 0.2)}), shell)
    return ch.Chain(cells[cell], closed=degree != 2)


def _form(degree: int) -> fm.DifferentialForm:
    A = _action()
    return {1: A, 2: fm.exterior_derivative(A), 3: fm.wedge(A, fm.exterior_derivative(A))}[degree]


def _chains(degree: int) -> list[ch.Chain]:
    """Each expression chain of the degree, then its interpolated image
    after a short flow."""
    out = []
    for cell in (0, 1):
        base = _expr_chain(degree, cell)
        out += [base, oc.reference_advect(base, _swirl(), 0.05, params=R)]
    return out


def _assert_same_chain(got: ch.Chain, want: ch.Chain) -> None:
    assert (got.degree, got.closed, got.name) == (want.degree, want.closed, want.name)
    a, b = got.cell, want.cell
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
        got = ch._advect_all([chain], V, times, steps, R)[0]
        for t, moved in zip(times, got, strict=True):
            if t == 0.0:
                assert moved is chain
                continue
            want = oc.reference_advect(chain, V, t, steps=steps, params=R)
            _assert_same_chain(moved, want)
            _assert_same_chain(ch.advect(chain, V, t, steps=steps, params=R), want)
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
            got = ch.invariance_check(w, chain, V, mode=mode, h=h, params=R)
            assert got == oc.reference_invariance_check(w, chain, V, mode=mode, h=h, params=R)


def test_an_unbound_cell_parameter_raises():
    # the ring's r binds only through the call's params
    w, ring, V = _form(1), _expr_chain(1, 1), _swirl()
    for run in (lambda: ch.integrate(w, ring), lambda: ch.invariance_checks([(w, ring)], V)):
        with pytest.raises(ex.EvalError, match="unbound parameter 'r'"):
            run()


def test_a_cell_map_that_fails_at_the_quadrature_nodes_raises_each_time(monkeypatch):
    # ln(0.5 - u0) is singular at the Gauss-Legendre nodes past u0 = 0.5:
    # the quadrature raises as it is built, so a run memo keeps nothing and
    # each integral builds it again
    u = ch.param_chart(1)
    cell = ch.ExprCell(CHART, 1, (
        ps.parse_scalar("cos(2*pi*u0)", u), ps.parse_scalar("sin(2*pi*u0)", u),
        ps.parse_scalar("ln(0.5 - u0)", u), ex.ZERO,
    ), name="cut")
    chain, w = ch.Chain(cell, closed=True), _form(1)
    want = _raised(lambda: oc.reference_integrate(w, chain))
    assert isinstance(want, ex.SingularityError)
    builds = []

    class Quadrature(ch._Quadrature):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(ch, "_Quadrature", Quadrature)
    with ex.run_memo():
        for _ in range(2):
            _raised_alike(_raised(lambda: ch.integrate(w, chain)), want)
    assert len(builds) == 2


def test_blowup_raises_like_reference():
    V = fm.VectorField(CHART, (scalar("x^2 + 1"), ex.ZERO, ex.ZERO, ex.ZERO))
    w = _form(1)
    for chain in (_expr_chain(1, 0), _expr_chain(1, 1)):
        for run, reference in (
            (lambda: ch.advect(chain, V, 50.0, steps=8, params=R),
             lambda: oc.reference_advect(chain, V, 50.0, steps=8, params=R)),
            (lambda: ch.invariance_check(w, chain, V, h=0.9, params=R),
             lambda: oc.reference_invariance_check(w, chain, V, h=0.9, params=R)),
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
            (lambda: ch.integrate(w, chain, params=R),
             lambda: oc.reference_integrate(w, chain, params=R)),
            (lambda: ch.invariance_check(w, chain, V, params=R),
             lambda: oc.reference_invariance_check(w, chain, V, params=R)),
        ):
            with pytest.raises(ex.SingularityError) as got:
                run()
            with pytest.raises(ex.SingularityError) as want:
                reference()
            assert str(got.value) == str(want.value)
            assert got.value.subexpression == want.value.subexpression
            assert got.value.point == want.value.point
            assert f"on cell {chain.name}" in str(got.value)


def test_quadrature_and_interpolation_constants_are_read_only():
    nodes = ch._lobatto_nodes(7)
    query = ch._gl_axis(8)[0]
    cached = [
        nodes,
        *ch._gl_axis(8),
        ch._gl_weights(8, 3),
        ch._axis_operator(ch._axis_bytes(nodes), ch._axis_bytes(query), False),
        ch._axis_operator(ch._axis_bytes(nodes), ch._axis_bytes(query), True),
    ]
    for a in cached:
        with pytest.raises(ValueError):
            a[0] = 1.0
    assert ch._gl_axis(8)[0] is query and ch._lobatto_nodes(7) is nodes


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
    """`_Quadrature.minor` on the stacked Jacobians J, shaped (rows, n, p),
    held as the quadrature holds them: one contiguous array per entry."""
    entries = np.ascontiguousarray(np.moveaxis(J, 0, -1))
    return ch._Quadrature.minor(SimpleNamespace(_J=entries, _minors={}), idx)


def _grids_of(cell, axes) -> tuple[np.ndarray, np.ndarray]:
    """The InterpCell's map and Jacobian at the grid of axes, shaped (m, n)
    and (m, n, p), from _interp_grids on a stack of one."""
    n, p = cell.chart.dim, cell.degree
    X = np.empty((1,) + tuple(len(a) for a in axes) + (n,))
    J = np.empty(X.shape + (p,))
    ch._interp_grids(cell.values[None], cell.node_axes, axes, X, J)
    return X.reshape(-1, n), J.reshape(-1, n, p)


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
    w, chains = _form(2), [_expr_chain(2, 0), _expr_chain(2, 1)]
    for chain in chains:
        ch.integrate(w, chain)
    calls = []
    real = ex.differentiate
    monkeypatch.setattr(ex, "differentiate", lambda e, i: calls.append(i) or real(e, i))
    for chain in chains:
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
    # both quadrature orders go through one run of the form's tape, and a
    # second integral compiles nothing
    w = _form(degree)
    for cell in (0, 1):
        chain = _expr_chain(degree, cell)
        want = ch.integrate(w, chain, params=R)
        compiled, runs = _record_tapes(monkeypatch)
        assert ch.integrate(w, chain, params=R) == want
        assert compiled == []
        assert [t for t in runs if t is w.tape] == [w.tape]
        monkeypatch.undo()


def test_rk4_flow_runs_one_tape_per_stage(monkeypatch):
    V = _swirl()
    X0 = np.random.default_rng(4).uniform(-1.0, 1.0, size=(30, 4))
    compiled, runs = _record_tapes(monkeypatch)
    ch.rk4_flow(V, X0, 0.1, 5)
    assert compiled == [V.effective_components()]
    assert runs == [V.tape] * 20


def _swirl_with_param():
    return fm.VectorField(CHART, (
        scalar("-k*y + 0.3*z^2"), scalar("x + 0.2*sin(t)"), scalar("0.25*cos(x)*y"), ex.ONE,
    ))


@pytest.mark.parametrize("steps", [1, 5])
def test_rk4_flow_matches_the_reference_bit_for_bit(steps):
    # the points are held one row per coordinate and the stages run in
    # place, with the reference's arithmetic in the reference's order
    V, params = _swirl_with_param(), {"k": 1.3}
    X0 = np.random.default_rng(7).uniform(-1.0, 1.0, size=(30, 4))
    kept = X0.copy()
    got = ch.rk4_flow(V, X0, 0.1, steps, params)
    assert np.array_equal(got, oc.reference_rk4_flow(V, X0, 0.1, steps, params))
    assert got.shape == X0.shape and got.flags.c_contiguous
    # one time per row: each block of rows moves as the reference moves it
    dts = np.repeat([0.1, -0.05, 0.3], 10)
    want = [oc.reference_rk4_flow(V, X0[i : i + 10], dts[i], steps, params) for i in (0, 10, 20)]
    assert np.array_equal(ch.rk4_flow(V, X0, dts, steps, params), np.concatenate(want))
    assert np.array_equal(X0, kept)


def test_rk4_flow_raises_like_the_reference():
    # a row whose second stage crosses x = 0, where ln(x) is singular, and
    # a row that leaves every bound under x' = x^2 + 1 while the rest stay
    X0 = np.random.default_rng(8).uniform(0.5, 1.0, size=(30, 4))
    X0[17, 0] = 0.01
    V = fm.VectorField(CHART, (ex.Const(-1.0), scalar("ln(x)"), ex.ZERO, ex.ZERO))
    got = _raised(lambda: ch.rk4_flow(V, X0, 0.1, 1))
    _raised_alike(got, _raised(lambda: oc.reference_rk4_flow(V, X0, 0.1, 1)))
    assert isinstance(got, ex.SingularityError) and "ln(x0) at point (-0.04, " in str(got)
    X0 = np.random.default_rng(9).uniform(-3.0, -1.0, size=(30, 4))
    X0[11, 0] = 3.0
    V = _blowup_field()
    got = _raised(lambda: ch.rk4_flow(V, X0, 0.6, 8))
    _raised_alike(got, _raised(lambda: oc.reference_rk4_flow(V, X0, 0.6, 8)))
    assert isinstance(got, ch.AdvectionError)
    assert np.all(np.abs(ch.rk4_flow(V, np.delete(X0, 11, axis=0), 0.6, 8)) < 1e8)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_quadrature_rows_are_the_reference_grids(degree):
    # each segment's points and Jacobians are the reference grids, for
    # expression and interpolated cells and the four stacked copies of a
    # stencil; every coordinate and every Jacobian entry is one contiguous
    # array over the rows
    params, n = {"r": 0.55}, CHART.dim
    chains = _chains(degree)
    for base, moved in zip(chains[::2], chains[1::2]):
        for copies in ([base], [moved], _copies(base, 0.02, params)):
            quad = ch._Quadrature(copies, None, params)
            assert quad.flatX.T.flags.c_contiguous and quad._J.flags.c_contiguous
            assert len(quad.segments) == 2 * len(copies)
            for i, (start, stop) in enumerate(quad.segments):
                cell = copies[i // 2].cell
                axes = [ch._gl_axis(2 * quad.order if i % 2 else quad.order)[0]] * degree
                X = oc.reference_eval_grid(cell, axes, params).reshape(-1, n)
                J = oc.reference_jacobian_grid(cell, axes, params).reshape(-1, n, degree)
                assert np.array_equal(quad.flatX[start:stop], X)
                assert np.array_equal(np.moveaxis(quad._J[..., start:stop], -1, 0), J)


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
        ps.parse_scalar("sqrt(u0)", u), ex.Const(0.3), ps.parse_scalar("u0^2", u), ex.ZERO,
    ), name="root")
    axes = (ch._lobatto_nodes(ch.DEFAULT_FIT_NODES[1]),)
    assert np.array_equal(cell.eval_grid(axes), oc.reference_eval_grid(cell, axes))
    chain, V = ch.Chain(cell), _swirl()
    _assert_same_chain(ch.advect(chain, V, 0.05), oc.reference_advect(chain, V, 0.05))


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_interp_cell_grids_match_axis_by_axis_composition(monkeypatch, degree):
    # the map and every Jacobian column apply the same operators in the
    # same order as interpolating (or differentiating) one axis at a time
    cell = _chains(degree)[3].cell  # the ring, box or shell, advected
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
    X, J = _grids_of(cell, axes)
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
    cell = ch.circle_cell(
        CHART, center=(3.0, 0.0), radius=0.3, fixed={2: 0.0, 3: 0.0}, name="far"
    )
    return ch.Chain(cell, closed=True)


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
            check(w, chain, V, h=h, params=R)

    return (
        _raised(lambda: one_by_one(ch.invariance_check)),
        _raised(lambda: one_by_one(oc.reference_invariance_check)),
    )


@pytest.mark.parametrize(
    "pairs,V,h,alone",
    [
        # the second pair blows up
        pytest.param(lambda: [(_form(1), _expr_chain(1, 1)), (_form(1), _far_circle())],
                     _blowup_field, 0.3, slice(None), id="later-blowup"),
        # a later pair's integrand is singular on its advected chain
        pytest.param(lambda: [(_form(1), _expr_chain(1)), (_form(2), _expr_chain(2, 1)),
                              (_log_form(), _expr_chain(1, 1))],
                     _swirl, 0.02, slice(None), id="later-singular"),
        # an earlier pair is singular, a later one blows up: every chain is
        # advected before any integral, so the far circle's blow-up wins
        pytest.param(lambda: [(_log_form(), _expr_chain(1)), (_form(1), _far_circle())],
                     _blowup_field, 0.3, slice(1, None), id="singular-before-blowup"),
    ],
)
def test_batch_raises_its_advection_error_then_the_first_pair_error(pairs, V, h, alone):
    # the error of checking the pairs[alone] one by one
    pairs, V = pairs(), V()
    got = _raised(lambda: ch.invariance_checks(pairs, V, h=h, params=R))
    for want in _first_error(pairs[alone], V, h):
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
        got = ch.invariance_checks(pairs, V, mode=mode, params=R)
        want = [oc.reference_invariance_check(w, c, V, mode=mode, params=R) for w, c in pairs]
        assert got == want
    assert ch.invariance_checks([], V) == []


# ---------------------------------------------------------------------------
# The stacked stencil: four advected copies in one quadrature


def _scaled_form(degree: int) -> fm.DifferentialForm:
    """The degree's form times a parameter k, so the stencil binds one."""
    return fm.scale_form(ex.param("k"), _form(degree))


def _copies(chain: ch.Chain, h: float, params=None) -> list[ch.Chain]:
    return ch._advect_all([chain], _swirl(), (h, -h, 2 * h, -2 * h), params=params)[0]


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("h", [0.02, 0.1])
def test_stencil_integrals_equal_four_integrate_calls(monkeypatch, degree, h):
    # every expression chain and its image, and a bound parameter k; the
    # stacked pass integrates nothing one copy at a time
    w, params = _scaled_form(degree), {"k": 1.3, "r": 0.55}
    for chain in _chains(degree):
        copies = _copies(chain, h, params)
        want = [ch.integrate(w, c, params=params) for c in copies]
        assert want == [oc.reference_integrate(w, c, params=params) for c in copies]
        stacks = []
        real = ch._interp_grids
        monkeypatch.setattr(ch, "integrate", None)
        monkeypatch.setattr(ch, "_interp_grids", lambda v, *a: stacks.append(len(v)) or real(v, *a))
        assert ch._Quadrature(copies, None, params).integrals(w) == want
        monkeypatch.undo()
        assert stacks == [4] * 2


def _raised_alike(got: Exception, want: Exception) -> None:
    assert type(got) is type(want) and str(got) == str(want)
    if isinstance(want, ex.SingularityError):
        assert (got.subexpression, got.point) == (want.subexpression, want.point)


def test_stencil_raises_the_first_error_of_four_integrate_calls():
    # ln(a - x) is singular on the copies that reach past x = a: with a
    # between the two largest reaches, on one copy that is not the first;
    # with a between the second and third, on two, whose errors differ
    chain = _chains(1)[1]
    copies = _copies(chain, 0.1)
    reach = [float(ch._Quadrature([c], None, None).flatX[:, 0].max()) for c in copies]
    top = sorted(reach, reverse=True)
    assert reach.index(top[0]) > 0
    cases = [(_scaled_form(1), {"r": 0.55}, "unbound parameter 'k'")]
    for a in ((top[0] + top[1]) / 2.0, (top[1] + top[2]) / 2.0):
        w = fm.form_from_coeffs(CHART, 1, {(0,): scalar(f"ln({a!r} - x)"), (1,): scalar("y")})
        cases.append((w, None, "integrand singular on cell"))
    for form, params, text in cases:
        want = _raised(lambda: [ch.integrate(form, c, params=params) for c in copies])
        got = _raised(lambda: ch._Quadrature(copies, None, params).integrals(form))
        _raised_alike(got, want)
        assert text in str(got)
    # and through the checks, against checking the copies' chain one by one
    V = _swirl()
    for form in [w for w, _, _ in cases[1:]] + [_log_form()]:
        got = _raised(lambda: ch.invariance_checks([(_form(1), chain), (form, chain)], V, h=0.1))
        want = _raised(lambda: oc.reference_invariance_check(form, chain, V, h=0.1))
        _raised_alike(got, want)


def test_interpolated_copies_on_different_node_axes_raise():
    # the stencil's copies share one node grid; copies fitted on another
    # grid, an expression cell among interpolated ones, or two expression
    # cells are not stacked
    base, moved = _chains(1)[:2]
    other = oc.reference_advect(base, _swirl(), 0.05, fit_nodes=12)
    for copies in ([moved, other, moved, moved], [moved, base], [base, base]):
        with pytest.raises(ch.ChainError, match="one node grid"):
            ch._Quadrature(copies, None, None)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_stacked_contraction_matches_each_cell_alone(degree):
    # random node values on random node axes, stacked 1 to 4 deep, at
    # random Gauss-Legendre orders: each stacked item is that cell's own
    # grids, and those are the tensordot oracle's
    rng = np.random.default_rng(40 + degree)
    chart = ch.param_chart(int(rng.integers(degree, 5)))
    for _ in range(40):
        node_axes = tuple(ch._lobatto_nodes(int(rng.integers(2, 12))) for _ in range(degree))
        shape = tuple(len(a) for a in node_axes) + (chart.dim,)
        cells = [
            ch.InterpCell(chart, degree, node_axes, rng.standard_normal(shape))
            for _ in range(int(rng.integers(1, 5)))
        ]
        axes = [ch._gl_axis(int(rng.integers(1, 17)))[0] for _ in range(degree)]
        grid = tuple(len(a) for a in axes)
        X = np.empty((len(cells),) + grid + (chart.dim,))
        J = np.empty(X.shape + (degree,))
        ch._interp_grids(np.stack([c.values for c in cells]), node_axes, axes, X, J)
        for cell, Xc, Jc in zip(cells, X, J):
            alone = _grids_of(cell, axes)
            assert np.array_equal(Xc.reshape(-1, chart.dim), alone[0])
            assert np.array_equal(Jc.reshape(-1, chart.dim, degree), alone[1])
            assert np.array_equal(Xc, oc.reference_eval_grid(cell, axes))
            assert np.array_equal(Jc, oc.reference_jacobian_grid(cell, axes))


def test_stencil_memory_is_bounded_by_its_rows():
    # the shell's four copies at both orders are stored once: their points
    # and Jacobians (`stored`), plus what one tape run and the interpolation
    # hold at a time (about 0.9 * stored here).  Per-cell arrays concatenated
    # into stacked copies would store the points and Jacobians twice, about
    # 2.9 * stored in all.
    w, params = _form(3), {"r": 0.55}
    shell = _expr_chain(3, 1)
    copies = _copies(shell, 0.02, params)
    ch._Quadrature(copies, None, params).integrals(w)  # operators, weights, tape
    order, n = ch.DEFAULT_QUAD_ORDER[3], CHART.dim
    rows = 4 * (order**3 + (2 * order) ** 3)
    stored = rows * (n + n * 3) * 8  # float64
    tracemalloc.start()
    try:
        ch._Quadrature(copies, None, params).integrals(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stored < peak <= 2.5 * stored


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
    # and a shell all move along the spacetime process in one batch, and
    # every grid of a base chain serves the whole run: thermo integrates R
    # over the circles before the batch reuses their quadrature
    import formflow.cli as cli

    cfg = cli.parse_config(KELVIN)
    flows, grids, batches, quads = [], [], [], []
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
        batches.append((id(V), [c.name for _, c in pairs]))
        return real_checks(pairs, V, *args, **kwargs)

    class Quadrature(ch._Quadrature):
        def __init__(self, *args):
            super().__init__(*args)
            quads.append(weakref.ref(self))

    monkeypatch.setattr(ch, "rk4_flow", flow)
    monkeypatch.setattr(ch.ExprCell, "eval_grid", recorded(real_map, False))
    monkeypatch.setattr(ch.ExprCell, "grids", recorded(real_grids, True))
    monkeypatch.setattr(ch, "invariance_checks", checks)
    monkeypatch.setattr(ch, "_Quadrature", Quadrature)
    report = cli.run(cfg)

    assert report.passed
    [(V, names)] = batches
    assert names == ["torus", "circle0", "circle1", "circle2", "shell"]
    assert flows == [(V, 8)]  # every stencil time of every chain: 8 steps
    # over the whole run, each base cell: the map alone at its fit nodes
    # once, then the map and its Jacobian at each quadrature order once
    assert len(grids) == len(set(grids)) == 3 * 5
    assert sum(not jacobian for _, _, jacobian in grids) == 5
    assert len({cell for cell, _, _ in grids}) == 5
    # the run memo held each base chain's quadrature, and none outlives it
    del report
    gc.collect()
    assert quads and all(ref() is None for ref in quads)


def test_theorems_battery_builds_each_lie_derivative_once(monkeypatch):
    # the three circles share the action A and the process J, so L(J)A is
    # one form of the run, built once (a rebuilt form is a new object), and
    # its tape is that form's one cached tape
    import formflow.cli as cli

    cfg = cli.parse_config(KELVIN)
    lies, pairs = [], []
    real_lie, real_checks = fm.lie_derivative, ch.invariance_checks

    def checks(batch, V, *args, **kwargs):
        pairs.extend(batch)
        return real_checks(batch, V, *args, **kwargs)

    monkeypatch.setattr(
        fm, "lie_derivative", lambda V, w: lies.append((w, real_lie(V, w))) or lies[-1][1]
    )
    monkeypatch.setattr(ch, "invariance_checks", checks)
    assert cli.run(cfg).passed
    A = {id(w) for w, c in pairs if c.name.startswith("circle")}
    assert len(A) == 1
    built = [out for w, out in lies if id(w) in A]
    assert len(built) >= 3 and all(out is built[0] for out in built)
