"""First-law splitting, process classification, and the second variation."""

from __future__ import annotations

import math

import numpy as np
import pytest

import formflow.chains as ch
import formflow.expr as ex
import formflow.forms as fm
import formflow.parse as ps
import formflow.pfaff as pf
import formflow.systems as sy
import formflow.thermo as th

from corpus import CHART, action_process_pairs, random_poly_scalar, rng
from oracles import failing, inexact, process_residuals, second_variation_residuals


def scalar(text: str) -> ex.ScalarExpr:
    return ps.parse_scalar(text, CHART)


def form_is_zero(w: fm.DifferentialForm) -> bool:
    return bool(pf.form_is_zero(w, ex.ZeroTester(ex.default_box(4))))


def test_first_law_reassembles_lie_derivative():
    for A, J in action_process_pairs(n_random=6):
        Q, W, U = first = th.first_law(pf.Anatomy(A, ex.ZeroTester(ex.default_box(4))), J)
        assert Q.degree == 1 and W.degree == 1 and U.degree == 0
        direct = fm.lie_derivative(J, A)
        assert form_is_zero(fm.sub_forms(Q, direct))
        assert form_is_zero(
            fm.sub_forms(Q, fm.add_forms(W, fm.exterior_derivative(U)))
        )


def test_first_law_identities_are_exact_on_rational_pairs():
    # W + dU = L(J)A and dQ = dW: sympy reads each residual from the printed
    # text and cancels it to 0, along a bare and a supported field
    r = rng(303)
    for supported in (False, True):
        A = fm.one_form(CHART, tuple(random_poly_scalar(r, 2, 1) for _ in range(4)))
        comps = tuple(random_poly_scalar(r, 2, 1) for _ in range(4))
        J = fm.VectorField(CHART, comps, random_poly_scalar(r, 2, 1) if supported else ex.ONE)
        a = pf.Anatomy(A, ex.ZeroTester(ex.default_box(4)))
        assert inexact(process_residuals(a, J), CHART) == []


def test_second_variation_identities_are_exact_on_a_rational_pair():
    # R - d(i(J)Q) = i(J)dQ, dR = d(i(J)dQ) and the wedge comparison: sympy
    # reads each residual from the printed text and cancels it to 0, along a
    # field whose flow is neither closed nor reversible, so every dQ term
    # counts.  On a closed flow they are the three fields second_variation
    # writes True; the presets check that case.  The wedge comparison's
    # residual grows fast with the pair, and cancelling it takes sympy
    # seconds on larger ones, so the pair is of one-term polynomials
    r = rng(305)
    A = fm.one_form(CHART, tuple(random_poly_scalar(r, 1, 1) for _ in range(4)))
    J = fm.VectorField(CHART, tuple(random_poly_scalar(r, 1, 1) for _ in range(4)))
    a = pf.Anatomy(A, ex.ZeroTester(ex.default_box(4)))
    heat = pf.Anatomy(th.first_law(a, J)[0], a.context)
    assert not heat.sequence.zero(1).zero and not heat.sequence.zero(2).zero
    assert failing(second_variation_residuals(a, J)) == []
    assert inexact(second_variation_residuals(a, J), CHART) == []


def test_first_law_rejects_higher_degree():
    two = fm.form_from_coeffs(CHART, 2, {(0, 1): ex.ONE})
    J = fm.VectorField(CHART, (ex.ONE, ex.ZERO, ex.ZERO, ex.ZERO))
    with pytest.raises(th.ThermoError):
        th.first_law(pf.Anatomy(two, ex.ZeroTester(ex.default_box(4))), J)


def test_work_is_transversal_to_the_process():
    # i(J)W = i(J)i(J)dA vanishes identically
    for A, J in action_process_pairs(n_random=6):
        W = fm.interior(J, fm.exterior_derivative(A))
        assert form_is_zero(fm.interior(J, W))


# (category, adiabatic, closed_flow, reversible, associated, extremal, Q dim)
EXPECTED_CLASSIFICATIONS = {
    ("euler.rigid_rotation", "spacetime"): (th.CATEGORY_HAMILTONIAN, True, True, True, True, True, 0),
    ("euler.rigid_rotation", "spatial"): (th.CATEGORY_BERNOULLI, True, True, True, False, False, 0),
    ("ns.decaying_shear", "spacetime"): (th.CATEGORY_OPEN, False, False, False, False, False, 3),
    ("em.plane_wave", "ray"): (th.CATEGORY_HAMILTONIAN, True, True, True, True, True, 0),
    ("em.torsion_nonzero", "torsion"): (th.CATEGORY_OPEN, False, False, False, True, False, 4),
    ("harmonic.winding", "translate_x"): (th.CATEGORY_HAMILTONIAN, False, True, True, False, True, 1),
}


@pytest.mark.parametrize("preset,process", sorted(EXPECTED_CLASSIFICATIONS))
def test_preset_process_classification(preset, process):
    p = sy.get_preset(preset)
    rep = th.classify(p.anatomy, p.processes[process])
    cat, adiab, closed, rev, assoc, extr, qdim = EXPECTED_CLASSIFICATIONS[
        (preset, process)
    ]
    f = rep.flags
    assert rep.category == cat
    assert f.adiabatic == adiab
    assert f.closed_flow == closed and f.open_flow == (not closed)
    assert f.reversible == rev and f.irreversible == (not rev)
    assert f.associated == assoc
    assert f.extremal == extr and f.hamiltonian == extr
    assert f.characteristic == (assoc and extr)
    assert rep.pfaff.dimension == qdim


def test_bernoulli_needs_vanishing_work_periods():
    p = sy.get_preset("euler.rigid_rotation")
    rep = th.classify(p.anatomy, p.processes["spatial"])
    assert rep.category == th.CATEGORY_BERNOULLI
    assert rep.work_periods  # cycles were actually probed
    assert all(abs(w) < 1e-9 for w in rep.work_periods)


def test_closed_flow_without_cycles_stays_undetermined():
    p = sy.get_preset("euler.rigid_rotation")
    rep = th.classify(
        pf.Anatomy(p.action, ex.ZeroTester(ex.default_box(4))), p.processes["spatial"]
    )
    assert rep.category == th.CATEGORY_CLOSED_UNDETERMINED


def test_stokes_category_from_surviving_period():
    # dW = 0 but the work 1-form winds around the r = 0 axis
    A = fm.form_from_coeffs(CHART, 1, {(1,): scalar("x")})
    J = fm.VectorField(CHART, (
        scalar("-x/(x^2+y^2)"),
        scalar("-y/(x^2+y^2)"),
        ex.ZERO,
        ex.ZERO,
    ))
    circle = ch.Chain(ch.circle_cell(CHART, fixed={2: 0.0, 3: 0.0}), closed=True)
    box = ex.Box(
        lows=(-1.0,) * 4, highs=(1.0,) * 4, guards=(scalar("x^2 + y^2"),)
    )
    rep = th.classify(pf.Anatomy(A, ex.ZeroTester(box), chains=(circle,)), J)
    assert rep.category == th.CATEGORY_STOKES
    assert rep.flags.closed_flow and not rep.flags.hamiltonian
    assert rep.work_periods[0] == pytest.approx(-2 * math.pi, abs=1e-8)


REPARAM_CASES = [
    ("euler.rigid_rotation", "spacetime"),
    ("euler.rigid_rotation", "spatial"),
    ("em.plane_wave", "ray"),
    ("harmonic.winding", "translate_x"),
]


@pytest.mark.parametrize("preset,process", REPARAM_CASES)
def test_flags_survive_reparametrization(preset, process):
    # the four linear-in-J verdicts cannot see J -> f*J for positive f
    p = sy.get_preset(preset)
    J = p.processes[process]
    base = th.classify(p.anatomy, J).flags
    rng = np.random.default_rng(314)
    for _ in range(3):
        i = int(rng.integers(0, 4))
        c = float(rng.uniform(0.5, 2.0))
        f = ex.add(ex.Const(c), ex.power(ex.Coord(i), 2))
        rescaled = fm.VectorField(J.chart, J.components, ex.mul(J.support, f))
        flags = th.classify(p.anatomy, rescaled).flags
        for attr in ("hamiltonian", "associated", "extremal", "characteristic"):
            assert getattr(flags, attr) == getattr(base, attr), attr


def test_irreversibility_verdicts():
    # Q^dQ's verdict is element 2 of the heat form's Pfaff sequence
    shear = sy.get_preset("ns.decaying_shear")
    rep = th.classify(
        pf.Anatomy(shear.action, shear.context), shear.processes["spacetime"]
    )
    verdict = rep.pfaff.zero(2)
    assert not verdict.zero and rep.flags.irreversible
    assert verdict.witness is not None

    rigid = sy.get_preset("euler.rigid_rotation")
    rep = th.classify(
        pf.Anatomy(rigid.action, rigid.context), rigid.processes["spacetime"]
    )
    assert rep.pfaff.zero(2).zero and rep.flags.reversible


def test_second_variation_closed_flow_pair():
    # A = x dy, J = (y, x, 0, 0): Q = d(xy) is exact, so the radiation form
    # L(J)Q = 2y dx + 2x dy is exact as well and all its periods vanish
    A = fm.form_from_coeffs(CHART, 1, {(1,): scalar("x")})
    J = fm.VectorField(CHART, (scalar("y"), scalar("x"), ex.ZERO, ex.ZERO))
    circle = ch.Chain(ch.circle_cell(CHART, fixed={2: 0.0, 3: 0.0}), closed=True)
    a = pf.Anatomy(A, ex.ZeroTester(ex.default_box(4)), chains=(circle,))
    sv = th.second_variation(a, J, pf.Anatomy(th.first_law(a, J)[0], a.context))
    assert sv.closed_flow
    assert sv.dR_zero
    assert sv.exactness_residual_zero
    assert sv.wedge_comparison_zero
    assert sv.periods_vanish
    expected = fm.form_from_coeffs(
        CHART, 1, {(0,): scalar("2*y"), (1,): scalar("2*x")}
    )
    assert form_is_zero(fm.sub_forms(sv.radiation, expected))
    assert abs(sv.periods[0]) < 1e-9


def test_second_variation_without_cycles_reports_none():
    A = fm.form_from_coeffs(CHART, 1, {(1,): scalar("x")})
    J = fm.VectorField(CHART, (scalar("y"), scalar("x"), ex.ZERO, ex.ZERO))
    a = pf.Anatomy(A, ex.ZeroTester(ex.default_box(4)))
    sv = th.second_variation(a, J, pf.Anatomy(th.first_law(a, J)[0], a.context))
    assert sv.periods == ()
    assert sv.periods_vanish is None


def test_radiative_flag_tracks_radiation_form():
    p = sy.get_preset("em.torsion_nonzero")
    rep = th.classify(p.anatomy, p.processes["torsion"])
    assert rep.flags.radiative == (
        not form_is_zero(rep.second.radiation)
    )
    assert rep.flags.radiative


def test_heat_pfaff_sequence_uses_context_points():
    p = sy.get_preset("ns.decaying_shear")
    pts = ((0.1, 0.2, 0.0, 0.0),)
    ctx = pf.Anatomy(p.action, p.context, points=pts, params=p.params)
    rep = th.classify(ctx, p.processes["spacetime"])
    assert rep.pfaff.pointwise and rep.pfaff.pointwise[0][0] == pts[0]


@pytest.mark.parametrize(
    "name, process", [("fluid.beltrami_abc", "spacetime"), ("euler.rigid_rotation", "probe")]
)
def test_classify_zero_tests_each_heat_coefficient_once(name, process, monkeypatch):
    # the verdicts on Q, dQ and Q^dQ come from Q's Pfaff sequence alone
    p = sy.get_preset(name)
    a = p.anatomy
    tested: list[str] = []
    test = ex.ZeroTester.test

    def counting(self, e):
        tested.append(ex.simplify(e).key)
        return test(self, e)

    monkeypatch.setattr(ex.ZeroTester, "test", counting)
    rep = th.classify(a, p.processes[process])
    heat = {c.key for w in (rep.Q, rep.dQ, rep.QdQ) for c in w.coeffs.values()}
    counts = [tested.count(k) for k in heat if k in tested]
    assert counts and max(counts) == 1
