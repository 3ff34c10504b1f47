"""Pfaff sequence, torsion extraction, genus, and projectivization."""

from __future__ import annotations

import numpy as np
import pytest

import formflow.expr as ex
import formflow.forms as fm
import formflow.parse as ps
import formflow.pfaff as pf
import formflow.systems as sy

from corpus import CHART
from oracles import reference_vanishing_point, value_at

X = ex.coord(0)


def form_1(coeffs: dict[int, str]) -> fm.DifferentialForm:
    return fm.form_from_coeffs(
        CHART, 1, {(i,): ps.parse_scalar(s, CHART) for i, s in coeffs.items()}
    )


# frozen by independent hand computation of each sequence element
PRESET_DIMENSIONS = {
    "euler.rigid_rotation": 2,
    "ns.decaying_shear": 3,
    "fluid.beltrami_abc": 3,
    "em.plane_wave": 2,
    "em.torsion_nonzero": 4,
    "harmonic.winding": 1,
}


@pytest.mark.parametrize("name", sorted(PRESET_DIMENSIONS))
def test_preset_pfaff_dimensions(name):
    p = sy.get_preset(name)
    seq = pf.pfaff_sequence(pf.Anatomy(p.action, ex.ZeroTester(p.box)))
    assert seq.dimension == PRESET_DIMENSIONS[name]
    assert seq.labels[: seq.dimension] == pf._SEQUENCE_LABELS[: seq.dimension]
    # verdicts past the dimension are zero, the ones before are not
    for k, v in enumerate(seq.verdicts):
        assert bool(v) == (k >= seq.dimension)


@pytest.mark.parametrize("name", sorted(PRESET_DIMENSIONS))
def test_frobenius_iff_dimension_at_most_two(name):
    p = sy.get_preset(name)
    seq = pf.pfaff_sequence(pf.Anatomy(p.action, ex.ZeroTester(p.box)))
    assert pf.frobenius_integrable(pf.Anatomy(p.action, ex.ZeroTester(p.box))) == (seq.dimension <= 2)


@pytest.mark.parametrize("name", sorted(PRESET_DIMENSIONS))
def test_base_disconnection_iff_dimension_at_least_three(name):
    p = sy.get_preset(name)
    seq = pf.pfaff_sequence(pf.Anatomy(p.action, ex.ZeroTester(p.box)))
    base = pf.cartan_topological_base(pf.Anatomy(p.action, ex.ZeroTester(p.box)))
    assert base.disconnected == (seq.dimension >= 3)
    labels = [label for label, _ in base.elements]
    assert labels == ["A", "A u F", "H", "H u K"]
    # closure adjoins the derivative: second member of each closed pair
    a_closure = dict(base.elements)["A u F"]
    assert fm.sub_forms(
        a_closure[1], fm.exterior_derivative(a_closure[0])
    ).is_syntactically_zero


def test_parity_form_is_the_sequence_element():
    p = sy.get_preset("em.torsion_nonzero")
    a = p.anatomy(ex.ZeroTester(p.box))
    assert a.K is a.sequence.elements[3]
    assert pf.parity(a)[0] is a.K
    assert a.torsion.parity_form is a.K


@pytest.mark.parametrize("name", sorted(PRESET_DIMENSIONS))
def test_base_and_frobenius_read_the_sequence_verdict(name, monkeypatch):
    p = sy.get_preset(name)
    a = p.anatomy(ex.ZeroTester(p.box))
    seq = a.sequence

    def no_sample(*args, **kwargs):
        raise AssertionError("zero test after the Pfaff sequence was built")

    monkeypatch.setattr(a.context, "test", no_sample)
    assert pf.frobenius_integrable(a) == (seq.dimension <= 2)
    assert pf.cartan_topological_base(a).disconnected == (seq.dimension >= 3)


def test_sequence_elements_past_the_top_degree_are_zero():
    plane = ex.Chart(("x", "y"))
    A = fm.form_from_coeffs(plane, 1, {(1,): ps.parse_scalar("x", plane)})
    a = pf.Anatomy(A, ex.ZeroTester(ex.default_box(2)))
    assert len(a.sequence.elements) == 2 and a.sequence.dimension == 2
    assert a.sequence.zero(2) and a.sequence.zero(3).syntactic
    assert pf.frobenius_integrable(a)


def test_parity_checks_d_of_torsion_against_the_wedge(monkeypatch):
    p = sy.get_preset("em.torsion_nonzero")
    a = p.anatomy(ex.ZeroTester(p.box))
    H, _ = a.H, a.K  # built before d is broken
    exterior = fm.exterior_derivative

    def broken(w):
        dw = exterior(w)
        return fm.add_forms(dw, fm.volume_form(w.chart)) if w is H else dw

    monkeypatch.setattr(fm, "exterior_derivative", broken)
    with pytest.raises(pf.InternalConsistencyError, match=r"d\(A\^dA\) differs from dA\^dA"):
        pf.parity(a)


def test_sequence_rejects_non_one_forms():
    two = fm.form_from_coeffs(CHART, 2, {(0, 1): ex.ONE})
    with pytest.raises(fm.FormError):
        pf.pfaff_sequence(pf.Anatomy(two, ex.ZeroTester(ex.default_box(4))))
    with pytest.raises(fm.FormError):
        pf.frobenius_integrable(pf.Anatomy(two, ex.ZeroTester(ex.default_box(4))))


def test_pointwise_dimension_tracks_degeneracy():
    # x dy has global dimension 2 but collapses to 0 on the x = 0 slice
    A = form_1({1: "x"})
    seq = pf.pfaff_sequence(
        pf.Anatomy(A, ex.ZeroTester(ex.default_box(4)), points=[(0.0, 0.3, 0.1, 0.0), (0.5, 0.3, 0.1, 0.0)])
    )
    assert seq.dimension == 2
    assert seq.pointwise == (((0.0, 0.3, 0.1, 0.0), 0), ((0.5, 0.3, 0.1, 0.0), 2))


def test_sequence_compiles_only_its_elements_tapes_and_zero_tests(monkeypatch):
    # the pointwise dimension reads each element's own tape, and the
    # sequence's dA verdict is the anatomy's
    p = sy.get_preset("em.torsion_nonzero")
    points = [(0.1, 0.2, 0.3, 0.4), (0.5, -0.3, 0.1, 0.0), (0.0, 0.0, 0.0, 0.0)]
    a = pf.Anatomy(p.action, ex.ZeroTester(p.box), points=points, params=p.params)
    compiled, tests = [], []
    init, test = ex.Tape.__init__, a.context.test
    monkeypatch.setattr(
        ex.Tape, "__init__", lambda self, roots: compiled.append(tuple(roots)) or init(self, roots)
    )
    monkeypatch.setattr(a.context, "test", lambda e: tests.append(test(e)) or tests[-1])
    seq = a.sequence
    sampled = sum(not v.syntactic for v in tests)  # a syntactic verdict compiles nothing
    elements = [tuple(w.coeffs.values()) for w in seq.elements]
    assert all(len(roots) == 1 for roots in compiled[:sampled])
    assert compiled[sampled:] == elements
    assert seq.verdicts[1] is a.closed and len(seq.pointwise) == len(points)


def test_torsion_vector_reconstructs_three_form():
    # independent cross-check of the identity the extractor solves
    for name in ("ns.decaying_shear", "em.torsion_nonzero", "fluid.beltrami_abc"):
        p = sy.get_preset(name)
        data = pf.torsion_data(pf.Anatomy(p.action, ex.ZeroTester(p.box)))
        recon = fm.interior(data.vector, fm.volume_form(p.chart))
        assert fm.sub_forms(recon, data.torsion_form).is_syntactically_zero
        dA = fm.exterior_derivative(p.action)
        assert fm.sub_forms(
            data.torsion_form, fm.wedge(p.action, dA)
        ).is_syntactically_zero


def test_torsion_gamma_and_parity_on_em_preset():
    # E.B = -2*lam*mu for the torsion preset; parity coefficient is twice that
    p = sy.get_preset("em.torsion_nonzero")
    data = pf.torsion_data(pf.Anatomy(p.action, ex.ZeroTester(p.box)))
    K, k = pf.parity(pf.Anatomy(p.action, ex.ZeroTester(ex.default_box(4))))
    pt = (0.2, -0.3, 0.4, 0.1)
    lam, mu = p.params["lam"], p.params["mu"]
    assert value_at(data.gamma, pt, p.params) == pytest.approx(-2 * lam * mu)
    assert value_at(k, pt, p.params) == pytest.approx(-4 * lam * mu)
    assert fm.sub_forms(K, data.parity_form).is_syntactically_zero


def test_torsion_gamma_vanishes_for_integrable_presets():
    for name in ("euler.rigid_rotation", "em.plane_wave", "harmonic.winding"):
        p = sy.get_preset(name)
        data = pf.torsion_data(pf.Anatomy(p.action, ex.ZeroTester(p.box)))
        tester = ex.ZeroTester(p.box)
        assert tester.test(data.gamma).zero
        assert pf.form_is_zero(data.torsion_form, tester).zero


def test_torsion_requires_four_chart_one_form():
    three = ex.Chart(("x", "y", "z"))
    with pytest.raises(fm.FormError):
        pf.torsion_data(pf.Anatomy(fm.zero_form(three, 1), ex.ZeroTester(ex.default_box(3))))
    with pytest.raises(fm.FormError):
        pf.torsion_data(pf.Anatomy(fm.form_from_coeffs(CHART, 2, {(0, 1): ex.ONE}), ex.ZeroTester(ex.default_box(4))))
    with pytest.raises(fm.FormError):
        pf.parity(pf.Anatomy(fm.zero_form(three, 1), ex.ZeroTester(ex.default_box(3))))


def test_torsion_of_zero_form_is_trivial():
    data = pf.torsion_data(pf.Anatomy(fm.zero_form(CHART, 1), ex.ZeroTester(ex.default_box(4))))
    assert ex.is_syntactic_zero(data.gamma)
    assert all(ex.is_syntactic_zero(c) for c in data.spatial_current)


PRESET_GENUS = {
    "euler.rigid_rotation": 3,
    "ns.decaying_shear": 2,
    "fluid.beltrami_abc": 2,
    "em.plane_wave": 3,
    "em.torsion_nonzero": 2,
    "harmonic.winding": 3,
}


@pytest.mark.parametrize("name", sorted(PRESET_GENUS))
def test_preset_genus(name):
    p = sy.get_preset(name)
    rep = pf.genus_diagnostic(pf.Anatomy(p.action, ex.ZeroTester(p.box)))
    assert rep.genus == PRESET_GENUS[name]
    assert rep.torsion_current_zero == (rep.genus == 3)


def test_genus_three_does_not_require_low_dimension():
    # y dx + z dy: Pfaff dimension 3, yet no time-transversal torsion
    # current, so the eliminated system still closes at genus 3.
    A = form_1({0: "y", 1: "z"})
    seq = pf.pfaff_sequence(pf.Anatomy(A, ex.ZeroTester(ex.default_box(4))))
    rep = pf.genus_diagnostic(pf.Anatomy(A, ex.ZeroTester(ex.default_box(4))))
    assert seq.dimension == 3
    assert rep.genus == 3
    assert rep.torsion_current_zero


def test_low_dimension_forces_genus_three():
    for name in sorted(PRESET_DIMENSIONS):
        p = sy.get_preset(name)
        if pf.pfaff_sequence(pf.Anatomy(p.action, ex.ZeroTester(p.box))).dimension <= 2:
            assert pf.genus_diagnostic(pf.Anatomy(p.action, ex.ZeroTester(p.box))).genus == 3


def test_extremal_space_contains_rigid_velocity():
    p = sy.get_preset("euler.rigid_rotation")
    V = p.process("spacetime")
    pt = p.points[0]
    basis = pf.extremal_space(p.action, pt, p.params)
    v = np.array([value_at(c, pt, p.params) for c in V.effective_components()])
    resid = basis @ (basis.T @ v) - v
    assert np.linalg.norm(resid) < 1e-9 * max(1.0, np.linalg.norm(v))


def test_characteristic_space_contains_plane_wave_ray():
    p = sy.get_preset("em.plane_wave")
    J = p.process("ray")
    pt = p.points[0]
    basis = pf.characteristic_space(p.action, pt, p.params)
    j = np.array([value_at(c, pt, p.params) for c in J.effective_components()])
    resid = basis @ (basis.T @ j) - j
    assert np.linalg.norm(resid) < 1e-9 * max(1.0, np.linalg.norm(j))


def test_symplectic_point_has_no_characteristics():
    # nonzero parity means the field matrix has full rank
    p = sy.get_preset("em.torsion_nonzero")
    pt = (0.2, -0.3, 0.4, 0.1)
    assert pf.extremal_space(p.action, pt, p.params).shape[1] == 0
    assert pf.characteristic_space(p.action, pt, p.params).shape[1] == 0


def test_characteristic_space_inside_extremal_space():
    for name in sorted(PRESET_DIMENSIONS):
        p = sy.get_preset(name)
        pt = p.points[0] if p.points else (0.3, -0.2, 0.4, 0.1)
        E = pf.extremal_space(p.action, pt, p.params)
        C = pf.characteristic_space(p.action, pt, p.params)
        assert C.shape[1] <= E.shape[1]
        if C.shape[1]:
            resid = E @ (E.T @ C) - C
            assert np.linalg.norm(resid) < 1e-9


def test_projectivize_normalizes_to_unit_length():
    p = sy.get_preset("em.torsion_nonzero")
    primed, lam = pf.projectivize(p.action, ex.ZeroTester(p.box))
    total = ex.add(*(ex.power(primed.coeff((m,)), 2) for m in range(4)))
    rng = np.random.default_rng(7)
    for _ in range(8):
        pt = tuple(rng.uniform(-0.8, 0.8, size=4))
        assert value_at(total, pt, p.params) == pytest.approx(1.0, abs=1e-12)
        # lam really is the coefficient length
        raw = sum(
            value_at(p.action.coeff((m,)), pt, p.params) ** 2 for m in range(4)
        )
        assert value_at(lam, pt, p.params) == pytest.approx(np.sqrt(raw))


def test_projectivize_rejects_vanishing_sections():
    A = form_1({1: "x"})
    tiny = ex.Box(lows=(-1e-14, -1.0, -1.0, -1.0), highs=(1e-14, 1.0, 1.0, 1.0))
    with pytest.raises(ex.SingularityError):
        pf.projectivize(A, ex.ZeroTester(tiny))


def test_projectivize_samples_like_the_scalar_reference():
    cases = [(sy.get_preset(n).action, ex.ZeroTester(sy.get_preset(n).box, seed=3))
             for n in sorted(PRESET_DIMENSIONS)]
    unit = ex.Box(lows=(-1.0,) * 4, highs=(1.0,) * 4, param_ranges={"a": (-1.0, 1.0)})
    tiny = ex.Box(lows=(-1e-14, -1.0, -1.0, -1.0), highs=(1e-14, 1.0, 1.0, 1.0))
    # sqrt(x) is singular for x < 0 and y^200 underflows to 0 near y = 0
    cases += [
        (form_1({0: "sqrt(x)*y^200"}), ex.ZeroTester(unit, seed=s)) for s in (1, 2, 3)
    ]
    cases += [
        (form_1({0: "a*x^200", 2: "ln(y)*z^150"}), ex.ZeroTester(unit, seed=4)),
        (form_1({1: "x"}), ex.ZeroTester(tiny)),
    ]
    vanished = 0
    for A, context in cases:
        lam_sq = ex.add(*(ex.power(A.coeff((m,)), 2) for m in range(4)))
        want = reference_vanishing_point(lam_sq, context)
        if want is None:
            pf.projectivize(A, context)
            continue
        with pytest.raises(ex.SingularityError) as err:
            pf.projectivize(A, context)
        assert err.value.point == want
        vanished += 1
    assert vanished >= 3


def test_projectivize_ignores_guard_parameters_lambda_does_not_use():
    # lambda^2 uses no parameter; the guard's g is drawn only for zero tests
    g = ex.param("g")
    unit = ex.Box(lows=(-1.0,) * 4, highs=(1.0,) * 4, guards=(ex.add(X, g),))
    tiny = ex.Box(lows=(-1e-14, -1.0, -1.0, -1.0), highs=(1e-14, 1.0, 1.0, 1.0),
                  guards=(ex.add(X, g),))
    for box, A in ((unit, form_1({0: "x*y", 2: "z"})), (tiny, form_1({1: "x"}))):
        context = ex.ZeroTester(box, seed=2)
        lam_sq = ex.add(*(ex.power(A.coeff((m,)), 2) for m in range(4)))
        want = reference_vanishing_point(lam_sq, context)
        for _ in range(2):  # fresh, then after a zero test drew rows for g
            if want is None:
                pf.projectivize(A, context)
            else:
                with pytest.raises(ex.SingularityError) as err:
                    pf.projectivize(A, context)
                assert err.value.point == want
            context.test(ex.mul(X, ex.coord(1)))
    assert want is not None


def test_euler_integrand_matches_projectivized_parity():
    p = sy.get_preset("em.torsion_nonzero")
    K, k = pf.euler_integrand(p.action, ex.ZeroTester(p.box))
    primed, _ = pf.projectivize(p.action, ex.ZeroTester(p.box))
    K2, k2 = pf.parity(pf.Anatomy(primed, ex.ZeroTester(ex.default_box(4))))
    assert fm.sub_forms(K, K2).is_syntactically_zero
    pt = (0.2, -0.3, 0.4, 0.1)
    assert value_at(k, pt, p.params) == pytest.approx(
        value_at(k2, pt, p.params)
    )
