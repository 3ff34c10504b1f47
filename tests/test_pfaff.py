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
    assert ex.eval_at(data.gamma, pt, p.params) == pytest.approx(-2 * lam * mu)
    assert ex.eval_at(k, pt, p.params) == pytest.approx(-4 * lam * mu)
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
    v = np.array([ex.eval_at(c, pt, p.params) for c in V.effective_components()])
    resid = basis @ (basis.T @ v) - v
    assert np.linalg.norm(resid) < 1e-9 * max(1.0, np.linalg.norm(v))


def test_characteristic_space_contains_plane_wave_ray():
    p = sy.get_preset("em.plane_wave")
    J = p.process("ray")
    pt = p.points[0]
    basis = pf.characteristic_space(p.action, pt, p.params)
    j = np.array([ex.eval_at(c, pt, p.params) for c in J.effective_components()])
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
        assert ex.eval_at(total, pt, p.params) == pytest.approx(1.0, abs=1e-12)
        # lam really is the coefficient length
        raw = sum(
            ex.eval_at(p.action.coeff((m,)), pt, p.params) ** 2 for m in range(4)
        )
        assert ex.eval_at(lam, pt, p.params) == pytest.approx(np.sqrt(raw))


def test_projectivize_rejects_vanishing_sections():
    A = form_1({1: "x"})
    tiny = ex.Box(lows=(-1e-14, -1.0, -1.0, -1.0), highs=(1e-14, 1.0, 1.0, 1.0))
    with pytest.raises(ex.SingularityError):
        pf.projectivize(A, ex.ZeroTester(tiny))


def test_euler_integrand_matches_projectivized_parity():
    p = sy.get_preset("em.torsion_nonzero")
    K, k = pf.euler_integrand(p.action, ex.ZeroTester(p.box))
    primed, _ = pf.projectivize(p.action, ex.ZeroTester(p.box))
    K2, k2 = pf.parity(pf.Anatomy(primed, ex.ZeroTester(ex.default_box(4))))
    assert fm.sub_forms(K, K2).is_syntactically_zero
    pt = (0.2, -0.3, 0.4, 0.1)
    assert ex.eval_at(k, pt, p.params) == pytest.approx(
        ex.eval_at(k2, pt, p.params)
    )
