"""Pfaff sequence, topological base, torsion extraction and genus."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

import formflow.expr as ex
import formflow.forms as fm
import formflow.parse as ps
import formflow.pfaff as pf
import formflow.systems as sy

from corpus import CHART, actions, random_poly_scalar, rng
from oracles import failing, inexact, torsion_residuals, value_at, volume_form
from test_batteries import _bench_workloads


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
    seq = pf.pfaff_sequence(pf.Anatomy(p.action, p.context))
    assert seq.dimension == PRESET_DIMENSIONS[name]
    assert seq.labels[: seq.dimension] == pf._SEQUENCE_LABELS[: seq.dimension]
    # verdicts past the dimension are zero, the ones before are not
    for k, v in enumerate(seq.verdicts):
        assert bool(v) == (k >= seq.dimension)


@pytest.mark.parametrize("name", sorted(PRESET_DIMENSIONS))
def test_frobenius_iff_dimension_at_most_two(name):
    p = sy.get_preset(name)
    seq = pf.pfaff_sequence(pf.Anatomy(p.action, p.context))
    base = pf.cartan_topological_base(pf.Anatomy(p.action, p.context))
    assert (not base.disconnected) == (seq.dimension <= 2)


@pytest.mark.parametrize("name", sorted(PRESET_DIMENSIONS))
def test_base_disconnection_iff_dimension_at_least_three(name):
    p = sy.get_preset(name)
    seq = pf.pfaff_sequence(pf.Anatomy(p.action, p.context))
    base = pf.cartan_topological_base(pf.Anatomy(p.action, p.context))
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
    a = p.anatomy
    assert a.K is a.sequence.elements[3]
    assert pf.parity(a)[0] is a.K
    assert a.torsion.parity_form is a.K


@pytest.mark.parametrize("name", sorted(PRESET_DIMENSIONS))
def test_base_and_frobenius_read_the_sequence_verdict(name, monkeypatch):
    p = sy.get_preset(name)
    a = p.anatomy
    seq = a.sequence

    def no_sample(*args, **kwargs):
        raise AssertionError("zero test after the Pfaff sequence was built")

    monkeypatch.setattr(a.context, "test", no_sample)
    assert (not pf.cartan_topological_base(a).disconnected) == (seq.dimension <= 2)
    assert pf.cartan_topological_base(a).disconnected == (seq.dimension >= 3)


def test_sequence_elements_past_the_top_degree_are_zero():
    plane = ex.Chart(("x", "y"))
    A = fm.form_from_coeffs(plane, 1, {(1,): ps.parse_scalar("x", plane)})
    a = pf.Anatomy(A, ex.ZeroTester(ex.default_box(2)))
    assert len(a.sequence.elements) == 2 and a.sequence.dimension == 2
    assert a.sequence.zero(2) and a.sequence.zero(3).syntactic
    assert not pf.cartan_topological_base(a).disconnected


def test_d_of_torsion_equals_the_parity_form(monkeypatch):
    # d(A^dA) = dA^dA for every smooth A, so parity() returns K as built;
    # the suite checks the identity on the corpus actions, and a d broken
    # on 3-forms fails it on every one of them
    anatomies = [pf.Anatomy(A, ex.ZeroTester(ex.default_box(4))) for A in actions()]

    def gaps() -> list[int]:
        return [k for k, a in enumerate(anatomies) if not pf.form_is_zero(
            fm.sub_forms(fm.exterior_derivative(a.H), pf.parity(a)[0]), a.context)]

    assert gaps() == []
    exterior = fm.exterior_derivative

    def broken(w):
        dw = exterior(w)
        return fm.add_forms(dw, volume_form(w.chart)) if w.degree == 3 else dw

    monkeypatch.setattr(fm, "exterior_derivative", broken)
    assert gaps() == list(range(len(anatomies)))


def _pfaff_class_actions() -> list[fm.DifferentialForm]:
    """1-forms of Pfaff class 1-4 at degrees 2 and 3, built as the bench's
    symbolic workload builds its actions."""
    rng = random.Random("torsion identities")
    return [
        fm.one_form(CHART, tuple(ps.parse_scalar(c, CHART)
                                 for c in _bench_workloads().pfaff_action(cls, degree, rng)))
        for degree in (2, 3) for cls in (1, 2, 3, 4)
    ]


def test_torsion_identities_hold_on_the_corpus_and_every_pfaff_class():
    # i(T)Omega = A^dA, i(T)A = 0, one Gamma from every component of A and
    # i(T)dA = Gamma*A hold for every smooth 1-form, so torsion_data returns
    # T and Gamma as built; the suite checks them here, off and on the
    # presets, with a nonzero Gamma among the cases
    failures, gammas = [], 0
    for k, A in enumerate([*actions(), *_pfaff_class_actions()]):
        a = pf.Anatomy(A, ex.ZeroTester(ex.default_box(4)))
        failures += [(k, name) for name in failing(torsion_residuals(a))]
        gammas += not a.context.test(a.torsion.gamma).zero
    assert failures == []
    assert gammas >= 4


def test_torsion_identities_are_exact_on_rational_actions():
    # sympy reads each residual from the printed text and cancels it to 0,
    # on an action of multilinear polynomials of Pfaff class 4
    r = rng(7)
    A = fm.one_form(CHART, tuple(random_poly_scalar(r, max_terms=2, max_degree=1) for _ in range(4)))
    a = pf.Anatomy(A, ex.ZeroTester(ex.default_box(4)))
    assert a.sequence.dimension == 4
    assert inexact(torsion_residuals(a), CHART) == []


def test_sequence_rejects_non_one_forms():
    two = fm.form_from_coeffs(CHART, 2, {(0, 1): ex.ONE})
    with pytest.raises(fm.FormError):
        pf.pfaff_sequence(pf.Anatomy(two, ex.ZeroTester(ex.default_box(4))))
    with pytest.raises(fm.FormError):
        pf.cartan_topological_base(pf.Anatomy(two, ex.ZeroTester(ex.default_box(4))))


def test_pointwise_dimension_tracks_degeneracy():
    # x dy has global dimension 2 but collapses to 0 on the x = 0 slice
    A = form_1({1: "x"})
    seq = pf.pfaff_sequence(
        pf.Anatomy(A, ex.ZeroTester(ex.default_box(4)), points=[(0.0, 0.3, 0.1, 0.0), (0.5, 0.3, 0.1, 0.0)])
    )
    assert seq.dimension == 2
    assert seq.pointwise == (((0.0, 0.3, 0.1, 0.0), 0), ((0.5, 0.3, 0.1, 0.0), 2))


def test_sequence_compiles_only_its_elements_tapes_and_row_set_tapes(monkeypatch):
    # the zero tests grow the two tapes of each row set and compile no tape
    # of one tree, also where a guard skips rows so tests read past the
    # first n_samples; the pointwise dimension grows one fresh tape per
    # element with its coefficients; the sequence's dA verdict is the
    # anatomy's
    points = [(0.1, 0.2, 0.3, 0.4), (0.5, -0.3, 0.1, 0.0), (0.0, 0.0, 0.0, 0.0)]
    compiled, grown = [], []
    init, grow = ex.Tape.__init__, ex.Tape.grow
    monkeypatch.setattr(
        ex.Tape, "__init__",
        lambda self, roots=(): compiled.append(tuple(roots)) or init(self, roots),
    )
    monkeypatch.setattr(
        ex.Tape, "grow",
        lambda self, roots, *rows: grown.append((self, tuple(roots))) or grow(self, roots, *rows),
    )
    for name, guards in (("em.torsion_nonzero", ()), ("euler.rigid_rotation", (ex.power(ex.coord(0), 4),))):
        p = sy.get_preset(name)
        box = replace(p.context.box, guards=(*p.context.box.guards, *guards))
        a = pf.Anatomy(p.action, ex.ZeroTester(box), points=points, params=p.params)
        tests, test = [], a.context.test
        monkeypatch.setattr(a.context, "test", lambda e: tests.append(test(e)) or tests[-1])
        compiled.clear()
        grown.clear()
        seq = a.sequence
        assert any(not v.syntactic for v in tests)
        row_sets = a.context._row_sets.values()
        tapes = {tape for rows in row_sets for tape, _, _ in rows.parts}
        elements = [tuple(w.coeffs.values()) for w in seq.elements]
        assert compiled == [()] * (len(tapes) + len(elements))
        assert all(len(roots) == 1 for tape, roots in grown if tape in tapes)
        pointwise = [(tape, roots) for tape, roots in grown if tape not in tapes]
        assert [roots for _, roots in pointwise] == elements
        assert len({tape for tape, _ in pointwise}) == len(elements)
        read_past = sum(v.samples + v.skipped > a.context.n_samples for v in tests)
        assert read_past == sum(tape is rows.parts[1][0] for tape, _ in grown for rows in row_sets)
        assert (read_past > 0) is bool(guards)
        assert seq.verdicts[1] is a.closed and len(seq.pointwise) == len(points)


def test_torsion_vector_reconstructs_three_form():
    # independent cross-check of the identity the extractor solves
    for name in ("ns.decaying_shear", "em.torsion_nonzero", "fluid.beltrami_abc"):
        p = sy.get_preset(name)
        data = pf.torsion_data(pf.Anatomy(p.action, p.context))
        recon = fm.interior(data.vector, volume_form(p.chart))
        assert fm.sub_forms(recon, data.torsion_form).is_syntactically_zero
        dA = fm.exterior_derivative(p.action)
        assert fm.sub_forms(
            data.torsion_form, fm.wedge(p.action, dA)
        ).is_syntactically_zero


def test_torsion_gamma_and_parity_on_em_preset():
    # E.B = -2*lam*mu for the torsion preset; parity coefficient is twice that
    p = sy.get_preset("em.torsion_nonzero")
    data = pf.torsion_data(pf.Anatomy(p.action, p.context))
    K, k = pf.parity(pf.Anatomy(p.action, ex.ZeroTester(ex.default_box(4))))
    pt = (0.2, -0.3, 0.4, 0.1)
    lam, mu = p.params["lam"], p.params["mu"]
    assert value_at(data.gamma, pt, p.params) == pytest.approx(-2 * lam * mu)
    assert value_at(k, pt, p.params) == pytest.approx(-4 * lam * mu)
    assert fm.sub_forms(K, data.parity_form).is_syntactically_zero


def test_torsion_gamma_vanishes_for_integrable_presets():
    for name in ("euler.rigid_rotation", "em.plane_wave", "harmonic.winding"):
        p = sy.get_preset(name)
        data = pf.torsion_data(pf.Anatomy(p.action, p.context))
        tester = p.context
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
    rep = pf.genus_diagnostic(pf.Anatomy(p.action, p.context))
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
        if pf.pfaff_sequence(pf.Anatomy(p.action, p.context)).dimension <= 2:
            assert pf.genus_diagnostic(pf.Anatomy(p.action, p.context)).genus == 3
