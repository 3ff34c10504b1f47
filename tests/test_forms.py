"""Exterior algebra: d, wedge, interior, Lie transport, excess function."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import formflow.expr as ex
import formflow.forms as fm
from corpus import (
    CHART,
    mixed_forms,
    random_field,
    random_form,
    single_entry_form,
    random_monomial_scalar,
    random_point,
    random_poly_scalar,
    rng,
)
from oracles import lie_oracle, reference_exterior_derivative, value_at, volume_form

X, Y, Z, T = (ex.coord(i) for i in range(4))
BOX = ex.default_box(4)


def is_zero_form(w: fm.DifferentialForm, seed: int = 20180425) -> bool:
    if w.is_syntactically_zero:
        return True
    tester = ex.ZeroTester(BOX, seed=seed)
    return all(tester.test(c).zero for c in w.coeffs.values())


def test_d_differentiates_a_coefficient_only_along_the_coordinates_it_can_vary_in(monkeypatch):
    calls = []
    real = ex.differentiate
    monkeypatch.setattr(ex, "differentiate", lambda e, k: calls.append((e, k)) or real(e, k))
    # an ABC-like 1-form holds no t; the others are random, of degrees 0..3
    abc = fm.one_form(CHART, (ex.add(ex.sin(Z), ex.cos(Y)), ex.add(ex.sin(X), ex.cos(Z)),
                              ex.add(ex.sin(Y), ex.cos(X)), ex.ZERO))
    for w in [abc, *mixed_forms(8, seed=5)]:
        calls.clear()
        dw = fm.exterior_derivative(w)
        assert calls == [(c, k) for idx, c in w.coeffs.items() for k in range(4)
                         if k not in idx and k in ex.Tape((c,)).coords]
        assert dw.coeffs == reference_exterior_derivative(w).coeffs


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_dd_is_syntactically_zero(seed):
    r = rng(seed)
    w = random_form(r, degree=int(r.integers(0, 4)), smooth=bool(r.random() < 0.5))
    dd = fm.exterior_derivative(fm.exterior_derivative(w))
    assert dd.is_syntactically_zero


def _leibniz_gap(a, b):
    lhs = fm.exterior_derivative(fm.wedge(a, b))
    rhs = fm.add_forms(
        fm.wedge(fm.exterior_derivative(a), b),
        fm.scale_form(
            ex.Const((-1) ** a.degree), fm.wedge(a, fm.exterior_derivative(b))
        ),
    )
    return fm.sub_forms(lhs, rhs)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_graded_leibniz_syntactic_on_single_entries(seed):
    # one basis entry with a monomial coefficient: every product flattens,
    # so the identity collapses in the tree itself
    r = rng(seed)
    p = int(r.integers(0, 3))
    q = int(r.integers(0, 4 - p))
    a = single_entry_form(r, degree=p)
    b = single_entry_form(r, degree=q)
    assert _leibniz_gap(a, b).is_syntactically_zero


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_graded_leibniz_zero_verdict(seed):
    # multi-term coefficients leave factored products the simplifier will
    # not expand; the symbolic zero test carries the identity instead
    r = rng(seed)
    p = int(r.integers(0, 3))
    q = int(r.integers(0, 4 - p))
    a = random_form(r, degree=p)
    b = random_form(r, degree=q)
    assert is_zero_form(_leibniz_gap(a, b))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_double_interior_syntactic_on_single_entries(seed):
    r = rng(seed)
    w = single_entry_form(r, degree=int(r.integers(2, 5)))
    V = fm.VectorField(
        CHART, tuple(random_monomial_scalar(r) for _ in range(4))
    )
    assert fm.interior(V, fm.interior(V, w)).is_syntactically_zero


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_double_interior_zero_verdict(seed):
    r = rng(seed)
    w = random_form(r, degree=int(r.integers(2, 5)))
    V = random_field(r)
    assert is_zero_form(fm.interior(V, fm.interior(V, w)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_wedge_graded_antisymmetry(seed):
    r = rng(seed)
    p = int(r.integers(1, 3))
    q = int(r.integers(1, 5 - p))
    a = random_form(r, degree=p)
    b = random_form(r, degree=q)
    gap = fm.sub_forms(
        fm.wedge(a, b), fm.scale_form(ex.Const((-1) ** (p * q)), fm.wedge(b, a))
    )
    assert gap.is_syntactically_zero


def test_wedge_above_top_degree_vanishes():
    r = rng(0)
    a = random_form(r, degree=3)
    b = random_form(r, degree=2)
    assert fm.wedge(a, b).is_syntactically_zero


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_interior_antiderivation(seed):
    # i(V)(a ^ b) = i(V)a ^ b + (-1)^p a ^ i(V)b
    r = rng(seed)
    p = int(r.integers(1, 3))
    q = int(r.integers(1, 5 - p))
    a = random_form(r, degree=p)
    b = random_form(r, degree=q)
    V = random_field(r)
    lhs = fm.interior(V, fm.wedge(a, b))
    rhs = fm.add_forms(
        fm.wedge(fm.interior(V, a), b),
        fm.scale_form(ex.Const((-1) ** p), fm.wedge(a, fm.interior(V, b))),
    )
    assert is_zero_form(fm.sub_forms(lhs, rhs))


def test_interior_of_volume_recovers_components():
    V = fm.VectorField(CHART, (X, Y, Z, T))
    w = fm.interior(V, volume_form(CHART))
    # i(V)(dx^dy^dz^dt) = V0 dy^dz^dt - V1 dx^dz^dt + V2 dx^dy^dt - V3 dx^dy^dz
    assert ex.simplify(w.coeff((1, 2, 3))) == X
    assert ex.simplify(w.coeff((0, 2, 3))) == ex.simplify(ex.negate(Y))
    assert ex.simplify(w.coeff((0, 1, 3))) == Z
    assert ex.simplify(w.coeff((0, 1, 2))) == ex.simplify(ex.negate(T))


def test_lie_derivative_matches_flow_pullback_once():
    r = rng(42)
    w = random_form(r, degree=2, smooth=True)
    V = random_field(r, smooth=True)
    lib = fm.lie_derivative(V, w)
    p = random_point(r)
    want = lie_oracle(w, V, p)
    scale = max(1.0, max(abs(v) for v in want.values()))
    for idx, val in want.items():
        got = value_at(lib.coeffs.get(idx, ex.ZERO), p)
        assert abs(got - val) / scale < 1e-5


def test_lie_derivative_of_scalar_is_directional():
    V = fm.VectorField(CHART, (Y, ex.ZERO, ex.ZERO, ex.ONE))
    f = fm.scalar_form(CHART, ex.mul(X, T))
    out = fm.lie_derivative(V, f)
    # V(f) = y * t + x
    gap = ex.simplify(ex.add(out.coeff(()), ex.negate(ex.add(ex.mul(Y, T), X))))
    assert ex.is_syntactic_zero(gap)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_transport_commutes_with_d(seed):
    # d(L(V) w) = L(V) dw for unit support
    r = rng(seed)
    w = random_form(r, degree=int(r.integers(0, 4)))
    V = random_field(r)
    gap = fm.sub_forms(
        fm.exterior_derivative(fm.lie_derivative(V, w)),
        fm.lie_derivative(V, fm.exterior_derivative(w)),
    )
    assert gap.is_syntactically_zero


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_supported_transport_defect_equals_excess(seed):
    # with support rho the defect is exactly the excess function, which is
    # itself the zero form for twice-differentiable coefficients
    r = rng(seed)
    w = random_form(r, degree=int(r.integers(1, 4)))
    rho = random_poly_scalar(r)
    V = fm.VectorField(CHART, tuple(random_poly_scalar(r) for _ in range(4)), rho)
    bare = fm.VectorField(CHART, V.components)
    gap = fm.sub_forms(
        fm.exterior_derivative(fm.lie_derivative(V, w)),
        fm.lie_derivative(V, fm.exterior_derivative(w)),
    )
    excess = fm.excess_function(rho, bare, w)
    assert excess.is_syntactically_zero
    assert fm.sub_forms(gap, excess).is_syntactically_zero


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_support_factors_through_gradient_term(seed):
    # L(rho V) w = rho L(V) w + d(rho) ^ i(V) w
    r = rng(seed)
    w = random_form(r, degree=int(r.integers(1, 4)))
    rho = random_poly_scalar(r)
    bare = random_field(r)
    supported = fm.VectorField(CHART, bare.components, rho)
    lhs = fm.lie_derivative(supported, w)
    rhs = fm.add_forms(
        fm.scale_form(rho, fm.lie_derivative(bare, w)),
        fm.wedge(fm.exterior_derivative(fm.scalar_form(CHART, rho)), fm.interior(bare, w)),
    )
    assert is_zero_form(fm.sub_forms(lhs, rhs))


def test_form_from_coeffs_validates_indices():
    with pytest.raises(fm.FormError):
        fm.form_from_coeffs(CHART, 2, {(1, 1): ex.ONE})
    with pytest.raises(fm.FormError):
        fm.form_from_coeffs(CHART, 2, {(2, 0): ex.ONE})
    with pytest.raises(fm.FormError):
        fm.form_from_coeffs(CHART, 1, {(5,): ex.ONE})


def test_vector_field_validation_and_rescale():
    with pytest.raises(fm.FormError):
        fm.VectorField(CHART, (X, Y))
    V = fm.VectorField(CHART, (X, Y, Z, T), support=ex.Const(2))
    eff = V.effective_components()
    assert value_at(eff[0], (1.5, 0, 0, 0)) == pytest.approx(3.0)
    W = fm.VectorField(CHART, V.components, ex.mul(V.support, ex.Const(0.5)))
    assert value_at(W.effective_components()[0], (1.5, 0, 0, 0)) == pytest.approx(1.5)


def test_form_to_text_mentions_basis():
    w = fm.form_from_coeffs(CHART, 2, {(0, 3): ex.mul(ex.Const(2), Y)})
    text = fm.form_to_text(w)
    assert "dx" in text and "dt" in text


# ---------------------------------------------------------------------------
# The Cartan operations within one run


def _cartan(a, b, V):
    return [fm.exterior_derivative(a), fm.wedge(a, b), fm.interior(V, b), fm.lie_derivative(V, a)]


def test_cartan_operations_are_built_once_per_run():
    r = rng(19)
    a, b, V = random_form(r, 1), random_form(r, 2), random_field(r, smooth=True)

    def anew():  # equal operands, new objects
        return (fm.form_from_coeffs(CHART, 1, a.coeffs), fm.form_from_coeffs(CHART, 2, b.coeffs),
                fm.VectorField(CHART, V.components, V.support))

    outside = _cartan(a, b, V)
    assert all(x is not y for x, y in zip(_cartan(a, b, V), outside))
    with ex.run_memo():
        kept = _cartan(a, b, V)
        assert all(x is y for x, y in zip(_cartan(*anew()), kept))
        # nodes are interned: the kept forms are the ones built outside
        assert [w.coeffs for w in kept] == [w.coeffs for w in outside]
        # another field, or a field with another support, is another operand
        W = fm.VectorField(CHART, V.components, ex.mul(V.support, ex.add(X, ex.ONE)))
        assert fm.interior(W, b) is not kept[2] and fm.lie_derivative(W, a) is not kept[3]
    assert ex._MEMO.get() is None
    assert all(x is not y for x, y in zip(_cartan(a, b, V), kept))


@pytest.mark.parametrize("preset", ["em.torsion_nonzero", "fluid.beltrami_abc"])
def test_a_run_calls_each_cartan_operation_through_its_module(monkeypatch, preset):
    # the kept operations are still the module attributes a run calls, so
    # wrapping them by name (as the benchmark's tracer does) sees every call
    import formflow.cli as cli

    names = ("exterior_derivative", "wedge", "interior", "lie_derivative")
    calls = {name: 0 for name in names}

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for name in names:
        monkeypatch.setattr(fm, name, counted(name, getattr(fm, name)))
    cli.run(cli.parse_config(f"[run]\npreset = {preset}\n"))
    assert all(calls.values()), calls
