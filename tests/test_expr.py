"""Expression kernel: differentiation, simplification, zero testing."""

import gc
import math

import pytest
from hypothesis import given, settings, strategies as st

import formflow.expr as ex
from corpus import (
    CHART, mixed_forms, random_poly_scalar, random_smooth_scalar, random_point, rng,
)
from oracles import (
    poly_add, poly_diff, poly_from_expr, poly_is_zero, poly_mul, reference_zero_test,
)

X, Y, Z, T = (ex.coord(i) for i in range(4))


def make_tester(seed: int = 20180425) -> ex.ZeroTester:
    return ex.ZeroTester(ex.default_box(4), seed=seed)


def test_difference_of_squares_is_zero():
    # (x^2 - y^2) - (x - y)(x + y): zero in the polynomial ring even though
    # the simplifier leaves the product unexpanded.
    lhs = ex.add(ex.power(X, 2), ex.negate(ex.power(Y, 2)))
    rhs = ex.mul(ex.add(X, ex.negate(Y)), ex.add(X, Y))
    diff = ex.simplify(ex.add(lhs, ex.negate(rhs)))
    p = poly_from_expr(diff, 4)
    assert p is not None and poly_is_zero(p)
    assert make_tester().test(diff).zero


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_product_rule_matches_polynomial_oracle(seed):
    r = rng(seed)
    f = random_poly_scalar(r)
    g = random_poly_scalar(r)
    i = int(r.integers(0, 4))
    lib = poly_from_expr(ex.differentiate(ex.mul(f, g), i), 4)
    pf, pg = poly_from_expr(f, 4), poly_from_expr(g, 4)
    want = poly_add(poly_mul(poly_diff(pf, i), pg), poly_mul(pf, poly_diff(pg, i)))
    assert poly_is_zero(poly_add(lib, {k: -v for k, v in want.items()}), tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_mixed_partials_commute(seed):
    # the C2 hypothesis behind transport commuting with d
    r = rng(seed)
    e = random_smooth_scalar(r)
    i, j = (int(v) for v in r.integers(0, 4, size=2))
    gap = ex.simplify(
        ex.add(
            ex.differentiate(ex.differentiate(e, i), j),
            ex.negate(ex.differentiate(ex.differentiate(e, j), i)),
        )
    )
    assert make_tester().test(gap).zero


def test_chain_rule_on_trig():
    e = ex.sin(ex.mul(ex.Const(2), X))
    d = ex.differentiate(e, 0)
    p = random_point(rng(3))
    assert ex.eval_at(d, p) == pytest.approx(2 * math.cos(2 * p[0]), rel=1e-12)


def test_quotient_rule_numerically():
    e = ex.quotient(ex.add(X, ex.ONE), ex.add(ex.power(Y, 2), ex.Const(2)))
    d = ex.differentiate(e, 1)
    p = (0.3, 0.5, 0.0, 0.0)
    h = 1e-6
    up = ex.eval_at(e, (0.3, 0.5 + h, 0.0, 0.0))
    dn = ex.eval_at(e, (0.3, 0.5 - h, 0.0, 0.0))
    assert ex.eval_at(d, p) == pytest.approx((up - dn) / (2 * h), rel=1e-8)


def test_simplify_constant_folding():
    e = ex.add(ex.mul(ex.Const(2), ex.Const(3)), ex.Const(-6))
    assert ex.is_syntactic_zero(ex.simplify(e))
    assert ex.simplify(ex.mul(ex.ZERO, X)) == ex.ZERO
    assert ex.simplify(ex.power(X, 0)) == ex.ONE


def test_like_term_collection():
    e = ex.add(X, X, ex.mul(ex.Const(-2), X))
    assert ex.is_syntactic_zero(ex.simplify(e))


def test_zero_tester_finds_witness():
    e = ex.mul(X, Y)  # vanishes on the axes, not almost everywhere
    verdict = make_tester().test(e)
    assert not verdict.zero
    assert verdict.witness is not None
    assert abs(ex.eval_at(e, verdict.witness)) > 0


def test_zero_tester_deterministic():
    e = ex.add(ex.sin(X), ex.negate(X))
    a = make_tester(seed=7).test(e)
    b = make_tester(seed=7).test(e)
    assert (a.zero, a.witness, a.samples) == (b.zero, b.witness, b.samples)


def test_zero_tester_accepts_pythagorean_identity():
    # sin^2 + cos^2 - 1 never simplifies syntactically (rewrite is off) but
    # must still test zero.
    e = ex.add(
        ex.power(ex.sin(X), 2), ex.power(ex.cos(X), 2), ex.Const(-1)
    )
    assert not ex.is_syntactic_zero(ex.simplify(e))
    assert make_tester().test(e).zero


def test_guarded_sampling_skips_singular_region():
    r2 = ex.add(ex.power(X, 2), ex.power(Y, 2))
    box = ex.Box(
        lows=(-1.0,) * 4, highs=(1.0,) * 4, guards=(r2,)
    )
    e = ex.quotient(ex.ONE, r2)
    verdict = ex.ZeroTester(box).test(e)
    assert not verdict.zero


def test_eval_at_raises_on_division_by_zero():
    e = ex.quotient(ex.ONE, X)
    with pytest.raises(ex.EvalError):
        ex.eval_at(e, (0.0, 0.0, 0.0, 0.0))


def test_eval_with_params():
    e = ex.mul(ex.param("a"), X)
    assert ex.eval_at(e, (2.0, 0, 0, 0), {"a": 3.0}) == pytest.approx(6.0)
    with pytest.raises(ex.EvalError):
        ex.eval_at(e, (2.0, 0, 0, 0))


def test_collect_params():
    e = ex.add(ex.param("b"), ex.mul(ex.param("a"), ex.sin(ex.param("b"))))
    assert ex.collect_params(e) == ("a", "b")


def test_box_validation():
    with pytest.raises(ex.ExprError):
        ex.Box(lows=(0.0, 0.0), highs=(1.0,))
    with pytest.raises(ex.ExprError):
        ex.Box(lows=(1.0,), highs=(0.0,))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_simplify_preserves_value(seed):
    r = rng(seed)
    e = random_smooth_scalar(r)
    s = ex.simplify(e)
    for _ in range(4):
        p = random_point(r)
        assert ex.eval_at(s, p) == pytest.approx(ex.eval_at(e, p), rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# The chunked zero test against the one-row-at-a-time reference, bit for bit

A, B = ex.param("a"), ex.param("b")
PARAM_BOX = ex.Box(
    lows=(-1.0, -0.5, 0.0, -2.0), highs=(1.0, 1.5, 0.5, 2.0),
    param_ranges={"a": (-2.0, 3.0)},  # b keeps the default range
)


def assert_same_verdict(tester, e, extra_guards=()):
    try:
        want = reference_zero_test(tester, e, extra_guards)
    except ex.InconclusiveError as err:
        with pytest.raises(ex.InconclusiveError) as got:
            tester.test(e, extra_guards)
        assert str(got.value) == str(err)
        return None
    got = tester.test(e, extra_guards)
    assert got == want  # every field, floats compared with ==
    return got


def corpus_exprs(seed):
    r = rng(seed)
    out = []
    for _ in range(6):
        f, g = random_smooth_scalar(r), random_poly_scalar(r)
        i = int(r.integers(0, 4))
        product_rule = ex.add(
            ex.differentiate(ex.mul(f, g), i),
            ex.negate(ex.mul(ex.differentiate(f, i), g)),
            ex.negate(ex.mul(f, ex.differentiate(g, i))),
        )
        out += [f, g, product_rule, ex.add(ex.mul(A, f), ex.mul(B, g))]
    for w in mixed_forms(4, seed=seed):
        out += list(w.coeffs.values())
    return out


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_chunked_zero_test_matches_reference_on_corpus(seed):
    testers = [
        make_tester(seed=seed),
        ex.ZeroTester(PARAM_BOX, seed=seed),
        ex.ZeroTester(ex.Box(PARAM_BOX.lows, PARAM_BOX.highs, PARAM_BOX.param_ranges,
                             guards=(ex.add(X, Y),), guard_tol=0.3), seed=seed),
    ]
    verdicts = [
        assert_same_verdict(t, e) for t in testers for e in corpus_exprs(seed)
    ]
    assert any(v.zero and not v.syntactic for v in verdicts)
    assert any(not v.zero for v in verdicts)
    # an extra guard may bring in a parameter the expression does not use
    assert_same_verdict(testers[0], ex.sin(X), extra_guards=(ex.add(Y, B),))


def test_chunked_zero_test_matches_reference_at_singularities():
    t = ex.ZeroTester(ex.Box(lows=(-0.3,) * 4, highs=(0.3,) * 4), seed=5)
    x400, y400 = ex.power(X, 400), ex.power(Y, 400)  # underflow to 0 near the axes
    cases = [
        ex.quotient(ex.ONE, X),
        ex.quotient(ex.ONE, x400),
        ex.power(X, -3),
        ex.power(X, -400),
        ex.ln(X),
        ex.sqrt(X),
        ex.atan2(Y, X),
        ex.atan2(y400, x400),
        ex.exp(ex.mul(ex.Const(1000), X)),
        ex.mul(ex.exp(ex.mul(ex.Const(1000), X)), ex.exp(ex.mul(ex.Const(1000), Y))),
        # zero wherever defined, so every singular row is skipped, not a witness
        ex.add(ex.ln(ex.mul(X, Y)), ex.negate(ex.ln(X)), ex.negate(ex.ln(Y))),
        ex.add(ex.power(ex.sqrt(X), 2), ex.negate(X)),
        ex.add(ex.mul(ex.quotient(ex.ONE, ex.power(X, 3)), ex.power(X, 3)), ex.Const(-1)),
        ex.add(ex.mul(ex.exp(ex.mul(ex.Const(1000), X)),
                      ex.exp(ex.mul(ex.Const(-1000), X))), ex.Const(-1)),
        ex.add(ex.atan2(y400, x400), ex.atan2(ex.negate(y400), x400)),
    ]
    verdicts = [assert_same_verdict(t, e) for e in cases]
    assert any(v is not None and v.zero and v.skipped for v in verdicts)
    guarded = ex.ZeroTester(ex.Box(lows=(-0.3,) * 4, highs=(0.3,) * 4, guards=(X,),
                                   guard_tol=0.2), seed=5)
    for e in cases[:3]:
        assert assert_same_verdict(guarded, e).skipped > 0


def test_chunked_zero_test_matches_reference_across_chunks():
    # 95 % of rows are guarded, so both verdicts take more than one chunk
    box = ex.Box(lows=(-1.0,) * 4, highs=(1.0,) * 4, guards=(X,), guard_tol=0.95)
    t = ex.ZeroTester(box, seed=13)
    pythagoras = ex.add(ex.power(ex.sin(Y), 2), ex.power(ex.cos(Y), 2), ex.Const(-1))
    nonzero = ex.mul(Y, Z)
    for e in (pythagoras, nonzero):
        v = assert_same_verdict(t, e)
        assert v.samples + v.skipped > t.n_samples
    assert not assert_same_verdict(t, nonzero).zero


def test_fully_guarded_zero_test_is_inconclusive_like_reference():
    t = make_tester().with_guards(ex.ZERO)
    with pytest.raises(ex.InconclusiveError, match="only 0 valid samples out of 512"):
        t.test(X)
    assert_same_verdict(t, X)
    # a few valid rows, still below min_valid
    sparse = ex.ZeroTester(ex.Box((-1.0,) * 4, (1.0,) * 4, guards=(X,), guard_tol=0.98),
                           seed=1)
    pythagoras = ex.add(ex.power(ex.sin(Y), 2), ex.power(ex.cos(Y), 2), ex.Const(-1))
    with pytest.raises(ex.InconclusiveError, match="only 7 valid samples"):
        sparse.test(pythagoras)
    assert_same_verdict(sparse, pythagoras)


@pytest.mark.parametrize("seed", [3, 8])
def test_eval_rows_matches_eval_with_scale_row_by_row(seed):
    r = rng(seed)
    box = ex.Box(lows=(-2.0,) * 4, highs=(2.0,) * 4)
    points, params = ex.draw_rows(box, r, ("a", "b"), 48)
    exprs = corpus_exprs(seed) + [
        ex.ln(X), ex.sqrt(Y), ex.quotient(A, ex.add(X, Y)), ex.power(ex.sin(X), -2),
        ex.exp(ex.mul(ex.Const(400), X)), ex.atan2(ex.power(Y, 700), X),
    ]
    for e in exprs:
        values, scales = ex.eval_rows(e, points, params)
        for i, row in enumerate(points):
            pr = {nm: float(params[nm][i]) for nm in params}
            try:
                want = ex.eval_with_scale(e, tuple(row), pr)
            except ex.SingularityError:
                assert math.isnan(values[i])
                continue
            assert (values[i], scales[i]) == want


def test_eval_rows_uses_the_scalar_power_exp_ln_and_atan2():
    # numpy's power, exp, log and arctan2 differ from Python's in the last
    # bit on a fraction of a percent of inputs; thousands of rows show it
    box = ex.Box(lows=(0.01, -3.0, -3.0, -3.0), highs=(3.0, 3.0, 3.0, 3.0))
    points, _ = ex.draw_rows(box, rng(17), (), 4000)
    for e in (ex.power(Y, 3), ex.power(Z, -5), ex.exp(Y), ex.ln(X), ex.atan2(Y, Z)):
        values, _ = ex.eval_rows(e, points, {})
        want = [ex.eval_at(e, tuple(row)) for row in points]
        assert values.tolist() == want, ex.to_text(e)


def test_box_guard_parameters_are_drawn():
    # the guard's parameter a is not in the tested expression
    guard = ex.add(X, ex.mul(ex.param("a"), Z))
    plain = ex.Box((-1.0,) * 4, (1.0,) * 4, param_ranges={"a": (0.5, 2.0)})
    guarded = ex.Box(plain.lows, plain.highs, plain.param_ranges, guards=(guard,))
    e = ex.mul(Y, Z)
    got = ex.ZeroTester(guarded).test(e)
    assert not got.zero and set(got.witness_params) == {"a"}
    assert got == ex.ZeroTester(plain).test(e, extra_guards=(guard,))
    assert got == reference_zero_test(ex.ZeroTester(guarded), e)


def test_evaluators_leave_no_cyclic_garbage():
    # each evaluator's recursive walk must not outlive its call: a memo kept
    # alive by a reference cycle holds every intermediate array until the
    # cyclic collector happens to run
    e = ex.add(ex.mul(ex.sin(X), Y), ex.quotient(Z, ex.add(ex.const(2), ex.mul(X, X))))
    points = rng(5).uniform(-1, 1, size=(40, 4))
    calls = (
        lambda: ex.eval_many(e, points),
        lambda: ex.eval_rows(e, points, {}),
        lambda: ex.eval_with_scale(e, points[0]),
    )
    for call in calls:
        call()
        gc.collect()
        gc.disable()
        try:
            for _ in range(20):
                call()
            assert gc.collect() == 0
        finally:
            gc.enable()
