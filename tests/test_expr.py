"""Expression kernel: differentiation, simplification, zero testing."""

import gc
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import formflow.expr as ex
import formflow.forms as fm
from formflow.parse import parse_scalar
import oracles
from corpus import (
    CHART, action_process_pairs, mixed_forms, random_field, random_poly_scalar,
    random_smooth_scalar, random_point, rng,
)
from oracles import (
    compiled_eval, poly_add, poly_diff, poly_from_expr, poly_is_zero, poly_mul,
    reference_differentiate, reference_eval_rows, reference_eval_with_scale, reference_simplify,
    reference_zero_test, value_at,
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
    assert value_at(d, p) == pytest.approx(2 * math.cos(2 * p[0]), rel=1e-12)


def test_quotient_rule_numerically():
    e = ex.quotient(ex.add(X, ex.ONE), ex.add(ex.power(Y, 2), ex.Const(2)))
    d = ex.differentiate(e, 1)
    p = (0.3, 0.5, 0.0, 0.0)
    h = 1e-6
    up = value_at(e, (0.3, 0.5 + h, 0.0, 0.0))
    dn = value_at(e, (0.3, 0.5 - h, 0.0, 0.0))
    assert value_at(d, p) == pytest.approx((up - dn) / (2 * h), rel=1e-8)


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
    assert abs(value_at(e, verdict.witness)) > 0


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
        value_at(e, (0.0, 0.0, 0.0, 0.0))


def test_eval_with_params():
    e = ex.mul(ex.param("a"), X)
    assert value_at(e, (2.0, 0, 0, 0), {"a": 3.0}) == pytest.approx(6.0)
    with pytest.raises(ex.EvalError):
        value_at(e, (2.0, 0, 0, 0))


def test_collect_params():
    e = ex.add(ex.param("b"), ex.mul(ex.param("a"), ex.sin(ex.param("b"))))
    assert ex.Tape((e,)).params == ("a", "b")


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
        assert value_at(s, p) == pytest.approx(value_at(e, p), rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# The chunked zero test against the one-row-at-a-time reference, bit for bit

A, B = ex.param("a"), ex.param("b")
PARAM_BOX = ex.Box(
    lows=(-1.0, -0.5, 0.0, -2.0), highs=(1.0, 1.5, 0.5, 2.0),
    param_ranges={"a": (-2.0, 3.0)},  # b keeps the default range
)


def assert_same_verdict(tester, e):
    try:
        want = reference_zero_test(tester, e)
    except ex.InconclusiveError as err:
        with pytest.raises(ex.InconclusiveError) as got:
            tester.test(e)
        assert str(got.value) == str(err)
        return None
    got = tester.test(e)
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
    assert_same_verdict(testers[0].with_guards(ex.add(Y, B)), ex.sin(X))


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
        (values,), (scales,) = ex.Tape((e,)).scaled_rows(points, params)
        for i, row in enumerate(points):
            pr = {nm: float(params[nm][i]) for nm in params}
            try:
                want = ex.eval_with_scale(e, tuple(row), pr)
            except ex.SingularityError:
                assert math.isnan(values[i])
                continue
            assert (values[i], scales[i]) == want


def test_eval_rows_equals_single_point_evaluation_bit_for_bit():
    # a batch row and the same point evaluated alone run the same numpy
    # operations; power, exp, log and arctan2 are where a batch loop and a
    # one-element one could part in the last bit, and thousands of rows
    # would show it
    box = ex.Box(lows=(0.01, -3.0, -3.0, -3.0), highs=(3.0, 3.0, 3.0, 3.0))
    points, _ = ex.draw_rows(box, rng(17), (), 4000)
    for e in (ex.power(Y, 3), ex.power(Z, -5), ex.exp(Y), ex.ln(X), ex.atan2(Y, Z)):
        (values,), _ = ex.Tape((e,)).scaled_rows(points, {})
        want = [value_at(e, tuple(row)) for row in points]
        assert values.tolist() == want, ex.to_text(e)


def test_singular_rows_stay_singular_and_points_are_python_floats():
    # numpy's nan ** 0 is 1, so a singular base must be carried past a
    # hand-built zeroth power
    e = ex.Pow(ex.quotient(ex.ONE, X), 0)
    points = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]])
    (values,), _ = ex.Tape((e,)).scaled_rows(points, {})
    assert values[0] == 1.0 and math.isnan(values[1])
    calls = (
        lambda: reference_eval_with_scale(e, points[1]),
        lambda: value_at(e, points[1]),
        lambda: ex.eval_with_scale(e, tuple(points[1])),
        lambda: ex.eval_many(e, points),
        lambda: ex.Tape((ex.ONE, e)).values(points, {}),
    )
    for call in calls:
        with pytest.raises(ex.SingularityError) as err:
            call()
        assert str(err.value) == "division by zero in 1 / x0 at point (0.0, 2.0, 0.0, 0.0)"
        assert err.value.point == (0.0, 2.0, 0.0, 0.0)
        assert all(type(c) is float for c in err.value.point)


# One row per singular kind (and a few finite ones) appended to the drawn
# rows of the differential test; parameters a = b = 1 there.
SINGULAR_ROWS = [
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 1.5, -0.5, 1.0),
    (2.0, 2.0, 0.0, -1.0),
    (800.0, -1.0, 0.0, 0.0),
    (-1.0, 0.0, 0.0, 1.0),
    (1.0, 0.0, 2.0, 0.0),
]
SINGULAR_KINDS = [
    ex.quotient(A, X),                                   # division by zero
    ex.Pow(ex.quotient(ex.ONE, X), 0),                   # ... under a zeroth power
    ex.quotient(ex.ln(X), Y),                            # zero denominator, singular numerator
    ex.quotient(Y, ex.ln(X)),                            # ln(1) = 0 as a denominator
    ex.power(X, -3),                                     # zero base, negative exponent
    ex.power(X, 400),                                    # overflow in **
    ex.exp(ex.mul(ex.Const(400), X)),                    # overflow in exp
    ex.mul(ex.exp(ex.mul(ex.Const(300), X)), ex.exp(ex.mul(ex.Const(300), Y))),  # nonfinite
    ex.ln(ex.add(X, ex.mul(B, Z))),                      # ln of a nonpositive value
    ex.sqrt(ex.negate(Y)),                               # sqrt of a negative value
    ex.atan2(Y, Z),                                      # atan2(0, 0)
    ex.add(ex.atan2(ex.power(Y, 700), X), ex.sin(ex.quotient(Z, ex.sqrt(X)))),
]


def assert_same_singularity(got: ex.SingularityError, want: ex.SingularityError):
    assert str(got) == str(want)
    assert got.subexpression == want.subexpression
    assert got.point == want.point


@pytest.mark.parametrize("seed", [3, 8, 21])
def test_walker_matches_the_scalar_reference(seed):
    box = ex.Box(lows=(-2.0,) * 4, highs=(2.0,) * 4)
    drawn, params = ex.draw_rows(box, rng(seed), ("a", "b"), 64)
    points = np.vstack([drawn, SINGULAR_ROWS])
    params = {nm: np.concatenate([col, np.ones(len(SINGULAR_ROWS))])
              for nm, col in params.items()}
    kinds = set()
    for e in corpus_exprs(seed) + SINGULAR_KINDS:
        (values,), (scales,) = ex.Tape((e,)).scaled_rows(points, params)
        for i, row in enumerate(points):
            pr = {nm: float(params[nm][i]) for nm in params}
            try:
                want, want_scale = reference_eval_with_scale(e, row, pr)
            except ex.SingularityError as want_err:
                kinds.add(str(want_err).split(" in ")[0])
                assert math.isnan(values[i]), ex.to_text(e)
                with pytest.raises(ex.SingularityError) as got:
                    ex.eval_with_scale(e, row, pr)
                assert_same_singularity(got.value, want_err)
                continue
            bound = 1e-14 * (1.0 + want_scale)
            assert abs(values[i] - want) <= bound, ex.to_text(e)
            assert abs(scales[i] - want_scale) <= bound, ex.to_text(e)
        # eval_many raises as the reference does at the row it names: no
        # node before the failing one is singular at any row
        fixed = {"a": 1.0, "b": 1.0}
        try:
            many = ex.eval_many(e, points, fixed)
        except ex.SingularityError as err:
            i = [tuple(row.tolist()) for row in points].index(err.point)
            with pytest.raises(ex.SingularityError) as want:
                reference_eval_with_scale(e, points[i], fixed)
            assert_same_singularity(err, want.value)
            continue
        for row, v in zip(points, many):
            want, want_scale = reference_eval_with_scale(e, row, fixed)
            assert abs(v - want) <= 1e-14 * (1.0 + want_scale), ex.to_text(e)
    assert kinds == {
        "division by zero", "zero base with negative exponent", "overflow",
        "nonfinite value", "ln of nonpositive value", "sqrt of negative value", "atan2(0, 0)",
    }


@pytest.mark.parametrize("seed", [3, 8, 21])
def test_compiled_oracle_matches_the_scalar_reference(seed, monkeypatch):
    # the flow oracle's compiled trees give reference_eval_with_scale's
    # value bit for bit, and fall back to it exactly where it raises
    box = ex.Box(lows=(-2.0,) * 4, highs=(2.0,) * 4)
    drawn, params = ex.draw_rows(box, rng(seed), ("a", "b"), 64)
    points = np.vstack([drawn, SINGULAR_ROWS])
    params = {nm: np.concatenate([col, np.ones(len(SINGULAR_ROWS))])
              for nm, col in params.items()}
    field = random_field(rng(seed), smooth=True, supported=True)
    exprs = corpus_exprs(seed) + SINGULAR_KINDS + list(field.effective_components())
    real = oracles.reference_eval_with_scale
    fallbacks = []
    monkeypatch.setattr(oracles, "reference_eval_with_scale",
                        lambda *args: fallbacks.append(args) or real(*args))
    singular = 0
    for e in exprs:
        fn = compiled_eval(e)
        for i, row in enumerate(points):
            pt = tuple(row.tolist())
            pr = {nm: float(params[nm][i]) for nm in params}
            try:
                want, _ = real(e, pt, pr)
            except ex.SingularityError as want_err:
                singular += 1
                with pytest.raises(ex.SingularityError) as got:
                    fn(pt, pr)
                assert_same_singularity(got.value, want_err)
                continue
            assert fn(pt, pr).hex() == want.hex(), ex.to_text(e)
    assert singular and len(fallbacks) == singular


@pytest.mark.parametrize("seed", [3, 8, 21])
def test_one_tape_run_equals_eval_many_of_each_root(seed):
    # the roots share subtrees, so the tape computes each shared node once;
    # every root's values are still eval_many's, bit for bit
    box = ex.Box(lows=(-2.0,) * 4, highs=(2.0,) * 4)
    drawn, _ = ex.draw_rows(box, rng(seed), (), 64)
    points = np.vstack([drawn, np.zeros((1, 4))])
    params = {"a": 1.0, "b": 1.5}
    exprs = corpus_exprs(seed)
    f, g = exprs[0], exprs[1]
    # at x = y = 0 both terms are -0.0; a sum starts from +0.0, so the sum
    # is +0.0 and atan2 takes the +pi branch
    signed_zero = ex.atan2(ex.Sum((ex.negate(X), ex.negate(Y))), ex.add(Z, ex.Const(-3)))
    roots = exprs + [
        ex.sin(f), ex.mul(f, g), ex.quotient(f, ex.add(ex.power(X, 2), ex.ONE)), f, signed_zero,
    ]
    tape = ex.Tape(roots)
    assert len(tape.code) < sum(len(ex.Tape((e,)).code) for e in roots)
    got = tape.values(points, params)
    for e, v in zip(roots, got, strict=True):
        assert v.tobytes() == ex.eval_many(e, points, params).tobytes(), ex.to_text(e)
    assert got[-1][-1] == math.pi


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit for bit, with every NaN equal to every NaN."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


@pytest.mark.parametrize("seed", [3, 8, 21])
def test_scaled_rows_give_each_root_its_one_root_scale(seed):
    # a root's scale is the largest magnitude over its own subtree, so the
    # larger roots it shares a tape with do not change it
    box = ex.Box(lows=(-2.0,) * 4, highs=(2.0,) * 4)
    drawn, params = ex.draw_rows(box, rng(seed), ("a", "b"), 64)
    points = np.vstack([drawn, SINGULAR_ROWS])
    params = {nm: np.concatenate([col, np.ones(len(SINGULAR_ROWS))])
              for nm, col in params.items()}
    roots = corpus_exprs(seed) + SINGULAR_KINDS
    values, scales = ex.Tape(roots).scaled_rows(points, params)
    for e, v, scale in zip(roots, values, scales, strict=True):
        (want,), (want_scale,) = ex.Tape((e,)).scaled_rows(points, params)
        assert same_bits(v, want) and same_bits(scale, want_scale), ex.to_text(e)
    widest = np.fmax.reduce(scales)
    assert sum((scale < widest).any() for scale in scales) > len(roots) // 2


def first_reference_error(roots, points, params) -> ex.EvalError:
    for e in roots:
        try:
            reference_eval_rows(e, points, params)
        except ex.EvalError as err:
            return err
    raise AssertionError("no root fails")


def test_one_tape_run_raises_the_first_failing_roots_error(monkeypatch):
    compiled = []

    class Counted(ex.Tape):
        def __init__(self, roots):
            compiled.append(tuple(roots))
            super().__init__(roots)

    monkeypatch.setattr(ex, "Tape", Counted)
    points = np.vstack([rng(5).uniform(-2.0, 2.0, size=(16, 4)), SINGULAR_ROWS])
    params = {"a": 1.0, "b": 1.0}
    finite = ex.add(ex.mul(X, Y), Z)
    unbound = ex.mul(X, ex.param("c"))
    for k, bad in enumerate(SINGULAR_KINDS):
        later = SINGULAR_KINDS[(k + 1) % len(SINGULAR_KINDS)]
        for roots in (
            [finite, bad],
            [finite, ex.add(finite, later), bad, later],
            [ex.sin(finite), later, bad],
            [bad, unbound],
            [unbound, bad],
        ):
            want = first_reference_error(roots, points, params)
            tape = ex.Tape(roots)
            compiled.clear()
            with pytest.raises(ex.EvalError) as got:
                tape.values(points, params)
            assert compiled == []  # the error is found on the same tape
            assert type(got.value) is type(want)
            assert str(got.value) == str(want)
            if isinstance(want, ex.SingularityError):
                assert_same_singularity(got.value, want)


def test_box_guard_parameters_are_drawn():
    # the guard's parameter a is not in the tested expression
    guard = ex.add(X, ex.mul(ex.param("a"), Z))
    plain = ex.Box((-1.0,) * 4, (1.0,) * 4, param_ranges={"a": (0.5, 2.0)})
    guarded = ex.Box(plain.lows, plain.highs, plain.param_ranges, guards=(guard,))
    e = ex.mul(Y, Z)
    got = ex.ZeroTester(guarded).test(e)
    assert not got.zero and set(got.witness_params) == {"a"}
    assert got == ex.ZeroTester(plain).with_guards(guard).test(e)
    assert got == reference_zero_test(ex.ZeroTester(guarded), e)


def test_verdicts_do_not_depend_on_earlier_tests():
    # the tester keeps one row table per parameter-name set; a table read
    # first by another expression gives the verdict a fresh tester gives
    box = ex.Box(PARAM_BOX.lows, PARAM_BOX.highs, PARAM_BOX.param_ranges,
                 guards=(ex.add(Y, ex.Const(0.5)),), guard_tol=0.4)
    pythagoras = ex.add(ex.power(ex.sin(X), 2), ex.power(ex.cos(X), 2), ex.Const(-1))
    exprs = [
        ex.mul(Y, Z), pythagoras, ex.mul(A, X), ex.mul(ex.add(A, B), ex.sin(Y)),
        ex.add(ex.mul(B, Y), Z), ex.mul(A, ex.sin(X)), ex.mul(X, T), ex.mul(B, pythagoras),
    ]
    fresh = [ex.ZeroTester(box, seed=9).test(e) for e in exprs]
    assert any(v.zero and not v.syntactic for v in fresh)
    assert any(not v.zero for v in fresh)
    shared = ex.ZeroTester(box, seed=9)
    for order in (range(len(exprs)), reversed(range(len(exprs)))):
        for i in order:
            assert shared.test(exprs[i]) == fresh[i], ex.to_text(exprs[i])


def test_one_zero_test_compiles_one_tape(monkeypatch):
    compiled = []

    class Counted(ex.Tape):
        def __init__(self, roots):
            compiled.append(tuple(roots))
            super().__init__(roots)

    monkeypatch.setattr(ex, "Tape", Counted)
    pythagoras = ex.add(ex.power(ex.sin(Y), 2), ex.power(ex.cos(Y), 2), ex.Const(-1))
    # 95 % of rows are guarded, so both verdicts read more than one chunk
    across_chunks = ex.Box(lows=(-1.0,) * 4, highs=(1.0,) * 4, guards=(X,), guard_tol=0.95)
    guarded = ex.Box(PARAM_BOX.lows, PARAM_BOX.highs, PARAM_BOX.param_ranges,
                     guards=(ex.add(X, Y), ex.mul(A, Z)), guard_tol=0.1)
    for box in (ex.default_box(4), guarded, across_chunks):
        compiled.clear()
        t = ex.ZeroTester(box, seed=13)
        assert compiled == [box.guards]  # the guards, once per tester
        rows_read = []
        for e in (pythagoras, ex.mul(Y, Z), ex.mul(A, Z), pythagoras):
            compiled.clear()
            v = t.test(e)
            assert not v.syntactic
            assert compiled == [(ex.simplify(e),)]
            rows_read.append(v.samples + v.skipped)
        if box is across_chunks:
            assert max(rows_read) > t.n_samples


def test_evaluators_leave_no_cyclic_garbage():
    # each evaluator's recursive walk must not outlive its call: a memo kept
    # alive by a reference cycle holds every intermediate array until the
    # cyclic collector happens to run
    e = ex.add(ex.mul(ex.sin(X), Y), ex.quotient(Z, ex.add(ex.const(2), ex.mul(X, X))))
    points = rng(5).uniform(-1, 1, size=(40, 4))
    def raises():
        try:
            ex.Tape((e, ex.mul(X, ex.param("c")))).values(points, {})
        except ex.EvalError:
            pass

    calls = (
        lambda: ex.eval_many(e, points),
        lambda: ex.Tape((e,)).scaled_rows(points, {}),
        lambda: ex.eval_with_scale(e, points[0]),
        raises,
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


# ---------------------------------------------------------------------------
# Normal-form marks and cached partials against the uncached references


def tree_nodes(e):
    """Every node object of e, each once."""
    seen, out, stack = set(), [], [e]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node)
        if isinstance(node, ex.Sum):
            stack.extend(node.terms)
        elif isinstance(node, ex.Product):
            stack.extend(node.factors)
        elif isinstance(node, ex.Quotient):
            stack += [node.num, node.den]
        elif isinstance(node, ex.Pow):
            stack.append(node.base)
        elif isinstance(node, ex.Func):
            stack.extend(node.args)
    return out


def outcome(f, *args):
    try:
        return f(*args)
    except ex.ExprError as err:
        return f"{type(err).__name__}: {err}"


def check_against_references(e) -> int:
    """simplify and differentiate of e equal the references, and every node
    marked normal in e, its simplification and its partials is a fixed point
    of the full rebuild.  Returns the number of marked compound nodes."""
    assert outcome(ex.simplify, e) == outcome(reference_simplify, e)
    trees = [e, outcome(ex.simplify, e)]
    cached = not (isinstance(e, ex.Func) and e.name in ("exp", "sqrt"))
    for k in range(4):
        got = outcome(ex.differentiate, e, k)
        assert got == outcome(reference_differentiate, e, k)
        if cached and not isinstance(got, str):
            assert ex.differentiate(e, k) is got
        trees.append(got)
    marked = 0
    for tree in trees:
        if isinstance(tree, str):
            continue
        for node in tree_nodes(tree):
            if node._normal:
                assert reference_simplify(node) == node, ex.to_text(node)
                marked += not isinstance(node, (ex.Const, ex.Coord, ex.Param))
    return marked


def anatomy_exprs(A, J):
    """Coefficients of dA, A^dA, dA^dA, i(J)dA, d(i(J)A) and L(J)A."""
    dA = fm.exterior_derivative(A)
    H = fm.wedge(A, dA)
    forms = (A, dA, H, fm.exterior_derivative(H), fm.interior(J, dA),
             fm.exterior_derivative(fm.interior(J, A)), fm.lie_derivative(J, A))
    return [c for w in forms for c in w.coeffs.values()]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_marks_and_partials_match_references_on_corpus(seed):
    exprs = corpus_exprs(seed)
    for A, J in action_process_pairs(n_random=3, seed=seed)[seed::4]:
        exprs += anatomy_exprs(A, J)
    assert sum(check_against_references(e) for e in exprs) > 100


LEAVES = (X, Y, Z, T, A, B, ex.Const(0), ex.Const(1), ex.Const(-1), ex.Const(2),
          ex.Const(Fraction(1, 3)), ex.Const(0.5), ex.Const(-1.5))


def or_first(f, first, *rest):
    try:
        return f(first, *rest)
    except ex.ExprError:  # zero denominator or zero base to a negative power
        return first


def extend(kids):
    few = st.lists(kids, min_size=1, max_size=3)
    return st.one_of(
        few.map(lambda ts: ex.add(*ts)),
        few.map(lambda fs: ex.mul(*fs)),
        st.tuples(kids, kids).map(lambda p: or_first(ex.quotient, *p)),
        st.tuples(kids, st.integers(-3, 3)).map(lambda p: or_first(ex.power, *p)),
        st.tuples(kids, st.sampled_from(("sin", "cos", "exp", "ln", "sqrt"))).map(
            lambda p: ex.func(p[1], p[0])),
        st.tuples(kids, kids).map(lambda p: ex.atan2(*p)),
        # hand-built nodes, which the constructors never build as they are
        few.map(lambda ts: ex.Sum(tuple(ts))),
        few.map(lambda fs: ex.Product(tuple(fs))),
        st.tuples(kids, kids).map(lambda p: ex.Quotient(*p)),
        st.tuples(kids, st.integers(-3, 3)).map(lambda p: ex.Pow(*p)),
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(st.sampled_from(LEAVES), extend, max_leaves=16))
def test_marks_and_partials_match_references_on_constructed_trees(e):
    check_against_references(e)


@pytest.mark.parametrize("e", [
    # a constructor over hand-built nesting: the rebuild flattens it
    ex.add(ex.Sum((ex.add(X, Y), Z))),
    ex.mul(ex.Product((ex.mul(X, Y), Z))),
    ex.mul(ex.Const(2), ex.Product((ex.mul(X, Y),))),
    # cancelling hand-built powers of zero leaves 1/0, which the rebuild rejects
    ex.quotient(ex.Pow(ex.ZERO, 0), ex.Pow(ex.ZERO, 1)),
    ex.quotient(ex.mul(X, ex.Pow(ex.Const(2), 1)), ex.mul(X, ex.Pow(ex.Const(2), 3))),
], ids=["sum-in-sum", "product-in-product", "lone-product", "zero-powers", "const-powers"])
def test_marks_match_references_over_hand_built_children(e):
    check_against_references(e)


def test_square_of_a_quotient_folds_at_once():
    # mul expands q*q to num^2/den^2 at once: what the rebuild of the lazy
    # Pow(q, 2) gives, and marked, so simplify returns it as it is
    q = ex.quotient(X, ex.add(Y, ex.Const(2)))
    lazy = ex.Pow(q, 2)
    sq = ex.mul(q, q)
    assert isinstance(sq, ex.Quotient) and sq._normal
    assert sq == reference_simplify(lazy) and ex.simplify(sq) is sq
    for parent, old in ((ex.mul(q, Z, q), ex.Product((lazy, Z))),
                        (ex.mul(sq, Z), ex.Product((lazy, Z))),
                        (ex.add(sq, Z), ex.Sum((lazy, Z))),
                        (ex.sin(sq), ex.Func("sin", (lazy,))),
                        (ex.quotient(sq, Z), ex.Quotient(lazy, Z))):
        assert parent._normal
        assert parent == reference_simplify(old) and ex.simplify(parent) is parent
    assert q._normal and ex.simplify(q) is q


def test_partials_are_computed_once_per_node(monkeypatch):
    calls = []
    real = ex._derivative
    monkeypatch.setattr(ex, "_derivative", lambda e, i: calls.append(i) or real(e, i))
    e = ex.mul(ex.sin(ex.mul(X, Y)), ex.atan2(Y, ex.add(X, ex.Const(2))),
               ex.ln(ex.add(ex.power(Z, 2), ex.ONE)), ex.quotient(ex.ONE, ex.add(X, Z)))
    first = ex.differentiate(e, 0)
    work = len(calls)
    assert work > 1
    assert ex.differentiate(e, 0) is first and len(calls) == work
    # a new parent differentiates only itself; its factor e is cached
    ex.differentiate(ex.mul(e, T), 0)
    assert len(calls) == work + 1
    # exp and sqrt nodes keep no partials
    for f in (ex.exp(X), ex.sqrt(X)):
        ex.differentiate(f, 0)
        assert f._partials is None


def test_cached_partials_leave_no_cyclic_garbage():
    # the derivative of exp(u) or sqrt(u) holds the node itself: a cached one
    # would be a reference cycle, freed only by the cyclic collector
    def work():
        u = ex.add(ex.mul(X, Y), Z, ex.Const(2))
        exprs = [
            ex.exp(u), ex.sqrt(u), ex.ln(u), ex.atan2(Y, u),
            ex.mul(ex.exp(X), ex.sqrt(u), ex.ln(u), ex.atan2(X, Y)),
            ex.quotient(ex.exp(ex.sqrt(u)), ex.add(ex.atan2(ex.exp(Y), ex.sqrt(u)), X)),
            ex.power(ex.mul(ex.exp(X), ex.sqrt(Y)), 3),
        ]
        for e in exprs:
            for k in range(4):
                d = ex.differentiate(e, k)
                ex.differentiate(ex.differentiate(d, k), (k + 1) % 4)

    work()
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            work()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_huge_constant_power_stays_unfolded():
    start = time.perf_counter()
    huge = [ex.power(ex.Const(3), 999_999_999), ex.power(ex.Const(Fraction(2, 3)), -10**9),
            ex.power(ex.Const(3), 10**6)]
    assert time.perf_counter() - start < 1.0  # exact folding takes minutes
    for e in huge:
        assert isinstance(e, ex.Pow) and e._normal
        assert ex.simplify(e) is e and reference_simplify(e) == e
        with pytest.raises(ex.SingularityError, match="overflow"):
            value_at(e, (0.0,) * 4)
    # an unfolded power of a negative constant prints and parses back as itself
    even = ex.power(ex.Const(-3), 10**9)
    assert ex.to_text(even) == "(-3)^1000000000"
    assert parse_scalar(ex.to_text(even), CHART) == even
    # small results and the constants whose powers are cheap still fold
    assert ex.power(ex.Const(2), 1000) == ex.Const(2**1000)
    assert ex.power(ex.Const(Fraction(-1, 3)), 9) == ex.Const(Fraction(-1, 19683))
    assert ex.power(ex.Const(-1), 10**9 + 1) == ex.Const(-1)
    assert ex.power(ex.ONE, -10**12) == ex.ONE
    # merging two unfolded powers folds the constant-base power at once
    small = ex.mul(huge[0], ex.power(ex.Const(3), -999_999_997))
    assert small._normal and small == reference_simplify(ex.Pow(ex.Const(3), 2)) == ex.Const(9)
