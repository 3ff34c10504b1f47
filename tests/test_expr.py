"""Expression kernel: differentiation, simplification, zero testing."""

import contextlib
import functools
import gc
import math
import time
import weakref
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
from test_batteries import REPO, _bench_workloads
from oracles import (
    compiled_eval, poly_add, poly_diff, poly_from_expr, poly_is_zero, poly_mul,
    reference_differentiate, reference_eval_rows, reference_eval_with_scale, reference_simplify,
    reference_zero_test, value_at, with_guards,
)

X, Y, Z, T = (ex.coord(i) for i in range(4))
exp, ln, sqrt, atan2 = (functools.partial(ex.func, name) for name in ("exp", "ln", "sqrt", "atan2"))


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


def test_zero_test_checks_the_box_dimension():
    # the tree's highest coordinate, also where its coordinate bits are -1
    # (a partial divides by 0: 1e-200 squares to 0.0), and a guard's
    singular_partials = ex.quotient(X, ex.mul(ex.Const(1e-200), Y))
    box = ex.default_box(3)
    cases = [(ex.default_box(4), ex.add(singular_partials, T)), (box, ex.mul(X, T)),
             (box, ex.add(singular_partials, T)),
             (ex.Box(box.lows, box.highs, guards=(T,)), ex.mul(X, Y))]
    for box, e in cases:
        e = ex.simplify(e)
        want = _outcome(lambda e: oracles.reference_sampled(ex.ZeroTester(box), e), e)
        assert _same_outcome(_outcome(ex.ZeroTester(box).test, e), want)
        assert (e._coords < 0) is (singular_partials in _nodes(e))
    assert want == (ex.ExprError, "expression uses coordinate index 3 but the sampling box "
                    "has dimension 3")


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
# The batched zero test against the one-row-at-a-time reference, bit for bit

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
    assert_same_verdict(with_guards(testers[0], ex.add(Y, B)), ex.sin(X))


def test_chunked_zero_test_matches_reference_at_singularities():
    t = ex.ZeroTester(ex.Box(lows=(-0.3,) * 4, highs=(0.3,) * 4), seed=5)
    x400, y400 = ex.power(X, 400), ex.power(Y, 400)  # underflow to 0 near the axes
    cases = [
        ex.quotient(ex.ONE, X),
        ex.quotient(ex.ONE, x400),
        ex.power(X, -3),
        ex.power(X, -400),
        ln(X),
        sqrt(X),
        atan2(Y, X),
        atan2(y400, x400),
        exp(ex.mul(ex.Const(1000), X)),
        ex.mul(exp(ex.mul(ex.Const(1000), X)), exp(ex.mul(ex.Const(1000), Y))),
        # zero wherever defined, so every singular row is skipped, not a witness
        ex.add(ln(ex.mul(X, Y)), ex.negate(ln(X)), ex.negate(ln(Y))),
        ex.add(ex.power(sqrt(X), 2), ex.negate(X)),
        ex.add(ex.mul(ex.quotient(ex.ONE, ex.power(X, 3)), ex.power(X, 3)), ex.Const(-1)),
        ex.add(ex.mul(exp(ex.mul(ex.Const(1000), X)),
                      exp(ex.mul(ex.Const(-1000), X))), ex.Const(-1)),
        ex.add(atan2(y400, x400), atan2(ex.negate(y400), x400)),
    ]
    verdicts = [assert_same_verdict(t, e) for e in cases]
    assert any(v is not None and v.zero and v.skipped for v in verdicts)
    guarded = ex.ZeroTester(ex.Box(lows=(-0.3,) * 4, highs=(0.3,) * 4, guards=(X,),
                                   guard_tol=0.2), seed=5)
    for e in cases[:3]:
        assert assert_same_verdict(guarded, e).skipped > 0


def test_chunked_zero_test_matches_reference_across_chunks():
    # 95 % of rows are guarded, so both verdicts read past the first n_samples rows
    box = ex.Box(lows=(-1.0,) * 4, highs=(1.0,) * 4, guards=(X,), guard_tol=0.95)
    t = ex.ZeroTester(box, seed=13)
    pythagoras = ex.add(ex.power(ex.sin(Y), 2), ex.power(ex.cos(Y), 2), ex.Const(-1))
    nonzero = ex.mul(Y, Z)
    for e in (pythagoras, nonzero):
        v = assert_same_verdict(t, e)
        assert v.samples + v.skipped > t.n_samples
    assert not assert_same_verdict(t, nonzero).zero


def test_fully_guarded_zero_test_is_inconclusive_like_reference():
    t = with_guards(make_tester(), ex.ZERO)
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
        ln(X), sqrt(Y), ex.quotient(A, ex.add(X, Y)), ex.power(ex.sin(X), -2),
        exp(ex.mul(ex.Const(400), X)), atan2(ex.power(Y, 700), X),
    ]
    for e in exprs:
        (values,), (scales,) = ex.Tape().grow((e,), points, params)
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
    for e in (ex.power(Y, 3), ex.power(Z, -5), exp(Y), ln(X), atan2(Y, Z)):
        (values,), _ = ex.Tape().grow((e,), points, {})
        want = [value_at(e, tuple(row)) for row in points]
        assert values.tolist() == want, ex.to_text(e)


def test_singular_rows_stay_singular_and_points_are_python_floats():
    # numpy's nan ** 0 is 1, so a singular base must be carried past a
    # hand-built zeroth power
    e = ex.Pow(ex.quotient(ex.ONE, X), 0)
    points = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]])
    (values,), _ = ex.Tape().grow((e,), points, {})
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
    ex.quotient(ln(X), Y),                            # zero denominator, singular numerator
    ex.quotient(Y, ln(X)),                            # ln(1) = 0 as a denominator
    ex.power(X, -3),                                     # zero base, negative exponent
    ex.power(X, 400),                                    # overflow in **
    exp(ex.mul(ex.Const(400), X)),                    # overflow in exp
    ex.mul(exp(ex.mul(ex.Const(300), X)), exp(ex.mul(ex.Const(300), Y))),  # nonfinite
    ln(ex.add(X, ex.mul(B, Z))),                      # ln of a nonpositive value
    sqrt(ex.negate(Y)),                               # sqrt of a negative value
    atan2(Y, Z),                                      # atan2(0, 0)
    ex.add(atan2(ex.power(Y, 700), X), ex.sin(ex.quotient(Z, sqrt(X)))),
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
        (values,), (scales,) = ex.Tape().grow((e,), points, params)
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
    signed_zero = atan2(ex.Sum((ex.negate(X), ex.negate(Y))), ex.add(Z, ex.Const(-3)))
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
    # the scale grow() gives a root is the largest magnitude over its own
    # subtree, so the larger roots it shares a tape with do not change it
    box = ex.Box(lows=(-2.0,) * 4, highs=(2.0,) * 4)
    drawn, params = ex.draw_rows(box, rng(seed), ("a", "b"), 64)
    points = np.vstack([drawn, SINGULAR_ROWS])
    params = {nm: np.concatenate([col, np.ones(len(SINGULAR_ROWS))])
              for nm, col in params.items()}
    roots = corpus_exprs(seed) + SINGULAR_KINDS
    values, scales = ex.Tape().grow(roots, points, params)
    for e, v, scale in zip(roots, values, scales, strict=True):
        (want,), (want_scale,) = oracles.reference_scaled_rows(ex.Tape((e,)), points, params)
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
    assert got == with_guards(ex.ZeroTester(plain), guard).test(e)
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
    # the one-root path: a fresh tester, and one one-root tape per tree
    assert fresh == [oracles.reference_sampled(ex.ZeroTester(box, seed=9), ex.simplify(e))
                     for e in exprs]
    # so is a tester with one more guard, testing in either order
    wider = ex.add(X, ex.Const(0.25))
    fresh_wider = [with_guards(ex.ZeroTester(box, seed=9), wider).test(e) for e in exprs]
    for order in (range(len(exprs)), reversed(range(len(exprs)))):
        plain, guarded = ex.ZeroTester(box, seed=9), with_guards(ex.ZeroTester(box, seed=9), wider)
        for i in order:
            assert plain.test(exprs[i]) == fresh[i], ex.to_text(exprs[i])
            assert guarded.test(exprs[i]) == fresh_wider[i], ex.to_text(exprs[i])


def _nodes(e) -> set:
    """The distinct nodes of e."""
    seen, stack = set(), [e]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(ex._children(node))
    return seen


def test_zero_tests_compile_each_node_once_per_row_set(monkeypatch):
    compiled, executed = [], {}

    class Counted(ex.Tape):
        def __init__(self, roots=()):
            compiled.append(tuple(roots))
            super().__init__(roots)

        def _execute(self, points, params, sweep, dead, slots=None, start=0, scales=None):
            if scales is not None:  # nothing here overflows: each run runs to its end
                executed[self] = executed.get(self, 0) + len(self.code) - start
            return super()._execute(points, params, sweep, dead, slots, start, scales)

    monkeypatch.setattr(ex, "Tape", Counted)
    pythagoras = ex.add(ex.power(ex.sin(Y), 2), ex.power(ex.cos(Y), 2), ex.Const(-1))
    # 95 % of rows are guarded, so both verdicts read past the first n_samples rows
    mostly_guarded = ex.Box(lows=(-1.0,) * 4, highs=(1.0,) * 4, guards=(X,), guard_tol=0.95)
    guarded = ex.Box(PARAM_BOX.lows, PARAM_BOX.highs, PARAM_BOX.param_ranges,
                     guards=(ex.add(X, Y), ex.mul(A, Z)), guard_tol=0.1)
    trees = (pythagoras, ex.mul(Y, Z), ex.power(ex.sin(Y), 2), ex.mul(A, Z), pythagoras)
    for box in (ex.default_box(4), guarded, mostly_guarded):
        compiled.clear()
        t = ex.ZeroTester(box, seed=13)
        assert compiled == [box.guards]  # the guards, once per tester
        rows_read, verdicts, on_tapes, added = [], {}, {}, {}
        for e in trees:
            compiled.clear()
            before = {names: [len(tape.code) for tape, _, _ in rows.parts]
                      for names, rows in t._row_sets.items()}
            v = t.test(e)
            e = ex.simplify(e)
            assert not v.syntactic
            names = tuple(sorted({*ex.param_names(e), *t._guards.params}))
            tapes = [tape for tape, _, _ in t._row_sets[names].parts]
            if e in verdicts:  # a repeated tree: the kept verdict, and no instruction
                assert v is verdicts[e] and compiled == []
                assert {n: [len(tape.code) for tape, _, _ in rows.parts]
                        for n, rows in t._row_sets.items()} == before
                continue
            # a new tree adds the nodes a tape of its row set lacks, one
            # instruction each, to the first rows' tape, and to the tape of
            # the rows past them only when it reads past them; no tape of
            # the tree alone is compiled
            read = v.samples + v.skipped
            for k, tape in enumerate(tapes):
                nodes = on_tapes.setdefault((names, k), set())
                new = _nodes(e) - nodes if k == 0 or read > t.n_samples else set()
                nodes |= new
                assert len(tape.code) - before.get(names, [0, 0])[k] == len(new)
                assert set(tape.index) == nodes
            added[e] = len(tapes[0].code) - before.get(names, [0])[0]
            assert compiled == [(), ()] * (names not in before)
            verdicts[e] = v
            rows_read.append(read)
        # sin(y)^2 went on the tape with pythagoras: a new verdict, no instruction
        assert added[ex.power(ex.sin(Y), 2)] == 0
        # each node runs once on each tape it is on
        for rows in t._row_sets.values():
            for tape, _, _ in rows.parts:
                assert executed.get(tape, 0) == len(tape.code)
        if box is mostly_guarded:
            assert max(rows_read) > t.n_samples
            assert any(rows.parts[1][0].code for rows in t._row_sets.values())


def _recorded_verdicts(monkeypatch) -> list:
    """(tester, tree, verdict or error) of every sampled test from now on."""
    sampled, real = [], ex.ZeroTester._sampled

    def recorded(self, e):
        try:
            sampled.append((self, e, real(self, e)))
        except ex.ExprError as err:
            sampled.append((self, e, err))
            raise
        return sampled[-1][2]

    monkeypatch.setattr(ex.ZeroTester, "_sampled", recorded)
    return sampled


def _outcome(test, e):
    try:
        return test(e)
    except ex.ExprError as err:
        return type(err), str(err)


def _same_outcome(got, want) -> bool:
    if isinstance(got, ex.ExprError):
        got = type(got), str(got)
    return got == want


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_run_verdicts_equal_the_one_root_path(seed, monkeypatch):
    # every sampled verdict of a bench job's run, each read off the tapes
    # its row set shares with the run's other trees, is the verdict a fresh
    # tester gives the tree alone through one one-root tape; so are the
    # values and scales read off those tapes, to the bit; and a fresh tester
    # per run tester gives those verdicts again when it tests that tester's
    # trees in reverse order.  The residuals of the identities the run holds
    # by construction, built from the same job, are zero verdicts compared
    # the same way
    import formflow.cli as cli
    import formflow.config as config

    workloads = _bench_workloads()
    texts = {job.text: None for name in ("presets", "symbolic", "transport")
             for job in workloads.WORKLOADS[name](seed, REPO)}
    sampled, compared = _recorded_verdicts(monkeypatch), 0
    grown, real_grow = [], ex.Tape.grow

    def grow(self, roots, points, params):
        grown.append((roots, points, params, real_grow(self, roots, points, params)))
        return grown[-1][-1]

    monkeypatch.setattr(ex.Tape, "grow", grow)
    for text in texts:
        sampled.clear()
        cli.run(cli.parse_config(text))
        with ex.run_memo():
            for name, tester, e in oracles.run_residuals(config.build_runtime(cli.parse_config(text))):
                assert tester.test(e), name
        compared += len(sampled)
        for roots, points, params, got in grown:
            want = oracles.reference_scaled_rows(ex.Tape(roots), points, params)
            assert [[v.tobytes() for v in vs] for vs in got] == \
                [[v.tobytes() for v in vs] for vs in want]
        grown.clear()
        for t, e, got in sampled:
            fresh = ex.ZeroTester(t.box, t.seed)
            assert _same_outcome(got, _outcome(lambda e: oracles.reference_sampled(fresh, e), e))
        reverse = {}  # a fresh tester per run tester
        for t, e, got in reversed(sampled):
            if t not in reverse:
                reverse[t] = ex.ZeroTester(t.box, t.seed)
            assert _same_outcome(got, _outcome(reverse[t].test, e))
    assert compared > 200


@pytest.mark.parametrize("preset", [
    "em.torsion_nonzero", "fluid.beltrami_abc",
    # x^4 < 0.01 on a third of the rows: tests read past the first rows
    pytest.param("fluid.beltrami_abc\n[sampling]\nguards = x^4", id="guarded"),
])
def test_a_run_runs_each_node_of_a_row_set_once_and_keeps_no_tape(preset, monkeypatch):
    # counted at _execute, the one instruction loop: every instruction a
    # grown tape runs, either tape of a row set, is one distinct node of the
    # trees tested on it, run once; no tape of a tree alone runs in a zero
    # test; and no grown tape outlives the run
    import formflow.cli as cli

    tapes, real_grow, real_execute = [], ex.Tape.grow, ex.Tape._execute
    testing, real_sampled = [], ex.ZeroTester._sampled

    def sampled(self, e):
        testing.append(self)
        try:
            return real_sampled(self, e)
        finally:
            testing.pop()

    def grown(tape) -> dict:
        seen = next((t for t in tapes if t["ref"]() is tape), None)
        if seen is None:
            tapes.append(seen := {"ref": weakref.ref(tape), "roots": [], "executed": 0})
        return seen

    def grow(self, roots, points, params):
        out = real_grow(self, roots, points, params)
        seen = grown(self)
        seen["roots"] += roots
        seen["code"], seen["index"], seen["rows"] = len(self.code), set(self.index), len(points)
        return out

    def execute(self, points, params, sweep, dead, slots=None, start=0, scales=None):
        if scales is not None:
            assert not sweep  # nothing here overflows, so each run runs to its end
            grown(self)["executed"] += len(self.code) - start
        elif testing:
            assert self is testing[-1]._guards  # the one tape a zero test runs ungrown
        return real_execute(self, points, params, sweep, dead, slots, start, scales)

    monkeypatch.setattr(ex.Tape, "grow", grow)
    monkeypatch.setattr(ex.Tape, "_execute", execute)
    monkeypatch.setattr(ex.ZeroTester, "_sampled", sampled)
    assert cli.run(cli.parse_config(f"[run]\nbattery = all\npreset = {preset}\n")).passed
    gc.collect()
    assert tapes and all(t["ref"]() is None for t in tapes)
    for t in tapes:
        nodes = set().union(*map(_nodes, t["roots"]))
        assert t["code"] == t["executed"] == len(nodes) and t["index"] == nodes
    past = 7 * ex.ZeroTester.n_samples  # the rows past the first n_samples
    assert any(t["rows"] == past for t in tapes) is ("guards" in preset)


def test_evaluators_leave_no_cyclic_garbage():
    # each evaluator's recursive walk must not outlive its call: a memo kept
    # alive by a reference cycle holds every intermediate array until the
    # cyclic collector happens to run
    e = ex.add(ex.mul(ex.sin(X), Y), ex.quotient(Z, ex.add(ex.Const(2), ex.mul(X, X))))
    points = rng(5).uniform(-1, 1, size=(40, 4))
    def raises():
        try:
            ex.Tape((e, ex.mul(X, ex.param("c")))).values(points, {})
        except ex.EvalError:
            pass

    calls = (
        lambda: ex.eval_many(e, points),
        lambda: ex.Tape().grow((e,), points, {}),
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
# Normal form (fixed points of the full rebuild) and cached partials against the
# uncached references


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


def is_fixed_point(node) -> bool:
    """Whether the full rebuild gives node back: what the constructors build
    from their own trees always is."""
    return outcome(reference_simplify, node) is node


def check_against_references(e) -> int:
    """simplify and differentiate of e equal the references; every node of
    e's simplification, and where every node of e is a fixed point of the
    full rebuild, every node of e's partials, is one too.  Returns the number
    of compound nodes checked so."""
    assert outcome(ex.simplify, e) == outcome(reference_simplify, e)
    normal = all(map(is_fixed_point, tree_nodes(e)))
    trees = [outcome(ex.simplify, e)] + [e] * normal
    cached = not (isinstance(e, ex.Func) and e.name in ("exp", "sqrt"))
    for k in range(4):
        got = outcome(ex.differentiate, e, k)
        want = outcome(reference_differentiate, e, k)
        if not normal and isinstance(want, str) and not isinstance(got, str):
            # taken as built, a node free of x_k has the partial 0, where
            # the partial of a hand-built one may raise as its denominator's
            # square folds to 0 (x/0^1)
            assert any(n._coords >= 0 and not n._coords >> k & 1
                       and isinstance(outcome(reference_differentiate, n, k), str)
                       for n in tree_nodes(e))
        else:
            assert got == want
        if cached and not isinstance(got, str):
            assert ex.differentiate(e, k) is got
        if normal:
            trees.append(got)
    checked = 0
    for tree in trees:
        if isinstance(tree, str):
            continue
        for node in tree_nodes(tree):
            assert is_fixed_point(node), ex.to_text(node)
            checked += not isinstance(node, (ex.Const, ex.Coord, ex.Param))
    return checked


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
        # mul squares a merged quotient at once, which raises over a
        # hand-built quotient by 0
        few.map(lambda fs: or_first(ex.mul, *fs)),
        st.tuples(kids, kids).map(lambda p: or_first(ex.quotient, *p)),
        st.tuples(kids, st.integers(-3, 3)).map(lambda p: or_first(ex.power, *p)),
        st.tuples(kids, st.sampled_from(("sin", "cos", "exp", "ln", "sqrt"))).map(
            lambda p: ex.func(p[1], p[0])),
        st.tuples(kids, kids).map(lambda p: atan2(*p)),
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


# Every partial of the last five divides by a square that folds to the
# constant 0 (1e-200 squares to 0.0), so each raises along every coordinate,
# those the node does not hold included.
@pytest.mark.parametrize("e", [
    # a constructor over hand-built nesting: the rebuild flattens it
    ex.add(ex.Sum((ex.add(X, Y), Z))),
    ex.mul(ex.Product((ex.mul(X, Y), Z))),
    ex.mul(ex.Const(2), ex.Product((ex.mul(X, Y),))),
    # cancelling hand-built powers of zero leaves 1/0, which the rebuild rejects
    ex.quotient(ex.Pow(ex.ZERO, 0), ex.Pow(ex.ZERO, 1)),
    ex.quotient(ex.mul(X, ex.Pow(ex.Const(2), 1)), ex.mul(X, ex.Pow(ex.Const(2), 3))),
    atan2(0, 0),
    ex.mul(Y, atan2(0, 0)),
    ex.Quotient(X, ex.Const(0)),
    ex.quotient(A, ex.mul(ex.Const(1e-200), B)),
    atan2(ex.mul(ex.Const(1e-200), Y), ex.mul(ex.Const(1e-200), X)),
    # taken as built: its partial along y is 0, where the rebuild's raises
    ex.Quotient(X, ex.Pow(ex.ZERO, 1)),
    # two faults: every partial meets 0^-1 before the zero denominator
    ex.Quotient(atan2(X, ex.Pow(ex.ZERO, -1)), ex.Const(0)),
], ids=["sum-in-sum", "product-in-product", "lone-product", "zero-powers", "const-powers",
        "atan2-0-0", "y-atan2-0-0", "x-over-0", "underflowing-denominator", "underflowing-atan2",
        "x-over-0-to-the-1", "atan2-over-0-to-the-minus-1"])
def test_marks_match_references_over_hand_built_children(e):
    for scope in (contextlib.nullcontext, ex.run_memo):
        with scope():
            check_against_references(e)
    check_support(e)


# ---------------------------------------------------------------------------
# Coordinate support: a node free of x_k has the partial 0, unbuilt


def coord_bits(e) -> int:
    """The coordinate indices in e, as bits."""
    bits = 0
    for node in tree_nodes(e):
        if isinstance(node, ex.Coord):
            bits |= 1 << node.index
    return bits


def squares_to_zero(e) -> bool:
    return ex.is_syntactic_zero(outcome(ex.power, e, 2))


def divides_by_zero(node) -> bool:
    """Whether the partials of node divide by a square that folds to 0."""
    if isinstance(node, ex.Quotient):
        return squares_to_zero(node.den)
    return (isinstance(node, ex.Func) and node.name == "atan2"
            and all(map(squares_to_zero, node.args)))


def check_support(e):
    """Every node of e holds its coordinates as bits, or -1 (every bit).  On
    a fixed point of the full rebuild -1 means exactly that a node below it
    divides by a zero square, and then every partial raises; any other
    partial along a coordinate the node does not hold is the constant 0."""
    for node in tree_nodes(e):
        bits = coord_bits(node)
        if not is_fixed_point(node):  # hand-built: only its shape is checked
            below = [c._coords for c in tree_nodes(node)[1:]]
            assert node._coords in (bits, -1) and (node._coords == -1 or -1 not in below)
            continue
        vanishing = any(map(divides_by_zero, tree_nodes(node)))
        assert node._coords == (-1 if vanishing else bits), ex.to_text(node)
        for k in range(4):
            d = outcome(reference_differentiate, node, k)
            if vanishing:
                assert d == "ExprError: constant zero denominator"
            elif not bits >> k & 1:
                assert d is ex.ZERO


@settings(max_examples=300, deadline=None)
@given(st.recursive(st.sampled_from(LEAVES), extend, max_leaves=16))
def test_each_node_holds_its_coordinate_support(e):
    check_support(e)


@pytest.mark.parametrize("scoped", [False, True])
def test_a_partial_free_of_its_coordinate_is_not_built(scoped, monkeypatch):
    walked = []
    real = ex._derivative
    monkeypatch.setattr(ex, "_derivative",
                        lambda e, i, partial: walked.append(e) or real(e, i, partial))
    # like an ABC flow's components, e holds no t; q and e are new nodes
    q = ex.quotient(X, ex.add(Y, ex.Const(Fraction(7 + scoped, 5))))
    e = ex.add(ex.mul(A, ex.sin(Z)), ex.mul(B, ex.cos(Y)), q)
    with ex.run_memo() if scoped else contextlib.nullcontext():
        assert ex.differentiate(e, 3) is ex.ZERO
        assert walked == []
        if scoped:
            assert ex._MEMO.get()[2] == {}
        # along x, only the nodes that hold x are walked
        ex.differentiate(e, 0)
        assert walked == [q, e]
        # a negative index is walked, as no coordinate's
        walked.clear()
        assert ex.differentiate(e, -1) is ex.ZERO and q in walked


# Operands for add and mul: the tree leaves plus what their fast paths could
# get wrong (a float coefficient beside an exact one, both zeros, nan,
# powers of one base), hand-built nodes among the trees, and raw numbers.
OPERAND_LEAVES = LEAVES + (
    ex.Const(1.0), ex.Const(2.0), ex.Const(0.0), ex.Const(-0.0), ex.Const(math.nan),
    ex.power(X, 2), ex.power(X, -1), ex.power(Y, 3), ex.mul(2, X), ex.mul(0.5, X, Y),
    ex.Pow(X, 1), ex.Product((ex.Const(1.0), X)), ex.Product((Y, X)),
)
OPERANDS = st.lists(
    st.one_of(
        st.recursive(st.sampled_from(OPERAND_LEAVES), extend, max_leaves=6),
        st.sampled_from((2, -1, 0.5, -0.0, math.nan, Fraction(1, 2))),
    ),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(OPERANDS)
def test_add_and_mul_return_the_nodes_of_the_term_by_term_rebuild(ops):
    # over constructor-built operands the result is the reference's, and a
    # fixed point of the rebuild; a hand-built operand is taken as built (a
    # lone term or power factor is kept, where the reference rebuilds it),
    # so there the result is only checked to be one node in and out of a
    # run memo
    built = all(is_fixed_point(n) for o in ops for n in tree_nodes(ex.as_expr(o)))
    results = []
    for scope in (contextlib.nullcontext, ex.run_memo):
        with scope():
            for build, reference in ((ex.add, oracles.reference_add),
                                     (ex.mul, oracles.reference_mul)):
                got = outcome(build, *ops)
                if built:
                    want = outcome(reference, *ops)
                    assert got is want or (isinstance(got, str) and got == want)
                    assert isinstance(got, str) or is_fixed_point(got)
                assert outcome(build, *ops) is got or isinstance(got, str)
                results.append(got)
    assert results[:2] == results[2:]


def constructions(monkeypatch) -> list:
    """The classes of the nodes looked up or built from here on."""
    built = []
    real = ex._interned
    monkeypatch.setattr(ex, "_interned", lambda cls, structure: built.append(cls) or real(cls, structure))
    return built


def test_add_hands_back_the_terms_it_was_given(monkeypatch):
    terms = (ex.mul(3, X, Y), ex.power(Z, 2), ex.sin(X), ex.Const(2.5), ex.mul(-1, T))
    built = constructions(monkeypatch)
    s = ex.add(*terms)
    assert isinstance(s, ex.Sum) and sorted(map(id, s.terms)) == sorted(map(id, terms))
    assert built == [ex.Sum]  # no term is built again
    # a merged term is built again; zero terms drop, -0.0 too
    ops = (terms[0], ex.mul(X, Y), ex.Const(-0.0), ex.Const(0.0), terms[2])
    built.clear()
    merged = ex.add(*ops)
    assert built == [ex.Const, ex.Product, ex.Sum]
    assert merged.terms == (terms[2], ex.mul(4, X, Y))


def test_mul_hands_back_its_lone_constant_and_power(monkeypatch):
    c, p = ex.Const(2.5), ex.power(X, 3)
    built = constructions(monkeypatch)
    prod = ex.mul(Y, p, c)
    assert prod.factors[0] is c and prod.factors[1] is p
    assert built == [ex.Product]
    built.clear()
    assert ex.mul(c) is c and ex.mul(p) is p and ex.mul(ex.ONE, p) is p
    assert built == []


def test_square_of_a_quotient_folds_at_once():
    # mul expands q*q to num^2/den^2 at once: what the rebuild of the lazy
    # Pow(q, 2) gives, and a fixed point of that rebuild
    q = ex.quotient(X, ex.add(Y, ex.Const(2)))
    lazy = ex.Pow(q, 2)
    sq = ex.mul(q, q)
    assert isinstance(sq, ex.Quotient) and reference_simplify(sq) is sq
    assert sq == reference_simplify(lazy) and ex.simplify(sq) is sq
    for parent, old in ((ex.mul(q, Z, q), ex.Product((lazy, Z))),
                        (ex.mul(sq, Z), ex.Product((lazy, Z))),
                        (ex.add(sq, Z), ex.Sum((lazy, Z))),
                        (ex.sin(sq), ex.Func("sin", (lazy,))),
                        (ex.quotient(sq, Z), ex.Quotient(lazy, Z))):
        assert reference_simplify(parent) is parent
        assert parent == reference_simplify(old) and ex.simplify(parent) is parent
    assert reference_simplify(q) is q and ex.simplify(q) is q


def test_partials_are_computed_once_per_node(monkeypatch):
    calls = []
    real = ex._derivative
    monkeypatch.setattr(
        ex, "_derivative", lambda e, i, partial: calls.append(i) or real(e, i, partial)
    )
    with ex.run_memo():
        e = ex.mul(ex.sin(ex.mul(X, Y)), atan2(Y, ex.add(X, ex.Const(2))),
                   ln(ex.add(ex.power(Z, 2), ex.ONE)), ex.quotient(ex.ONE, ex.add(X, Z)))
        first = ex.differentiate(e, 0)
        work = len(calls)
        assert work > 1
        assert ex.differentiate(e, 0) is first and len(calls) == work
        # a new parent differentiates only itself; its factor e is kept
        ex.differentiate(ex.mul(e, T), 0)
        assert len(calls) == work + 1


def test_outside_a_memo_nothing_is_kept(monkeypatch):
    walked = []
    real = ex._derivative
    monkeypatch.setattr(ex, "_derivative",
                        lambda e, i, partial: walked.append(e) or real(e, i, partial))
    e = ex.mul(exp(ex.mul(X, Y)), ex.sin(ex.add(X, Z)), ex.quotient(Y, ex.add(X, ex.ONE)))
    first = ex.differentiate(e, 0)
    layers = list(walked)
    assert len(layers) > 1
    # a second call repeats every layer of the first and builds the same node
    assert ex.differentiate(e, 0) is first and walked == layers + layers
    with ex.run_memo():
        walked.clear()
        assert ex.differentiate(e, 0) is first and walked == layers
        assert ex.differentiate(e, 0) is first and walked == layers


def test_cached_partials_leave_no_cyclic_garbage():
    # the derivative of exp(u) or sqrt(u) holds the node itself: a cached one
    # would be a reference cycle, freed only by the cyclic collector
    def work():
        u = ex.add(ex.mul(X, Y), Z, ex.Const(2))
        exprs = [
            exp(u), sqrt(u), ln(u), atan2(Y, u),
            ex.mul(exp(X), sqrt(u), ln(u), atan2(X, Y)),
            ex.quotient(exp(sqrt(u)), ex.add(atan2(exp(Y), sqrt(u)), X)),
            ex.power(ex.mul(exp(X), sqrt(Y)), 3),
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
        assert isinstance(e, ex.Pow) and reference_simplify(e) is e
        assert ex.simplify(e) is e
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
    assert reference_simplify(small) is small
    assert small == reference_simplify(ex.Pow(ex.Const(3), 2)) == ex.Const(9)


# ---------------------------------------------------------------------------
# Hash-consing: one node per structure


def rebuild(e):
    """e rebuilt node by node through the classes, from new payload objects."""
    if isinstance(e, ex.Const):
        v = e.value
        return ex.Const(Fraction(v.numerator, v.denominator) if isinstance(v, Fraction)
                        else float(repr(v)))
    if isinstance(e, ex.Coord):
        return ex.Coord(int(str(e.index)))
    if isinstance(e, ex.Param):
        return ex.Param("".join(e.name))
    if isinstance(e, ex.Sum):
        return ex.Sum([rebuild(t) for t in e.terms])
    if isinstance(e, ex.Product):
        return ex.Product([rebuild(f) for f in e.factors])
    if isinstance(e, ex.Quotient):
        return ex.Quotient(rebuild(e.num), rebuild(e.den))
    if isinstance(e, ex.Pow):
        return ex.Pow(rebuild(e.base), e.exponent)
    return ex.Func(e.name, [rebuild(a) for a in e.args])


def assert_one_node_per_key(exprs):
    by_key = {}
    for e in exprs:
        for node in tree_nodes(e):
            assert by_key.setdefault(node.key, node) is node, node.key


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_equal_trees_are_one_node_on_the_corpus(seed):
    first, second = corpus_exprs(seed), corpus_exprs(seed)
    assert all(a is b for a, b in zip(first, second))
    assert all(rebuild(e) is e for e in first)
    assert_one_node_per_key(first)


@settings(max_examples=200, deadline=None)
@given(st.recursive(st.sampled_from(LEAVES), extend, max_leaves=16),
       st.recursive(st.sampled_from(LEAVES), extend, max_leaves=16))
def test_same_node_exactly_when_same_key(a, b):
    assert (a is b) == (a.key == b.key)
    assert rebuild(a) is a and rebuild(b) is b
    assert_one_node_per_key([a, b])


def test_constants_are_one_node_per_key():
    nan, other_nan = float("nan"), float("inf") - float("inf")
    consts = [ex.Const(1), ex.Const(Fraction(1)), ex.Const(1.0), ex.Const(0), ex.Const(0.0),
              ex.Const(-0.0), ex.Const(nan), ex.Const(other_nan), ex.Const(Fraction(1, 3)),
              ex.Const(1 / 3), ex.Const(2), ex.Const(2.0), ex.Const(Fraction(4, 2))]
    for a in consts:
        for b in consts:
            assert (a is b) == (a.key == b.key), (a.key, b.key)
    assert ex.Const(1) is ex.Const(Fraction(1)) is ex.ONE
    assert ex.Const(1.0) is not ex.ONE
    assert ex.Const(0.0) is not ex.Const(-0.0) and ex.Const(0.0) is not ex.ZERO
    assert ex.Const(nan) is ex.Const(other_nan)
    assert ex.Const(Fraction(4, 2)) is ex.Const(2) is not ex.Const(2.0)


def test_a_hand_built_node_is_the_node_a_constructor_builds():
    e = ex.mul(ex.sin(ex.add(X, Y)), Z)
    assert reference_simplify(e) is e
    again = ex.Product(tuple(rebuild(f) for f in e.factors))
    assert again is e
    # a hand-built node that a constructor builds later is the same node
    hand = ex.Sum((ex.Const(5), ex.Pow(T, 7)))
    assert ex.add(ex.power(T, 7), ex.Const(5)) is hand and reference_simplify(hand) is hand


def test_memo_keeps_exact_and_float_constants_apart():
    # 2 == 2.0 == Fraction(2) and they hash alike: keyed on numbers, a memo
    # would hand one of them the other's tree
    coeffs = (2, 2.0, Fraction(2), 2, 2.0)
    outside = [(ex.mul(c, X).key, ex.add(c, X).key, ex.mul(X, ex.add(Y, c)).key) for c in coeffs]
    assert [k[0] for k in outside[:3]] == ["(* c2/1 x0)", "(* cf2.0 x0)", "(* c2/1 x0)"]
    for order in (range(len(coeffs)), reversed(range(len(coeffs)))):
        with ex.run_memo():
            for i in order:
                c = coeffs[i]
                assert (ex.mul(c, X).key, ex.add(c, X).key,
                        ex.mul(X, ex.add(Y, c)).key) == outside[i]
    assert ex._MEMO.get() is None


def test_inside_a_memo_nodes_keep_no_partials():
    with ex.run_memo():
        e = ex.mul(ex.cos(ex.mul(X, Z)), ex.add(Y, ex.power(X, 3)))
        first = ex.differentiate(e, 0)
        assert ex.differentiate(e, 0) is first and ex._MEMO.get()[2][(e, 0)] is first
        assert ex.mul(e, T) is ex.mul(e, T)
    assert ex.differentiate(e, 0) is first  # built again: the same tree is one node


def test_periodic_partials_leave_no_cyclic_garbage():
    # the fourth z-partial of sin(z)*y is sin(z)*y, and the second of sin(z)
    # holds sin(z): repeated partials lead back to the tree they started from
    def work():
        u = ex.add(ex.mul(X, Y), Z)
        for e in (ex.mul(ex.sin(Z), Y), ex.sin(u), ex.cos(u), ex.mul(exp(X), Y),
                  ex.add(ex.sin(u), ex.cos(Z))):
            d = e
            for _ in range(5):
                d = ex.differentiate(d, 2)

    four = ex.mul(ex.sin(Z), Y)
    d = four
    for _ in range(4):
        d = ex.differentiate(d, 2)
    assert d is four
    work()
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            work()
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# One verdict per distinct tree per tester


def test_a_tester_keeps_one_verdict_per_tree(monkeypatch):
    sampled = []
    real = ex.ZeroTester._sampled
    monkeypatch.setattr(ex.ZeroTester, "_sampled",
                        lambda self, e: sampled.append(e) or real(self, e))
    t = make_tester()
    def pythagoras():
        return ex.add(ex.power(ex.sin(X), 2), ex.power(ex.cos(X), 2), ex.Const(-1))
    def nonzero():
        return ex.mul(ex.add(X, Y), Z)
    first = [t.test(pythagoras()), t.test(nonzero())]
    assert [t.test(pythagoras()), t.test(ex.Product((ex.add(Y, X), Z)))] == first
    assert t.test(pythagoras()) is first[0] and len(sampled) == 2
    # what a fresh tester and the per-row reference give
    assert [make_tester().test(pythagoras()), make_tester().test(nonzero())] == first
    assert first == [reference_zero_test(make_tester(), e) for e in (pythagoras(), nonzero())]
    # another tester keeps its own verdicts
    make_tester(seed=5).test(pythagoras())
    assert len(sampled) == 5
    # an inconclusive test keeps nothing: it samples, and raises, again
    blocked = ex.ZeroTester(ex.Box((-1.0,) * 4, (1.0,) * 4, guards=(X,), guard_tol=10.0))
    for _ in range(2):
        with pytest.raises(ex.InconclusiveError):
            blocked.test(nonzero())
    assert len(sampled) == 7


# ---------------------------------------------------------------------------
# Printing


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_to_text_matches_the_recursive_printer_on_the_corpus(seed):
    exprs = corpus_exprs(seed)
    for A_, J in action_process_pairs(n_random=3, seed=seed)[seed::4]:
        exprs += anatomy_exprs(A_, J)
    for e in exprs:
        assert ex.to_text(e) == oracles.reference_to_text(e)
        assert ex.to_text(e, CHART) == oracles.reference_to_text(e, CHART)
    # inside a run memo each node's text is kept for the run, per chart
    outside = [(ex.to_text(e), ex.to_text(e, CHART)) for e in exprs]
    with ex.run_memo():
        for _ in range(2):
            assert [(ex.to_text(e), ex.to_text(e, CHART)) for e in exprs] == outside


@settings(max_examples=300, deadline=None)
@given(st.recursive(st.sampled_from(LEAVES), extend, max_leaves=16))
def test_to_text_matches_the_recursive_printer_on_constructed_trees(e):
    assert ex.to_text(e) == oracles.reference_to_text(e)


def test_a_deep_chain_prints_keys_and_compiles():
    # depth is bounded by memory: the printer, the key and the tape compiler
    # keep explicit stacks
    e = X
    for _ in range(1000):
        e = ex.sin(e)
    assert ex.to_text(e, CHART) == "sin(" * 1000 + "x" + ")" * 1000
    assert e.key == "(sin " * 1000 + "x0" + ")" * 1000
    want = 0.5
    for _ in range(1000):
        want = math.sin(want)
    assert ex.Tape((ex.mul(e, Y),)).at((0.5, 2.0, 0.0, 0.0)) == [pytest.approx(want * 2.0)]


@pytest.mark.parametrize("name", ["sin", "exp"])
@pytest.mark.parametrize("scoped", [False, True])
def test_a_deep_chain_differentiates(name, scoped):
    # differentiate keeps an explicit stack too, inside a run memo or not
    f = functools.partial(ex.func, name)
    chain = [X]
    for _ in range(1000):
        chain.append(f(chain[-1]))
    e = chain[-1]
    if scoped:
        with ex.run_memo():
            d = ex.differentiate(e, 0)
    else:
        d = ex.differentiate(e, 0)
    # the chain rule: the product of f' at every level below e
    want = [ex.cos(c) for c in chain[:-1]] if name == "sin" else chain[1:]
    assert isinstance(d, ex.Product) and set(d.factors) == set(want)
    assert ex.differentiate(e, 1) is ex.ZERO
    if name == "sin":
        value, slope = 0.5, 1.0
        for _ in range(1000):
            value, slope = math.sin(value), slope * math.cos(value)
        assert ex.Tape((d,)).at((0.5, 0.0, 0.0, 0.0)) == [pytest.approx(slope)]


def test_a_hand_built_tree_is_taken_as_built():
    # x - x, built with the node classes: no entry point rebuilds it, so it
    # stays a coefficient and the zero test samples it; simplify folds it
    e = ex.Sum((X, ex.Product((ex.MINUS_ONE, X))))
    w = fm.DifferentialForm(CHART, 1, {(0,): e})
    assert w.coeffs == {(0,): e} and w.coeff((0,)) is e
    verdict = make_tester().test(e)
    assert verdict.zero and not verdict.syntactic and verdict.samples == ex.ZeroTester.n_samples
    assert ex.simplify(e) is ex.ZERO


def test_a_deep_hand_built_tree_simplifies():
    # simplify keeps an explicit stack too: the rebuild walks all 5,000
    # levels, and a second rebuild gives the first one back
    e = X
    for _ in range(5000):
        e = ex.Func("sin", (ex.Sum((e, Y)),))
    got = ex.simplify(e)
    want = X
    for _ in range(5000):
        want = ex.sin(ex.add(want, Y))
    assert got is want and ex.simplify(got) is got


def test_a_deep_chain_reports_its_singular_row():
    # the singularity search keeps an explicit stack too: sin^1000(x - 1) is
    # negative at x = 0, so ln of it is the first singular node there, and a
    # zero denominator is found before the numerator is walked
    e = ex.add(X, ex.Const(-1))
    for _ in range(1000):
        e = ex.sin(e)
    rows = np.array([[2.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    for root, fault in ((ln(e), "ln of nonpositive value in ln(sin("),
                        (ex.quotient(ln(e), Y), "division by zero in ln(sin(")):
        with pytest.raises(ex.SingularityError) as err:
            ex.Tape((ex.ONE, root)).values(rows, {})
        assert str(err.value).startswith(fault)
        assert str(err.value).endswith(" at point (0.0, 0.0, 0.0, 0.0)")


def test_a_singular_node_is_quoted_in_bounded_text():
    # ln(sin^1000(x - 1)) prints in 5,000 characters; the error quotes its
    # first 60 and its length, as a config error quotes a long text
    e = ex.add(X, ex.Const(-1))
    for _ in range(1000):
        e = ex.sin(e)
    text = ex.to_text(ln(e))
    with pytest.raises(ex.SingularityError) as err:
        ex.Tape((ln(e),)).values(np.zeros((1, 4)), {})
    message = str(err.value)
    assert len(message) < 200
    assert message == (f"ln of nonpositive value in {text[:60]}... ({len(text)} characters)"
                       " at point (0.0, 0.0, 0.0, 0.0)")


def test_to_text_leaves_no_cyclic_garbage():
    e = X
    for _ in range(300):
        e = ex.sin(e)
    shallow = corpus_exprs(1)[:8]
    for f in shallow:
        ex.to_text(f)
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            for f in (e, *shallow):
                ex.to_text(f, CHART)
        assert gc.collect() == 0
    finally:
        gc.enable()


# Each case: roots, one row where an infinity arises (or is loaded), params.
# The row sits between two regular rows, and the three repeat so that
# numpy's vector loops and their tails both see it.
INF, BIG = math.inf, 1e200
INFINITY_CASES = {
    "product overflows": (["x*y + 1", "x*y*z", "x^2*y", "x^3 + y"], (BIG, BIG, 2.0, 1.0), {}),
    "sum overflows": (["x + y", "(x + y)*z"], (1.7e308, 1.7e308, 2.0, 1.0), {}),
    "quotient divides by 0": (["x/y", "atan2(x/y, 1)"], (1.0, 0.0, 2.0, 1.0), {}),
    "x^-2 at 0": (["x^-2", "1/(1 + x^-2)"], (0.0, 1.0, 2.0, 1.0), {}),
    "exp(1000)": (["exp(x)", "sin(exp(x))"], (1000.0, 1.0, 2.0, 1.0), {}),
    "ln(0)": (["ln(x)", "exp(ln(x))"], (0.0, 1.0, 2.0, 1.0), {}),
    "1/exp(1000)": (["1/exp(x)"], (1000.0, 1.0, 2.0, 1.0), {}),
    "infinite coordinate": (["atan2(y, x)", "exp(-x^2)"], (INF, 1.0, 2.0, 1.0), {}),
    "infinite parameter column": (["atan2(y, a)", "a*x + 1"], (1.0, 1.0, 2.0, 1.0),
                                  {"a": np.tile([0.5, INF, -0.5], 23)}),
    "infinite parameter": (["atan2(y, a)", "a*x + 1"], (1.0, 1.0, 2.0, 1.0), {"a": INF}),
    "infinite constant": ([atan2(Y, ex.Const(INF))], (1.0, 1.0, 2.0, 1.0), {}),
}


def _same_bits(got: list, want: list) -> bool:
    """Equal slot lists: the same slots dropped, the rest equal bit for bit."""
    bits = [[None if v is None else v.tobytes() for v in slots] for slots in (got, want)]
    return bits[0] == bits[1]


def test_row_set_tape_reruns_an_overflowing_segment_alone(monkeypatch):
    # a tree's new instructions on a tape of its row set raise numpy's
    # overflow or divide flag after an earlier test ran the nodes it
    # shares, and a later tree shares a node an overflowing tree reached
    # first; one tree overflows only on the rows past the first n_samples,
    # so only on the second tape of the row set: only the flagged segments
    # rerun, swept, and every slot, scale and verdict has the bits of the
    # one-root path
    runs, real = [], ex.Tape._execute

    def execute(self, points, params, sweep, dead, slots=None, start=0, scales=None):
        if scales is not None:  # part 0 the first n_samples rows, 1 the rest
            runs.append((int(len(points) > ex.ZeroTester.n_samples), start, len(self.code), sweep))
        return real(self, points, params, sweep, dead, slots, start, scales)

    monkeypatch.setattr(ex.Tape, "_execute", execute)
    big = exp(ex.mul(ex.Const(1000), X))  # overflows where x > 0.71
    # overflows where x > 0.9858: at 4 rows past the first 64, none of them
    late = exp(ex.add(ex.mul(ex.Const(1000), X), ex.Const(-276)))
    pythagoras = ex.add(ex.power(ex.sin(X), 2), ex.power(ex.cos(X), 2), ex.Const(-1))
    trees = {
        "shared nodes first": ex.add(ex.mul(ex.sin(X), Y), Z),
        "overflow": ex.mul(big, pythagoras),
        "divide": ex.quotient(Y, exp(ex.mul(ex.Const(-1000), X))),  # y / 0 where x > 0.75
        "reached first by an overflow": ex.add(big, ex.sin(X)),
        "overflow past the first rows": ex.mul(late, pythagoras, ln(Y)),  # ln skips y < 0
    }
    t = ex.ZeroTester(ex.default_box(4), seed=5)
    segments = {}
    for case, e in trees.items():
        before = len(runs)
        got = t.test(e)
        assert got == oracles.reference_sampled(ex.ZeroTester(t.box, seed=5), ex.simplify(e)), case
        segments[case] = runs[before:]
    assert {case: [(part, sweep) for part, _, _, sweep in s] for case, s in segments.items()} == {
        "shared nodes first": [(0, False)],
        "overflow": [(0, False), (0, True), (1, False), (1, True)],
        "divide": [(0, False), (0, True)],
        "reached first by an overflow": [(0, False)],
        "overflow past the first rows": [(0, False), (1, False), (1, True)],
    }
    for s in segments.values():  # the same segment, once raised and once swept
        for (part, start, end, sweep), rerun in zip(s, s[1:]):
            if rerun[3]:
                assert not sweep and rerun == (part, start, end, True)
    assert segments["divide"][0][1] > 0 and segments["overflow"][0][1] > 0
    assert segments["overflow past the first rows"][1][1] > 0  # after the overflow's nodes
    assert t.test(trees["overflow"]).skipped > 0  # the rows where exp overflows

    (rows,) = t._row_sets.values()
    for tape, points, params in rows.parts:
        for node, s in tape.index.items():
            (want,), (want_scale,) = oracles.reference_scaled_rows(ex.Tape((node,)), points, params)
            assert tape._values[s].tobytes() == want.tobytes(), ex.to_text(node)
            assert tape._scales[s].tobytes() == want_scale.tobytes(), ex.to_text(node)
    (head, _, _), (tail, _, _) = rows.parts
    assert np.isnan(head._values[head.index[ex.simplify(big)]]).any()
    late = ex.simplify(late)
    assert not np.isnan(head._values[head.index[late]]).any()
    assert np.isnan(tail._values[tail.index[late]]).sum() == 4


@pytest.mark.parametrize("case", sorted(INFINITY_CASES))
def test_tape_turns_infinities_to_nan_as_sweeping_every_instruction_does(case, monkeypatch):
    texts, singular, params = INFINITY_CASES[case]
    roots = [parse_scalar(t, CHART) if isinstance(t, str) else t for t in texts]
    tape = ex.Tape(roots)
    points = np.tile([(0.5, 1.5, 2.0, 1.0), singular, (1.25, -0.5, 0.75, 2.0)], (23, 1))
    if "parameter column" not in case:
        params = {**params, "a": params.get("a", 0.5)}

    grown = ex.Tape()
    run, (values, magnitudes) = tape.run(points, params), grown.grow(roots, points, params)
    with pytest.raises(ex.SingularityError) as got:
        tape.values(points, params)
    want_run = oracles.reference_tape_run(tape, points, params)
    want_kept = oracles.reference_tape_run(tape, points, params, keep=True)
    assert _same_bits(run, want_run)
    assert _same_bits(grown._values, want_kept)  # a grown tape keeps every slot
    # every root is NaN on the singular rows, though an infinity may vanish
    # before the root (1/inf is 0)
    assert all(np.isnan(want_kept[s][1::3]).all() for s in tape.outputs)
    want_values, want_magnitudes = oracles.reference_scaled_rows(tape, points, params)
    assert _same_bits(values, want_values) and _same_bits(magnitudes, want_magnitudes)

    monkeypatch.setattr(tape, "run", lambda *a, **kw: oracles.reference_tape_run(tape, *a, **kw))
    with pytest.raises(ex.SingularityError) as want:
        tape.values(points, params)
    assert str(got.value) == str(want.value)
