"""Expression grammar: round trips and located diagnostics."""

import pytest
from hypothesis import given, settings, strategies as st

import formflow.expr as ex
import formflow.parse as ps
from corpus import CHART, random_point, random_smooth_scalar, rng
from oracles import value_at


def test_basic_parsing():
    e = ps.parse_scalar("x^2 + 2*y - sin(z*t)", CHART)
    p = (0.3, -0.2, 0.5, 0.7)
    import math
    want = 0.09 + 2 * -0.2 - math.sin(0.5 * 0.7)
    assert value_at(e, p) == pytest.approx(want, rel=1e-12)


def test_unknown_names_become_params():
    e = ps.parse_scalar("nu * x", CHART)
    assert ex.Tape((e,)).params == ("nu",)


def test_pi_is_a_constant():
    import math
    e = ps.parse_scalar("cos(pi)", CHART)
    assert value_at(e, (0, 0, 0, 0)) == pytest.approx(-1.0)
    assert ex.Tape((e,)).params == ()


def test_parse_error_position():
    with pytest.raises(ps.ParseError) as info:
        ps.parse_scalar("x + * y", CHART)
    assert info.value.line == 1
    assert info.value.column == 5
    assert "line 1, column 5" in str(info.value)


def test_unbalanced_parenthesis():
    with pytest.raises(ps.ParseError):
        ps.parse_scalar("sin(x", CHART)


def test_trailing_garbage_rejected():
    with pytest.raises(ps.ParseError):
        ps.parse_scalar("x + y) ", CHART)


def test_unknown_function_rejected():
    with pytest.raises(ps.ParseError):
        ps.parse_scalar("frob(x)", CHART)


def test_parse_scalar_list():
    parts = ps.parse_scalar_list("x, -y, 0, t^2", CHART)
    assert len(parts) == 4
    assert value_at(parts[1], (0, 3.0, 0, 0)) == pytest.approx(-3.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_to_text_round_trip(seed):
    # rendering is re-parseable and value-preserving
    r = rng(seed)
    e = random_smooth_scalar(r)
    back = ps.parse_scalar(ex.to_text(e, CHART), CHART)
    for _ in range(3):
        p = random_point(r)
        assert value_at(back, p) == pytest.approx(
            value_at(e, p), rel=1e-10, abs=1e-10
        )


def test_power_and_unary_minus():
    e = ps.parse_scalar("-x^2", CHART)
    assert value_at(e, (2.0, 0, 0, 0)) == pytest.approx(-4.0)
    e2 = ps.parse_scalar("(-x)^2", CHART)
    assert value_at(e2, (2.0, 0, 0, 0)) == pytest.approx(4.0)


def test_division_parses_to_quotient():
    e = ps.parse_scalar("x / (1 + y^2)", CHART)
    assert value_at(e, (1.0, 1.0, 0, 0)) == pytest.approx(0.5)
