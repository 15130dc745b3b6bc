"""Parser and exact rational-function arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperboloid.expr import (
    DivisionByZeroExpr, ExprError, ParseError, PhaseExpr, Poly, parse_expr,
)


def test_parse_constraint_polynomial():
    e = parse_expr("x^2 + y^2 - z^2 + a^2")
    assert str(e) == "x^2 + y^2 - z^2 + a^2"


def test_parse_zero():
    assert parse_expr("0").is_zero()


def test_commutativity_cancels():
    assert parse_expr("x*(p_x) - (p_x)*x").is_zero()


def test_print_parse_fixpoint():
    for text in (
        "x^2 + y^2 - z^2 + a^2",
        "(p_x^2 + p_y^2 - p_z^2)/(2*m)",
        "1 + x^2/a^2",
        "(x*p_y - y*p_x)/a^2",
        "-1/2/a^2",
        "lam*a^2 - p_lam/m",
    ):
        e = parse_expr(text)
        assert parse_expr(str(e)) == e
        # and printing is stable
        assert str(parse_expr(str(e))) == str(e)


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as exc:
        parse_expr("x + * y")
    assert exc.value.position == 4


def test_unknown_identifier():
    with pytest.raises(ParseError):
        parse_expr("x + q")


def test_division_by_zero_expression():
    with pytest.raises(ParseError):
        parse_expr("x / (y - y)")
    with pytest.raises(DivisionByZeroExpr):
        parse_expr("x") / parse_expr("0")


def test_lambda_aliases():
    assert parse_expr("lambda") == parse_expr("lam")
    assert parse_expr("p_lambda") == parse_expr("p_lam")


def test_rational_normal_form_unique():
    a = parse_expr("(x^2 - y^2)/(x - y)")
    b = parse_expr("x + y")
    assert a == b
    assert str(a) == str(b)
    # the monomial gcd x first, then the exact division by y + 1
    assert parse_expr("(x*y + x)/(x*y + x)") == parse_expr("1")
    # a monomial times an exact divisor leaves the monomial
    assert str(parse_expr("(a*x^2 - a*y^2)/(a*m*x - a*m*y)")) == "(x + y)/m"


def test_non_monomial_denominator_must_divide():
    with pytest.raises(ExprError, match="a \\+ 1"):
        parse_expr("x/(a + 1)")
    with pytest.raises(ExprError):
        parse_expr("(x*y + x)/(x*y + y)")


def test_denominator_sign_normalized():
    assert parse_expr("1/(-a^2)") == parse_expr("-1/a^2")


def test_pow_and_negation():
    assert parse_expr("(-x)^2") == parse_expr("x^2")
    assert parse_expr("-x^2") == -parse_expr("x^2")


def test_eval_exact():
    e = parse_expr("(x + y)^2 / a")
    val = e.eval({"lam": 0, "x": Fraction(1, 2), "y": Fraction(1, 2), "z": 0,
                  "p_lam": 0, "p_x": 0, "p_y": 0, "p_z": 0,
                  "a": Fraction(2), "m": 1})
    assert val == Fraction(1, 2)


def test_diff():
    e = parse_expr("x^2 * p_x / a")
    assert e.diff("x") == parse_expr("2*x*p_x/a")
    assert e.diff("p_x") == parse_expr("x^2/a")
    assert e.diff("y").is_zero()


def test_subs_in_numerator_and_denominator():
    e = parse_expr("(x^2 + y + 1)/(a*x)")
    value = parse_expr("(y + 1)/m")
    out = e.subs("x", value)
    # ((y+1)^2/m^2 + y + 1)/(a*(y+1)/m): y + 1 and one factor of m cancel
    assert out == parse_expr("(y + 1 + m^2)/(a*m)")
    for y, a, m in ((Fraction(1, 3), Fraction(2), Fraction(5, 7)),
                    (Fraction(-4), Fraction(1, 2), Fraction(3))):
        env = {"y": y, "a": a, "m": m}
        assert out.eval(env) == e.eval({**env, "x": value.eval(env)})
    # without the cancellation, y + 1 would stay in the denominator
    with pytest.raises(ExprError):
        parse_expr("(x^2 + y)/(a*x)").subs("x", value)


names = st.sampled_from(["x", "y", "z", "p_x", "p_y", "p_z", "a", "m"])


@st.composite
def small_exprs(draw):
    terms = draw(st.lists(
        st.tuples(st.integers(-3, 3), names, st.integers(1, 2)),
        min_size=1, max_size=4))
    e = PhaseExpr.const(0)
    for c, v, k in terms:
        e = e + PhaseExpr.const(c) * PhaseExpr.var(v) ** k
    return e


@settings(max_examples=100, deadline=None)
@given(small_exprs(), small_exprs())
def test_ring_axioms(f, g):
    assert f + g == g + f
    assert f * g == g * f
    assert f - f == PhaseExpr.const(0)
    assert (f + g) * (f - g) == f * f - g * g


@settings(max_examples=100, deadline=None)
@given(small_exprs())
def test_print_parse_roundtrip_random(f):
    assert parse_expr(str(f)) == f
