"""Expression grammar: parsing and evaluation."""

import math
import random

import numpy as np
import pytest

from shuntline.errors import EvalError, ExprError
from shuntline.expr import Pow, evaluate, is_constant, parse_expr


def ev(src, x):
    return evaluate(parse_expr(src), x)


def test_arithmetic_matches_python():
    cases = {
        "2 + 3*4": 14.0,
        "(2 + 3)*4": 20.0,
        "2^(3^2)": 512.0,        # power does not chain; parenthesize
        "-2^2": 4.0,             # unary minus binds tighter than power
        "-(2^2)": -4.0,
        "7/2/2": 1.75,           # division associates left
        "1 - 2 - 3": -4.0,
        "2*-3": -6.0,
        "+2 - +3": -1.0,         # unary plus is dropped
        "2*pi": 2.0 * math.pi,
        "-inf": -math.inf,
        "3  ": 3.0,              # trailing whitespace ends the text
    }
    for src, want in cases.items():
        assert ev(src, 0.0) == pytest.approx(want, abs=0.0), src
    with pytest.raises(ExprError):
        parse_expr("2^3^2")


def test_variable_and_functions():
    assert ev("x^2 + 1", 3.0) == 10.0
    assert ev("ln(x)", math.e) == pytest.approx(1.0, rel=1e-15)
    assert ev("log(x)", math.e) == pytest.approx(1.0, rel=1e-15)
    assert ev("exp(x)", 2.0) == pytest.approx(math.exp(2.0), rel=1e-15)
    assert ev("sqrt(x)", 16.0) == 4.0
    assert ev("abs(x)", -3.5) == 3.5
    assert ev("sin(x) + cos(x)", 0.7) == pytest.approx(
        math.sin(0.7) + math.cos(0.7), rel=1e-15)


def test_vectorized_evaluation_matches_scalar():
    rng = random.Random(7)
    srcs = ["x^3 + x", "2/(1 + x^2)", "exp(-x^2)", "x*sin(x) - 1/2"]
    xs = np.array([rng.uniform(-3, 3) for _ in range(40)])
    for src in srcs:
        e = parse_expr(src)
        vec = evaluate(e, xs)
        scal = np.array([evaluate(e, float(v)) for v in xs])
        assert np.allclose(vec, scal, rtol=1e-14, atol=0.0), src


def test_is_constant():
    assert is_constant(parse_expr("3*(2 - 1/2)"))
    assert not is_constant(parse_expr("3*x - x"))
    # an exponent is a constant expression, a function call too
    assert parse_expr("x^ln(2)") == Pow(parse_expr("x"), math.log(2.0))


def test_domain_errors_raise_eval_error():
    with pytest.raises(EvalError):
        ev("ln(x)", -1.0)
    with pytest.raises(EvalError):
        ev("sqrt(x)", -4.0)
    # division by zero yields a signed infinity instead of raising, so
    # endpoint singularities integrate cleanly
    assert ev("1/x", 0.0) == math.inf


def test_array_domain_errors_name_the_point_like_scalar_ones():
    with pytest.raises(EvalError) as exc:
        ev("ln(x - 0.5)", np.array([0.75, 1e-06, 0.25]))
    assert str(exc.value) == "expression undefined at x = 1e-06"
    with pytest.raises(EvalError) as exc:
        ev("ln(x - 0.5)", 1e-06)
    assert str(exc.value) == "expression undefined at x = 1e-06"


def test_syntax_errors_raise_expr_error():
    for bad in ("2 +", "x y", "foo(x)", "(x", "x^", ""):
        with pytest.raises(ExprError):
            parse_expr(bad)
    with pytest.raises(ExprError, match="bad character '>' at position 2 "):
        parse_expr("x > 0")


def test_piecewise_evaluates_by_interval_and_round_trips():
    e = parse_expr("piecewise(-x if x < 0, x^2 if x < 2, 2*x)")
    xs = [-1.5, 0.0, 1.0, 2.0, 3.0]
    want = [1.5, 0.0, 1.0, 4.0, 6.0]    # a guard's bound goes to the next branch
    assert [evaluate(e, x) for x in xs] == want
    assert evaluate(e, np.array(xs)).tolist() == want
    assert not is_constant(e)
    flat = parse_expr("piecewise(1 if x < -1, 2)")
    assert is_constant(flat)
    assert evaluate(flat, np.array([-2.0, -1.0, 5.0])).tolist() == [1.0, 2.0, 2.0]


@pytest.mark.parametrize("src, message", [
    ("piecewise(1 if x < 2, 2 if x < 1, 3)", "strictly increasing"),
    ("piecewise(1 if x < 0, 2 if x < 1)", "unguarded final branch"),
    ("piecewise(1 if x < x, 2)", "must be a constant"),
    ("piecewise(1 if y < 0, 2)", "form 'x < c'"),
    ("piecewise(1 if x < 0, 2", "malformed piecewise"),
])
def test_piecewise_parse_errors(src, message):
    with pytest.raises(ExprError, match=message):
        parse_expr(src)
