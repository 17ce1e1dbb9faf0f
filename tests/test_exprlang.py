import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nlds import exprlang as ex
from nlds.errors import ExprEvalError, ExprSyntaxError
from oracles import to_text


def ev(text, **kw):
    return ex.eval_expr(ex.parse(text), **kw)


def test_gaussian_at_origin():
    assert ev("exp(-(x-y)^2)", x=0.0, y=0.0) == 1.0


def test_basic_arithmetic():
    assert ev("1 + x*y", x=0.5, y=-1.0) == 0.5


def test_dangling_operator_offset():
    with pytest.raises(ExprSyntaxError) as ei:
        ex.parse("x +")
    assert ei.value.offset == 3
    assert "expected operand" in str(ei.value)


def test_fractional_power():
    assert ev("abs(x)^0.5", x=0.25) == 0.5


def test_power_right_associative():
    assert ev("2^3^2") == 512.0


def test_builtin_constant():
    assert ev("min(x, y) + pi", x=1.0, y=2.0) == pytest.approx(1 + math.pi, abs=1e-15)


def test_subtraction_left_associative():
    assert ev("10 - 4 - 3") == (10 - 4) - 3


def test_unary_minus_binds_below_power():
    assert ev("-x^2", x=3.0) == -9.0
    assert ev("(-x)^2", x=3.0) == 9.0


def test_unknown_identifier():
    with pytest.raises(ExprSyntaxError, match="unknown identifier"):
        ex.parse("x + z")


def test_unknown_function():
    with pytest.raises(ExprSyntaxError, match="unknown function"):
        ex.parse("tan(x)")


def test_arity_error():
    with pytest.raises(ExprSyntaxError, match="argument"):
        ex.parse("min(x)")
    with pytest.raises(ExprSyntaxError, match="argument"):
        ex.parse("exp(x, y)")


def test_unbound_variable():
    with pytest.raises(ExprEvalError, match="unbound"):
        ev("x + y", x=1.0)


def test_domain_errors_carry_offset():
    with pytest.raises(ExprEvalError) as ei:
        ev("1 + sqrt(x)", x=-1.0)
    assert ei.value.offset == 4
    with pytest.raises(ExprEvalError, match="division"):
        ev("1/x", x=0.0)
    with pytest.raises(ExprEvalError, match="non-integer exponent"):
        ev("x^0.5", x=-2.0)
    with pytest.raises(ExprEvalError, match="non-integer exponent"):
        ev("pow(x, 1.5)", x=-2.0)


@pytest.mark.parametrize("text, offset, message", [
    ("2 + 1/x", 5, "division by zero"),
    ("2 * x^0.5", 5, "non-integer exponent"),
    ("2 + pow(x, 0.5)", 4, "non-integer exponent"),
    ("2 + sqrt(x)", 4, "sqrt of a negative"),
])
def test_domain_error_offsets(text, offset, message):
    # an operator's fault is reported at the operator, a function's at
    # its name
    with pytest.raises(ExprEvalError, match=message) as ei:
        ev(text, x=-0.0 if "/" in text else -2.0)
    assert ei.value.offset == offset


@pytest.mark.parametrize("text", ["1e308*10", "1e308/1e-10"])
def test_scalar_overflow_is_inf_without_warning(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ev(text) == math.inf


def test_array_bindings_give_their_broadcast_shape():
    points = np.linspace(-1, 1, 5)
    out = ex.eval_expr(ex.parse("1"), x=points[:, None], y=points[None, :])
    assert out.shape == (5, 5)
    assert np.all(out == 1.0)
    assert ex.eval_expr(ex.parse("x"), x=points[:, None],
                        y=points[None, :]).shape == (5, 5)
    assert not out.flags.writeable


def test_negative_base_integer_exponent_allowed():
    assert ev("x^3", x=-2.0) == -8.0


def test_array_evaluation_matches_scalar():
    e = ex.parse("exp(-(x-y)^2) + max(x, y)")
    xs = np.linspace(-1, 1, 7)
    ys = np.linspace(0, 2, 7)
    arr = ex.eval_expr(e, x=xs, y=ys)
    for i in range(7):
        assert arr[i] == ex.eval_expr(e, x=float(xs[i]), y=float(ys[i]))


def test_determinism():
    vals = {ev("sin(x)*cos(y) + x^3/7 - e", x=0.3, y=1.7) for _ in range(20)}
    assert len(vals) == 1


ROUND_TRIP_CASES = [
    "exp(-(x-y)^2)",
    "1 + x*y",
    "-x^2 + (-x)^2",
    "2^3^2",
    "x - y - 1 - 2",
    "x / y / 2",
    "min(x, max(y, 1)) * pi - e",
    "pow(abs(x), 0.5) + sqrt(abs(y))",
    "-(x + y) * -(x - y)",
    "1.5e-3 * x + 2.25e2",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
def test_round_trip(text):
    tree = ex.parse(text)
    assert ex.parse(to_text(tree)) == tree


@st.composite
def exprs(draw, depth=0):
    if depth >= 4:
        return draw(st.sampled_from(
            [ex.Num(1.5), ex.Num(0.0), ex.Num(3.0), ex.Var("x"), ex.Var("y"),
             ex.Const("pi"), ex.Const("e")]))
    kind = draw(st.integers(0, 6))
    if kind <= 1:
        return draw(exprs(depth=4))
    if kind == 2:
        return ex.Neg(draw(exprs(depth=depth + 1)))
    if kind <= 5:
        op = draw(st.sampled_from("+-*/^"))
        return ex.Bin(op, draw(exprs(depth=depth + 1)),
                      draw(exprs(depth=depth + 1)))
    name = draw(st.sampled_from(sorted(ex.FUNCTIONS)))
    nargs = ex.FUNCTIONS[name].nin
    args = tuple(draw(exprs(depth=depth + 1)) for _ in range(nargs))
    return ex.Call(name, args)


@given(exprs())
def test_round_trip_random_trees(tree):
    assert ex.parse(to_text(tree)) == tree
