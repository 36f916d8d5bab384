"""Expression grammar: what parses, what is rejected, how it evaluates."""

import math

import numpy as np
import pytest

from fplab.errors import ConfigurationError, ExpressionError, InputError
from fplab.expressions import compile_expression
from fplab.gauges import expression_gauge
from fplab.maps import expression_map
from fplab.spaces import Space


def test_arithmetic_and_precedence():
    e = compile_expression("2.0 + 3.0 * t - 1.0 / 4.0", variables=("t",))
    assert e(t=0.0) == pytest.approx(1.75)
    assert e(t=2.0) == pytest.approx(7.75)


def test_unary_minus_and_calls():
    e = compile_expression("max(-t, t, 0.5)", variables=("t",))
    assert e(t=-3.0) == 3.0
    assert e(t=0.1) == 0.5
    e2 = compile_expression("min(abs(t - 2.0), 1.0)", variables=("t",))
    assert e2(t=2.25) == 0.25
    assert e2(t=9.0) == 1.0


def test_subscripts_bind_coordinates():
    e = compile_expression("x[0] - 2.0 * x[1]", variables=("x",))
    assert e(x=np.array([5.0, 1.0])) == 3.0


def test_array_broadcast():
    e = compile_expression("t * t + 1.0", variables=("t",))
    out = e(t=np.array([0.0, 1.0, 2.0]))
    assert np.allclose(out, [1.0, 2.0, 5.0])


def test_division_by_zero_yields_nan():
    e = compile_expression("1.0 / t", variables=("t",))
    assert math.isnan(float(e(t=0.0)))


def test_division_by_zero_is_nan_element_by_element():
    # the NaN survives min(), so a float and an array evaluation agree
    e = compile_expression("min(1 / t, 5)", variables=("t",))
    assert math.isnan(float(e(t=0.0)))
    out = e(t=np.array([0.0, -0.0, 0.5, 4.0]))
    assert np.isnan(out[:2]).all()
    assert out[2:].tolist() == [2.0, 0.25]
    assert math.isnan(float(compile_expression("1 / 0", variables=())()))


def test_gauge_call_agrees_with_apply_array_on_division():
    g = expression_gauge("min(1/t, 5)")
    ts = np.array([0.0, 0.1, 0.2, 1.0, 3.0])
    out = g.apply_array(ts)
    assert math.isnan(g(0.0)) and math.isnan(out[0])
    assert out[1:].tolist() == [g(float(t)) for t in ts[1:]]


@pytest.mark.parametrize("sources", ["min(1/x, 5)", ["min(1/x[0], 5)"]])
def test_both_map_forms_escape_on_division_by_zero(sources):
    line = Space(id="line", dimension=1)
    m = expression_map(line, sources)
    assert m(line.point(0.5)).coords == (2.0,)
    with pytest.raises(InputError, match="finite"):
        m(line.point(0.0))


def test_single_map_expression_refuses_subscripts():
    with pytest.raises(ConfigurationError, match="one expression per coordinate"):
        expression_map(Space(id="plane", dimension=2), "x[0] + 1")


def test_subscripts_are_recorded():
    assert compile_expression("x[0] - 2.0 * x[3] + y[1]", ("x", "y")).subscripts == {0, 1, 3}
    assert compile_expression("t * t", ("t",)).subscripts == frozenset()


@pytest.mark.parametrize("sources", [["x[1]"], ["x[0] + min(x[2], 1)", "x[0]"]])
def test_map_subscript_past_the_dimension_is_refused(sources):
    space = Space(id="s", dimension=len(sources))
    with pytest.raises(ConfigurationError, match=r"subscript x\[\d\] is out of range"):
        expression_map(space, sources)


def test_map_subscripts_inside_the_dimension_apply():
    plane = Space(id="plane", dimension=2)
    m = expression_map(plane, ["x[1]", "x[0] - x[1]"])
    assert m(plane.point(1.0, 3.0)).coords == (3.0, -2.0)


@pytest.mark.parametrize(
    "source",
    [
        "t ** 2",              # power operator not in grammar
        "__import__('os')",    # call to a non-whitelisted name
        "t.real",              # attribute access
        "u + 1.0",             # undeclared variable
        "x['a']",              # non-integer subscript
        "lambda t: t",         # not an arithmetic expression
        "t if t else 0",       # conditionals excluded
        "abs(t, t)",           # arity violation
        "",                    # empty source
    ],
)
def test_rejected_sources(source):
    with pytest.raises(ExpressionError):
        compile_expression(source, variables=("t", "x"))


def test_boolean_constants_rejected():
    with pytest.raises(ExpressionError):
        compile_expression("True", variables=())
