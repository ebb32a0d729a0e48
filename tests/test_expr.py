import math

import numpy as np
import pytest

from monodual._expr import parse_expression
from monodual.errors import InputFormatError


def test_literals_and_arithmetic():
    e = parse_expression("2 + 3*4 - 1")
    assert e(0.0) == 13.0
    assert parse_expression("7/2")(0.0) == 3.5
    assert parse_expression("1e-3 + 2.5E2")(0.0) == pytest.approx(250.001)


def test_power_is_right_associative():
    assert parse_expression("2^3^2")(0.0) == 512.0
    assert parse_expression("(2^3)^2")(0.0) == 64.0


def test_subtraction_is_left_associative():
    assert parse_expression("6 - 2 - 1")(0.0) == 3.0
    assert parse_expression("8/4/2")(0.0) == 1.0


def test_unary_minus_binds_below_power():
    assert parse_expression("-2^2")(0.0) == -4.0
    assert parse_expression("(-2)^2")(0.0) == 4.0
    assert parse_expression("--3")(0.0) == 3.0


def test_functions_and_constants():
    assert parse_expression("exp(1)")(0.0) == pytest.approx(math.e)
    assert parse_expression("tanh(0)")(0.0) == 0.0
    assert parse_expression("cosh(0)")(0.0) == 1.0
    assert parse_expression("abs(-3)")(0.0) == 3.0
    assert parse_expression("pi")(0.0) == pytest.approx(math.pi)
    assert parse_expression("e")(0.0) == pytest.approx(math.e)


def test_variables_and_arity():
    f = parse_expression("x*y + y", ("x", "y"))
    assert f(2.0, 3.0) == 9.0
    with pytest.raises(TypeError):
        f(2.0)
    g = parse_expression("exp(-abs(x))/2")
    assert g(0.0) == 0.5


def test_vectorized_evaluation():
    f = parse_expression("x^2 + 1")
    out = f(np.array([0.0, 1.0, 2.0]))
    assert np.allclose(out, [1.0, 2.0, 5.0])


@pytest.mark.parametrize(
    "bad",
    ["x + qq(3)", "x + ", "import os", "x & y", "(x", "x..2", "", ")", "y"],
)
def test_malformed_inputs_rejected(bad):
    with pytest.raises(InputFormatError):
        parse_expression(bad)


def test_unknown_variable_rejected():
    with pytest.raises(InputFormatError):
        parse_expression("x + z", ("x", "y"))


def test_source_round_trip_metadata():
    f = parse_expression("1 + tanh(x)")
    assert f.source == "1 + tanh(x)"
    assert f.variables == ("x",)
