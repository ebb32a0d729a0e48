import math

import numpy as np
import pytest

from monodual._expr import MAX_NESTING, parse_expression
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


# nesting past the bound; at 1,000 levels the parse recursed into
# RecursionError (exit 3)
DEEP = ["(" * 1000 + "x" + ")" * 1000, "(" * MAX_NESTING + "x" + ")" * MAX_NESTING,
        "-" * MAX_NESTING + "x", "exp(" * MAX_NESTING + "x" + ")" * MAX_NESTING,
        "2^" * MAX_NESTING + "x"]


@pytest.mark.parametrize(
    "bad",
    ["x + qq(3)", "x + ", "import os", "x & y", "(x", "x..2", "", ")", "y", *DEEP],
    ids=lambda bad: bad if len(bad) < 20 else f"{bad[:8]}...{len(bad)}",
)
def test_malformed_inputs_rejected(bad):
    with pytest.raises(InputFormatError,
                       match=f"MAX_NESTING = {MAX_NESTING}$" if bad in DEEP else None):
        parse_expression(bad)


@pytest.mark.parametrize("shallow", [
    "(" * (MAX_NESTING - 1) + "x" + ")" * (MAX_NESTING - 1), "-" * (MAX_NESTING - 1) + "x",
    "abs(" * (MAX_NESTING - 1) + "x" + ")" * (MAX_NESTING - 1), "1^" * (MAX_NESTING - 1) + "x",
], ids=["parentheses", "minus", "calls", "powers"])
def test_nesting_at_the_bound_evaluates(shallow):
    assert abs(parse_expression(shallow)(0.5)) in (0.5, 1.0)


def test_flat_chain_gives_the_bits_of_the_left_fold():
    # 5,000 terms: the nested closures recursed into RecursionError (exit 3)
    assert parse_expression("+".join(["x"] * 5000))(2.0) == 10000.0
    assert parse_expression("/".join(["x"] * 5000))(1.0) == 1.0
    x = np.random.default_rng(0).uniform(0.95, 1.05, 64)
    factors = [0.9 + 0.001 * k for k in range(300)]
    for pair in (("+", np.add), ("-", np.subtract)), (("*", np.multiply), ("/", np.divide)):
        chosen = [pair[k % 3 == 0] for k in range(300)]
        src = "x" + "".join(f"{sym}({c!r}*x)" for (sym, _), c in zip(chosen, factors))
        want = x
        for (_, op), c in zip(chosen, factors):
            want = op(want, np.multiply(c, x))
        assert np.array_equal(parse_expression(src)(x), want)


def test_unknown_variable_rejected():
    with pytest.raises(InputFormatError):
        parse_expression("x + z", ("x", "y"))


def test_source_round_trip_metadata():
    f = parse_expression("1 + tanh(x)")
    assert f.source == "1 + tanh(x)"
    assert f.variables == ("x",)
