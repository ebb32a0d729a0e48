"""A small arithmetic expression grammar, compiled to vectorized functions.

Model files carry coefficient formulas as strings.  Python's own syntax is
unsuitable (``^`` means xor, ``eval`` is unsafe), so this module parses a
deliberately tiny language:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          right-associative
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Names resolve to declared variables, the constants ``pi`` and ``e``, or the
functions ``exp``, ``tanh``, ``cosh``, ``abs``.  Everything compiles down
to numpy operations on float64 arrays: a compiled expression converts its
arguments to arrays, a scalar to a 0-d array.  Division is ``np.divide``:
a zero divisor gives inf or NaN by IEEE rules, where Python's ``/`` would
raise.  Nesting (parentheses, function calls, unary minus, exponents) past
MAX_NESTING levels is malformed input; a chain of ``+ -`` or ``* /`` is
flat at any length and evaluates in one loop.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .errors import InputFormatError

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCTIONS: Dict[str, Callable] = {
    "exp": np.exp,
    "tanh": np.tanh,
    "cosh": np.cosh,
    "abs": np.abs,
}

# Each level of nesting takes about seven frames of Python's stack to parse,
# whose default limit is 1000; Python's own parser stops at 200 nested
# parentheses.
MAX_NESTING = 100

_CONSTANTS: Dict[str, float] = {
    "pi": float(np.pi),
    "e": float(np.e),
}


def _tokenize(src: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None or m.end() == pos:
            tail = src[pos:].lstrip()
            if not tail:
                break
            raise InputFormatError(
                f"cannot read expression at position {pos}: {tail[:12]!r}"
            )
        pos = m.end()
        for kind in ("num", "name", "op"):
            text = m.group(kind)
            if text is not None:
                tokens.append((kind, text, m.start(kind)))
                break
    return tokens


class _Parser:
    def __init__(self, src: str, variables: Sequence[str]):
        self.src = src
        self.variables = tuple(variables)
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise InputFormatError(f"unexpected end of expression: {self.src!r}")
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        tok = self.take()
        if tok[0] != "op" or tok[1] != op:
            raise InputFormatError(
                f"expected {op!r} at position {tok[2]} in {self.src!r}"
            )

    def parse(self) -> Callable:
        fn = self.expr()
        if self.peek() is not None:
            tok = self.peek()
            raise InputFormatError(
                f"trailing input at position {tok[2]} in {self.src!r}"
            )
        return fn

    def expr(self) -> Callable:
        return self.binary({"+": np.add, "-": np.subtract}, self.term)

    def term(self) -> Callable:
        return self.binary({"*": np.multiply, "/": np.divide}, self.unary)

    def binary(self, ops: Dict[str, Callable], operand: Callable) -> Callable:
        """``operand (op operand)*``, left-associative, for the operators
        in ops, each mapped to its numpy function; a chain evaluates in one
        loop, not in nested calls."""
        first, rest = operand(), []
        while True:
            tok = self.peek()
            if not (tok and tok[0] == "op" and tok[1] in ops):
                break
            self.take()
            rest.append((ops[tok[1]], operand()))
        if not rest:
            return first

        def chain(v):
            acc = first(v)
            for op, operand_fn in rest:
                acc = op(acc, operand_fn(v))
            return acc

        return chain

    def unary(self) -> Callable:
        # every nested construct parses its inside through unary
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise InputFormatError(f"expression nests deeper than MAX_NESTING = {MAX_NESTING}")
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.take()
            inner = self.unary()
            fn = lambda v: -inner(v)
        else:
            fn = self.power()
        self.depth -= 1
        return fn

    def power(self) -> Callable:
        base = self.atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.take()
            exponent = self.unary()
            return lambda v: np.power(base(v), exponent(v))
        return base

    def atom(self) -> Callable:
        tok = self.take()
        kind, text, at = tok
        if kind == "num":
            value = float(text)
            return lambda v: value
        if kind == "name":
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "(":
                if text not in _FUNCTIONS:
                    raise InputFormatError(
                        f"unknown function {text!r} at position {at}; "
                        f"available: {sorted(_FUNCTIONS)}"
                    )
                func = _FUNCTIONS[text]
                self.take()
                arg = self.expr()
                self.expect_op(")")
                return lambda v: func(arg(v))
            if text in self.variables:
                idx = self.variables.index(text)
                return lambda v: v[idx]
            if text in _CONSTANTS:
                value = _CONSTANTS[text]
                return lambda v: value
            raise InputFormatError(
                f"unknown name {text!r} at position {at}; "
                f"variables here: {list(self.variables)}, "
                f"constants: {sorted(_CONSTANTS)}"
            )
        if kind == "op" and text == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise InputFormatError(f"unexpected {text!r} at position {at} in {self.src!r}")


class Expression:
    """A compiled expression; call with one positional argument per variable."""

    def __init__(self, source: str, variables: Sequence[str]):
        self.source = source
        self.variables = tuple(variables)
        self._fn = _Parser(source, variables).parse()

    def __call__(self, *args):
        if len(args) != len(self.variables):
            raise TypeError(
                f"expression {self.source!r} takes {len(self.variables)} "
                f"argument(s) ({', '.join(self.variables)}), got {len(args)}"
            )
        return self._fn([np.asarray(a, dtype=float) for a in args])

    def __repr__(self):
        return f"Expression({self.source!r}, variables={self.variables})"


def parse_expression(source: str, variables: Sequence[str] = ("x",)) -> Expression:
    """Compile ``source`` to a function of the named variables."""
    if not isinstance(source, str):
        raise InputFormatError(f"expected an expression string, got {source!r}")
    return Expression(source, variables)


def _number(v, kind):
    """``kind(v)``, or None when v is a bool, when that fails or, for int,
    when it does not equal v."""
    if isinstance(v, bool):
        return None
    try:
        x = kind(v)
    except (TypeError, ValueError, OverflowError):
        return None
    return x if kind is float or x == v else None


def number(value, name: str, kind=float):
    """``kind(value)`` by the rule of ``_number``; anything else is malformed input."""
    x = _number(value, kind)
    if x is None:
        what = "an integer" if kind is int else "a number"
        raise InputFormatError(f"{name!r} must be {what}, got {value!r}")
    return x
