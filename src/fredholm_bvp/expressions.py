"""Small arithmetic expressions in ``t`` and ``eps`` with exact derivatives.

Coefficient entries, boundary-point locations and parameter-family
generators are written as strings like ``"sin(t)*exp(-2*t)"`` or
``"0.5 + eps"``.  The grammar is deliberately tiny:

    literals, variables ``t`` and ``eps``, binary ``+ - * / ^``,
    unary ``-``, functions ``sin``, ``cos``, ``exp``, parentheses.

``^`` binds tighter than unary minus and only accepts a non-negative
integer literal exponent, which keeps symbolic differentiation exact
(no logarithms ever appear).

A source is read into plain ``(kind, text, offset)`` tuples by one
compiled regular expression, and parsed by recursive descent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

VARIABLES = ("t", "eps")
FUNCTIONS = ("sin", "cos", "exp")


class ExpressionError(ValueError):
    """Syntax or semantic error in an expression source string.

    ``position`` is the byte offset of the offending token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


# ---------------------------------------------------------------------------
# abstract syntax tree


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Pow:
    base: "Expression"
    exponent: int  # non-negative integer only


@dataclass(frozen=True)
class Call:
    func: str  # sin | cos | exp
    arg: "Expression"


Expression = Num | Var | Neg | BinOp | Pow | Call

ZERO = Num(0.0)
ONE = Num(1.0)


# ---------------------------------------------------------------------------
# tokenizer
#
# One compiled pattern reads a source into (kind, text, offset) tuples:
# whitespace is skipped, and every other character starts an operator, a
# number, a name or, alone, a "bad" token.  A number is a run of decimal
# digits and dots with an optional exponent part (``1e-3``) and must parse
# as a float.  A numeral that is not a decimal digit, such as "²", reads as
# a name, which no grammar rule accepts.

_TOKEN = re.compile(r"""\s*(?:
    (?P<op>[-+*/^()])
  | (?P<num>[\d.]+(?:[eE][+-]?\d+)?)
  | (?P<name>[^\W\d]\w*)
  | (?P<bad>\S))""", re.VERBOSE)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        text, pos = match.group(kind), match.start(kind)
        if kind == "bad":
            raise ExpressionError(f"unexpected character {text!r}", pos)
        if kind == "num":
            try:
                float(text)
            except ValueError:
                raise ExpressionError(f"malformed number {text!r}", pos) from None
        tokens.append((kind, text, pos))
    tokens.append(("end", "", len(source)))
    return tokens


# ---------------------------------------------------------------------------
# recursive-descent parser
#
# precedence (high to low):  ^  /  unary -  /  * /  /  + -
# binary operators of equal precedence associate to the left.


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.index = 0

    def expect_op(self, text: str) -> None:
        kind, found, pos = self.tokens[self.index]
        if kind != "op" or found != text:
            raise ExpressionError(f"expected {text!r}", pos)
        self.index += 1

    def parse(self) -> Expression:
        expr = self.sum()
        kind, text, pos = self.tokens[self.index]
        if kind != "end":
            raise ExpressionError(f"unexpected trailing input {text!r}", pos)
        return expr

    def sum(self) -> Expression:
        expr = self.product()
        kind, op, _ = self.tokens[self.index]
        while kind == "op" and op in "+-":
            self.index += 1
            expr = BinOp(op, expr, self.product())
            kind, op, _ = self.tokens[self.index]
        return expr

    def product(self) -> Expression:
        expr = self.unary()
        kind, op, _ = self.tokens[self.index]
        while kind == "op" and op in "*/":
            self.index += 1
            expr = BinOp(op, expr, self.unary())
            kind, op, _ = self.tokens[self.index]
        return expr

    def unary(self) -> Expression:
        kind, text, _ = self.tokens[self.index]
        if kind == "op" and text == "-":
            self.index += 1
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expression:
        expr = self.atom()
        while self.tokens[self.index][:2] == ("op", "^"):
            kind, text, pos = self.tokens[self.index + 1]
            if kind != "num" or not text.isdigit():
                raise ExpressionError("exponent must be a non-negative integer literal", pos)
            self.index += 2
            expr = Pow(expr, int(text))
        return expr

    def atom(self) -> Expression:
        kind, text, pos = self.tokens[self.index]
        self.index += 1
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.sum()
                self.expect_op(")")
                return Call(text, arg)
            if text in VARIABLES:
                return Var(text)
            raise ExpressionError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            expr = self.sum()
            self.expect_op(")")
            return expr
        raise ExpressionError(
            f"expected a value, got {text!r}" if text else "unexpected end of input", pos
        )


def parse_expression(source: str) -> Expression:
    """Parse ``source`` into an expression tree.

    Raises ExpressionError with a byte offset on malformed input.
    """
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# evaluation


def evaluate(expr: Expression, t=None, eps=None):
    """Evaluate an expression; ``t`` may be a scalar or an ndarray."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        value = t if expr.name == "t" else eps
        if value is None:
            raise ValueError(f"no value bound for variable {expr.name!r}")
        return value
    if isinstance(expr, Neg):
        return -evaluate(expr.operand, t, eps)
    if isinstance(expr, BinOp):
        left = evaluate(expr.left, t, eps)
        right = evaluate(expr.right, t, eps)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        return left / right
    if isinstance(expr, Pow):
        return evaluate(expr.base, t, eps) ** expr.exponent
    if isinstance(expr, Call):
        arg = evaluate(expr.arg, t, eps)
        return {"sin": np.sin, "cos": np.cos, "exp": np.exp}[expr.func](arg)
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# differentiation with light simplification

def _is_zero(e: Expression) -> bool:
    return isinstance(e, Num) and e.value == 0.0


def _is_one(e: Expression) -> bool:
    return isinstance(e, Num) and e.value == 1.0


def _add(a: Expression, b: Expression) -> Expression:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return BinOp("+", a, b)


def _sub(a: Expression, b: Expression) -> Expression:
    if _is_zero(b):
        return a
    if _is_zero(a):
        return _neg(b)
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    return BinOp("-", a, b)


def _mul(a: Expression, b: Expression) -> Expression:
    if _is_zero(a) or _is_zero(b):
        return ZERO
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return BinOp("*", a, b)


def _div(a: Expression, b: Expression) -> Expression:
    if _is_zero(a):
        return ZERO
    if _is_one(b):
        return a
    return BinOp("/", a, b)


def _neg(a: Expression) -> Expression:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def _pow(base: Expression, exponent: int) -> Expression:
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    return Pow(base, exponent)


def symbolic_derivative(expr: Expression, var: str = "t") -> Expression:
    """Exact derivative of ``expr`` with respect to ``var`` (``t`` or ``eps``)."""
    if var not in VARIABLES:
        raise ValueError(f"cannot differentiate with respect to {var!r}")
    if isinstance(expr, Num):
        return ZERO
    if isinstance(expr, Var):
        return ONE if expr.name == var else ZERO
    if isinstance(expr, Neg):
        return _neg(symbolic_derivative(expr.operand, var))
    if isinstance(expr, BinOp):
        du = symbolic_derivative(expr.left, var)
        dv = symbolic_derivative(expr.right, var)
        if expr.op == "+":
            return _add(du, dv)
        if expr.op == "-":
            return _sub(du, dv)
        if expr.op == "*":
            return _add(_mul(du, expr.right), _mul(expr.left, dv))
        # quotient rule
        numerator = _sub(_mul(du, expr.right), _mul(expr.left, dv))
        return _div(numerator, _pow(expr.right, 2))
    if isinstance(expr, Pow):
        du = symbolic_derivative(expr.base, var)
        return _mul(_mul(Num(float(expr.exponent)), _pow(expr.base, expr.exponent - 1)), du)
    if isinstance(expr, Call):
        du = symbolic_derivative(expr.arg, var)
        if expr.func == "sin":
            return _mul(Call("cos", expr.arg), du)
        if expr.func == "cos":
            return _neg(_mul(Call("sin", expr.arg), du))
        return _mul(Call("exp", expr.arg), du)
    raise TypeError(f"not an expression node: {expr!r}")


def uses_variable(expr: Expression, var: str) -> bool:
    if isinstance(expr, Var):
        return expr.name == var
    if isinstance(expr, Neg):
        return uses_variable(expr.operand, var)
    if isinstance(expr, BinOp):
        return uses_variable(expr.left, var) or uses_variable(expr.right, var)
    if isinstance(expr, Pow):
        return uses_variable(expr.base, var)
    if isinstance(expr, Call):
        return uses_variable(expr.arg, var)
    return False
