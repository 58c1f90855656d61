"""Small arithmetic expressions in ``t`` and ``eps`` with exact derivatives.

Coefficient entries, boundary-point locations and parameter-family
generators are written as strings like ``"sin(t)*exp(-2*t)"`` or
``"0.5 + eps"``.  The grammar is deliberately tiny:

    literals, variables ``t`` and ``eps``, binary ``+ - * / ^``,
    unary ``-``, functions ``sin``, ``cos``, ``exp``, parentheses.

``^`` binds tighter than unary minus and only accepts a non-negative
integer literal exponent, which keeps symbolic differentiation exact
(no logarithms ever appear).
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    pos: int


_OPS = set("+-*/^()")


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            # exponent part of a float literal, e.g. 1e-3
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    while k < n and source[k].isdigit():
                        k += 1
                    j = k
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise ExpressionError(f"malformed number {text!r}", i) from None
            tokens.append(_Token("num", text, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("name", source[i:j], i))
            i = j
            continue
        raise ExpressionError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# recursive-descent parser
#
# precedence (high to low):  ^  /  unary -  /  * /  /  + -
# binary operators of equal precedence associate to the left.


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, text: str) -> None:
        token = self.peek()
        if token.kind != "op" or token.text != text:
            raise ExpressionError(f"expected {text!r}", token.pos)
        self.advance()

    def parse(self) -> Expression:
        expr = self.sum()
        token = self.peek()
        if token.kind != "end":
            raise ExpressionError(f"unexpected trailing input {token.text!r}", token.pos)
        return expr

    def sum(self) -> Expression:
        expr = self.product()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            expr = BinOp(op, expr, self.product())
        return expr

    def product(self) -> Expression:
        expr = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            expr = BinOp(op, expr, self.unary())
        return expr

    def unary(self) -> Expression:
        token = self.peek()
        if token.kind == "op" and token.text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expression:
        expr = self.atom()
        while self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            token = self.peek()
            if token.kind != "num" or not token.text.isdigit():
                raise ExpressionError(
                    "exponent must be a non-negative integer literal", token.pos
                )
            self.advance()
            expr = Pow(expr, int(token.text))
        return expr

    def atom(self) -> Expression:
        token = self.advance()
        if token.kind == "num":
            return Num(float(token.text))
        if token.kind == "name":
            if token.text in FUNCTIONS:
                self.expect_op("(")
                arg = self.sum()
                self.expect_op(")")
                return Call(token.text, arg)
            if token.text in VARIABLES:
                return Var(token.text)
            raise ExpressionError(f"unknown identifier {token.text!r}", token.pos)
        if token.kind == "op" and token.text == "(":
            expr = self.sum()
            self.expect_op(")")
            return expr
        raise ExpressionError(
            f"expected a value, got {token.text!r}" if token.text else "unexpected end of input",
            token.pos,
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
