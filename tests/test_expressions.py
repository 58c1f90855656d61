import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from fredholm_bvp.expressions import (
    ExpressionError,
    _tokenize,
    evaluate,
    parse_expression,
    symbolic_derivative,
    uses_variable,
)


def test_direct_evaluation():
    assert evaluate(parse_expression("t^2 + 1"), t=2.0) == 5.0


@pytest.mark.parametrize(
    "source,t,expected",
    [
        ("2*3 + 4*5", 0.0, 26.0),
        ("1 - 2 - 3", 0.0, -4.0),
        ("6 / 3 / 2", 0.0, 1.0),
        ("2^2^3", 0.0, 64.0),        # integer-literal exponents chain left
        ("-2^2", 0.0, -4.0),         # ^ binds tighter than unary minus
        ("-t^2 + t", 3.0, -6.0),
        ("exp(0) + cos(0)", 0.0, 2.0),
        ("1e-3 * t", 2000.0, 2.0),
        (".5 + .25", 0.0, 0.75),
    ],
)
def test_precedence_and_literals(source, t, expected):
    assert evaluate(parse_expression(source), t=t) == pytest.approx(expected)


def test_vectorized_evaluation():
    ts = np.linspace(0, 1, 11)
    values = evaluate(parse_expression("sin(t)*exp(-t)"), t=ts)
    np.testing.assert_allclose(values, np.sin(ts) * np.exp(-ts), rtol=1e-15)


def test_syntax_error_offsets():
    with pytest.raises(ExpressionError) as err:
        parse_expression("2 +")
    assert err.value.position == 3
    with pytest.raises(ExpressionError) as err:
        parse_expression("sin 3")
    assert err.value.position == 4
    with pytest.raises(ExpressionError) as err:
        parse_expression("(1 + 2")
    assert err.value.position == 6


def test_unknown_identifier_reports_position():
    with pytest.raises(ExpressionError) as err:
        parse_expression("2 * novel")
    assert "novel" in str(err.value)
    assert err.value.position == 4


def test_exponent_must_be_integer_literal():
    with pytest.raises(ExpressionError):
        parse_expression("t^-1")
    with pytest.raises(ExpressionError):
        parse_expression("t^0.5")
    with pytest.raises(ExpressionError):
        parse_expression("t^t")


def test_derivative_of_constant_is_zero():
    tree = symbolic_derivative(parse_expression("3.5"))
    assert evaluate(tree, t=1.23) == 0.0


def test_power_rule():
    tree = symbolic_derivative(parse_expression("t^3"))
    for t in (0.0, 0.5, 2.0):
        assert evaluate(tree, t=t) == pytest.approx(3 * t**2, abs=1e-14)


def test_exponential_derivative_matches_analytic():
    tree = symbolic_derivative(parse_expression("exp(-2*t)"))
    ts = np.linspace(0, 1, 7)
    np.testing.assert_allclose(evaluate(tree, t=ts), -2 * np.exp(-2 * ts), atol=1e-10)


def test_product_derivative_against_finite_differences():
    # independent oracle: centered differences, error O(h^2)
    expr = parse_expression("sin(t)*exp(-t)")
    derivative = symbolic_derivative(expr)
    h = 1e-6
    for t in np.linspace(0.05, 2.0, 10):
        fd = (evaluate(expr, t=t + h) - evaluate(expr, t=t - h)) / (2 * h)
        assert evaluate(derivative, t=t) == pytest.approx(fd, abs=5e-9)


def test_quotient_and_eps_derivatives():
    expr = parse_expression("eps^2 * t / (1 + eps)")
    d_eps = symbolic_derivative(expr, "eps")
    eps, t = 0.3, 2.0
    expected = (2 * eps * (1 + eps) - eps**2) / (1 + eps) ** 2 * t
    assert evaluate(d_eps, t=t, eps=eps) == pytest.approx(expected, rel=1e-12)


def test_uses_variable():
    assert uses_variable(parse_expression("eps*t"), "eps")
    assert not uses_variable(parse_expression("sin(t)"), "eps")


def test_unbound_variable_rejected():
    with pytest.raises(ValueError):
        evaluate(parse_expression("eps"), t=1.0)


# ---------------------------------------------------------------------------
# the tokenizer's one regular expression against the character loop it replaced


def _reference_tokenize(source):
    """The character loop that read sources before, kept as the reference."""
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
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
            tokens.append(("num", text, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("name", source[i:j], i))
            i = j
            continue
        raise ExpressionError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


def _tokens_or_error(tokenize, source):
    try:
        return tokenize(source)
    except ExpressionError as err:
        return str(err)


# ASCII, whitespace of other scripts, letters and decimal digits of other scripts
SOURCE_PIECES = list("0123456789.eE+-*/^()_ab,#$\"' \t\n") + [
    "sin", "cos", "exp", "eps", "t", "1e-3", "2.5E+2", ".5", "1.2.3", " ", "　",
    "é", "ǅ", "π", "٣", "१",
]
# numerals that are not decimal digits, which str.isdigit or str.isalnum accept
OTHER_NUMERALS = ["²", "½", "Ⅻ", "①"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(SOURCE_PIECES), max_size=12).map("".join))
def test_tokenizer_reads_sources_as_the_character_loop_did(source):
    assert _tokens_or_error(_tokenize, source) == _tokens_or_error(_reference_tokenize, source)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(SOURCE_PIECES + OTHER_NUMERALS), max_size=8).map("".join))
def test_other_numerals_are_rejected(source):
    # a numeral that is not a decimal digit reads as a name or ends a
    # number, and no grammar rule accepts what follows
    if any(numeral in source for numeral in OTHER_NUMERALS):
        with pytest.raises(ExpressionError):
            parse_expression(source)
