"""The Fredholm numbers survive reformulations that change nothing.

A problem and an equivalent one get the same rank, dim ker, dim coker,
well-posedness and flags (the kinds of the diagnostics).  The
reformulations:

* permuting the conditions;
* an invertible row operation G: B -> G B, c -> G c, with cond(G) <= 100;
* a constant change of unknown y = T z: A_d -> T^-1 A_d T, W_t -> W_t T,
  K -> K T, f -> T^-1 f, with cond(T) <= 100;
* splitting a point term into two halves at its point.

Problems come from the three samples and from drawn constant and
expression coefficients with entries in quarters, on grids of 101 nodes.
Row scalings beyond cond(G) = 100 and a constant kernel replaced by its
two point terms do not hold yet (the rank cutoff is relative to the whole
matrix, and the kernel's trapezoid rule has an O(h^2) error).
"""

from pathlib import Path

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from conftest import UNIT
from fredholm_bvp import (ArrayFunction, BoundaryOperator, CoefficientSet, ConstantFunction,
                          ExpressionFunction, Grid, IntegralTerm, ProblemSpec, RightHandSide,
                          analyze)
from fredholm_bvp.document import document_problem, load_document
from fredholm_bvp.expressions import parse_expression
from fredholm_bvp.grid import P2

SAMPLES = sorted((Path(__file__).resolve().parent.parent / "docs" / "samples").glob("*.json"))
EXPRESSIONS = ("0", "1", "-0.5", "t", "sin(3*t)", "0.25*t^2 - 1", "cos(t)", "exp(-t)")
QUARTERS = st.integers(-4, 4).map(lambda k: k / 4)


class Transformed(ArrayFunction):
    """``left @ inner(t) @ right`` at every order; ``left @ inner(t)`` for vectors."""

    def __init__(self, inner: ArrayFunction, left: np.ndarray, right: np.ndarray | None = None):
        self.inner, self.left, self.right = inner, left, right
        self.shape = inner.shape

    def eval(self, ts, order: int = 0) -> np.ndarray:
        values = self.inner.eval(ts, order)
        return values @ self.left.T if self.right is None else self.left @ values @ self.right


def transformed(fn: ArrayFunction, left: np.ndarray, right: np.ndarray | None = None):
    """``Transformed``, kept constant when ``fn`` is, so the problem keeps its path."""
    if not isinstance(fn, ConstantFunction):
        return Transformed(fn, left, right)
    values = fn.values
    return ConstantFunction(values @ left.T if right is None else left @ values @ right)


def reformulated(problem: ProblemSpec, rows=None, unknown=None, split=None) -> ProblemSpec:
    """The problem with B -> rows B, c -> rows c and y = unknown z, and with
    point term ``split`` replaced by two halves at its point."""
    coeffs, boundary, rhs = problem.coefficients, problem.boundary, problem.rhs
    g = np.eye(problem.q) if rows is None else rows
    t = np.eye(coeffs.m) if unknown is None else unknown
    t_inv = np.linalg.inv(t)
    counts = np.ones(boundary.points.size, dtype=int)
    if split is not None:
        counts[split] = 2
    matrices = np.repeat(g @ boundary.matrices @ t, counts, axis=0)
    if split is not None:
        matrices[split:split + 2] /= 2
    integral = boundary.integral_term
    if integral is not None:
        integral = IntegralTerm(transformed(integral.kernel, g, t))
    return ProblemSpec(
        problem.interval,
        CoefficientSet(coeffs.r, coeffs.m, coeffs.n,
                       tuple(transformed(a, t_inv, t) for a in coeffs.by_order)),
        BoundaryOperator.from_arrays(problem.q, np.repeat(boundary.points, counts),
                                     np.repeat(boundary.orders, counts), matrices, integral),
        problem.exponent,
        None if rhs is None else RightHandSide(transformed(rhs.f, t_inv), g @ rhs.c))


def verdict(problem: ProblemSpec):
    analysis = analyze(problem, Grid.uniform(problem.interval, 101))
    report = analysis.report
    return (analysis.matrix.numerical_rank, report.dim_kernel, report.dim_cokernel,
            report.well_posed, tuple(line.split(":")[0] for line in report.diagnostics))


@st.composite
def problems(draw) -> ProblemSpec:
    kind = draw(st.sampled_from(("sample", "constant", "expression")))
    if kind == "sample":
        return document_problem(load_document(draw(st.sampled_from(SAMPLES))))
    r, m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(0, 1))
    q = max(1, r * m + draw(st.integers(-1, 1)))

    def matrix(shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(QUARTERS, min_size=size, max_size=size))).reshape(shape)

    if kind == "constant":
        by_order = tuple(matrix((m, m)) for _ in range(r))
    else:
        by_order = tuple(ExpressionFunction(np.array(
            [parse_expression(draw(st.sampled_from(EXPRESSIONS))) for _ in range(m * m)],
            dtype=object).reshape(m, m)) for _ in range(r))
    terms = draw(st.integers(1, 3))
    points = np.array(draw(st.lists(st.sampled_from((0.0, 0.5, 1.0)), min_size=terms,
                                    max_size=terms)))
    orders = np.array(draw(st.lists(st.integers(0, n + r - 1), min_size=terms, max_size=terms)))
    integral = IntegralTerm(ConstantFunction(matrix((q, m)))) if draw(st.booleans()) else None
    boundary = BoundaryOperator.from_arrays(q, points, orders, matrix((terms, q, m)), integral)
    rhs = RightHandSide(ConstantFunction(matrix((m,))), matrix((q,)))
    return ProblemSpec(UNIT, CoefficientSet(r, m, n, by_order), boundary, P2, rhs)


def conditioned(data, size: int) -> np.ndarray:
    """A real size x size matrix with singular values in [0.1, 10]: cond <= 100."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    u, _ = np.linalg.qr(rng.normal(size=(size, size)))
    v, _ = np.linalg.qr(rng.normal(size=(size, size)))
    return u @ np.diag(10.0 ** rng.uniform(-1.0, 1.0, size)) @ v


INVARIANCE = settings(max_examples=25, deadline=None)


@INVARIANCE
@given(problems(), st.data())
def test_permuting_the_conditions(problem, data):
    order = data.draw(st.permutations(range(problem.q)))
    assert verdict(reformulated(problem, rows=np.eye(problem.q)[order])) == verdict(problem)


@INVARIANCE
@given(problems(), st.data())
def test_an_invertible_row_operation(problem, data):
    rows = conditioned(data, problem.q)
    assert verdict(reformulated(problem, rows=rows)) == verdict(problem)


@INVARIANCE
@given(problems(), st.data())
def test_a_constant_change_of_unknown(problem, data):
    unknown = conditioned(data, problem.coefficients.m)
    assert verdict(reformulated(problem, unknown=unknown)) == verdict(problem)


@INVARIANCE
@given(problems(), st.data())
def test_splitting_a_point_term_in_halves(problem, data):
    split = data.draw(st.integers(0, problem.boundary.points.size - 1))
    assert verdict(reformulated(problem, split=split)) == verdict(problem)
