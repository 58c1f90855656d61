"""Superposition solver for well-posed problems, and discrepancies.

A well-posed problem is solved as y = y_p + sum_i Y_i xi_i.  The
analysis integrates y_p as the last column of the fundamental stack
[Y_1 ... Y_r | y_p] and applies B to that stack once, so the weights
solve M xi = c - B y_p with the characteristic matrix M, and y is the
one contraction [Y | y_p] [xi; 1]: superposition integrates nothing and
applies no boundary operator.  ``solve`` is ``analyze`` then
``superpose``; callers that want the matrix, the report or the
integration residual as well call the two themselves and read them off
the ``Analysis``.  Non-well-posed problems are refused with the full
solvability report attached: the framework routes such problems to
kernel/cokernel analysis, not to least-squares surrogates.  A well-posed
matrix with a condition number above ``CONDITION_WARN_THRESHOLD`` is
solved with an ``IllConditionedWarning``.
"""

from __future__ import annotations

import warnings

import numpy as np

from .characteristic import Analysis, CharacteristicMatrix, ProblemSpec, SolvabilityReport, analyze
from .grid import DerivativeStack, Grid, sobolev_norm, vector_magnitude
from .ode import residual_stack

CONDITION_WARN_THRESHOLD = 1e12


class IllConditionedWarning(UserWarning):
    """The characteristic matrix is numerically close to singular."""


class NotWellPosedError(RuntimeError):
    """Raised when solve() is asked to solve a non-well-posed problem."""

    def __init__(self, report: SolvabilityReport, matrix: CharacteristicMatrix):
        self.report = report
        self.matrix = matrix
        super().__init__(
            "problem is not well posed "
            f"(index={report.index}, dim ker={report.dim_kernel}, "
            f"dim coker={report.dim_cokernel}); solve refuses, see the attached report"
        )


def superpose(problem: ProblemSpec, analysis: Analysis) -> tuple[DerivativeStack, np.ndarray]:
    """Solution y_p + sum_i Y_i xi_i of an analyzed problem, and its weights xi.

    Raises NotWellPosedError, with the report attached, when the
    analysis found the problem not well posed, and warns with
    IllConditionedWarning when M is close to singular.
    """
    stack, matrix, report, boundary_particular = analysis
    if problem.rhs is None or boundary_particular is None:
        raise ValueError("problem has no right-hand side to solve against")
    if not report.well_posed:
        raise NotWellPosedError(report, matrix)
    if matrix.condition_number > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"characteristic matrix condition number {matrix.condition_number:.3e} "
            f"exceeds {CONDITION_WARN_THRESHOLD:.0e}; boundary data may be amplified",
            IllConditionedWarning,
            stacklevel=2,
        )
    weights = np.linalg.solve(matrix.entries, problem.rhs.c - boundary_particular)
    samples = np.einsum("onij,j->oni", stack.samples, np.append(weights, 1.0))
    return DerivativeStack._adopt(stack.grid, samples), weights


def solve(problem: ProblemSpec, grid: Grid, rank_tolerance: float | None = None) -> DerivativeStack:
    """Solve (L, B) y = (f, c); refuses when the problem is not well posed."""
    return superpose(problem, analyze(problem, grid, rank_tolerance))[0]


def discrepancy(problem: ProblemSpec, candidate: DerivativeStack) -> float:
    """Residual of a candidate stack in a (possibly perturbed) problem.

    The equation part is measured in the order-n Sobolev norm, the
    boundary part with the entrywise absolute-value sum on C^q.
    """
    if problem.rhs is None:
        raise ValueError("discrepancy needs the problem's right-hand side")
    if candidate.max_order != problem.coefficients.max_order:
        raise ValueError(
            f"candidate carries orders 0..{candidate.max_order}, "
            f"expected 0..{problem.coefficients.max_order}"
        )
    residual = residual_stack(problem.coefficients, candidate, problem.rhs.f)
    equation_part = sobolev_norm(residual, problem.exponent)
    boundary_part = vector_magnitude(problem.boundary.apply(candidate) - problem.rhs.c)
    return equation_part + boundary_part
