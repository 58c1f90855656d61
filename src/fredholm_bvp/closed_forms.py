"""The exact characteristic matrix of a constant-coefficient problem.

With constant A_d the companion system x' = C x is solved exactly by
exp(C (t - a)), and y^(d)(t) = R_d exp(C (t - a)) x with the rows R_d of
``ode.order_rows``.  A point term W y^(d)(tau) therefore contributes
W R_d exp(C (tau - a)) to the characteristic matrix, and a constant
kernel K contributes K (y^(n+r-1)(b) - y^(n+r-1)(a)), that is
K R_(n+r-1) (exp(C (b - a)) - I), by the fundamental theorem of
calculus.  The result is exact for any r, m, n, points and constant
kernel, needs only numpy and shares nothing with RK4, so it serves as an
independent oracle for the numerical pipeline.  Any other problem, with
a coefficient or kernel that is not a ``ConstantFunction``, is rejected.

``matrix_exp`` sums the Taylor series after scaling, truncated once the
next term times a geometric tail factor drops below 1e-14 of the
accumulated norm, and squares back; the bound is recorded on the result
so callers can audit it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functions import ConstantFunction
from .ode import order_rows

SERIES_RELATIVE_TOL = 1e-14
MAX_SERIES_TERMS = 400


@dataclass(frozen=True)
class MatrixFunctionResult:
    """A matrix-function value with its truncation audit trail."""

    value: np.ndarray
    series_terms: int
    truncation_bound: float


def _norm(a: np.ndarray) -> float:
    return float(np.abs(a).sum())


def _taylor(b: np.ndarray) -> tuple[np.ndarray, int, float]:
    """sum_k b^k / k!, its term count and the tail bound where it stopped.

    Stops when the next term times the geometric tail factor is below
    SERIES_RELATIVE_TOL of the accumulated norm.
    """
    total = np.eye(b.shape[0], dtype=complex)
    term = total.copy()
    step_norm = _norm(b)
    for k in range(MAX_SERIES_TERMS):
        term = term @ b / (k + 1.0)
        total += term
        if not np.all(np.isfinite(term.view(float))):
            raise OverflowError("matrix series overflowed; the argument norm is too large")
        ratio = step_norm / (k + 2.0)
        if ratio < 0.5:
            tail = _norm(term) * ratio / (1.0 - ratio)
            if tail < SERIES_RELATIVE_TOL * max(_norm(total), 1e-300):
                return total, k + 2, tail
    raise OverflowError(
        f"matrix series did not converge within {MAX_SERIES_TERMS} terms"
    )


def matrix_exp(a: np.ndarray, s: float = 1.0) -> MatrixFunctionResult:
    """exp(a*s) by scaling and squaring over a truncated Taylor series."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix_exp needs a square matrix")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix_exp needs finite entries")
    b = a * s
    norm = _norm(b)
    squarings = max(0, int(np.ceil(np.log2(norm)))) if norm > 1.0 else 0
    total, terms, bound = _taylor(b / (2.0**squarings))
    # overflow is detected explicitly, numpy's warning is redundant
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            bound = bound * (2.0 * _norm(total) + bound)
            total = total @ total
            if not np.all(np.isfinite(total.view(float))):
                raise OverflowError("matrix exponential overflowed during squaring")
    return MatrixFunctionResult(total, terms, bound)


def exact_characteristic_matrix(problem) -> np.ndarray:
    """The q x (r*m) characteristic matrix of a constant-coefficient problem.

    sum_terms W R_d exp(C (tau - a)) + K R_(n+r-1) (exp(C (b - a)) - I),
    with one ``matrix_exp`` per distinct point.  Raises ValueError when an
    A_d or the integral kernel is not a ``ConstantFunction``.
    """
    coeffs, boundary, interval = problem.coefficients, problem.boundary, problem.interval
    for d, fn in enumerate(coeffs.by_order):
        if not isinstance(fn, ConstantFunction):
            raise ValueError(f"no exact characteristic matrix: coefficient A_{d} varies with t")
    integral = boundary.integral_term
    if integral is not None and not isinstance(integral.kernel, ConstantFunction):
        raise ValueError("no exact characteristic matrix: the integral kernel varies with t")
    rows = order_rows(coeffs)
    points = set(boundary.points.tolist())
    if integral is not None:
        points.add(interval.b)
    exponentials = {t: matrix_exp(coeffs.companion, t - interval.a).value for t in points}
    entries = np.zeros((problem.q, problem.state_size), dtype=complex)
    for point, order, matrix in zip(boundary.points.tolist(), boundary.orders.tolist(),
                                    boundary.matrices):
        entries += matrix @ (rows[order] @ exponentials[point])
    if integral is not None:
        growth = exponentials[interval.b] - np.eye(problem.state_size)
        entries += integral.kernel.values @ (rows[-2] @ growth)
    return entries
