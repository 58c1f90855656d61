"""Closed-form matrix functions for constant-coefficient validation.

Constant-coefficient problems admit explicit characteristic matrices
built from entire functions of the coefficient matrix: the exponential,
the exponential ramp (1 - exp(-A s)) A^{-1} continued through singular
A, and the even/odd trigonometric series cos(sqrt(A) s) and
sin(sqrt(A) s) / sqrt(A), none of which needs a square root or a Jordan
form when evaluated as a power series.  These serve as independent
oracles for the numerical pipeline.

Series are truncated once the next term times a geometric tail factor
drops below 1e-14 of the accumulated norm; the bound is recorded on the
result so callers can audit it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _series(initial: np.ndarray, step: np.ndarray, denominator) -> tuple[np.ndarray, int, float]:
    """Sum of term_0 = initial, term_{k+1} = term_k @ step / denominator(k).

    Stops when the next term times the geometric tail factor is below
    SERIES_RELATIVE_TOL of the accumulated norm.
    """
    total = initial.astype(complex).copy()
    term = initial.astype(complex)
    step_norm = _norm(step)
    for k in range(MAX_SERIES_TERMS):
        term = term @ step / denominator(k)
        total += term
        if not np.all(np.isfinite(term.view(float))):
            raise OverflowError("matrix series overflowed; the argument norm is too large")
        ratio = step_norm / denominator(k + 1)
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
    scaled = b / (2.0**squarings)
    eye = np.eye(a.shape[0], dtype=complex)
    total, terms, bound = _series(eye, scaled, lambda k: k + 1.0)
    # overflow is detected explicitly, numpy's warning is redundant
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            bound = bound * (2.0 * _norm(total) + bound)
            total = total @ total
            if not np.all(np.isfinite(total.view(float))):
                raise OverflowError("matrix exponential overflowed during squaring")
    return MatrixFunctionResult(total, terms, bound)


def phi(a: np.ndarray, s: float) -> MatrixFunctionResult:
    """The ramp sum_{k>=0} (-1)^k a^k s^{k+1} / (k+1)!.

    Equals (I - exp(-a s)) a^{-1} for invertible a and stays entire
    through singular a; phi(0, s) = s*I.
    """
    a = np.asarray(a, dtype=complex)
    eye = np.eye(a.shape[0], dtype=complex)
    total, terms, bound = _series(s * eye, -a * s, lambda k: k + 2.0)
    return MatrixFunctionResult(total, terms, bound)


def cos_sqrt(a: np.ndarray, s: float) -> MatrixFunctionResult:
    """sum (-1)^k a^k s^{2k} / (2k)! — cos(sqrt(a) s) without a root."""
    a = np.asarray(a, dtype=complex)
    eye = np.eye(a.shape[0], dtype=complex)
    total, terms, bound = _series(eye, -a * s * s, lambda k: (2.0 * k + 1.0) * (2.0 * k + 2.0))
    return MatrixFunctionResult(total, terms, bound)


def sinc_sqrt(a: np.ndarray, s: float) -> MatrixFunctionResult:
    """sum (-1)^k a^k s^{2k+1} / (2k+1)! — sin(sqrt(a) s) (sqrt(a))^{-1}."""
    a = np.asarray(a, dtype=complex)
    eye = np.eye(a.shape[0], dtype=complex)
    total, terms, bound = _series(s * eye, -a * s * s, lambda k: (2.0 * k + 2.0) * (2.0 * k + 3.0))
    return MatrixFunctionResult(total, terms, bound)


def _neg_power_sum(matrices, a: np.ndarray) -> np.ndarray:
    """sum_k matrices[k] @ (-a)^k."""
    result = np.zeros_like(np.asarray(matrices[0], dtype=complex))
    power = np.eye(a.shape[0], dtype=complex)
    for coeff in matrices:
        result = result + np.asarray(coeff, dtype=complex) @ power
        power = power @ (-a)
    return result


def one_point_first_order(a, alphas) -> np.ndarray:
    """Characteristic matrix of y' + A y under sum_k alpha_k y^(k)(a).

    The fundamental trajectory is exp(-A (t-a)), whose order-k
    derivative at a is (-A)^k.
    """
    return _neg_power_sum(alphas, np.asarray(a, dtype=complex))


def two_point_damped(a, alphas, betas, length: float) -> np.ndarray:
    """Characteristic matrix of y'' + A y' under two-point conditions.

    The conditions are sum_k (alpha_k y^(k)(a) + beta_k y^(k)(b)) on an
    interval of the given length.  The first fundamental trajectory is
    constant; the second is the exponential ramp phi(A, t-a), whose
    order-k derivative is (-A)^{k-1} exp(-A(t-a)) for k >= 1 and the
    ramp itself at k = 0 (zero at a).
    """
    a = np.asarray(a, dtype=complex)
    alphas = [np.asarray(x, dtype=complex) for x in alphas]
    betas = [np.asarray(x, dtype=complex) for x in betas]
    if len(alphas) != len(betas):
        raise ValueError("alphas and betas must have equal length")
    decay = matrix_exp(-a, length).value
    first = alphas[0] + betas[0]
    second = betas[0] @ phi(a, length).value
    second = second + _neg_power_sum(
        [al + be @ decay for al, be in zip(alphas[1:], betas[1:])], a
    )
    return np.hstack([first, second])


def two_point_oscillatory(a, alphas, betas, length: float) -> np.ndarray:
    """Characteristic matrix of y'' + A y under two-point conditions.

    The fundamental pair is Y_1 = cos_sqrt(A, t-a), Y_2 = sinc_sqrt(A, t-a)
    with the derivative pattern

        Y_1^(2j)   = (-A)^j Y_1,      Y_1^(2j+1) = -(-A)^j A Y_2,
        Y_2^(2j)   = (-A)^j Y_2,      Y_2^(2j+1) = (-A)^j Y_1,

    so evaluations at a keep only even orders for Y_1 and odd orders
    for Y_2, while evaluations at b mix in cos_sqrt and sinc_sqrt.
    """
    a = np.asarray(a, dtype=complex)
    alphas = [np.asarray(x, dtype=complex) for x in alphas]
    betas = [np.asarray(x, dtype=complex) for x in betas]
    if len(alphas) != len(betas):
        raise ValueError("alphas and betas must have equal length")
    cos_b = cos_sqrt(a, length).value
    sinc_b = sinc_sqrt(a, length).value
    m = a.shape[0]
    q = alphas[0].shape[0]
    first = np.zeros((q, m), dtype=complex)
    second = np.zeros((q, m), dtype=complex)
    neg_a_power = np.eye(m, dtype=complex)  # (-A)^j for j = floor(k/2)
    for k, (alpha, beta) in enumerate(zip(alphas, betas)):
        if k % 2 == 0:
            first += alpha @ neg_a_power + beta @ (neg_a_power @ cos_b)
            second += beta @ (neg_a_power @ sinc_b)
        else:
            first += beta @ (-neg_a_power @ a @ sinc_b)
            second += alpha @ neg_a_power + beta @ (neg_a_power @ cos_b)
            neg_a_power = neg_a_power @ (-a)
    return np.hstack([first, second])
