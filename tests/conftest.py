"""Shared builders for analytic derivative stacks and random problems."""

import numpy as np

from fredholm_bvp import (
    BoundaryOperator,
    CoefficientSet,
    ConstantFunction,
    DerivativeStack,
    ExpressionFunction,
    Interval,
    PointTerm,
    ProblemFamily,
    ProblemSpec,
    RightHandSide,
    analyze,
    exact_characteristic_matrix,
    fundamental_set,
)
from fredholm_bvp.expressions import parse_expression
from fredholm_bvp.grid import P2
from fredholm_bvp.limits import semicontinuity

UNIT = Interval(0.0, 1.0)


def matrix_polynomial(coeffs):
    """sum_k C_k t^k as an ExpressionFunction; ``coeffs[k]`` is the real matrix C_k."""
    coeffs = np.asarray(coeffs, dtype=float)
    entries = np.empty(coeffs.shape[1:], dtype=object)
    for idx in np.ndindex(entries.shape):
        entries[idx] = parse_expression(
            " + ".join(f"({float(c[idx])!r})*t^{k}" for k, c in enumerate(coeffs)))
    return ExpressionFunction(entries)


def scalar_stack(grid, rows):
    """Stack from per-order callables t -> scalar (dimension 1)."""
    return DerivativeStack(grid, np.stack([fn(grid.nodes) for fn in rows])[:, :, None])


# Smooth basis with exact derivative towers, used to draw random stacks.
def _poly_tower(degree):
    def row(k):
        if k > degree:
            return lambda ts: np.zeros_like(ts)
        factor = 1.0
        for i in range(k):
            factor *= degree - i
        return lambda ts, f=factor, p=degree - k: f * ts**p

    return row


def _trig_tower(start):
    table = [np.sin, np.cos, lambda ts: -np.sin(ts), lambda ts: -np.cos(ts)]
    return lambda k: table[(start + k) % 4]


def _exp_tower(rate):
    return lambda k: (lambda ts, c=rate**k: c * np.exp(rate * ts))


_TOWERS = [_poly_tower(0), _poly_tower(1), _poly_tower(2), _poly_tower(3),
           _trig_tower(0), _trig_tower(1), _exp_tower(0.5), _exp_tower(-1.0)]


def random_stack(grid, rng, dimension, max_order):
    """Random smooth stack: complex combinations of the basis towers."""
    weights = rng.normal(size=(len(_TOWERS), dimension)) \
        + 1j * rng.normal(size=(len(_TOWERS), dimension))
    samples = np.zeros((max_order + 1, grid.count, dimension), dtype=complex)
    for b, tower in enumerate(_TOWERS):
        for k in range(max_order + 1):
            samples[k] += np.outer(tower(k)(grid.nodes), weights[b])
    return DerivativeStack(grid, samples)


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def endpoint_blocks(a0, a1, s):
    """[Y_1(s), Y_2(s)] of y'' + a1 y' + a0 y = 0 on [0, s], from the exact matrix.

    With B y = y(s) the characteristic matrix is the fundamental pair at s:
    for a0 = 0 the second block is the ramp (1 - exp(-a1 s)) a1^{-1}, and
    for a1 = 0 the blocks are cos(sqrt(a0) s) and sin(sqrt(a0) s) / sqrt(a0).
    """
    m = np.shape(a0)[0]
    coeffs = CoefficientSet(2, m, 0, (a0, a1))
    boundary = BoundaryOperator(m, (PointTerm(s, 0, np.eye(m)),))
    entries = exact_characteristic_matrix(ProblemSpec(Interval(0.0, s), coeffs, boundary, P2))
    return entries[:, :m], entries[:, m:]


def expm_characteristic(problem):
    """The exact characteristic matrix of a constant problem, by scipy's expm.

    Order k at t is E_0 C^k expm(C (t - a)), E_0 = [I 0 ... 0], and a
    constant kernel K adds K E_0 C^(n+r) int_0^(b-a) expm(C s) ds, the
    integral read off the Van Loan block expm([[C, I], [0, 0]] (b - a)).
    """
    from scipy.linalg import expm

    coeffs, boundary, interval = problem.coefficients, problem.boundary, problem.interval
    r, m, n = coeffs.r, coeffs.m, coeffs.n
    w = r * m
    companion = np.eye(w, k=m, dtype=complex)
    companion[-m:] = -np.hstack([fn.values for fn in coeffs.by_order])
    first = np.eye(m, w, dtype=complex)
    rows = [first @ np.linalg.matrix_power(companion, k) for k in range(n + r + 1)]
    entries = np.zeros((problem.q, w), dtype=complex)
    for t, d, matrix in zip(boundary.points, boundary.orders, boundary.matrices):
        entries += matrix @ rows[d] @ expm(companion * (t - interval.a))
    if boundary.integral_term is not None:
        block = np.zeros((2 * w, 2 * w), dtype=complex)
        block[:w, :w] = companion
        block[:w, w:] = np.eye(w)
        integral = expm(block * interval.length)[:w, w:]
        entries += boundary.integral_term.kernel.values @ rows[n + r] @ integral
    return entries


def combine(fset, weights):
    """The homogeneous solution sum_i Y_i w_i for a weight vector in C^{rm}."""
    return DerivativeStack(fset.grid, fset.samples @ np.asarray(weights, dtype=complex))


def particular(coeffs, f, grid):
    """y_p with zero initial data: the last column of the forced fundamental stack."""
    return DerivativeStack(grid, fundamental_set(coeffs, grid, f).samples[..., -1])


def members(fset):
    """Y_1..Y_r as separate stacks: the column blocks of the fundamental stack."""
    samples, m = fset.samples, fset.dimension
    return [DerivativeStack(fset.grid, samples[..., i : i + m]) for i in range(0, samples.shape[-1], m)]


def interpolate_at(grid, values: np.ndarray, t: float) -> np.ndarray:
    """Evaluate node samples at an arbitrary point of the interval.

    Exact at nodes; elsewhere a local 4-point (cubic Lagrange) rule,
    which preserves the O(step^4) accuracy of stored samples.
    """
    if not grid.interval.contains(t):
        raise ValueError(f"point {t} outside the interval [{grid.interval.a}, {grid.interval.b}]")
    h = grid.step
    nearest = min(max(int(round((t - grid.interval.a) / h)), 0), grid.count - 1)
    if abs(grid.nodes[nearest] - t) <= 1e-12 * max(1.0, abs(grid.interval.a), abs(grid.interval.b)):
        return values[nearest]
    base = int(np.floor((t - grid.interval.a) / h))
    lo = min(max(base - 1, 0), grid.count - 4)
    ts = grid.nodes[lo : lo + 4]
    result = np.zeros_like(values[0])
    for i in range(4):
        weight = 1.0
        for j in range(4):
            if j != i:
                weight *= (t - ts[j]) / (ts[i] - ts[j])
        result = result + weight * values[lo + i]
    return result


# Multipoint families: a series is a builder eps -> [(point, order, matrix), ...].
BETA1 = np.stack([np.eye(2), 0.2 * np.eye(2)])  # orders 0 and 1 at t = 0.3
BETA2 = np.stack([np.array([[0.5, 0.0], [0.2, 0.8]]), np.zeros((2, 2))])


def split_series(limit_point, limit_matrices):
    """Two points limit_point -+ eps, each with half of every limit matrix."""
    def terms(eps):
        return [(t, d, matrix / 2) for t in (limit_point - eps, limit_point + eps)
                for d, matrix in enumerate(limit_matrices)]

    return terms


def tagged_family(series, epsilons, exponent=P2, m=2):
    """First-order m x m system, m = 1 or 2 (n = 1, coefficient 0.3 I,
    f = (1, 0)[:m]) on [0, 1] whose boundary operator is the point terms of
    ``series``, a dict from series tag to builder, with boundary data
    (1, -0.5)[:m]."""
    coeffs = CoefficientSet(1, m, 1, (0.3 * np.eye(m),))
    rhs = RightHandSide(ConstantFunction(np.array([1.0, 0.0])[:m]), np.array([1.0, -0.5])[:m])

    def make(eps):
        terms = tuple(PointTerm(*term) for build in series.values() for term in build(eps))
        return ProblemSpec(UNIT, coeffs, BoundaryOperator(m, terms), exponent, rhs)

    tags = tuple(tag for tag, build in series.items() for _ in build(0.0))
    return ProblemFamily(make(0.0), make, epsilons=epsilons, series=tags)


def family_semicontinuity(family, grid):
    """The semicontinuity rule fed with one analysis of the limit and of each member."""
    return semicontinuity(family.epsilons, analyze(family.at_zero, grid).report,
                          [analyze(family.at(eps), grid).report for eps in family.epsilons])
