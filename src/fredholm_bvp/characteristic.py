"""Characteristic matrix assembly and Fredholm bookkeeping.

The characteristic matrix of a problem is the q x (r*m) matrix
[BY_1 ... BY_r]: the boundary operator applied to the fundamental
matrix, one column per column of [Y_1 ... Y_r].  Its numerical rank
determines the kernel and cokernel dimensions of the boundary-value
problem itself, which is what makes desk-scale solvability analysis
possible: an infinite-dimensional question reduces to the SVD of one
small matrix.

``build_characteristic_matrix`` needs no fundamental stack when every
A_d and the integral kernel (if any) are ``ConstantFunction``s: the RK4
trajectory is then exactly P^j at node j, so the matrix is read off
powers of P.  Each distinct point takes one power X_t, the trajectory
interpolated there (``ode.propagator_at``), and the point terms
W_t y^(d_t)(tau_t) are summed in one product, [W_1 ... W_T] times the
column of the R_(d_t) X_t.  The integral term is read off one trapezoid
sum of powers, formed by doubling (see ``ode``).  The entries agree with
the stack path to (N + 100) * 1e-15 of the largest entry.  Powers whose
growth bound reaches 2^1000 are not trusted, and the stack path runs
instead, with its blow-up diagnostic.  Every other problem, and
``analyze``, which returns the stack, integrate the fundamental set and
apply the boundary operator to it.

Rank decisions need an explicit cutoff.  The default tolerance is
``sigma_max * max(q, r*m) * 1e-10``, far above integrator error for
desk-scale problems, and reports carry the full singular-value list so
borderline calls remain auditable.  A small spectral gap at the cutoff
is flagged: kernel dimensions can jump under arbitrarily small
perturbations, so fragile ranks deserve a warning, not silence.

A problem's boundary terms are checked once, when its ``ProblemSpec`` is
built: each point lies in the interval, each point-term order is below
n+r, and every matrix and kernel has m columns.  The solvability report
adds only the determinacy line when q differs from r*m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .boundary import BoundaryOperator
from .functions import ConstantFunction
from .grid import DerivativeStack, Grid, Interval, LebesgueExponent
from .ode import (
    CoefficientSet,
    RightHandSide,
    fundamental_set,
    order_rows,
    propagator_at,
    propagator_squares,
    propagator_trapezoid,
)

RANK_TOLERANCE_FACTOR = 1e-10
FRAGILE_GAP = 1e3


@dataclass(frozen=True)
class ProblemSpec:
    """A complete boundary-value problem on an interval."""

    interval: Interval
    coefficients: CoefficientSet
    boundary: BoundaryOperator
    exponent: LebesgueExponent
    rhs: RightHandSide | None = None

    def __post_init__(self):
        top, interval, boundary = self.coefficients.max_order, self.interval, self.boundary
        if boundary.orders.size and boundary.matrices.shape[2] != self.coefficients.m:
            raise ValueError(
                f"boundary matrix columns ({boundary.matrices.shape[2]}) do not match "
                f"the system size m={self.coefficients.m}"
            )
        inside = (interval.a <= boundary.points) & (boundary.points <= interval.b)
        bad = (boundary.orders > top - 1) | ~inside
        if bad.any():
            i = int(np.argmax(bad))
            term = boundary.point_terms[i]  # as given, for the message
            if term.order > top - 1:
                raise ValueError(f"point term {i}: order {term.order} out of range 0..{top - 1}")
            raise ValueError(f"point term {i}: point {term.point} outside "
                             f"[{interval.a}, {interval.b}]")
        integral = boundary.integral_term
        if integral is not None and integral.kernel.shape[1] != self.coefficients.m:
            raise ValueError("integral kernel column count does not match the system size")
        if self.rhs is not None:
            if self.rhs.f.shape != (self.coefficients.m,):
                raise ValueError("right-hand side f has the wrong dimension")
            if self.rhs.c.shape != (self.boundary.codomain,):
                raise ValueError(
                    f"boundary data c has length {self.rhs.c.shape[0]}, "
                    f"expected {self.boundary.codomain}"
                )

    @property
    def r(self) -> int:
        return self.coefficients.r

    @property
    def m(self) -> int:
        return self.coefficients.m

    @property
    def n(self) -> int:
        return self.coefficients.n

    @property
    def q(self) -> int:
        return self.boundary.codomain

    @property
    def state_size(self) -> int:
        """Number of degrees of freedom of the homogeneous equation: r*m."""
        return self.r * self.m


@dataclass(frozen=True)
class CharacteristicMatrix:
    """The assembled q x (r*m) matrix with its rank analysis.

    ``u`` and ``vh`` are the unitary factors of the one full SVD,
    ``entries = u[:, :k] @ diag(singular_values) @ vh[:k]``; the kernel
    and cokernel directions are read off them.
    """

    entries: np.ndarray
    singular_values: np.ndarray
    rank_tolerance: float
    numerical_rank: int
    u: np.ndarray
    vh: np.ndarray
    diagnostics: tuple[str, ...] = ()

    @property
    def condition_number(self) -> float:
        """sigma_max / sigma_min; inf when the smallest vanishes."""
        smallest = self.singular_values[-1]
        if smallest == 0.0:
            return np.inf
        return float(self.singular_values[0] / smallest)


@dataclass(frozen=True)
class SolvabilityReport:
    """Fredholm data of the problem derived from the characteristic matrix."""

    index: int
    dim_kernel: int
    dim_cokernel: int
    well_posed: bool
    diagnostics: tuple[str, ...] = field(default_factory=tuple)


class Analysis(NamedTuple):
    """One problem's fundamental set, characteristic matrix and report.

    For a problem with a right-hand side the fundamental stack carries
    y_p as its last column and ``boundary_particular`` is B y_p;
    otherwise it is None.
    """

    fundamental: DerivativeStack
    matrix: CharacteristicMatrix
    report: SolvabilityReport
    boundary_particular: np.ndarray | None


def characteristic_from_blocks(blocks, rank_tolerance: float | None = None) -> CharacteristicMatrix:
    """Assemble and analyze the matrix from q x m blocks [BY_1], ..., [BY_r].

    An explicit ``rank_tolerance`` must be finite and non-negative.
    """
    if rank_tolerance is not None and not (math.isfinite(rank_tolerance) and rank_tolerance >= 0):
        raise ValueError(f"rank tolerance must be finite and non-negative, got {rank_tolerance}")
    entries = np.hstack([np.asarray(b, dtype=complex) for b in blocks])
    u, singular_values, vh = np.linalg.svd(entries)
    sigma_max = float(singular_values[0]) if singular_values.size else 0.0
    if rank_tolerance is None:
        rank_tolerance = sigma_max * max(entries.shape) * RANK_TOLERANCE_FACTOR
    rank = int(np.sum(singular_values > rank_tolerance))
    diagnostics = []
    if 0 < rank < singular_values.size:
        accepted = singular_values[rank - 1]
        rejected = singular_values[rank]
        if rejected > 0 and accepted / rejected < FRAGILE_GAP:
            diagnostics.append(
                "rank-fragile: singular-value gap at the cutoff is below "
                f"{FRAGILE_GAP:g} (sigma_{rank}={accepted:.3e}, sigma_{rank + 1}={rejected:.3e})"
            )
    return CharacteristicMatrix(
        entries=entries,
        singular_values=singular_values,
        rank_tolerance=float(rank_tolerance),
        numerical_rank=rank,
        u=u,
        vh=vh,
        diagnostics=tuple(diagnostics),
    )


def characteristic_from_fundamental(problem: ProblemSpec, stack: DerivativeStack,
                                    rank_tolerance: float | None = None) -> CharacteristicMatrix:
    """B applied once to the whole fundamental matrix [Y_1 ... Y_r]."""
    return characteristic_from_blocks([problem.boundary.apply(stack)], rank_tolerance)


def _characteristic_from_powers(problem: ProblemSpec, grid: Grid) -> np.ndarray | None:
    """The q x (r*m) entries read off powers of P, or None when not taken.

    Taken when every A_d is a ``ConstantFunction`` and the kernel is
    absent or one, and the powers of P are trusted (``propagator_squares``).
    The stack at node j is R_k P^j (``order_rows``), so a point term t adds
    W_t R_(d_t) X_t, with X_t the interpolated power at its point
    (``propagator_at``, one per distinct point); all of them are summed in
    one contraction.  The integral term adds K R_(n+r) times the
    ``propagator_trapezoid``.
    """
    coeffs, boundary = problem.coefficients, problem.boundary
    integral = boundary.integral_term
    kernel = None if integral is None else integral.kernel
    if not coeffs.constant or not (kernel is None or isinstance(kernel, ConstantFunction)):
        return None
    squares = propagator_squares(coeffs, grid)
    if squares is None:
        return None
    rows = order_rows(coeffs)
    distinct = {}  # point -> its index among the distinct points
    which = [distinct.setdefault(t, len(distinct)) for t in boundary.points.tolist()]
    local = rows[boundary.orders] @ propagator_at(squares, grid, list(distinct))[which]
    # [W_1 ... W_T] times the column of the R_(d_t) X_t; (q, 0) @ (0, r*m) with no point
    matrices = boundary.matrices.transpose(1, 0, 2).reshape(problem.q, -1)
    entries = matrices @ local.reshape(-1, problem.state_size)
    if kernel is not None:
        entries += kernel.values @ (rows[-1] @ propagator_trapezoid(squares, grid))
    return entries


def build_characteristic_matrix(problem: ProblemSpec, grid: Grid,
                                rank_tolerance: float | None = None) -> CharacteristicMatrix:
    """The characteristic matrix of a problem, without its fundamental stack.

    Constant coefficients read it off powers of the RK4 step
    (``_characteristic_from_powers``); any other problem, or powers that
    grow too large to trust, integrate the fundamental set and apply the
    boundary operator.
    """
    entries = _characteristic_from_powers(problem, grid)
    if entries is not None:
        return characteristic_from_blocks([entries], rank_tolerance)
    stack = fundamental_set(problem.coefficients, grid)
    return characteristic_from_fundamental(problem, stack, rank_tolerance)


def analyze(problem: ProblemSpec, grid: Grid, rank_tolerance: float | None = None) -> Analysis:
    """Fundamental set, characteristic matrix and solvability report of a problem.

    One integration of [Y_1 ... Y_r | y_p] and one application of B to
    it: the first r*m columns of the result are the characteristic
    matrix, the last one is B y_p.
    """
    forcing = problem.rhs.f if problem.rhs is not None else None
    stack = fundamental_set(problem.coefficients, grid, forcing)
    applied = problem.boundary.apply(stack)
    w = problem.state_size
    matrix = characteristic_from_blocks([applied[:, :w]], rank_tolerance)
    particular = applied[:, w] if forcing is not None else None
    return Analysis(stack, matrix, solvability_report(matrix, problem), particular)


def solvability_report(matrix: CharacteristicMatrix, problem: ProblemSpec) -> SolvabilityReport:
    """Kernel/cokernel dimensions, index and well-posedness of the problem.

    The index is r*m - q regardless of the matrix; the d-characteristics
    come from the numerical rank.  Well-posedness requires a square
    nonsingular matrix.  The diagnostics are the matrix's, then a line
    when q differs from r*m.
    """
    q = problem.q
    size = problem.state_size
    rank = matrix.numerical_rank
    dim_kernel = size - rank
    dim_cokernel = q - rank
    well_posed = q == size and dim_kernel == 0 and dim_cokernel == 0
    diagnostics = list(matrix.diagnostics)
    if q != size:
        kind = "underdetermined" if q < size else "overdetermined"
        diagnostics.append(f"{kind}: {q} scalar conditions for {size} degrees of freedom")
    return SolvabilityReport(
        index=size - q,
        dim_kernel=dim_kernel,
        dim_cokernel=dim_cokernel,
        well_posed=well_posed,
        diagnostics=tuple(diagnostics),
    )


def kernel_directions(matrix: CharacteristicMatrix) -> list[np.ndarray]:
    """Orthonormal basis of the numerical null space (length = dim kernel)."""
    return [row.conj() for row in matrix.vh[matrix.numerical_rank:]]


def cokernel_directions(matrix: CharacteristicMatrix) -> list[np.ndarray]:
    """Orthonormal basis of the orthogonal complement of the range."""
    return [matrix.u[:, i] for i in range(matrix.numerical_rank, matrix.u.shape[1])]
