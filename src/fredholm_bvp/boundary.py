"""Boundary operators: point-derivative terms plus an integral term.

An operator maps a solution stack to a complex vector of length q (the
number of scalar boundary conditions), or a block stack of vectors
side by side to one such vector per column.  It is a finite sum of terms
``matrix @ y^(d)(t_k)`` with d strictly below the stack's top order,
optionally plus ``integral of kernel(t) @ y^(top)(t) dt``.  The same
representation covers one-point canonical conditions, two-point and
multipoint conditions.

An operator keeps its point terms as three arrays: points (T,), orders
(T,) and matrices (T, q, m).  Documents build operators straight from
their arrays (``BoundaryOperator.from_arrays``), with no ``PointTerm``
per term.  ``apply`` interpolates each derivative order once, at the
points of all its terms, scatters the values into one (T, m, *columns)
array in term order, forms every product with one ``einsum`` and sums
the products in term order from zero with ``cumsum``.  That is the
arithmetic of adding the terms one by one, so each column of a block
result is bit-identical to the operator applied to that column alone,
signed zeros included.

Point evaluation of the top derivative is rejected: the top derivative
is merely integrable, so its point values carry no meaning (and no
continuity bound).  Fractional derivative orders are rejected as well;
only integer orders are supported, so boundary conditions written with
Caputo-style fractional derivatives must be reformulated before use.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .functions import ArrayFunction, ConstantFunction, as_array_function
from .grid import DerivativeStack, interpolate


@dataclass(frozen=True)
class PointTerm:
    """One term ``matrix @ y^(order)(point)``; matrix is q x m."""

    point: float
    order: int
    matrix: np.ndarray

    def __post_init__(self):
        order_value = float(self.order)
        if not order_value.is_integer():
            raise ValueError(
                f"fractional derivative order {self.order} is not supported: "
                "only integer orders are meaningful here (Caputo-style "
                "fractional boundary terms are out of scope)"
            )
        order = int(order_value)
        if order < 0:
            raise ValueError("derivative order must be non-negative")
        matrix = np.asarray(self.matrix, dtype=complex)
        if matrix.ndim != 2:
            raise ValueError("point-term matrix must be two-dimensional")
        matrix = matrix.copy()
        matrix.flags.writeable = False
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "matrix", matrix)


@dataclass(frozen=True)
class IntegralTerm:
    """Weight acting on the top derivative: integral of kernel(t) y^(top)(t)."""

    kernel: ArrayFunction

    def __post_init__(self):
        object.__setattr__(self, "kernel", as_array_function(self.kernel))
        if len(self.kernel.shape) != 2:
            raise ValueError("integral kernel must be matrix-valued")


def _handed_over(values, dtype) -> np.ndarray:
    """``values`` itself when it is a read-only C-contiguous array of
    ``dtype``, else a C-contiguous copy of it as ``dtype``."""
    if (isinstance(values, np.ndarray) and not values.flags.writeable
            and values.flags.c_contiguous and values.dtype == dtype):
        return values
    return np.array(values, dtype=dtype, order="C")


class BoundaryOperator:
    """q scalar conditions assembled from point terms and an integral term.

    ``BoundaryOperator(codomain, point_terms, integral_term)`` takes the
    terms as ``PointTerm``s; ``from_arrays`` takes them as the arrays the
    operator keeps, read-only and in term order: ``points`` (T,),
    ``orders`` (T,) and ``matrices`` (T, q, m).  ``point_terms`` is built
    from the arrays on first use.  An operator is immutable.
    """

    codomain: int
    points: np.ndarray
    orders: np.ndarray
    matrices: np.ndarray
    integral_term: IntegralTerm | None

    def __init__(self, codomain: int, point_terms: Sequence[PointTerm] = (),
                 integral_term: IntegralTerm | None = None):
        terms = tuple(point_terms)
        if codomain < 1:
            raise ValueError("codomain must be positive")
        for term in terms:
            if term.matrix.shape[0] != codomain:
                raise ValueError(
                    f"point-term matrix has {term.matrix.shape[0]} rows, expected {codomain}"
                )
        if len({term.matrix.shape[1] for term in terms}) > 1:
            raise ValueError("point-term matrices must all have the same column count")
        matrices = (np.stack([term.matrix for term in terms]) if terms
                    else np.zeros((0, codomain, 0), dtype=complex))
        self._store(codomain, np.array([term.point for term in terms], dtype=float),
                    np.array([term.order for term in terms], dtype=int), matrices, integral_term)
        object.__setattr__(self, "point_terms", terms)

    @classmethod
    def from_arrays(cls, codomain: int, points: np.ndarray, orders: np.ndarray,
                    matrices: np.ndarray, integral_term: IntegralTerm | None = None
                    ) -> "BoundaryOperator":
        """The operator of the terms ``matrices[k] @ y^(orders[k])(points[k])``.

        An array that is read-only, C-contiguous and of the kept dtype is
        kept as it is: the caller hands it over, as documents do with
        theirs.  Any other is copied, so the caller's arrays are left as
        they are.  The caller vouches for the terms: integer orders >= 0
        and real points.
        """
        if codomain < 1:
            raise ValueError("codomain must be positive")
        matrices = _handed_over(matrices, complex)
        if matrices.ndim != 3 or matrices.shape[1] != codomain:
            raise ValueError(f"point-term matrices must have shape (T, {codomain}, m)")
        if np.shape(points) != matrices.shape[:1] or np.shape(orders) != matrices.shape[:1]:
            raise ValueError("one point and one order per point-term matrix")
        operator = cls.__new__(cls)
        operator._store(codomain, _handed_over(points, float), _handed_over(orders, int),
                        matrices, integral_term)
        return operator

    def _store(self, codomain, points, orders, matrices, integral_term) -> None:
        """Set the fields from arrays the operator owns, which become read-only."""
        if integral_term is not None and integral_term.kernel.shape[0] != codomain:
            raise ValueError("integral kernel row count does not match the codomain")
        for name, value in (("points", points), ("orders", orders), ("matrices", matrices)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "integral_term", integral_term)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @cached_property
    def point_terms(self) -> tuple[PointTerm, ...]:
        """The point terms, one ``PointTerm`` each, in term order."""
        return tuple(PointTerm(point, order, matrix) for point, order, matrix
                     in zip(self.points.tolist(), self.orders.tolist(), self.matrices))

    def _check_stack(self, stack: DerivativeStack) -> None:
        too_high = np.flatnonzero(self.orders >= stack.max_order)
        if too_high.size:
            raise ValueError(
                f"point term of order {self.orders[too_high[0]]} is not continuous on stacks "
                f"of top order {stack.max_order}; orders up to {stack.max_order - 1} only"
            )
        if self.orders.size and self.matrices.shape[2] != stack.dimension:
            raise ValueError("point-term matrix column count does not match the stack")

    def apply(self, stack: DerivativeStack) -> np.ndarray:
        """Value of the operator on a derivative stack, shape (q, *columns).

        A vector stack gives a C^q vector, a block stack one such vector
        per column.  Each derivative order is interpolated once, at all
        the points of its terms; one ``einsum`` forms every term's product
        and ``cumsum`` adds them in term order, starting from zero, which
        keeps each column of a block bit-identical to the operator
        applied to that column alone.
        """
        self._check_stack(stack)
        columns = stack.samples.shape[3:]
        values = np.empty((self.orders.size, self.matrices.shape[2], *columns), dtype=complex)
        for order in np.unique(self.orders).tolist():
            at = self.orders == order
            values[at] = interpolate(stack.grid, stack.samples[order], self.points[at])
        products = np.einsum("tqm,tm...->tq...", self.matrices, values)
        zero = np.zeros((1, self.codomain, *columns), dtype=complex)
        result = np.cumsum(np.concatenate([zero, products]), axis=0)[-1]
        if self.integral_term is not None:
            kernel, top = self.integral_term.kernel, stack.samples[stack.max_order]
            # a constant kernel is its one (q, m) block for every node
            integrand = (np.einsum("qm,nm...->nq...", kernel.values, top)
                         if isinstance(kernel, ConstantFunction)
                         else np.einsum("nqm,nm...->nq...", kernel.tabulate(stack.grid), top))
            # the trapezoid rule summed node after node at any width, where a
            # plain sum would reorder a one-column sum pairwise
            trapezoids = stack.grid.step * (integrand[1:] + integrand[:-1]) / 2.0
            result += np.cumsum(trapezoids, axis=0)[-1]
        return result


def point_evaluation(point: float, matrix: np.ndarray, order: int = 0) -> BoundaryOperator:
    """Convenience: the single-term operator y -> matrix @ y^(order)(point)."""
    matrix = np.asarray(matrix, dtype=complex)
    return BoundaryOperator(matrix.shape[0], (PointTerm(point, order, matrix),))
