"""Time-dependent array-valued functions with derivative evaluation.

Equation coefficients, right-hand sides and integral kernels all need
the same capability: evaluate an (possibly matrix-valued) function of t
at arbitrary points, for derivative orders 0..n.  Three representations
cover the practical cases:

* constant arrays (derivatives vanish),
* entrywise expression trees (derivatives symbolic, hence exact),
* tabulated samples on a grid (derivatives by 4th-order differences,
  values off the table by cubic interpolation).

Coefficients, forcings and integral kernels are read on a grid through
``tabulate``: each function keeps its samples for the last grid object it
was asked about, so it is evaluated once per grid and order, whoever asks.
"""

from __future__ import annotations

import numpy as np

from . import expressions as ex
from .grid import Grid, differentiate_samples, interpolate


class ArrayFunction:
    """Shared interface: ``eval(ts, order)`` -> array (len(ts), *shape)."""

    shape: tuple[int, ...]
    _grid: Grid | None = None  # the grid of the kept samples

    def eval(self, ts: np.ndarray, order: int = 0) -> np.ndarray:
        raise NotImplementedError

    def tabulate(self, grid: Grid, order: int = 0, midpoints: bool = False) -> np.ndarray:
        """``eval`` at the grid's nodes, or at its midpoints, read-only.

        The samples are kept for the last grid object asked: another
        grid, even one with equal nodes, drops them and evaluates afresh.
        """
        if self._grid is not grid:
            self._grid, self._samples = grid, {}
        key = (order, midpoints)
        if key not in self._samples:
            values = self.eval(grid.midpoints if midpoints else grid.nodes, order)
            values.flags.writeable = False
            self._samples[key] = values
        return self._samples[key]


class ConstantFunction(ArrayFunction):
    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=complex)
        values.flags.writeable = False
        self.values = values
        self.shape = values.shape

    def eval(self, ts, order: int = 0) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        out = np.zeros((ts.size, *self.shape), dtype=complex)
        if order == 0:
            out[:] = self.values
        return out


class ExpressionFunction(ArrayFunction):
    """Entrywise expression trees in t, with ``eps`` bound at build time.

    Errors name an entry by its index, after ``path``: the JSON path of
    the entries when the function comes from a document.  The trees of
    each derivative order are built on first use and kept in
    ``derivatives``, a dict from order to trees.  Functions given the
    same dict share them: they do not depend on eps, so the members of a
    family built from one payload differentiate each entry once.
    """

    def __init__(self, entries, eps: float | None = None, path: str = "expression entry ",
                 derivatives: dict[int, np.ndarray] | None = None):
        entries = np.asarray(entries, dtype=object)
        self.entries = entries
        self.shape = entries.shape
        self.eps = eps
        self.path = path
        self._derivatives = {} if derivatives is None else derivatives
        self._derivatives.setdefault(0, entries)

    def _entries_for(self, order: int):
        if order not in self._derivatives:
            previous = self._entries_for(order - 1)
            diffed = np.empty_like(previous)
            for idx in np.ndindex(previous.shape):
                diffed[idx] = ex.symbolic_derivative(previous[idx], "t")
            self._derivatives[order] = diffed
        return self._derivatives[order]

    def eval(self, ts, order: int = 0) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        entries = self._entries_for(order)
        out = np.empty((ts.size, *self.shape), dtype=complex)
        # a value that is not finite is reported below, not warned about by numpy
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for idx in np.ndindex(self.shape):
                try:
                    out[(slice(None), *idx)] = ex.evaluate(entries[idx], t=ts, eps=self.eps)
                except ZeroDivisionError:
                    # subtrees free of t evaluate as Python floats, which raise here
                    raise ValueError(f"{self._entry_name(idx)} divides by zero"
                                     f" at eps={self.eps}") from None
                except OverflowError:  # a Python float power out of range
                    out[(slice(None), *idx)] = np.inf
        if not np.isfinite(out.view(float)).all():
            node, *idx = np.argwhere(~np.isfinite(out))[0]
            raise ValueError(f"{self._entry_name(idx)} (derivative order {order})"
                             f" is not finite at eps={self.eps}, t={float(ts.flat[node])!r}")
        return out

    def _entry_name(self, idx) -> str:
        return self.path + "".join(f"[{i}]" for i in idx)


class TabulatedFunction(ArrayFunction):
    """Samples on a grid for orders 0..K; higher orders by differences.

    ``samples`` has shape (K+1, nodes, *shape).  Off-node evaluation is
    cubic, so derived quantities keep O(step^4) accuracy on smooth data.
    """

    def __init__(self, grid: Grid, samples: np.ndarray):
        samples = np.asarray(samples, dtype=complex)
        if samples.ndim < 2 or samples.shape[1] != grid.count:
            raise ValueError("tabulated samples must have shape (orders, nodes, ...)")
        self.grid = grid
        self._by_order = {k: samples[k] for k in range(samples.shape[0])}
        self.shape = samples.shape[2:]

    def _order_samples(self, order: int) -> np.ndarray:
        if order not in self._by_order:
            previous = self._order_samples(order - 1)
            self._by_order[order] = differentiate_samples(previous, self.grid.step)
        return self._by_order[order]

    def eval(self, ts, order: int = 0) -> np.ndarray:
        return interpolate(self.grid, self._order_samples(order), ts)


def as_array_function(obj, shape: tuple[int, ...] | None = None) -> ArrayFunction:
    """Coerce a constant array or pass through an ArrayFunction."""
    if isinstance(obj, ArrayFunction):
        fn = obj
    else:
        fn = ConstantFunction(np.asarray(obj, dtype=complex))
    if shape is not None and fn.shape != shape:
        raise ValueError(f"expected shape {shape}, got {fn.shape}")
    return fn
