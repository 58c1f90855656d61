"""Uniform grids, derivative stacks and Lebesgue/Sobolev norms.

Functions on ``[a, b]`` are represented by their samples at uniform
nodes, together with samples of every derivative up to a fixed order.
Producers (the ODE integrator) generate each derivative order exactly
from the differential equation, so nothing here re-differentiates
sampled data except where explicitly asked to.

The finite-dimensional magnitude used inside every norm is the
entrywise absolute-value sum, for vectors and matrices alike; one
convention serves the norms, the boundary residuals and the
parameter-family assumption checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_NODE_COUNT = 1001


@dataclass(frozen=True)
class Interval:
    """A finite interval [a, b] with a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a

    def contains(self, t: float) -> bool:
        return self.a <= t <= self.b


@dataclass(frozen=True)
class Grid:
    """Uniform grid on an interval, endpoints included, at least 2 nodes."""

    interval: Interval
    nodes: np.ndarray = field(repr=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        if not (nodes[0] == self.interval.a and nodes[-1] == self.interval.b):
            raise ValueError("grid must span the interval endpoints exactly")
        steps = np.diff(nodes)
        if np.any(steps <= 0):
            raise ValueError("grid nodes must be strictly increasing")
        # rounding moves each node by about an ulp of the endpoints, at any
        # node count, so the steps may differ by a few of those ulps
        ulp = np.spacing(max(abs(self.interval.a), abs(self.interval.b)))
        if not np.allclose(steps, steps[0], rtol=1e-12, atol=8 * ulp):
            raise ValueError("grid must be uniform")
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def uniform(cls, interval: Interval, count: int = DEFAULT_NODE_COUNT) -> "Grid":
        if count < 2:
            raise ValueError("node count must be at least 2")
        return cls(interval, np.linspace(interval.a, interval.b, count))

    @property
    def count(self) -> int:
        return self.nodes.size

    @property
    def step(self) -> float:
        return (self.interval.b - self.interval.a) / (self.count - 1)

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])


_INF = math.inf


@dataclass(frozen=True)
class LebesgueExponent:
    """Integrability exponent p in [1, inf]; inf encodes the sup norm."""

    value: float

    def __post_init__(self):
        if not (self.value >= 1.0):
            raise ValueError(f"exponent must satisfy p >= 1, got {self.value}")

    @classmethod
    def parse(cls, raw) -> "LebesgueExponent":
        if isinstance(raw, LebesgueExponent):
            return raw
        if isinstance(raw, str):
            if raw.strip().lower() in ("inf", "infinity", "oo"):
                return cls(_INF)
            return cls(float(raw))
        return cls(float(raw))

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)

    @property
    def conjugate(self) -> float:
        """The conjugate exponent p' with 1/p + 1/p' = 1."""
        if self.is_infinite:
            return 1.0
        if self.value == 1.0:
            return _INF
        return self.value / (self.value - 1.0)


P1 = LebesgueExponent(1.0)
P2 = LebesgueExponent(2.0)
PINF = LebesgueExponent(_INF)


def entrywise_magnitude(values: np.ndarray) -> np.ndarray:
    """Per-node sum of absolute values over all non-node axes."""
    values = np.asarray(values)
    if values.ndim == 1:
        return np.abs(values)
    axes = tuple(range(1, values.ndim))
    return np.abs(values).sum(axis=axes)


def vector_magnitude(v: np.ndarray) -> float:
    """Entrywise absolute-value sum of a single vector or matrix."""
    return float(np.abs(v).sum())


def lp_norm(values: np.ndarray, p: LebesgueExponent, grid: Grid) -> float:
    """Lebesgue norm of grid samples.

    ``values`` has the node axis first; any trailing axes (vector or
    matrix components) are collapsed with the entrywise sum.  For finite
    p the integral is the composite trapezoid rule; for p = inf the norm
    is the maximum over nodes.
    """
    values = np.asarray(values)
    if values.shape[0] != grid.count:
        raise ValueError(
            f"sample count {values.shape[0]} does not match grid ({grid.count} nodes)"
        )
    magnitude = entrywise_magnitude(values)
    if p.is_infinite:
        return float(magnitude.max())
    integral = np.trapezoid(magnitude**p.value, dx=grid.step)
    return float(integral ** (1.0 / p.value))


class DerivativeStack:
    """Function with derivative samples of orders 0..max_order.

    ``samples[k, i]`` is the order-k derivative at node i: a complex
    vector of length ``dimension``, or a block of such vectors side by
    side, shape ``(dimension, *columns)``.  The fundamental set is one
    such block, ``[Y_1 ... Y_r]`` with r*m columns.  Instances are
    immutable: the constructor copies the caller's samples.
    """

    def __init__(self, grid: Grid, samples: np.ndarray):
        self._hold(grid, np.array(samples, dtype=complex))

    @classmethod
    def _adopt(cls, grid: Grid, samples: np.ndarray) -> "DerivativeStack":
        """Stack over a complex array just built for it, without a copy.

        Only for arrays no one else holds: the array is made read-only.
        """
        stack = cls.__new__(cls)
        stack._hold(grid, samples)
        return stack

    def _hold(self, grid: Grid, samples: np.ndarray) -> None:
        if samples.ndim < 3:
            raise ValueError("stack samples must have shape (orders, nodes, dimension, *columns)")
        if samples.shape[1] != grid.count:
            raise ValueError("stack node count does not match the grid")
        samples.flags.writeable = False
        self.grid = grid
        self.samples = samples

    @property
    def dimension(self) -> int:
        return self.samples.shape[2]

    @property
    def max_order(self) -> int:
        return self.samples.shape[0] - 1

    def __add__(self, other: "DerivativeStack") -> "DerivativeStack":
        if self.grid is not other.grid and not np.array_equal(self.grid.nodes, other.grid.nodes):
            raise ValueError("stacks live on different grids")
        return DerivativeStack._adopt(self.grid, self.samples + other.samples)

    def __sub__(self, other: "DerivativeStack") -> "DerivativeStack":
        if self.grid is not other.grid and not np.array_equal(self.grid.nodes, other.grid.nodes):
            raise ValueError("stacks live on different grids")
        return DerivativeStack._adopt(self.grid, self.samples - other.samples)

    def __mul__(self, scalar) -> "DerivativeStack":
        return DerivativeStack(self.grid, self.samples * scalar)

    __rmul__ = __mul__


def sobolev_norm(stack: DerivativeStack, p: LebesgueExponent) -> float:
    """Sum over derivative orders of the order-wise Lebesgue norms."""
    return sum(lp_norm(stack.samples[k], p, stack.grid) for k in range(stack.max_order + 1))


# ---------------------------------------------------------------------------
# interpolation and finite differences on uniform grids


def point_stencil(grid: Grid, ts) -> tuple:
    """Which node samples evaluate at the points ``ts``, and with what weights.

    Returns ``(nearest, at_node, stencil, weights)``.  A point within
    1e-12 of the interval's scale of a node (``at_node``) reads the sample
    at ``nearest`` alone.  Any other point reads the 4 nodes ``stencil``
    (shape (len(ts), 4)) of the local cubic Lagrange rule with
    ``weights``; both are None when every point is at a node.  Points
    outside the interval, and off-node points on grids of fewer than four
    nodes, raise ``ValueError``.
    """
    ts = np.asarray(ts, dtype=float).reshape(-1)
    a, b = grid.interval.a, grid.interval.b
    outside = ~((ts >= a) & (ts <= b))
    if outside.any():
        raise ValueError(f"point {ts[outside][0]} outside the interval [{a}, {b}]")
    nearest = np.minimum(np.maximum(np.rint((ts - a) / grid.step).astype(int), 0), grid.count - 1)
    at_node = np.abs(grid.nodes[nearest] - ts) <= 1e-12 * max(1.0, abs(a), abs(b))
    if at_node.all():
        return nearest, at_node, None, None
    if grid.count < 4:
        raise ValueError("off-node interpolation needs at least four nodes")
    lo = np.minimum(np.maximum(np.floor((ts - a) / grid.step).astype(int) - 1, 0), grid.count - 4)
    stencil = lo[:, None] + np.arange(4)
    knots = grid.nodes[stencil]
    # factor [t, i, j] of weight i is (t - x_j) / (x_i - x_j), and 1 at j = i;
    # adding the identity to the denominators forms no 0 / 0 on the diagonal
    diagonal = np.arange(4)
    factors = (ts[:, None, None] - knots[:, None, :]) / (knots[:, :, None] - knots[:, None, :]
                                                         + np.eye(4))
    factors[:, diagonal, diagonal] = 1.0
    return nearest, at_node, stencil, factors.prod(axis=2)


def interpolate(grid: Grid, values: np.ndarray, ts) -> np.ndarray:
    """Node samples evaluated at points of the interval: shape (len(ts), ...).

    Exact at nodes (within 1e-12 of the interval's scale); elsewhere the
    local 4-point (cubic Lagrange) rule, which preserves the O(step^4)
    accuracy of stored samples.  ``values`` has the node axis first and
    any trailing axes; the nodes and weights are ``point_stencil``'s.
    """
    nearest, at_node, stencil, weights = point_stencil(grid, ts)
    if stencil is None:
        return values[nearest]
    trailing = (slice(None),) + (None,) * (values.ndim - 1)
    result = np.zeros((nearest.size, *values.shape[1:]), dtype=np.result_type(values, float))
    for i in range(4):
        result = result + weights[:, i][trailing] * values[stencil[:, i]]
    result[at_node] = values[nearest[at_node]]
    return result


# 4th-order first-derivative stencils on a uniform grid; rows are the
# one-sided rules used at the first/last two nodes.
_EDGE_STENCIL = np.array(
    [
        [-25.0, 48.0, -36.0, 16.0, -3.0],
        [-3.0, -10.0, 18.0, -6.0, 1.0],
    ]
) / 12.0


def differentiate_samples(values: np.ndarray, step: float) -> np.ndarray:
    """4th-order finite-difference derivative along the node axis.

    Centered in the interior, one-sided at the two nodes next to each
    endpoint.  Needs at least five nodes.
    """
    values = np.asarray(values)
    n = values.shape[0]
    if n < 5:
        raise ValueError("4th-order differences need at least five nodes")
    out = np.empty_like(values, dtype=complex)
    out[2:-2] = (values[:-4] - 8 * values[1:-3] + 8 * values[3:-1] - values[4:]) / (12 * step)
    for row, idx in ((0, 0), (1, 1)):
        out[idx] = np.tensordot(_EDGE_STENCIL[row], values[:5], axes=(0, 0)) / step
        out[n - 1 - idx] = -np.tensordot(_EDGE_STENCIL[row], values[-5:][::-1], axes=(0, 0)) / step
    return out
