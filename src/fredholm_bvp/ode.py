"""Matrix Cauchy problems for linear systems, forced or not.

The differential expression is

    (L y)(t) = y^(r)(t) + sum_{d=0}^{r-1} A_d(t) y^(d)(t),

with m x m coefficient matrices A_d.  The homogeneous matrix problems
with Kronecker-delta initial data produce the fundamental set
{Y_1, ..., Y_r}; every solution of L y = f is y_p + sum_i Y_i xi_i.

Integration is classical fixed-step RK4 on the companion first-order
system, with the step equal to the grid step so trajectory samples land
exactly on the nodes.  One RK4 step of a linear system is a matrix,
x_{i+1} = P_i x_i, and one stage formula builds it.  A forcing f is an
extra companion column acting on [x; 1], exactly RK4 of the forced
system: one integration from the identity on [x; 1] yields the stack
[Y_1 ... Y_r | y_p], with y_p the solution of zero initial data in the
last column.  The stored states are checked once for blow-up.

There are three routes.  When every A_d is a ``ConstantFunction`` all
P_i are one P, and node j holds P^j.

* Powers, for a characteristic matrix alone: P is the stage formula on
  the bare companion matrix C (``CoefficientSet.companion``), and
  ``propagator_squares`` forms the squares P^(2^i) as one array.
  ``propagator_at`` forms one binary power per point a boundary operator
  reads: P^j at node j, and elsewhere P^lo (sum_k w_k P^k) over the
  interpolation stencil lo..lo+3, with I, P, P^2, P^3 formed once.
  ``propagator_trapezoid`` forms the trapezoid sum over all nodes by
  doubling, and P^(N-1) in the same loop.  No trajectory is stored.  The
  entries agree with the stack path to (N + 100) * 1e-15 of the largest
  entry.  When prod_i max(1, ||P^(2^i)||_inf) is not below 2^1000 no
  power is trusted, and the stack path runs instead.
* Doubling, for a stack with constant coefficients: the trajectory is
  filled by states[k:2k] = states[:k] P^k, in log2(N) rounds of GEMMs,
  and y_p by the affine prefix scan of y_{i+1} = P y_i + g_i, with g_i
  from the stage formula on f at the nodes and midpoints.  The
  arithmetic order differs from stepping, so the states agree with
  per-step RK4 to N * 1e-15 of the largest state entry, not to the last
  bit.
* Stepping, for a stack with any other coefficient (expression, table,
  or a constant mixed with either): the P_i are formed by batched
  products into the states array, and a blocked prefix scan applies them
  in about 2 sqrt(N) numpy calls.  The N-1 steps fall into chunks of
  k = isqrt(N-1); k-1 stacked products turn every chunk at once into its
  prefix products, and one GEMM per chunk applies them to the state the
  chunk starts from.  The states agree with per-step RK4 to N * 1e-15 of
  the largest state entry.  A chunk's prefix can overflow where per-step
  states would not (a steep decay followed within one chunk by growth
  past 1e308), and that is reported as a blow-up.

Derivative orders r..n+r are not differentiated numerically.  With
constant coefficients they are rows of powers of the companion matrix C
applied to the states, not the Leibniz recurrence: x = [y; ...; y^(r-1)]
solves x' = C x + L^T f with L = [0 ... 0 I], so order r-1+s is
R_s x + sum_{i<s} (L C^{s-1-i} L^T) f^(i), R_s = L C^s the last block row
of C^s, built once per problem (``order_rows``); one GEMM of the rows
with the states of all nodes gives orders r..n+r.  Any other
coefficients use the recurrence: order r comes from the equation itself
and higher orders from the Leibniz-differentiated equation, which only
needs coefficient derivatives up to order n (the zero derivatives of
constant coefficients are skipped); each order is one stacked product
over the nodes.  The two agree in exact arithmetic; on the same states
they agree to N * 1e-15 of the largest entry.  ``fundamental_set``
returns the stack as a ``DerivativeStack``; ``integration_residual``
measures its finite-difference defect on request.

Every function is read through ``ArrayFunction.tabulate``, which keeps
its samples for the last grid asked: A_d^(k) and f^(s) at the nodes for
k, s <= n, and A_d and f at the midpoints, each evaluated once per grid
whoever reads it (``coefficient_samples``).  A constant A_d enters as its
one (m, m) block.  So a caller that integrates a problem and then
measures its residuals evaluates each coefficient, and f, once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from math import comb, isqrt, log2

import numpy as np

from .functions import ArrayFunction, ConstantFunction, as_array_function
from .grid import DerivativeStack, Grid, differentiate_samples, point_stencil


@dataclass(frozen=True)
class CoefficientSet:
    """Coefficients of L; ``by_order[d]`` multiplies the order-d derivative.

    r is the equation order, m the system size, n the number of
    coefficient derivatives available (the smoothness index).
    """

    r: int
    m: int
    n: int
    by_order: tuple[ArrayFunction, ...]

    def __post_init__(self):
        if self.r < 1 or self.m < 1 or self.n < 0:
            raise ValueError("need r >= 1, m >= 1, n >= 0")
        if len(self.by_order) != self.r:
            raise ValueError(f"expected {self.r} coefficient matrices, got {len(self.by_order)}")
        coerced = tuple(as_array_function(fn, (self.m, self.m)) for fn in self.by_order)
        object.__setattr__(self, "by_order", coerced)

    @property
    def max_order(self) -> int:
        """Top derivative order carried by solutions: n + r."""
        return self.n + self.r

    @cached_property
    def constant(self) -> bool:
        """Every A_d is a ``ConstantFunction``: one companion matrix C for all t."""
        return all(isinstance(fn, ConstantFunction) for fn in self.by_order)

    @cached_property
    def companion(self) -> np.ndarray:
        """The companion matrix C of constant coefficients, (r*m, r*m), read-only."""
        c = _companion(self, _top_rows([fn.values for fn in self.by_order], 1))[0]
        c.flags.writeable = False
        return c


@dataclass(frozen=True)
class RightHandSide:
    """Inhomogeneity: vector function f (length m) and boundary data c.

    A constant array given as f becomes one ``ConstantFunction``, so its
    samples are kept with it like any other function's.
    """

    f: ArrayFunction
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f", as_array_function(self.f))
        c = np.asarray(self.c, dtype=complex).reshape(-1)
        c.flags.writeable = False
        object.__setattr__(self, "c", c)


def coefficient_samples(coeffs: CoefficientSet, grid: Grid) -> list[list[np.ndarray | None]]:
    """A_d^{(q)} at the grid's nodes for d = 0..r-1, q = 0..n (``tabulate``).

    A ``ConstantFunction`` enters as its one (m, m) block, which
    ``_lower_order_part`` broadcasts over the nodes, and its derivatives q >= 1,
    all zero, are left out as None.
    """
    return [[fn.values] + [None] * coeffs.n if isinstance(fn, ConstantFunction)
            else [fn.tabulate(grid, q) for q in range(coeffs.n + 1)] for fn in coeffs.by_order]


def _top_rows(a_values, count: int, f_values: np.ndarray | None = None) -> np.ndarray:
    """Order-(r-1) block rows [-A_0, ..., -A_{r-1} (, f)] of C at ``count`` points.

    Each A_d is given at the points, or as one (m, m) block for all of them.
    """
    m = a_values[0].shape[-1]
    top = np.empty((count, m, len(a_values) * m + (f_values is not None)), dtype=complex)
    for d, a in enumerate(a_values):
        top[:, :, d * m : (d + 1) * m] = -a
    if f_values is not None:
        top[:, :, -1] = f_values
    return top


def _companion(coeffs: CoefficientSet, top: np.ndarray) -> np.ndarray:
    """Companion matrices with top rows ``top``; forced: [[C, F], [0, 0]]."""
    c = np.tile(np.eye(top.shape[2], k=coeffs.m, dtype=complex), (top.shape[0], 1, 1))
    c[:, (coeffs.r - 1) * coeffs.m : coeffs.r * coeffs.m] = top
    return c


_BATCH = 256  # propagators formed per batch: a few MB of temporaries at r*m = 16
_GEMM_MACS = 1 << 15  # multiply-adds per GEMM: BLAS keeps products this small on one thread


def _row_chunks(start: int, stop: int, macs_per_row: int):
    """Ranges [lo, hi) covering rows start..stop, last first, one GEMM each."""
    rows = max(1, _GEMM_MACS // macs_per_row)
    for hi in range(stop, start, -rows):
        yield max(hi - rows, start), hi


def _propagators(c_start: np.ndarray, c_mid: np.ndarray, c_end: np.ndarray, h: float) -> np.ndarray:
    """RK4 propagators I + h/6 (k1 + 2 k2 + 2 k3 + k4), the stages taken as matrices.

    The companion matrices at the start, middle and end of a step are
    single matrices or stacks, one per grid interval.
    """
    eye = np.eye(c_mid.shape[-1])
    k1 = c_start
    k2 = c_mid @ (eye + 0.5 * h * k1)
    k3 = c_mid @ (eye + 0.5 * h * k2)
    k4 = c_end @ (eye + h * k3)
    return eye + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _constant_step(coeffs: CoefficientSet, h: float) -> tuple[np.ndarray, np.ndarray]:
    """One RK4 step with constant A_d: x -> P x + G [f(t_i); f(t_i + h/2); f(t_i + h)].

    By linearity the stage formula yields P and G at once, taken on the
    companion system widened by three inputs: the values of f at the
    start, middle and end of the step, each entering the stage taken there.
    """
    m, w = coeffs.m, coeffs.r * coeffs.m
    c = np.zeros((3, w + 3 * m, w + 3 * m), dtype=complex)
    c[:, :w, :w] = coeffs.companion
    for s in range(3):
        c[s, w - m : w, w + s * m : w + (s + 1) * m] = np.eye(m)
    p = _propagators(c[0], c[1], c[2], h)
    return p[:w, :w], p[:w, w:]


def _doubled_states(coeffs: CoefficientSet, grid: Grid, width: int,
                    f: ArrayFunction | None) -> np.ndarray:
    """States when every A_d is constant, so every step has one propagator P.

    Node j holds P^j, filled by doubling: states[k:2k] = states[:k] P^k,
    since powers of P commute.  With a forcing, y_p in the last column is
    the affine prefix scan of y_{i+1} = P y_i + g_i: after the level of
    span k each entry sums its last 2k steps, y[k:] += P^k y[:-k].  Both
    run as GEMMs over row chunks (``_row_chunks``).
    """
    w, count = coeffs.r * coeffs.m, grid.count
    p, g_map = _constant_step(coeffs, grid.step)
    power = np.eye(width, dtype=complex)  # diag(P^k, 1): the forced row is the constant 1
    power[:w, :w] = p
    states = np.empty((count, width, width), dtype=complex)
    states[0] = np.eye(width)
    flat = states.reshape(-1, width)  # node j is rows j*width .. (j+1)*width - 1
    if f is not None:
        f_nodes = f.tabulate(grid)
        inputs = np.concatenate([f_nodes[:-1], f.tabulate(grid, midpoints=True), f_nodes[1:]],
                                axis=1)
        y_p = np.empty((count - 1, w), dtype=complex)  # g_i, then y_p at node i + 1
        for lo, hi in _row_chunks(0, count - 1, g_map.size):
            np.matmul(inputs[lo:hi], g_map.T, out=y_p[lo:hi])
    k = 1
    while k < count:
        for lo, hi in _row_chunks(0, min(k, count - k) * width, width**2):
            np.matmul(flat[lo:hi], power, out=flat[k * width + lo : k * width + hi])
        if f is not None:
            # last rows first, so each chunk reads rows that no chunk has updated
            for lo, hi in _row_chunks(k, count - 1, w**2):
                y_p[lo:hi] += y_p[lo - k : hi - k] @ power[:w, :w].T
        power = power @ power
        k *= 2
    if f is not None:
        states[1:, :w, w] = y_p
    return states


def _stepped_states(coeffs: CoefficientSet, grid: Grid, width: int,
                    f: ArrayFunction | None) -> np.ndarray:
    """States for varying coefficients, x_{i+1} = P_i x_i, by blocked prefix products.

    The A_d and f are read at the nodes and midpoints (``tabulate``); the
    P_i are built in batches of ``_BATCH`` grid intervals straight into
    rows 1..N-1.  The steps fall into chunks of k = isqrt(N-1), the last
    padded with identities.  k-1 stacked products turn every chunk at
    once into its prefixes P_{lo+j} ... P_lo, and one GEMM per chunk
    applies them to its start state, the last state of the chunk before.
    """
    steps = grid.count - 1
    k = isqrt(steps)
    chunks = -(-steps // k)
    states = np.empty((1 + chunks * k, width, width), dtype=complex)
    states[0] = states[grid.count :] = np.eye(width)

    def top_rows(midpoints: bool) -> np.ndarray:
        a_values = [fn.values if isinstance(fn, ConstantFunction)
                    else fn.tabulate(grid, midpoints=midpoints) for fn in coeffs.by_order]
        return _top_rows(a_values, grid.count - midpoints,
                         None if f is None else f.tabulate(grid, midpoints=midpoints))

    top_nodes, top_mid = top_rows(False), top_rows(True)
    for lo in range(0, steps, _BATCH):
        hi = min(lo + _BATCH, steps)
        c_nodes = _companion(coeffs, top_nodes[lo : hi + 1])
        states[lo + 1 : hi + 1] = _propagators(c_nodes[:-1], _companion(coeffs, top_mid[lo:hi]),
                                               c_nodes[1:], grid.step)
    chunked = states[1:].reshape(chunks, k, width, width)
    for j in range(1, k):
        np.matmul(chunked[:, j], chunked[:, j - 1], out=chunked[:, j])
    for c in range(1, chunks):
        prefixes = chunked[c].reshape(k * width, width)
        np.matmul(prefixes, chunked[c - 1, -1], out=prefixes)
    return states[: grid.count]


def _integrate(coeffs: CoefficientSet, grid: Grid, f: ArrayFunction | None = None) -> np.ndarray:
    """Fixed-step RK4 on the companion system from the identity.

    Returns states (nodes, width, width), width r*m, or r*m + 1 with a
    forcing f acting on [x; 1].  Constant coefficients
    (``coeffs.constant``) propagate by doubling, any other by stepping;
    the stored states are checked once for blow-up.
    """
    width = coeffs.r * coeffs.m + (f is not None)
    # blow-up is detected once below, so overflow warnings are redundant
    with np.errstate(over="ignore", invalid="ignore"):
        if coeffs.constant:
            states = _doubled_states(coeffs, grid, width, f)
        else:
            states = _stepped_states(coeffs, grid, width, f)
    finite = np.isfinite(states).all(axis=(1, 2))
    if not finite.all():
        i = max(int(np.argmin(finite)) - 1, 0)
        raise FloatingPointError(
            f"integration blew up between nodes {i} and {i + 1} "
            f"(t = {grid.nodes[i]:.6g}); coefficients too stiff for the grid"
        )
    return states


_GROWTH_BITS = 1000  # powers are trusted while prod_i max(1, ||P^(2^i)||) is below 2^1000


def propagator_squares(coeffs: CoefficientSet, grid: Grid) -> np.ndarray | None:
    """The squares P^(2^i), 2^i < N, of the constant-coefficient RK4 step P.

    P is the stage formula on the companion matrix C; the squares come
    as one (L, r*m, r*m) array.  Every power P^j at a node, j < N, is a
    product of them.  Their growth bound prod_i max(1, ||P^(2^i)||_inf)
    bounds every such power; when it is not below 2^``_GROWTH_BITS``, or
    a norm is not finite, no power is trusted and None is returned.
    """
    c = coeffs.companion
    squares = np.empty(((grid.count - 1).bit_length(), *c.shape), dtype=complex)
    # a square past the bound may overflow; the bound reports it
    with np.errstate(over="ignore", invalid="ignore"):
        squares[0] = _propagators(c, c, c, grid.step)
        for i in range(1, len(squares)):
            np.matmul(squares[i - 1], squares[i - 1], out=squares[i])
        norms = np.abs(squares).sum(axis=2).max(axis=1)
    # summed square after square, as the bound is stated
    bits = sum(log2(max(norm, 1.0)) for norm in norms.tolist())
    if not np.isfinite(norms).all() or bits >= _GROWTH_BITS:
        return None
    return squares


def propagator_at(squares: np.ndarray, grid: Grid, ts) -> np.ndarray:
    """The states P^j of the nodes read at the points ``ts`` as ``interpolate`` reads them.

    A point at node j reads P^j; any other reads P^lo (sum_k w_k P^k)
    over its ``point_stencil`` lo..lo+3 and weights w_k, with the basis
    I, P, P^2, P^3 formed once.  Each point takes one binary power of
    P, the product of the squares of its exponent's digits.
    """
    nearest, at_node, stencil, weights = point_stencil(grid, ts)
    eye = np.eye(squares.shape[1], dtype=complex)
    states = np.tile(eye, (nearest.size, 1, 1))
    if stencil is not None:
        basis = np.stack([eye, squares[0], squares[1], squares[1] @ squares[0]])
        states[~at_node] = (weights[~at_node] @ basis.reshape(4, -1)).reshape(-1, *eye.shape)
        nearest = np.where(at_node, nearest, stencil[:, 0])
    for t, j in enumerate(nearest.tolist()):
        digits = [squares[i] for i in range(j.bit_length()) if j >> i & 1]
        states[t] = reduce(np.matmul, digits, states[t])
    return states


def propagator_trapezoid(squares: np.ndarray, grid: Grid) -> np.ndarray:
    """The trapezoid rule over the nodes, h (sum_{j<N} P^j - (I + P^(N-1))/2).

    The sum S_N is formed by doubling over the binary digits of N: the
    block T_{i+1} = T_i + P^(2^i) T_i sums the first 2^i powers, and
    S_N = T_i + P^(2^i) S_(N - 2^i) for the top digit i of N.  The same
    loop collects P^(N-1) from the digits of N - 1.
    """
    count = grid.count
    eye = np.eye(squares.shape[1], dtype=complex)
    block, total, last = eye, None, None  # block = T_i
    for i in range(count.bit_length()):
        if count >> i & 1:
            total = block if total is None else block + squares[i] @ total
        if (count - 1) >> i & 1:
            last = squares[i] if last is None else last @ squares[i]
        if i + 1 < count.bit_length():
            block = block + squares[i] @ block
    return grid.step * (total - (eye + last) / 2.0)


def _lower_order_part(a_tables, y_orders: np.ndarray, s: int) -> np.ndarray:
    """sum_d sum_{q<=s} binom(s,q) A_d^{(q)} y^{(d+s-q)} at all nodes.

    ``y_orders[k]`` holds the order-k samples, known at least up to
    r-1+s.  Vector samples (nodes, m) add one ``einsum`` per term; block
    samples (nodes, m, w) take one stacked product, the terms
    binom(s,q) A_d^{(q)} side by side times the matching orders stacked.
    A ``None`` derivative, a zero one of a constant coefficient, is left out.
    """
    terms = [(comb(s, q) * derivs[q], y_orders[d + s - q]) for d, derivs in enumerate(a_tables)
             for q in range(s + 1) if derivs[q] is not None]
    if y_orders[0].ndim == 2:
        return reduce(np.add, (np.einsum("ij,nj->ni" if a.ndim == 2 else "nij,nj->ni", a, y)
                               for a, y in terms))
    count = y_orders[0].shape[0]
    side_by_side = np.concatenate([np.broadcast_to(a, (count, *a.shape[-2:])) for a, _ in terms],
                                  axis=2)
    return side_by_side @ np.concatenate([y for _, y in terms], axis=1)


def _extend_orders(coeffs: CoefficientSet, a_tables, samples: np.ndarray,
                   f_tables: list[np.ndarray] | None = None) -> None:
    """Fill orders r..n+r of ``samples`` from its orders 0..r-1 via the recurrence.

    ``f_tables[s]`` holds f^{(s)}; it enters the last column, y_p, only.
    """
    r = coeffs.r
    for s in range(coeffs.n + 1):
        np.negative(_lower_order_part(a_tables, samples, s), out=samples[r + s])
        if f_tables is not None:
            samples[r + s, ..., -1] += f_tables[s]


def order_rows(coeffs: CoefficientSet) -> np.ndarray:
    """Rows R_k with y^(k) = R_k x on the homogeneous equation, k = 0..n+r.

    x = [y; ...; y^(r-1)] is the companion state.  R_k is block row k of
    the identity for k < r and L C^(k-r+1) above, with L = [0 ... 0 I]
    and C the companion matrix of constant coefficients; the rows come
    as one (n+r+1, m, r*m) array.
    """
    m, w = coeffs.m, coeffs.r * coeffs.m
    rows = np.empty((coeffs.max_order + 1, m, w), dtype=complex)
    rows[: coeffs.r] = np.eye(w, dtype=complex).reshape(coeffs.r, m, w)
    for k in range(coeffs.r, coeffs.max_order + 1):
        np.matmul(rows[k - 1], coeffs.companion, out=rows[k])
    return rows


def _companion_orders(coeffs: CoefficientSet, samples: np.ndarray,
                      f_tables: list[np.ndarray] | None = None) -> None:
    """Fill orders r..n+r of ``samples`` from its orders 0..r-1 when every A_d is constant.

    x = [y; ...; y^(r-1)] solves x' = C x + L^T f with one companion
    matrix C, L = [0 ... 0 I], so order r-1+s is R_s x plus
    sum_{i<s} (L C^{s-1-i} L^T) f^{(i)} in the last column, y_p; R_s = L C^s
    is the last block row of C^s (``order_rows``).  The rows R_1..R_{n+1}
    stacked take one GEMM with the states of every node side by side,
    (w, N * width).  ``f_tables[s]`` holds f^{(s)}.
    """
    m, r, n = coeffs.m, coeffs.r, coeffs.n
    w, (_, count, _, width) = r * m, samples.shape
    x = samples[:r].transpose(0, 2, 1, 3).reshape(w, count * width)
    rows = order_rows(coeffs)[r - 1 :]  # rows[s] = L C^s
    products = (rows[1:].reshape(-1, w) @ x).reshape(n + 1, m, count, width)
    samples[r:] = products.transpose(0, 2, 1, 3)
    if f_tables is not None:
        for s in range(1, n + 2):
            for i in range(s):
                samples[r - 1 + s, ..., -1] += f_tables[i] @ rows[s - 1 - i][:, w - m :].T


def fundamental_set(coeffs: CoefficientSet, grid: Grid, f=None) -> DerivativeStack:
    """Integrate the r homogeneous matrix problems on the grid at once.

    Returns the fundamental matrix [Y_1 ... Y_r] as one block stack of
    samples (n+r+1, nodes, m, r*m), Y_i in columns i*m .. (i+1)*m.
    Member i starts from Y_i^{(j-1)}(a) = delta_{ij} I and carries
    derivative orders 0..n+r.  With a forcing ``f`` the same pass also
    integrates y_p, the solution of L y = f with zero initial data, as
    one last column: the (w+1) x (w+1) identity on [x; 1], w = r*m.
    """
    m, r, count = coeffs.m, coeffs.r, grid.count
    w = r * m
    f = None if f is None else as_array_function(f, (m,))
    # the stack first: a size that cannot fit fails before any work
    samples = np.empty((coeffs.max_order + 1, count, m, w + (f is not None)), dtype=complex)
    # every function is evaluated before integrating, so a value that is
    # not finite is reported ahead of any blow-up
    a_tables = None if coeffs.constant else coefficient_samples(coeffs, grid)
    f_tables = None if f is None else [f.tabulate(grid, s) for s in range(coeffs.n + 1)]
    states = _integrate(coeffs, grid, f)
    # rows below w are the companion state; the forced row w is the constant 1
    samples[:r] = states[:, :w].reshape(count, r, m, -1).transpose(1, 0, 2, 3)
    if coeffs.constant:
        _companion_orders(coeffs, samples, f_tables)
    else:
        _extend_orders(coeffs, a_tables, samples, f_tables)
    return DerivativeStack._adopt(grid, samples)


def integration_residual(stack: DerivativeStack, r: int) -> float:
    """Largest node-wise defect of any member Y_i of a fundamental stack.

    The defect is a 4th-order finite difference of the order-(r-1)
    samples against the stored order-r samples, over the first r*m
    columns; 0 on grids of fewer than five nodes.  On fine grids it is
    rounding noise, not an error estimate.
    """
    grid, m, samples = stack.grid, stack.dimension, stack.samples
    if grid.count < 5:
        return 0.0
    w = r * m
    defect = differentiate_samples(samples[r - 1, ..., :w], grid.step) - samples[r, ..., :w]
    return float(np.abs(defect).reshape(grid.count, m, r, m).sum(axis=(1, 3)).max())


def residual_stack(coeffs: CoefficientSet, y: DerivativeStack, f=None,
                   orders: int | None = None) -> DerivativeStack:
    """Samples of (L y - f) and its derivatives 0..orders (default n, at most n).

    ``y`` must carry derivative orders up to r + orders.
    """
    if orders is None:
        orders = coeffs.n
    if orders > coeffs.n:
        raise ValueError(f"the residual has derivative orders 0..{coeffs.n}, not {orders}")
    if y.max_order < coeffs.r + orders:
        raise ValueError(
            f"stack carries orders 0..{y.max_order}, need {coeffs.r + orders}"
        )
    grid = y.grid
    f = None if f is None else as_array_function(f, (coeffs.m,))
    a_tables = coefficient_samples(coeffs, grid)
    rows = []
    y_orders = [y.samples[k] for k in range(y.max_order + 1)]
    for s in range(orders + 1):
        value = y_orders[coeffs.r + s] + _lower_order_part(a_tables, y_orders, s)
        if f is not None:
            value = value - f.tabulate(grid, s)
        rows.append(value)
    return DerivativeStack._adopt(grid, np.stack(rows))
