"""Independent reference computations for the benchmark's checks.

Nothing here imports fredholm_bvp.  A problem is described by a
``Model``: coefficient functions with exact derivatives, boundary
terms, an optional constant integral kernel and an optional right-hand
side.  Two references are computed from it:

* constant coefficients: the characteristic matrix from
  ``scipy.linalg.expm`` of the companion matrix.  Derivative orders come
  from its powers, the integral term from the augmented-matrix integral.
* any coefficients: ``scipy.integrate.solve_ivp`` (DOP853) at tight
  tolerance on the companion system, with orders r and above from the
  Leibniz-differentiated equation.  It gives the characteristic matrix
  and the solution of a well-posed problem.

The program applies integral terms with the trapezoid rule on its grid.
The references add the Euler-Maclaurin terms of that rule to the exact
integral, so what remains between program and reference is the RK4
error of order h^4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

IVP_RTOL = 1e-12
IVP_ATOL = 1e-12


@dataclass(frozen=True)
class Smooth:
    """c0 + c1 t + c2 t^2 + s sin(w t + p) + e exp(k t), real parameters."""

    c0: float = 0.0
    c1: float = 0.0
    c2: float = 0.0
    s: float = 0.0
    w: float = 0.0
    p: float = 0.0
    e: float = 0.0
    k: float = 0.0

    def __call__(self, t: np.ndarray, order: int = 0) -> np.ndarray:
        poly = [self.c0 + self.c1 * t + self.c2 * t * t, self.c1 + 2.0 * self.c2 * t,
                2.0 * self.c2 + 0.0 * t]
        value = poly[order] if order < 3 else 0.0 * t
        if self.s:
            value = value + self.s * self.w**order * np.sin(self.w * t + self.p + order * math.pi / 2)
        if self.e:
            value = value + self.e * self.k**order * np.exp(self.k * t)
        return value

    def source(self) -> str:
        """The same function in the problem-document expression grammar."""
        parts = [f"({self.c0!r})"]
        if self.c1:
            parts.append(f"({self.c1!r})*t")
        if self.c2:
            parts.append(f"({self.c2!r})*t^2")
        if self.s:
            parts.append(f"({self.s!r})*sin(({self.w!r})*t + ({self.p!r}))")
        if self.e:
            parts.append(f"({self.e!r})*exp(({self.k!r})*t)")
        return " + ".join(parts)


@dataclass(frozen=True)
class Fn:
    """An array-valued function of t: a complex constant, or Smooth entries.

    ``re`` and ``im`` hold one Smooth per entry in row-major order; ``im``
    may be None for a real function.
    """

    shape: tuple[int, ...]
    const: np.ndarray | None = None
    re: tuple[Smooth, ...] | None = None
    im: tuple[Smooth, ...] | None = None

    @property
    def is_constant(self) -> bool:
        return self.const is not None

    def __call__(self, t, order: int = 0) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.const is not None:
            out = np.zeros((t.size, *self.shape), dtype=complex)
            if order == 0:
                out[:] = self.const
            return out
        flat = np.empty((t.size, len(self.re)), dtype=complex)
        for i, entry in enumerate(self.re):
            flat[:, i] = entry(t, order)
        if self.im is not None:
            for i, entry in enumerate(self.im):
                flat[:, i] += 1j * entry(t, order)
        return flat.reshape(t.size, *self.shape)


@dataclass
class Model:
    """One boundary-value problem as the references see it."""

    a: float
    b: float
    r: int
    m: int
    n: int
    coeffs: list[Fn]
    q: int
    terms: list[tuple[float, int, np.ndarray]] = field(default_factory=list)
    kernel: np.ndarray | None = None
    f: Fn | None = None
    c: np.ndarray | None = None
    table_nodes: int = 0  # coefficients known at this many table nodes, 0 if exact

    @property
    def constant(self) -> bool:
        return all(fn.is_constant for fn in self.coeffs)

    @property
    def top(self) -> int:
        return self.n + self.r

    def step(self, nodes: int) -> float:
        return (self.b - self.a) / (nodes - 1)


# ---------------------------------------------------------------------------
# constant coefficients: matrix exponential of the companion matrix


def companion(model: Model) -> np.ndarray:
    r, m = model.r, model.m
    c = np.zeros((r * m, r * m), dtype=complex)
    for j in range(r - 1):
        c[j * m:(j + 1) * m, (j + 1) * m:(j + 2) * m] = np.eye(m)
    for d, fn in enumerate(model.coeffs):
        c[(r - 1) * m:, d * m:(d + 1) * m] = -fn.const
    return c


def _order_rows(c: np.ndarray, x: np.ndarray, order: int, r: int, m: int) -> np.ndarray:
    """Order-``order`` block row of the state derivative stack of x."""
    if order < r:
        return x[order * m:(order + 1) * m]
    return (np.linalg.matrix_power(c, order - r + 1) @ x)[(r - 1) * m:]


def characteristic_constant(model: Model, nodes: int) -> np.ndarray:
    """Characteristic matrix from expm(C (t - a)) and powers of C."""
    r, m = model.r, model.m
    c = companion(model)
    out = np.zeros((model.q, r * m), dtype=complex)
    for point, order, matrix in model.terms:
        out += matrix @ _order_rows(c, expm(c * (point - model.a)), order, r, m)
    if model.kernel is not None:
        size = r * m
        length = model.b - model.a
        augmented = np.zeros((2 * size, 2 * size), dtype=complex)
        augmented[:size, :size] = c
        augmented[:size, size:] = np.eye(size)
        integral = expm(augmented * length)[:size, size:]
        out += model.kernel @ _order_rows(c, integral, model.top, r, m)
        # Euler-Maclaurin terms of the trapezoid rule on the program's grid
        h = model.step(nodes)
        ends = [np.eye(size), expm(c * length)]
        for power, weight in ((1, h**2 / 12.0), (3, -h**4 / 720.0)):
            rows = [_order_rows(c, np.linalg.matrix_power(c, power) @ x, model.top, r, m)
                    for x in ends]
            out += weight * model.kernel @ (rows[1] - rows[0])
    return out


# ---------------------------------------------------------------------------
# any coefficients: tight-tolerance solve_ivp on the companion system


def _orders(model: Model, t: float, low: list[np.ndarray], upto: int,
            forcing: bool) -> list[np.ndarray]:
    """Orders 0..upto at t from orders 0..r-1 by the Leibniz recurrence."""
    r = model.r
    ys = list(low)
    for s in range(upto - r + 1):
        value = model.f(t, s)[0][:, None] if forcing else 0.0
        for d, fn in enumerate(model.coeffs):
            for q in range(s + 1):
                if q > 0 and fn.is_constant:
                    break
                value = value - math.comb(s, q) * (fn(t, q)[0] @ ys[d + s - q])
        ys.append(value)
    return ys


def _integrate(model: Model, forcing: bool):
    """Solve for the fundamental matrix (forcing=False) or y_p (True).

    With an integral kernel, the running integral of kernel @ y^(top) is
    carried as extra components, so the integral is exact to the ODE
    tolerance.
    """
    r, m, q = model.r, model.m, model.q
    size = r * m
    width = 1 if forcing else size
    x0 = np.zeros((size, width), dtype=complex) if forcing else np.eye(size, dtype=complex)
    z0 = np.zeros((q, width), dtype=complex) if model.kernel is not None else None

    def rhs(t, y):
        x = y[:size * width].reshape(size, width)
        top = sum(-(fn(t)[0] @ x[d * m:(d + 1) * m]) for d, fn in enumerate(model.coeffs))
        if forcing:
            top = top + model.f(t)[0][:, None]
        dx = np.concatenate([x[m:], top]) if r > 1 else top
        if z0 is None:
            return dx.ravel()
        low = [x[j * m:(j + 1) * m] for j in range(r)]
        dz = model.kernel @ _orders(model, t, low, model.top, forcing)[model.top]
        return np.concatenate([dx.ravel(), dz.ravel()])

    y0 = x0.ravel() if z0 is None else np.concatenate([x0.ravel(), z0.ravel()])
    sol = solve_ivp(rhs, (model.a, model.b), y0, method="DOP853", rtol=IVP_RTOL,
                    atol=IVP_ATOL, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol, size, width


def _apply_boundary(model: Model, sol, size: int, width: int, forcing: bool,
                    nodes: int) -> np.ndarray:
    """The boundary operator on the integrated trajectory, as the program's grid sees it."""
    r, m = model.r, model.m

    def state(t):
        x = sol.sol(t)[:size * width].reshape(size, width)
        return [x[j * m:(j + 1) * m] for j in range(r)]

    out = np.zeros((model.q, width), dtype=complex)
    for point, order, matrix in model.terms:
        out += matrix @ _orders(model, point, state(point), order, forcing)[order]
    if model.kernel is not None:
        out += sol.sol(model.b)[size * width:].reshape(model.q, width)
        h = model.step(nodes)
        slopes = [model.kernel @ _orders(model, t, state(t), model.top + 1, forcing)[model.top + 1]
                  for t in (model.a, model.b)]
        out += h**2 / 12.0 * (slopes[1] - slopes[0])
    return out


def characteristic_general(model: Model, nodes: int) -> np.ndarray:
    sol, size, width = _integrate(model, forcing=False)
    return _apply_boundary(model, sol, size, width, False, nodes)


def characteristic(model: Model, nodes: int) -> np.ndarray:
    """The reference characteristic matrix on a grid of ``nodes`` points."""
    if model.constant:
        return characteristic_constant(model, nodes)
    return characteristic_general(model, nodes)


def solution(model: Model, nodes: int) -> np.ndarray:
    """Orders 0..r-1 of the solution at the grid nodes, shape (r, nodes, m)."""
    r, m = model.r, model.m
    grid = np.linspace(model.a, model.b, nodes)
    hom, size, width = _integrate(model, forcing=False)
    matrix = _apply_boundary(model, hom, size, width, False, nodes)
    part, _, _ = _integrate(model, forcing=True)
    defect = model.c - _apply_boundary(model, part, size, 1, True, nodes)[:, 0]
    weights = np.linalg.solve(matrix, defect)
    phi = hom.sol(grid)[:size * size].reshape(size, size, nodes)
    y_p = part.sol(grid)[:size].reshape(size, nodes)
    y = y_p + np.einsum("ijn,j->in", phi, weights)
    return y.reshape(r, m, nodes).transpose(0, 2, 1)
