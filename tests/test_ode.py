import re
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import UNIT, combine, matrix_polynomial, members, particular, random_complex
from fredholm_bvp import (
    CoefficientSet,
    ConstantFunction,
    Grid,
    Interval,
    TabulatedFunction,
    fundamental_set,
    matrix_exp,
    residual_stack,
)
from fredholm_bvp import ode
from fredholm_bvp.cli import main
from fredholm_bvp.expressions import parse_expression
from fredholm_bvp.functions import ArrayFunction, ExpressionFunction
from fredholm_bvp.ode import integration_residual

SAMPLES = Path(__file__).resolve().parent.parent / "docs" / "samples"


def test_zero_coefficient_gives_constant_identity():
    grid = Grid.uniform(UNIT, 101)
    coeffs = CoefficientSet(1, 2, 2, (np.zeros((2, 2)),))
    fset = fundamental_set(coeffs, grid)
    member = members(fset)[0]
    np.testing.assert_array_equal(member.samples[0], np.broadcast_to(np.eye(2), (101, 2, 2)))
    assert np.all(member.samples[1:] == 0)


def test_constant_coefficient_matches_matrix_exponential():
    # oracle: the fundamental trajectory of y' + A y = 0 is exp(-A(t-a)),
    # with order-k derivative (-A)^k exp(-A(t-a))
    grid = Grid.uniform(UNIT, 1001)
    rng = np.random.default_rng(5)
    a = random_complex(rng, 2, 2)
    a *= 1.5 / np.abs(a).sum()
    coeffs = CoefficientSet(1, 2, 2, (a,))
    fset = fundamental_set(coeffs, grid)
    member = members(fset)[0]
    for idx in (0, 250, 500, 1000):
        t = grid.nodes[idx]
        expected = matrix_exp(-a, t).value
        np.testing.assert_allclose(member.samples[0, idx], expected, atol=1e-10)
        np.testing.assert_allclose(member.samples[1, idx], -a @ expected, atol=1e-10)
        np.testing.assert_allclose(member.samples[2, idx], a @ a @ expected, atol=1e-9)
    assert integration_residual(fset, 1) < 1e-9


def test_second_order_zero_coefficients():
    grid = Grid.uniform(UNIT, 101)
    coeffs = CoefficientSet(2, 2, 0, (np.zeros((2, 2)), np.zeros((2, 2))))
    fset = fundamental_set(coeffs, grid)
    np.testing.assert_allclose(members(fset)[0].samples[0],
                               np.broadcast_to(np.eye(2), (101, 2, 2)), atol=1e-14)
    ramp = grid.nodes[:, None, None] * np.eye(2)
    np.testing.assert_allclose(members(fset)[1].samples[0], ramp, atol=1e-13)
    np.testing.assert_allclose(members(fset)[1].samples[1],
                               np.broadcast_to(np.eye(2), (101, 2, 2)), atol=1e-13)


def test_initial_condition_block_identity_is_exact():
    grid = Grid.uniform(UNIT, 101)
    rng = np.random.default_rng(6)
    m, r = 2, 2
    coeffs = CoefficientSet(r, m, 1, tuple(random_complex(rng, m, m) * 0.2 for _ in range(r)))
    fset = fundamental_set(coeffs, grid)
    for i, member in enumerate(members(fset)):
        for j in range(r):
            expected = np.eye(m) if i == j else np.zeros((m, m))
            np.testing.assert_array_equal(member.samples[j, 0], expected)


def test_fourth_order_convergence_against_oracle():
    rng = np.random.default_rng(7)
    a = random_complex(rng, 2, 2)
    a *= 2.0 / np.abs(a).sum()
    oracle = matrix_exp(-a, 1.0).value
    errors = []
    for count in (33, 65, 129):
        grid = Grid.uniform(UNIT, count)
        coeffs = CoefficientSet(1, 2, 0, (a,))
        fset = fundamental_set(coeffs, grid)
        errors.append(np.abs(members(fset)[0].samples[0, -1] - oracle).max())
    for coarse, fine in zip(errors, errors[1:]):
        assert 12.0 <= coarse / fine <= 20.0


def test_variable_coefficient_representations_agree():
    # expanded-polynomial, expression and tabulated versions of A(t) = [[t, 1],[0, t^2]]
    grid = Grid.uniform(UNIT, 401)
    c0 = np.array([[0.0, 1.0], [0.0, 0.0]])
    c1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    c2 = np.array([[0.0, 0.0], [0.0, 1.0]])
    poly = matrix_polynomial([c0, c1, c2])
    entries = np.array(
        [[parse_expression("t"), parse_expression("1")],
         [parse_expression("0"), parse_expression("t^2")]], dtype=object)
    expr = ExpressionFunction(entries)
    table = TabulatedFunction(grid, np.stack([poly.eval(grid.nodes, order=k)
                                              for k in range(2)]))
    results = []
    for fn in (poly, expr, table):
        coeffs = CoefficientSet(1, 2, 1, (fn,))
        results.append(members(fundamental_set(coeffs, grid))[0].samples)
    np.testing.assert_allclose(results[1], results[0], atol=1e-12)
    np.testing.assert_allclose(results[2], results[0], atol=1e-8)


def test_particular_solution_zero_rhs():
    grid = Grid.uniform(UNIT, 101)
    coeffs = CoefficientSet(1, 2, 1, (np.eye(2) * 0.5,))
    y = particular(coeffs, np.zeros(2), grid)
    assert np.abs(y.samples).max() == 0.0


def test_particular_solution_constant_forcing():
    grid = Grid.uniform(UNIT, 101)
    v = np.array([1.0, -2.0])
    coeffs = CoefficientSet(1, 2, 0, (np.zeros((2, 2)),))
    y = particular(coeffs, v, grid)
    np.testing.assert_allclose(y.samples[0], grid.nodes[:, None] * v, atol=1e-13)


def test_particular_solution_scalar_oracle():
    # oracle: y' + y = 1 with y(0) = 0 has the solution 1 - exp(-t)
    grid = Grid.uniform(UNIT, 1001)
    coeffs = CoefficientSet(1, 1, 1, (np.array([[1.0]]),))
    y = particular(coeffs, np.array([1.0]), grid)
    exact = 1.0 - np.exp(-grid.nodes)
    assert np.abs(y.samples[0, :, 0] - exact).max() <= 1e-8


def test_superposition_solves_equation():
    grid = Grid.uniform(UNIT, 501)
    rng = np.random.default_rng(8)
    m, r = 2, 2
    coeffs = CoefficientSet(r, m, 1, tuple(random_complex(rng, m, m) * 0.3 for _ in range(r)))
    f = ConstantFunction(np.array([1.0, 0.5]))
    fset = fundamental_set(coeffs, grid)
    y_p = particular(coeffs, f, grid)
    xi = random_complex(rng, r * m)
    y = y_p + combine(fset, xi)
    residual = residual_stack(coeffs, y, f, orders=0)
    assert np.abs(residual.samples[0]).sum(axis=1).max() <= 1e-8


def test_a_function_tabulates_once_per_grid_object():
    # the samples of one grid object are served again, read-only; a second
    # grid with equal nodes, or the first one asked again after it, evaluates
    calls = []

    class Counted(ExpressionFunction):
        def eval(self, ts, order=0):
            calls.append((len(ts), order))
            return super().eval(ts, order)

    fn = Counted(np.array([parse_expression("sin(t)")], dtype=object))
    grid, twin = Grid.uniform(UNIT, 201), Grid.uniform(UNIT, 201)
    first = fn.tabulate(grid)
    assert fn.tabulate(grid) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 0.0
    fn.tabulate(grid, 1)
    fn.tabulate(grid, midpoints=True)
    fn.tabulate(grid, 1)
    assert calls == [(201, 0), (201, 1), (200, 0)]
    np.testing.assert_array_equal(fn.tabulate(twin), first)
    assert calls[3:] == [(201, 0)]
    assert fn.tabulate(grid) is not first
    assert calls[4:] == [(201, 0)]


@pytest.mark.parametrize("constant", [True, False], ids=["constant", "varying"])
def test_one_coefficient_set_with_two_forcings_matches_fresh_problems(constant):
    # the kept samples belong to each function: the coefficients analysed
    # with sin(t) and then exp(t) give the bits of problems built afresh
    from fredholm_bvp import ProblemSpec, RightHandSide, analyze, point_evaluation, superpose
    from fredholm_bvp.grid import P2

    def coefficients():
        a = (np.array([[0.5]]) if constant
             else ExpressionFunction(np.array([[parse_expression("t")]], dtype=object)))
        return CoefficientSet(1, 1, 1, (a,))

    def solved(coeffs, expression, grid):
        f = ExpressionFunction(np.array([parse_expression(expression)], dtype=object))
        problem = ProblemSpec(UNIT, coeffs, point_evaluation(0.0, np.eye(1)), P2,
                              RightHandSide(f, np.array([1.0])))
        analysis = analyze(problem, grid)
        y, _ = superpose(problem, analysis)
        return analysis, residual_stack(coeffs, y, f)

    shared, grid = coefficients(), Grid.uniform(UNIT, 201)
    for expression in ("sin(t)", "exp(t)"):
        analysis, residual = solved(shared, expression, grid)
        fresh, fresh_residual = solved(coefficients(), expression, Grid.uniform(UNIT, 201))
        np.testing.assert_array_equal(analysis.fundamental.samples, fresh.fundamental.samples)
        np.testing.assert_array_equal(analysis.boundary_particular, fresh.boundary_particular)
        np.testing.assert_array_equal(residual.samples, fresh_residual.samples)
        assert np.abs(residual.samples[0]).max() <= 1e-6


def test_a_constant_forcing_array_is_one_function():
    # a raw array f becomes one ConstantFunction, whose samples are reused
    from fredholm_bvp import RightHandSide

    rhs = RightHandSide(np.array([1.0, 2.0]), [1.0, 0.0])
    assert isinstance(rhs.f, ConstantFunction)
    assert rhs.f.shape == (2,)
    grid = Grid.uniform(UNIT, 11)
    assert rhs.f.tabulate(grid) is rhs.f.tabulate(grid)
    np.testing.assert_array_equal(rhs.f.tabulate(grid), np.tile([1.0, 2.0], (11, 1)))
    assert RightHandSide(rhs.f, rhs.c).f is rhs.f


def test_residual_stack_requires_enough_orders():
    grid = Grid.uniform(UNIT, 101)
    coeffs = CoefficientSet(1, 1, 2, (np.zeros((1, 1)),))
    y = particular(coeffs, np.array([1.0]), grid)
    with pytest.raises(ValueError):
        residual_stack(coeffs, y, orders=5)


def test_blow_up_raises_diagnostic():
    # y' = 1e8 y with h = 0.01: one RK4 step multiplies by about
    # (h * 1e8)^4 / 24 = 4.2e22, so the state is 1e294 at node 13 and
    # overflows at node 14, far from any rounding ambiguity.  Doubling and
    # the blocked scan, whose chunks of 10 steps put node 14 inside the
    # second, name the same nodes.
    grid = Grid.uniform(UNIT, 101)
    message = r"integration blew up between nodes 13 and 14 \(t = 0\.13\)"
    for wrap in (ConstantFunction, SteppedConstant):
        coeffs = CoefficientSet(1, 1, 0, (wrap(np.array([[-1e8]])),))
        for f in (None, np.array([1.0])):
            with pytest.raises(FloatingPointError, match=message):
                fundamental_set(coeffs, grid, f)


# ---------------------------------------------------------------------------
# agreement with a plain per-step RK4 on the companion system


def reference_rk4(coeffs, grid, initial, f=None):
    """Classical RK4, one step at a time; states (nodes, r*m, width)."""
    m, r = coeffs.m, coeffs.r
    a_nodes = [fn.eval(grid.nodes) for fn in coeffs.by_order]
    a_mid = [fn.eval(grid.midpoints) for fn in coeffs.by_order]
    zero = np.zeros((grid.count, m))
    f_nodes, f_mid = (zero, zero[1:]) if f is None else (f.eval(grid.nodes), f.eval(grid.midpoints))

    def rhs(a, forcing, x):
        top = forcing[:, None] - sum(a[d] @ x[d * m : (d + 1) * m] for d in range(r))
        return np.concatenate([x[m:], top])

    h, x = grid.step, np.asarray(initial, dtype=complex)
    states = [x]
    for i in range(grid.count - 1):
        an, am, an1 = [a[i] for a in a_nodes], [a[i] for a in a_mid], [a[i + 1] for a in a_nodes]
        k1 = rhs(an, f_nodes[i], x)
        k2 = rhs(am, f_mid[i], x + 0.5 * h * k1)
        k3 = rhs(am, f_mid[i], x + 0.5 * h * k2)
        k4 = rhs(an1, f_nodes[i + 1], x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(x)
    return np.stack(states)


def _coefficient(kind, rng, m, table_grid):
    base = random_complex(rng, m, m) * (0.6 / m)
    if kind == "constant":
        return base
    wiggle = random_complex(rng, m, m) * (0.4 / m)
    if kind == "expression":
        entries = np.empty((m, m), dtype=object)
        for i, j in np.ndindex(m, m):
            c0, c1, c2 = float(base[i, j].real), float(wiggle[i, j].real), float(wiggle[i, j].imag)
            entries[i, j] = parse_expression(f"{c0!r} + ({c1!r})*sin(3*t) + ({c2!r})*t^2")
        return ExpressionFunction(entries)
    ts = table_grid.nodes[:, None, None]
    return TabulatedFunction(table_grid, (base + wiggle * np.cos(2 * ts))[None])


def assert_relative(actual, expected, rtol):
    assert np.abs(actual - expected).max() <= rtol * np.abs(expected).max()


@pytest.mark.parametrize("kind", ["constant", "expression", "table"])
@pytest.mark.parametrize("r,m", [(1, 1), (2, 2), (1, 4), (4, 4), (2, 8)])
def test_kernel_agrees_with_per_step_rk4(kind, r, m):
    interval = Interval(0.5, 1.7)
    grid = Grid.uniform(interval, 121)
    rng = np.random.default_rng(10 * r + m)
    table_grid = Grid.uniform(interval, 41)
    coeffs = CoefficientSet(r, m, 1, tuple(_coefficient(kind, rng, m, table_grid) for _ in range(r)))
    size = r * m

    expected = reference_rk4(coeffs, grid, np.eye(size))
    fset = fundamental_set(coeffs, grid)
    for i, member in enumerate(members(fset)):
        for j in range(r):
            assert_relative(member.samples[j], expected[:, j * m : (j + 1) * m, i * m : (i + 1) * m],
                            1e-12)

    # the forced stack [Y | y_p]: the same Y columns, and y_p from zero initial data
    f = ExpressionFunction(np.array([parse_expression(f"cos({k + 1}*t) + {k}") for k in range(m)],
                                    dtype=object))
    forced = fundamental_set(coeffs, grid, f).samples
    assert forced.shape == (r + 2, grid.count, m, size + 1)
    expected_p = reference_rk4(coeffs, grid, np.zeros((size, 1)), f)
    for j in range(r):
        assert_relative(forced[j, ..., :size], expected[:, j * m : (j + 1) * m], 1e-12)
        assert_relative(forced[j, ..., size], expected_p[:, j * m : (j + 1) * m, 0], 1e-12)


@pytest.mark.parametrize("r,m", [(1, 1), (2, 2), (1, 4), (4, 4)])
def test_node_count_sweep_to_1e5(r, m):
    # oracle: with constant coefficients the companion state is
    # exp(C (t - a)), here at every node from the eigendecomposition of C;
    # refining the grid 100-fold must not lose accuracy to rounding, on an
    # interval that does not start at 0.  r*m = 16 stops at 10001 nodes,
    # which keeps its states near 40 MB.
    interval = Interval(1.0, 2.0)
    rng = np.random.default_rng(20 + r * m)
    blocks = [random_complex(rng, m, m) * (0.5 / m) for _ in range(r)]
    companion = np.zeros((r * m, r * m), dtype=complex)
    companion[: (r - 1) * m, m:] = np.eye((r - 1) * m)
    companion[(r - 1) * m :] = -np.concatenate(blocks, axis=1)
    values, vectors = np.linalg.eig(companion)
    inverse = np.linalg.inv(vectors)

    def oracle(s):
        return (vectors * np.exp(np.multiply.outer(s, values))[:, None, :]) @ inverse

    np.testing.assert_allclose(oracle(np.array([interval.length]))[0],
                               matrix_exp(companion, interval.length).value, atol=1e-12)
    coeffs = CoefficientSet(r, m, 0, tuple(blocks))
    for count in (1001, 10001) if r * m == 16 else (1001, 10001, 100001):
        grid = Grid.uniform(interval, count)
        states = ode._integrate(coeffs, grid)
        assert states.shape == (count, r * m, r * m)
        for lo in range(0, count, 5000):
            expected = oracle(grid.nodes[lo : lo + 5000] - interval.a)
            assert np.abs(states[lo : lo + 5000] - expected).max() <= 1e-10


# Constant coefficients propagate by doubling and a forcing by an affine
# scan, not step by step, so they agree with per-step RK4 to a tolerance
# that grows with the node count N like the loop's own rounding:
# N * DOUBLING_RTOL of the largest state entry (measured at most 3.1e-16 N
# at N = 4001, and 1.5e-16 N at N = 1e5, r*m = 16).
DOUBLING_RTOL = 1e-15


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
@pytest.mark.parametrize("r,m", [(1, 1), (2, 2), (4, 4)])
def test_doubling_agrees_with_per_step_rk4(r, m, forced):
    interval = Interval(0.5, 1.7)
    grid = Grid.uniform(interval, 4001)
    rng = np.random.default_rng(30 + 10 * r + m)
    coeffs = CoefficientSet(r, m, 0, tuple(random_complex(rng, m, m) * (0.6 / m) for _ in range(r)))
    size, rtol = r * m, DOUBLING_RTOL * grid.count
    f = None
    if forced:
        f = ExpressionFunction(np.array([parse_expression(f"cos({k + 1}*t) + {k}") for k in range(m)],
                                        dtype=object))
    samples = fundamental_set(coeffs, grid, f).samples
    expected = reference_rk4(coeffs, grid, np.eye(size))
    for j in range(r):
        assert_relative(samples[j, ..., :size], expected[:, j * m : (j + 1) * m], rtol)
    if forced:
        expected_p = reference_rk4(coeffs, grid, np.zeros((size, 1)), f)
        for j in range(r):
            assert_relative(samples[j, ..., size], expected_p[:, j * m : (j + 1) * m, 0], rtol)


class SteppedConstant(ArrayFunction):
    """A constant matrix that is not a ``ConstantFunction``: the blocked scan integrates it."""

    def __init__(self, values):
        self.constant = ConstantFunction(values)
        self.shape = self.constant.shape

    def eval(self, ts, order=0):
        return self.constant.eval(ts, order)


def per_step_states(coeffs, grid, f=None):
    """x_{i+1} = P_i x_i one step at a time, P_i the program's own propagators."""
    width = coeffs.r * coeffs.m + (f is not None)

    def companions(ts):
        a_values = [fn.eval(ts) for fn in coeffs.by_order]
        f_values = None if f is None else f.eval(ts)
        return ode._companion(coeffs, ode._top_rows(a_values, len(ts), f_values))

    c_nodes = companions(grid.nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        props = ode._propagators(c_nodes[:-1], companions(grid.midpoints), c_nodes[1:], grid.step)
        states = [np.eye(width, dtype=complex)]
        for p in props:
            states.append(p @ states[-1])
    return np.stack(states)


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
@pytest.mark.parametrize("r,m", [(1, 1), (1, 2), (2, 2), (1, 4), (2, 4)])
def test_blow_up_interval_matches_per_step_loop(r, m, forced):
    # doubling and the blocked scan reach node j through other products than
    # the per-step loop, yet the first node where the states stop being
    # finite, and so the message, is the same.  Up to 20001 nodes the
    # overflow lands deep inside a chunk of up to 141 steps.  reference_rk4
    # is no judge here: its stages overflow up to a few nodes before its
    # states do.
    rng = np.random.default_rng(40 + 10 * r + m + 5 * forced)
    blew_up = 0
    for _ in range(6):
        scale, count = 10.0 ** rng.uniform(3, 9), int(rng.integers(11, 20002))
        blocks = [random_complex(rng, m, m) * scale for _ in range(r)]
        f = ConstantFunction(random_complex(rng, m)) if forced else None
        grid = Grid.uniform(UNIT, count)
        stepped = CoefficientSet(r, m, 0, tuple(SteppedConstant(block) for block in blocks))
        finite = np.isfinite(per_step_states(stepped, grid, f)).all(axis=(1, 2))
        expected = None if finite.all() else int(np.argmin(finite)) - 1
        for wrap in (ConstantFunction, SteppedConstant):
            coeffs = CoefficientSet(r, m, 0, tuple(wrap(block) for block in blocks))
            try:
                fundamental_set(coeffs, grid, f)
                node = None
            except FloatingPointError as err:
                node = int(re.search(r"between nodes (\d+) and", str(err)).group(1))
            assert node == expected
        blew_up += expected is not None
    assert blew_up >= 4


class PiecewiseConstant(ArrayFunction):
    """A 1 x 1 coefficient taking ``values[i]`` between ``breaks[i-1]`` and ``breaks[i]``."""

    shape = (1, 1)

    def __init__(self, breaks, values):
        self.breaks, self.values = breaks, np.asarray(values, dtype=complex)

    def eval(self, ts, order=0):
        out = np.zeros((len(ts), 1, 1), dtype=complex)
        if order == 0:
            out[:, 0, 0] = self.values[np.searchsorted(self.breaks, ts, side="right")]
        return out


def test_a_chunk_prefix_overflows_where_per_step_states_stay_finite():
    # y' = -a y with h = 1e-4 and chunks of 100 steps: h a = 1.6 over steps
    # 0..399 shrinks the state to 6e-228, h a = -20 over steps 400..499 (one
    # chunk) grows it by 1e391 to 2e163, and a = 0 holds it there.  Per-step
    # states stay finite, but the chunk's prefix product overflows on its
    # own at node 480, and the integration reports a blow-up there.
    grid = Grid.uniform(UNIT, 10001)
    h = grid.step
    coeffs = CoefficientSet(1, 1, 0, (PiecewiseConstant([0.04 + h / 4, 0.05 + h / 4],
                                                         [1.6 / h, -20.0 / h, 0.0]),))
    states = per_step_states(coeffs, grid)
    assert np.isfinite(states).all() and 1e163 < np.abs(states).max() < 1e164
    assert abs(states[400, 0, 0]) < 1e-227
    with pytest.raises(FloatingPointError, match=r"between nodes 479 and 480 \(t = 0\.0479\)"):
        fundamental_set(coeffs, grid)


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
@pytest.mark.parametrize("kind", ["expression", "table", "stepped"])
@pytest.mark.parametrize("count", [2, 3, 4, 5, 17, 18, 122, 4001])
def test_blocked_scan_agrees_with_per_step_rk4(count, kind, forced):
    # N - 1 steps in chunks of isqrt(N - 1): one step, a prime number of
    # steps, a square, and counts ragged against the chunk length.  The
    # products are grouped otherwise than step by step, so the states agree
    # with per-step RK4 to N * DOUBLING_RTOL of the largest entry.
    r, m = 2, 2
    interval = Interval(0.5, 1.7)
    grid = Grid.uniform(interval, count)
    rng = np.random.default_rng(count)
    table_grid = Grid.uniform(interval, 41)
    blocks = [_coefficient("constant" if kind == "stepped" else kind, rng, m, table_grid)
              for _ in range(r)]
    coeffs = CoefficientSet(r, m, 0, tuple(SteppedConstant(b) if kind == "stepped" else b
                                           for b in blocks))
    f = None
    if forced:
        f = ExpressionFunction(np.array([parse_expression(f"cos({k + 1}*t) + {k}") for k in range(m)],
                                        dtype=object))
    states = ode._integrate(coeffs, grid, f)
    rtol, size = DOUBLING_RTOL * count, r * m
    assert states.shape == (count, size + forced, size + forced)
    assert_relative(states[:, :size, :size], reference_rk4(coeffs, grid, np.eye(size)), rtol)
    if forced:
        assert_relative(states[:, :size, size:], reference_rk4(coeffs, grid, np.zeros((size, 1)), f),
                        rtol)
        # the forced row stays the constant 1 of [x; 1]
        np.testing.assert_array_equal(states[:, size], np.tile(np.eye(size + 1)[size], (count, 1)))


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
def test_blocked_scan_through_growth_and_decay(forced):
    # y' = 60 (1 - 2t) y grows by e^15 up to t = 1/2 and decays back to 1
    grid = Grid.uniform(UNIT, 4001)
    a = ExpressionFunction(np.array([[parse_expression("60*(2*t - 1)")]], dtype=object))
    coeffs = CoefficientSet(1, 1, 0, (a,))
    f = ExpressionFunction(np.array([parse_expression("cos(t)")], dtype=object)) if forced else None
    states = ode._integrate(coeffs, grid, f)
    expected = reference_rk4(coeffs, grid, np.eye(1))
    assert 3e6 < np.abs(expected).max() and abs(expected[-1, 0, 0] - 1.0) < 1e-6
    assert_relative(states[:, :1, :1], expected, DOUBLING_RTOL * grid.count)
    if forced:
        assert_relative(states[:, :1, 1:], reference_rk4(coeffs, grid, np.zeros((1, 1)), f),
                        DOUBLING_RTOL * grid.count)


# ---------------------------------------------------------------------------
# constant coefficients: orders r..n+r as rows of C^s applied to the states


def _recurrence_samples(coeffs, grid, f):
    """The Leibniz recurrence ``_extend_orders`` on the states that ``fundamental_set`` reads."""
    w = coeffs.r * coeffs.m
    states = ode._integrate(coeffs, grid, f)
    low = states[:, :w].reshape(grid.count, coeffs.r, coeffs.m, -1).transpose(1, 0, 2, 3)
    f_tables = None if f is None else [f.eval(grid.nodes, order=s) for s in range(coeffs.n + 1)]
    tables = ode.coefficient_samples(coeffs, grid)
    return ode._extend_orders(coeffs, tables, low, f_tables)


@settings(max_examples=60, deadline=None)
@given(r=st.integers(1, 3), m=st.integers(1, 4), n=st.integers(0, 2),
       count=st.integers(5, 600), forced=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_companion_orders_match_the_recurrence(r, m, n, count, forced, seed):
    # the same orders in another arithmetic order: within N * 1e-15 of the
    # largest entry, as the README states
    rng = np.random.default_rng(seed)
    coeffs = CoefficientSet(r, m, n, tuple(random_complex(rng, m, m) * (1.5 / m) for _ in range(r)))
    grid = Grid.uniform(Interval(-0.3, 0.9), count)
    f = None
    if forced:  # every derivative of f is nonzero and enters y_p's orders
        c = rng.uniform(-1.0, 1.0, (m, 3)).tolist()
        f = ExpressionFunction(np.array([
            parse_expression(f"{c[k][0]!r} + ({c[k][1]!r})*sin({k + 2}*t) + ({c[k][2]!r})*exp(t)")
            for k in range(m)], dtype=object))
    samples = fundamental_set(coeffs, grid, f).samples
    expected = _recurrence_samples(coeffs, grid, f)
    assert samples.shape == expected.shape == (n + r + 1, count, m, r * m + forced)
    np.testing.assert_array_equal(samples[:r], expected[:r])
    assert_relative(samples, expected, DOUBLING_RTOL * count)


def test_constant_coefficients_build_no_tables(monkeypatch, tmp_path):
    # the constant branch reads C once: no N-tiled coefficient tables and
    # no recurrence, forced or not, also through the command line
    calls = []

    def record(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(ode, name, wrapper)

    for name in ("_extend_orders", "coefficient_samples"):
        record(name, getattr(ode, name))
    rng = np.random.default_rng(50)
    coeffs = CoefficientSet(2, 2, 2, (random_complex(rng, 2, 2), random_complex(rng, 2, 2)))
    grid = Grid.uniform(UNIT, 101)
    fundamental_set(coeffs, grid)
    fundamental_set(coeffs, grid, ExpressionFunction(np.array(
        [parse_expression("sin(t)"), parse_expression("t^3")], dtype=object)))
    assert main(["analyze", str(SAMPLES / "two-point-damped.json"), "--nodes", "201",
                 "--out", str(tmp_path / "report.txt")]) == 0
    assert calls == []
    # a constant mixed with an expression keeps the recurrence
    entries = np.array([[parse_expression("0.1*t"), parse_expression("0")],
                        [parse_expression("0"), parse_expression("cos(t)")]], dtype=object)
    fundamental_set(CoefficientSet(2, 2, 2, (coeffs.by_order[0], ExpressionFunction(entries))), grid)
    assert calls == ["coefficient_samples", "_extend_orders"]
