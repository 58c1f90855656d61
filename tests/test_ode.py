import numpy as np
import pytest

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
from fredholm_bvp.expressions import parse_expression
from fredholm_bvp.functions import ExpressionFunction
from fredholm_bvp.ode import integration_residual


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


def test_residual_stack_requires_enough_orders():
    grid = Grid.uniform(UNIT, 101)
    coeffs = CoefficientSet(1, 1, 2, (np.zeros((1, 1)),))
    y = particular(coeffs, np.array([1.0]), grid)
    with pytest.raises(ValueError):
        residual_stack(coeffs, y, orders=5)


def test_blow_up_raises_diagnostic():
    # y' = 1e8 y with h = 0.01: one RK4 step multiplies by about
    # (h * 1e8)^4 / 24 = 4.2e22, so the state is 1e294 at node 13 and
    # overflows at node 14, far from any rounding ambiguity
    grid = Grid.uniform(UNIT, 101)
    coeffs = CoefficientSet(1, 1, 0, (np.array([[-1e8]]),))
    message = r"integration blew up between nodes 13 and 14 \(t = 0\.13\)"
    with pytest.raises(FloatingPointError, match=message):
        fundamental_set(coeffs, grid)
    with pytest.raises(FloatingPointError, match=message):
        fundamental_set(coeffs, grid, np.array([1.0]))


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


@pytest.mark.parametrize("r,m", [(1, 1), (2, 2), (1, 4)])
def test_node_count_sweep_to_1e5(r, m):
    # oracle: with constant coefficients the companion state is
    # exp(C (t - a)) x(a); refining the grid 100-fold must not lose
    # accuracy to rounding, on an interval that does not start at 0
    interval = Interval(1.0, 2.0)
    rng = np.random.default_rng(20 + r * m)
    blocks = [random_complex(rng, m, m) * (0.5 / m) for _ in range(r)]
    companion = np.zeros((r * m, r * m), dtype=complex)
    companion[: (r - 1) * m, m:] = np.eye((r - 1) * m)
    companion[(r - 1) * m :] = -np.concatenate(blocks, axis=1)
    oracle = matrix_exp(companion, interval.length).value
    coeffs = CoefficientSet(r, m, 0, tuple(blocks))
    for count in (1001, 10001, 100001):
        grid = Grid.uniform(interval, count)
        fset = fundamental_set(coeffs, grid)
        assert members(fset)[0].samples.shape[1] == count
        final = np.concatenate([member.samples[0, -1] for member in members(fset)], axis=1)
        assert np.abs(final - oracle[:m]).max() <= 1e-10
