import warnings

import numpy as np
import pytest

from conftest import UNIT, interpolate_at, matrix_polynomial
from fredholm_bvp import ConstantFunction, ExpressionFunction, Grid, Interval, TabulatedFunction
from fredholm_bvp.expressions import parse_expression
from fredholm_bvp.functions import as_array_function


def test_constant_function_orders():
    fn = ConstantFunction(np.array([[1.0, 2.0], [3.0, 4.0]]))
    ts = np.linspace(0, 1, 5)
    np.testing.assert_array_equal(fn.eval(ts)[2], [[1, 2], [3, 4]])
    assert np.all(fn.eval(ts, order=1) == 0)


def test_polynomial_function_derivatives():
    # C0 + C1 t + C2 t^2 with distinct matrices per power
    c0 = np.array([[1.0, 0.0], [0.0, 1.0]])
    c1 = np.array([[0.0, 2.0], [0.0, 0.0]])
    c2 = np.array([[0.0, 0.0], [3.0, 0.0]])
    fn = matrix_polynomial([c0, c1, c2])
    ts = np.array([0.0, 0.5, 2.0])
    for i, t in enumerate(ts):
        np.testing.assert_allclose(fn.eval(ts)[i], c0 + c1 * t + c2 * t * t, atol=1e-14)
        np.testing.assert_allclose(fn.eval(ts, order=1)[i], c1 + 2 * c2 * t, atol=1e-14)
        np.testing.assert_allclose(fn.eval(ts, order=2)[i], 2 * c2, atol=1e-14)
        np.testing.assert_allclose(fn.eval(ts, order=3)[i], 0 * c2, atol=1e-14)


def test_expression_function_with_eps():
    entries = np.array([[parse_expression("eps * t"), parse_expression("sin(t)")]],
                       dtype=object)
    fn = ExpressionFunction(entries, eps=0.5)
    ts = np.linspace(0, 1, 4)
    np.testing.assert_allclose(fn.eval(ts)[:, 0, 0], 0.5 * ts, atol=1e-15)
    np.testing.assert_allclose(fn.eval(ts, order=1)[:, 0, 0], 0.5 * np.ones_like(ts), atol=1e-15)
    np.testing.assert_allclose(fn.eval(ts, order=1)[:, 0, 1], np.cos(ts), atol=1e-15)


def test_tabulated_function_differentiates_top_order():
    grid = Grid.uniform(UNIT, 1001)
    samples = np.sin(grid.nodes)[None, :, None, None]
    fn = TabulatedFunction(grid, samples)
    ts = np.linspace(0.1, 0.9, 7)
    np.testing.assert_allclose(fn.eval(ts, order=1)[:, 0, 0], np.cos(ts), atol=1e-9)
    np.testing.assert_allclose(fn.eval(ts)[:, 0, 0], np.sin(ts), atol=1e-10)


def test_tabulated_function_uses_supplied_orders():
    grid = Grid.uniform(UNIT, 51)
    samples = np.stack([
        np.sin(grid.nodes)[:, None, None],
        np.cos(grid.nodes)[:, None, None],
    ])
    fn = TabulatedFunction(grid, samples)
    np.testing.assert_allclose(fn.eval(np.array([0.5]), order=1)[0, 0, 0],
                               np.cos(0.5), atol=1e-12)


def test_as_array_function_shape_check():
    fn = as_array_function(np.eye(2), (2, 2))
    assert fn.shape == (2, 2)
    with pytest.raises(ValueError):
        as_array_function(np.eye(3), (2, 2))


@pytest.mark.parametrize("a,b,count", [(0.0, 1.0, 41), (1.0, 2.0, 401), (-3.0, 7.5, 6)])
def test_table_eval_matches_pointwise_interpolation(a, b, count):
    grid = Grid.uniform(Interval(a, b), count)
    rng = np.random.default_rng(count)
    samples = rng.normal(size=(2, count, 2, 3)) + 1j * rng.normal(size=(2, count, 2, 3))
    table = TabulatedFunction(grid, samples)
    ts = np.concatenate([grid.nodes, grid.midpoints, rng.uniform(a, b, 200),
                         [a, b, a + 1e-13, b - 1e-13, grid.nodes[1] + 1e-14]])
    for order in (0, 1, 2):
        values = table.eval(ts, order=order)
        for t, value in zip(ts, values):
            expected = interpolate_at(grid, table._order_samples(order), float(t))
            assert np.abs(value - expected).max() <= 1e-15 * np.abs(expected).max()
    np.testing.assert_array_equal(table.eval(grid.nodes), samples[0])
    with pytest.raises(ValueError, match="outside"):
        table.eval(np.array([a, b + 0.1]))


def test_table_with_three_nodes_only_evaluates_at_nodes():
    grid = Grid.uniform(UNIT, 3)
    table = TabulatedFunction(grid, np.arange(3.0).reshape(1, 3, 1))
    np.testing.assert_array_equal(table.eval(grid.nodes)[:, 0], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="four nodes"):
        table.eval(np.array([0.25]))


@pytest.mark.parametrize("source, first_bad_t", [("1/(eps*t - 0.25)", 0.5), ("(1e200)^2", 0.0)])
def test_expression_function_reports_values_that_are_not_finite(source, first_bad_t):
    # a division by zero in t, and a power of a t-free subtree that overflows
    fn = ExpressionFunction(np.array([[parse_expression("1"), parse_expression(source)]],
                                     dtype=object), eps=0.5)
    message = rf"entry \[0\]\[1\] \(derivative order 0\) is not finite at eps=0.5, t={first_bad_t}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            fn.eval(np.linspace(0, 1, 5))
