import math

import numpy as np
import pytest

from conftest import UNIT, interpolate_at, random_stack, scalar_stack
from fredholm_bvp import (
    CoefficientSet,
    DerivativeStack,
    Grid,
    Interval,
    LebesgueExponent,
    fundamental_set,
    lp_norm,
    sobolev_norm,
)
from fredholm_bvp.expressions import parse_expression
from fredholm_bvp.functions import ExpressionFunction
from fredholm_bvp.grid import P1, P2, PINF, differentiate_samples, interpolate


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.inf)


def test_grid_construction():
    grid = Grid.uniform(UNIT, 11)
    assert grid.count == 11
    assert grid.step == pytest.approx(0.1)
    with pytest.raises(ValueError):
        Grid(UNIT, np.array([0.0, 0.5, 0.6, 1.0]))
    with pytest.raises(ValueError):
        Grid.uniform(UNIT, 1)


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 2.0)])
@pytest.mark.parametrize("count", [4505, 7113, 10001, 100001, 1000001])
def test_uniform_grid_accepted_at_large_counts(a, b, count):
    # linspace rounding moves nodes by about an ulp of the endpoints; a
    # step check relative to the step itself rejected these counts
    grid = Grid.uniform(Interval(a, b), count)
    assert grid.count == count
    assert grid.nodes[0] == a and grid.nodes[-1] == b


def test_non_uniform_nodes_rejected_on_shifted_interval():
    nodes = np.linspace(1.0, 2.0, 101)
    nodes[50] += 1e-9
    with pytest.raises(ValueError, match="uniform"):
        Grid(Interval(1.0, 2.0), nodes)


def test_exponent_conjugates():
    assert LebesgueExponent(1.0).conjugate == math.inf
    assert LebesgueExponent(math.inf).conjugate == 1.0
    assert LebesgueExponent(2.0).conjugate == 2.0
    assert LebesgueExponent(3.0).conjugate == pytest.approx(1.5)
    assert LebesgueExponent.parse("inf").is_infinite
    with pytest.raises(ValueError):
        LebesgueExponent(0.5)


def test_lp_norm_constant_function():
    grid = Grid.uniform(UNIT, 101)
    ones = np.ones((grid.count, 1), dtype=complex)
    assert lp_norm(ones, P2, grid) == pytest.approx(1.0, abs=1e-12)


def test_lp_norm_sup_of_identity():
    grid = Grid.uniform(UNIT, 101)
    values = grid.nodes[:, None].astype(complex)
    assert lp_norm(values, PINF, grid) == 1.0


def test_lp_norm_linear_integral():
    # oracle: the exact integral of t over [0, 1] is 1/2, and the
    # trapezoid rule is exact on linear integrands
    grid = Grid.uniform(UNIT, 101)
    values = grid.nodes[:, None].astype(complex)
    assert lp_norm(values, P1, grid) == pytest.approx(0.5, abs=1e-14)


def test_lp_norm_length_mismatch():
    grid = Grid.uniform(UNIT, 101)
    with pytest.raises(ValueError):
        lp_norm(np.ones((50, 1)), P1, grid)


def test_public_stack_copies_and_library_stacks_are_read_only():
    grid = Grid.uniform(UNIT, 11)
    samples = np.ones((2, grid.count, 1), dtype=complex)
    stack = DerivativeStack(grid, samples)
    assert samples.flags.writeable
    assert not np.shares_memory(stack.samples, samples)
    samples[:] = 2.0
    assert (stack.samples == 1.0).all()
    assert not stack.samples.flags.writeable
    built = [stack + stack, stack - stack, 2.0 * stack,
             fundamental_set(CoefficientSet(1, 1, 1, (np.array([[0.5]]),)), grid),
             fundamental_set(CoefficientSet(1, 1, 1, (ExpressionFunction(
                 np.array([[parse_expression("t")]], dtype=object)),)), grid, np.array([1.0]))]
    for other in built:
        assert not other.samples.flags.writeable
        with pytest.raises(ValueError):
            other.samples[0, 0, 0] = 0.0


def test_sobolev_norm_zero_stack():
    grid = Grid.uniform(UNIT, 51)
    stack = DerivativeStack(grid, np.zeros((3, grid.count, 2)))
    for p in (P1, P2, PINF):
        assert sobolev_norm(stack, p) == 0.0


def test_sobolev_norm_constant():
    grid = Grid.uniform(UNIT, 101)
    stack = scalar_stack(grid, [lambda ts: np.ones_like(ts), lambda ts: np.zeros_like(ts)])
    assert sobolev_norm(stack, P1) == pytest.approx(1.0, abs=1e-12)


def test_sobolev_norm_exponential():
    # oracle: ||e^t||_1 + ||(e^t)'||_1 on [0,1] = 2(e - 1), analytically
    grid = Grid.uniform(UNIT, 1001)
    stack = scalar_stack(grid, [np.exp, np.exp])
    assert sobolev_norm(stack, P1) == pytest.approx(2 * (math.e - 1), abs=1e-5)


def test_triangle_inequality():
    grid = Grid.uniform(UNIT, 201)
    rng = np.random.default_rng(1)
    for p in (P1, P2, PINF):
        for _ in range(10):
            x = random_stack(grid, rng, 2, 3)
            y = random_stack(grid, rng, 2, 3)
            assert sobolev_norm(x + y, p) <= sobolev_norm(x, p) + sobolev_norm(y, p) + 1e-12


def test_homogeneity():
    grid = Grid.uniform(UNIT, 201)
    rng = np.random.default_rng(2)
    for p in (P1, P2, PINF):
        stack = random_stack(grid, rng, 3, 2)
        c = complex(rng.normal(), rng.normal())
        assert sobolev_norm(c * stack, p) == pytest.approx(
            abs(c) * sobolev_norm(stack, p), rel=1e-12
        )


def test_order_monotonicity():
    grid = Grid.uniform(UNIT, 201)
    rng = np.random.default_rng(3)
    stack = random_stack(grid, rng, 2, 4)
    partials = [
        sum(lp_norm(stack.samples[k], P2, grid) for k in range(K + 1))
        for K in range(stack.max_order + 1)
    ]
    assert all(b >= a for a, b in zip(partials, partials[1:]))


def test_quadrature_second_order_convergence():
    # trapezoid error on an analytic integrand decays like step^2
    exact = math.e - 1.0
    errors = []
    for count in (11, 21, 41, 81):
        grid = Grid.uniform(UNIT, count)
        values = np.exp(grid.nodes)[:, None].astype(complex)
        errors.append(abs(lp_norm(values, P1, grid) - exact))
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    for ratio in ratios:
        assert 3.0 <= ratio <= 5.0


def test_stack_consistency_under_differencing():
    # centered 2nd-order differences of the order-k samples reproduce
    # the order-(k+1) samples with error O(step^2): refining the grid
    # by 2 shrinks the defect by ~4
    defects = []
    for count in (101, 201):
        grid = Grid.uniform(UNIT, count)
        stack = scalar_stack(grid, [np.sin, np.cos, lambda ts: -np.sin(ts)])
        worst = 0.0
        for k in range(2):
            values = stack.samples[k][:, 0]
            centered = (values[2:] - values[:-2]) / (2 * grid.step)
            worst = max(worst, np.abs(centered - stack.samples[k + 1][1:-1, 0]).max())
        defects.append(worst)
    assert defects[1] <= 1e-5
    assert 3.0 <= defects[0] / defects[1] <= 5.0


def test_fourth_order_stencil_accuracy():
    grid = Grid.uniform(UNIT, 201)
    stack = scalar_stack(grid, [np.sin, np.cos])
    fd = differentiate_samples(stack.samples[0], grid.step)
    assert np.abs(fd - stack.samples[1]).max() <= 1e-8


def test_value_at_interpolation():
    grid = Grid.uniform(UNIT, 101)
    stack = scalar_stack(grid, [np.sin])
    assert interpolate(grid, stack.samples[0], 0.5)[0, 0] == pytest.approx(np.sin(0.5), abs=1e-15)
    assert interpolate(grid, stack.samples[0], 0.505)[0, 0] == pytest.approx(np.sin(0.505), abs=1e-9)
    with pytest.raises(ValueError):
        interpolate(grid, stack.samples[0], 1.5)


@pytest.mark.parametrize("count", [4, 5, 101])
def test_interpolate_matches_scalar_reference(count):
    # the vectorised rule against the one-point reference: nodes,
    # midpoints, points within 1e-14 of a node, and both ends
    interval = Interval(-0.5, 2.0)
    grid = Grid.uniform(interval, count)
    rng = np.random.default_rng(count)
    values = rng.normal(size=(count, 2, 3)) + 1j * rng.normal(size=(count, 2, 3))
    near = np.concatenate([grid.nodes[1:-1] - 1e-14, grid.nodes[1:-1] + 1e-14])
    ts = np.concatenate([grid.nodes, grid.midpoints, near, [interval.a, interval.b],
                         rng.uniform(interval.a, interval.b, 50)])
    result = interpolate(grid, values, ts)
    assert result.shape == (ts.size, 2, 3)
    for t, value in zip(ts, result):
        np.testing.assert_array_equal(value, interpolate_at(grid, values, float(t)))
    for outside in (interval.a - 1e-9, interval.b + 1e-9, 7.0):
        with pytest.raises(ValueError, match="outside"):
            interpolate(grid, values, [interval.a, outside])
        with pytest.raises(ValueError, match="outside"):
            interpolate_at(grid, values, outside)
