import numpy as np
import pytest

from conftest import UNIT, members, random_complex, random_stack, scalar_stack
from fredholm_bvp import (
    BoundaryOperator,
    CoefficientSet,
    DerivativeStack,
    Grid,
    IntegralTerm,
    LebesgueExponent,
    PointTerm,
    ProblemSpec,
    analyze,
    fundamental_set,
    point_evaluation,
)
from fredholm_bvp.grid import interpolate, vector_magnitude


def constant_stack(grid, vector, max_order=1):
    samples = np.zeros((max_order + 1, grid.count, len(vector)), dtype=complex)
    samples[0] = np.asarray(vector)
    return DerivativeStack(grid, samples)


def test_identity_evaluation():
    grid = Grid.uniform(UNIT, 101)
    v = np.array([1.0 + 2.0j, -0.5])
    stack = constant_stack(grid, v)
    op = point_evaluation(0.0, np.eye(2))
    np.testing.assert_array_equal(op.apply(stack), v)


def test_integral_term_fundamental_theorem():
    # kernel I acting on y' with y(t) = t recovers y(1) - y(0) = 1
    grid = Grid.uniform(UNIT, 101)
    stack = scalar_stack(grid, [lambda ts: ts, lambda ts: np.ones_like(ts)])
    op = BoundaryOperator(1, (), IntegralTerm(np.eye(1)))
    assert op.apply(stack)[0] == pytest.approx(1.0, abs=1e-12)


def test_two_point_exponential():
    # oracle: direct evaluation, e^0 + e^1
    grid = Grid.uniform(UNIT, 1001)
    stack = scalar_stack(grid, [np.exp, np.exp])
    op = BoundaryOperator(1, (
        PointTerm(0.0, 0, np.eye(1)),
        PointTerm(1.0, 0, np.eye(1)),
    ))
    assert op.apply(stack)[0] == pytest.approx(1.0 + np.e, abs=1e-8)


def test_from_arrays_copies_writeable_arrays_and_keeps_read_only_ones():
    points, orders = np.array([0.0, 1.0]), np.array([0, 1])
    matrices = np.stack([np.eye(2, dtype=complex), 2 * np.eye(2, dtype=complex)])
    op = BoundaryOperator.from_arrays(2, points, orders, matrices)
    # the caller's arrays stay writeable, and writing to them leaves the operator as it was
    assert all(a.flags.writeable for a in (points, orders, matrices))
    matrices[0] = 0.0
    np.testing.assert_array_equal(op.matrices[0], np.eye(2))
    assert not op.matrices.flags.writeable
    # read-only arrays are handed over, as documents hand over theirs
    for a in (points, orders, matrices):
        a.flags.writeable = False
    op = BoundaryOperator.from_arrays(2, points, orders, matrices)
    assert op.points is points and op.orders is orders and op.matrices is matrices
    assert [term.point for term in op.point_terms] == [0.0, 1.0]


def test_boundary_operator_is_immutable():
    op = point_evaluation(0.0, np.eye(2))
    for name in ("codomain", "points", "matrices", "integral_term"):
        with pytest.raises(AttributeError):
            setattr(op, name, None)
    with pytest.raises(AttributeError):
        del op.codomain


def test_off_node_point_uses_interpolation():
    grid = Grid.uniform(UNIT, 101)
    stack = scalar_stack(grid, [np.sin, np.cos])
    op = point_evaluation(0.505, np.eye(1))
    assert op.apply(stack)[0] == pytest.approx(np.sin(0.505), abs=1e-9)


def test_apply_to_matrix_on_identity_trajectory():
    grid = Grid.uniform(UNIT, 101)
    coeffs = CoefficientSet(1, 2, 1, (np.zeros((2, 2)),))
    member = members(fundamental_set(coeffs, grid))[0]
    op = point_evaluation(0.0, np.eye(2))
    np.testing.assert_array_equal(op.apply(member), np.eye(2))


def test_multipoint_higher_orders_drop_out_on_identity():
    # constant trajectory: only order-0 matrices survive, any points
    grid = Grid.uniform(UNIT, 101)
    rng = np.random.default_rng(9)
    coeffs = CoefficientSet(1, 2, 2, (np.zeros((2, 2)),))
    member = members(fundamental_set(coeffs, grid))[0]
    order0 = [random_complex(rng, 2, 2) for _ in range(3)]
    junk = [random_complex(rng, 2, 2) for _ in range(3)]
    terms = [PointTerm(p, 0, mat) for p, mat in zip((0.0, 0.4, 1.0), order0)]
    terms += [PointTerm(p, d, mat) for p, d, mat in zip((0.2, 0.7, 0.9), (1, 2, 1), junk)]
    op = BoundaryOperator(2, tuple(terms))
    np.testing.assert_allclose(op.apply(member), sum(order0), atol=1e-12)


def test_first_derivative_at_left_endpoint():
    # oracle: d/dt exp(-A(t-a)) at a equals -A
    grid = Grid.uniform(UNIT, 501)
    rng = np.random.default_rng(10)
    a = random_complex(rng, 2, 2) * 0.4
    coeffs = CoefficientSet(1, 2, 1, (a,))
    member = members(fundamental_set(coeffs, grid))[0]
    op = point_evaluation(0.0, np.eye(2), order=1)
    np.testing.assert_allclose(op.apply(member), -a, atol=1e-7)


def test_top_order_point_term_rejected():
    grid = Grid.uniform(UNIT, 101)
    stack = scalar_stack(grid, [np.sin, np.cos])
    op = point_evaluation(0.5, np.eye(1), order=1)
    with pytest.raises(ValueError, match="not continuous"):
        op.apply(stack)


def test_fractional_order_rejected_with_caputo_message():
    with pytest.raises(ValueError, match="Caputo"):
        PointTerm(0.5, 0.5, np.eye(2))


def test_dimension_mismatch_rejected():
    grid = Grid.uniform(UNIT, 101)
    stack = constant_stack(grid, np.array([1.0, 2.0, 3.0]))
    op = point_evaluation(0.0, np.eye(2))
    with pytest.raises(ValueError):
        op.apply(stack)


def _problem(op, r=1, m=2, n=1):
    coeffs = CoefficientSet(r, m, n, tuple(np.zeros((m, m)) for _ in range(r)))
    return ProblemSpec(UNIT, coeffs, op, LebesgueExponent(2.0))


def test_validate_well_formed():
    op = BoundaryOperator(2, (PointTerm(0.0, 0, np.eye(2)),))
    assert analyze(_problem(op), Grid.uniform(UNIT, 101)).report.diagnostics == ()


def test_validate_underdetermined():
    op = BoundaryOperator(1, (PointTerm(0.0, 0, np.ones((1, 2))),))
    diagnostics = analyze(_problem(op), Grid.uniform(UNIT, 101)).report.diagnostics
    assert "underdetermined: 1 scalar conditions for 2 degrees of freedom" in diagnostics


def test_validate_overdetermined():
    op = BoundaryOperator(3, (PointTerm(0.0, 0, np.ones((3, 2))),))
    diagnostics = analyze(_problem(op), Grid.uniform(UNIT, 101)).report.diagnostics
    assert diagnostics[-1] == "overdetermined: 3 scalar conditions for 2 degrees of freedom"


def test_validate_out_of_range_point_and_order():
    with pytest.raises(ValueError, match=r"point term 1: point 1\.5 outside \[0\.0, 1\.0\]"):
        _problem(BoundaryOperator(2, (PointTerm(0.0, 0, np.eye(2)), PointTerm(1.5, 0, np.eye(2)))))
    # r + n = 2: orders 0 and 1 are continuous, order 2 is not
    with pytest.raises(ValueError, match=r"point term 0: order 2 out of range 0\.\.1"):
        _problem(BoundaryOperator(2, (PointTerm(0.5, 2, np.eye(2)),)))


def test_problem_rejects_integral_kernel_of_wrong_width():
    op = BoundaryOperator(2, (PointTerm(0.0, 0, np.eye(2)),), IntegralTerm(np.ones((2, 3))))
    with pytest.raises(ValueError, match="integral kernel column count does not match the system size"):
        _problem(op)


def test_linearity():
    grid = Grid.uniform(UNIT, 201)
    rng = np.random.default_rng(11)
    op = BoundaryOperator(2, (
        PointTerm(0.0, 0, random_complex(rng, 2, 2)),
        PointTerm(0.63, 1, random_complex(rng, 2, 2)),
        PointTerm(1.0, 0, random_complex(rng, 2, 2)),
    ), IntegralTerm(random_complex(rng, 2, 2)))
    for _ in range(5):
        x = random_stack(grid, rng, 2, 2)
        y = random_stack(grid, rng, 2, 2)
        alpha = complex(rng.normal(), rng.normal())
        beta = complex(rng.normal(), rng.normal())
        combined = op.apply(alpha * x + beta * y)
        separate = alpha * op.apply(x) + beta * op.apply(y)
        scale = max(vector_magnitude(combined), 1.0)
        assert vector_magnitude(combined - separate) / scale <= 1e-12


def test_apply_to_matrix_agrees_with_columns_exactly():
    grid = Grid.uniform(UNIT, 201)
    rng = np.random.default_rng(12)
    a = random_complex(rng, 2, 2) * 0.3
    coeffs = CoefficientSet(1, 2, 1, (a,))
    member = members(fundamental_set(coeffs, grid))[0]
    op = BoundaryOperator(2, (
        PointTerm(0.0, 0, random_complex(rng, 2, 2)),
        PointTerm(0.77, 1, random_complex(rng, 2, 2)),
    ), IntegralTerm(random_complex(rng, 2, 2)))
    result = op.apply(member)
    for j in range(2):
        np.testing.assert_array_equal(result[:, j], op.apply(DerivativeStack(grid, member.samples[..., j])))


@pytest.mark.parametrize("q", [1, 2, 3])
def test_apply_on_vector_block_and_probe_stacks_matches_columns_exactly(q):
    # off-node points, repeated orders and an integral term; every column
    # of a block result is the one-column apply, bit for bit
    from fredholm_bvp.limits import default_probes

    grid = Grid.uniform(UNIT, 97)
    rng = np.random.default_rng(30 + q)
    op = BoundaryOperator(q, (
        PointTerm(0.0, 0, random_complex(rng, q, 2)),
        PointTerm(0.3141, 1, random_complex(rng, q, 2)),
        PointTerm(1.0, 1, random_complex(rng, q, 2)),
        PointTerm(0.5, 0, random_complex(rng, q, 2)),
        PointTerm(0.3141, 0, random_complex(rng, q, 2)),
    ), IntegralTerm(random_complex(rng, q, 2)))
    vector = random_stack(grid, rng, 2, 2)
    assert op.apply(vector).shape == (q,)
    blocks = [
        DerivativeStack(grid, random_complex(rng, 3, grid.count, 2, 5)),
        DerivativeStack(grid, random_complex(rng, 3, grid.count, 2, 2, 3)),
        default_probes(grid, 2, 2),
    ]
    for block in blocks:
        result = op.apply(block)
        assert result.shape == (q, *block.samples.shape[3:])
        for index in np.ndindex(*block.samples.shape[3:]):
            column = DerivativeStack(grid, block.samples[(Ellipsis, *index)])
            np.testing.assert_array_equal(result[(slice(None), *index)], op.apply(column))


def test_apply_interpolates_each_order_once(monkeypatch):
    from fredholm_bvp import boundary

    calls = []

    def counting(grid, values, ts):
        calls.append(len(ts))
        return interpolate(grid, values, ts)

    monkeypatch.setattr(boundary, "interpolate", counting)
    grid = Grid.uniform(UNIT, 101)
    rng = np.random.default_rng(33)
    orders = (0, 1, 0, 0, 1)
    op = BoundaryOperator(2, tuple(PointTerm(0.2 * k + 0.01, d, random_complex(rng, 2, 2))
                                   for k, d in enumerate(orders)))
    op.apply(DerivativeStack(grid, random_complex(rng, 3, grid.count, 2, 4)))
    assert sorted(calls) == [2, 3]


# ---------------------------------------------------------------------------
# apply against a per-term reference


def _apply_per_term(op, stack):
    """B applied term by term: each order interpolated once, each product
    added to a zero result in term order, then the trapezoid integral."""
    points = {}
    for term in op.point_terms:
        points.setdefault(term.order, []).append(term.point)
    values = {order: iter(interpolate(stack.grid, stack.samples[order], ts))
              for order, ts in points.items()}
    result = np.zeros((op.codomain, *stack.samples.shape[3:]), dtype=complex)
    for term in op.point_terms:
        result += np.einsum("qm,m...->q...", term.matrix, next(values[term.order]))
    if op.integral_term is not None:
        kernel = op.integral_term.kernel.eval(stack.grid.nodes)
        integrand = np.einsum("nqm,nm...->nq...", kernel, stack.samples[stack.max_order])
        trapezoids = stack.grid.step * (integrand[1:] + integrand[:-1]) / 2.0
        result += np.cumsum(trapezoids, axis=0)[-1]
    return result


def assert_same_bits(actual, expected):
    np.testing.assert_array_equal(actual, expected)
    for part in (np.real, np.imag):
        np.testing.assert_array_equal(np.signbit(part(actual)), np.signbit(part(expected)))


@pytest.mark.parametrize("seed", range(12))
def test_apply_matches_the_per_term_sum_bit_for_bit(seed):
    # up to 100 terms of mixed orders at repeated points, on and off the
    # nodes, some with an integral term; vector, block and probe stacks
    from fredholm_bvp.limits import default_probes

    rng = np.random.default_rng(60 + seed)
    grid = Grid.uniform(UNIT, 41)
    m, top = 2, 3
    q = int(rng.integers(1, 4))
    pool = np.concatenate([grid.nodes[[0, 7, 20, 40]], rng.uniform(0.0, 1.0, 4)])
    count = int(rng.integers(1, 101))
    terms = tuple(PointTerm(float(rng.choice(pool)), int(rng.integers(0, top)),
                            random_complex(rng, q, m)) for _ in range(count))
    integral = IntegralTerm(random_complex(rng, q, m)) if seed % 3 == 0 else None
    op = BoundaryOperator(q, terms, integral)
    stacks = [
        random_stack(grid, rng, m, top),
        DerivativeStack(grid, random_complex(rng, top + 1, grid.count, m, 5)),
        DerivativeStack(grid, random_complex(rng, top + 1, grid.count, m, 2, 3)),
        default_probes(grid, m, top),
    ]
    for stack in stacks:
        assert_same_bits(op.apply(stack), _apply_per_term(op, stack))


def test_apply_adds_a_negative_zero_product_to_zero():
    # the one product is -1 * (+0.0), which IEEE arithmetic makes -0.0;
    # added to a zero result it reads +0.0, as the per-term sum does
    grid = Grid.uniform(UNIT, 11)
    stack = constant_stack(grid, np.zeros(1))
    op = point_evaluation(0.5, -np.eye(1))
    assert np.signbit(op.point_terms[0].matrix.real * stack.samples[0, 5].real).all()
    result = op.apply(stack)
    assert_same_bits(result, _apply_per_term(op, stack))
    assert not np.signbit(result.real).any()


def test_apply_with_an_integral_term_alone_or_no_term():
    grid = Grid.uniform(UNIT, 31)
    rng = np.random.default_rng(70)
    stack = DerivativeStack(grid, random_complex(rng, 2, grid.count, 2, 3))
    for op in (BoundaryOperator(2, (), IntegralTerm(random_complex(rng, 2, 2))),
               BoundaryOperator(2)):
        result = op.apply(stack)
        assert result.shape == (2, 3)
        assert_same_bits(result, _apply_per_term(op, stack))
    assert_same_bits(BoundaryOperator(2).apply(stack), np.zeros((2, 3), dtype=complex))
