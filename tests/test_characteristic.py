from pathlib import Path

import numpy as np
import pytest

from conftest import UNIT, combine, interpolate_at, members, random_complex
from fredholm_bvp import (
    BoundaryOperator,
    CoefficientSet,
    ConstantFunction,
    Grid,
    IntegralTerm,
    Interval,
    LebesgueExponent,
    PointTerm,
    ProblemSpec,
    analyze,
    build_characteristic_matrix,
    characteristic_from_blocks,
    cokernel_directions,
    exact_characteristic_matrix,
    fundamental_set,
    kernel_directions,
    residual_stack,
    solvability_report,
)
from fredholm_bvp import ode
from fredholm_bvp.characteristic import _characteristic_from_powers, characteristic_from_fundamental
from fredholm_bvp.grid import point_stencil, vector_magnitude

P2 = LebesgueExponent(2.0)
SAMPLES = Path(__file__).resolve().parent.parent / "docs" / "samples"


def one_point_problem(a, alphas, interval=UNIT):
    m = a.shape[0]
    coeffs = CoefficientSet(1, m, len(alphas) - 1, (a,))
    op = BoundaryOperator(alphas[0].shape[0],
                          tuple(PointTerm(interval.a, k, alpha)
                                for k, alpha in enumerate(alphas)))
    return ProblemSpec(interval, coeffs, op, P2)


def test_canonical_operator_reduces_to_order_zero_matrix():
    # first-order y' = f with a canonical operator: the trajectory is
    # constant, so only the order-0 matrix survives and the integral
    # term contributes nothing
    rng = np.random.default_rng(20)
    m, n = 2, 1
    alpha0 = random_complex(rng, m, m)
    alpha1 = random_complex(rng, m, m)
    kernel = ConstantFunction(random_complex(rng, m, m))
    coeffs = CoefficientSet(1, m, n, (np.zeros((m, m)),))
    op = BoundaryOperator(m, (PointTerm(0.0, 0, alpha0), PointTerm(0.0, 1, alpha1)),
                          IntegralTerm(kernel))
    problem = ProblemSpec(UNIT, coeffs, op, P2)
    matrix = build_characteristic_matrix(problem, Grid.uniform(UNIT, 201))
    np.testing.assert_allclose(matrix.entries, alpha0, atol=1e-12)


def test_one_point_constant_coefficient_matches_power_sum():
    rng = np.random.default_rng(21)
    m = 2
    a = random_complex(rng, m, m)
    a *= 1.2 / np.abs(a).sum()
    alphas = [random_complex(rng, m, m) for _ in range(3)]
    problem = one_point_problem(a, alphas)
    matrix = build_characteristic_matrix(problem, Grid.uniform(UNIT, 1001))
    oracle = exact_characteristic_matrix(problem)
    scale = np.abs(oracle).max()
    assert np.abs(matrix.entries - oracle).max() / scale <= 1e-6


def test_two_point_second_order_matches_block_oracle():
    rng = np.random.default_rng(22)
    m, n = 2, 1
    q = 2 * m
    a = random_complex(rng, m, m)
    a *= 1.2 / np.abs(a).sum()
    alphas = [random_complex(rng, q, m) for _ in range(n + 2)]
    betas = [random_complex(rng, q, m) for _ in range(n + 2)]
    coeffs = CoefficientSet(2, m, n, (np.zeros((m, m)), a))
    terms = tuple(PointTerm(0.0, k, alphas[k]) for k in range(n + 2))
    terms += tuple(PointTerm(1.0, k, betas[k]) for k in range(n + 2))
    problem = ProblemSpec(UNIT, coeffs, BoundaryOperator(q, terms), P2)
    matrix = build_characteristic_matrix(problem, Grid.uniform(UNIT, 1001))
    oracle = exact_characteristic_matrix(problem)
    assert np.abs(matrix.entries - oracle).max() / np.abs(oracle).max() <= 1e-6


def test_report_identity_matrix():
    matrix = characteristic_from_blocks([np.eye(2)])
    coeffs = CoefficientSet(1, 2, 0, (np.zeros((2, 2)),))
    problem = ProblemSpec(UNIT, coeffs,
                          BoundaryOperator(2, (PointTerm(0.0, 0, np.eye(2)),)), P2)
    report = solvability_report(matrix, problem)
    assert (report.index, report.dim_kernel, report.dim_cokernel) == (0, 0, 0)
    assert report.well_posed


def test_report_zero_matrix_takes_largest_values():
    matrix = characteristic_from_blocks([np.zeros((3, 2)), np.zeros((3, 2))])
    coeffs = CoefficientSet(2, 2, 0, (np.zeros((2, 2)), np.zeros((2, 2))))
    problem = ProblemSpec(UNIT, coeffs,
                          BoundaryOperator(3, (PointTerm(0.0, 0, np.zeros((3, 2))),)), P2)
    report = solvability_report(matrix, problem)
    assert report.dim_kernel == 4
    assert report.dim_cokernel == 3
    assert report.index == 4 - 3
    assert not report.well_posed


def test_multipoint_rank_determines_dimensions():
    # order-0 matrices summing to rank 1: dim ker = m - 1, dim coker = q - 1
    rng = np.random.default_rng(23)
    m = 2
    coeffs = CoefficientSet(1, m, 2, (np.zeros((m, m)),))
    sum_target = np.array([[1.0, 0.0], [0.0, 0.0]])
    split = random_complex(rng, m, m)
    terms = (
        PointTerm(0.0, 0, sum_target - split),
        PointTerm(0.6, 0, split),
        PointTerm(0.3, 1, random_complex(rng, m, m)),
        PointTerm(0.9, 2, random_complex(rng, m, m)),
    )
    problem = ProblemSpec(UNIT, coeffs, BoundaryOperator(m, terms), P2)
    matrix = build_characteristic_matrix(problem, Grid.uniform(UNIT, 201))
    report = solvability_report(matrix, problem)
    assert matrix.numerical_rank == 1
    assert report.dim_kernel == m - 1
    assert report.dim_cokernel == m - 1


def test_kernel_directions_identity_empty():
    matrix = characteristic_from_blocks([np.eye(3)])
    assert kernel_directions(matrix) == []


def test_kernel_directions_coordinate_kernel():
    matrix = characteristic_from_blocks([np.diag([1.0, 0.0])])
    directions = kernel_directions(matrix)
    assert len(directions) == 1
    np.testing.assert_allclose(np.abs(directions[0]), [0.0, 1.0], atol=1e-12)


def test_kernel_directions_residual_oracle():
    # rank-deficient matrix assembled from thin factors
    rng = np.random.default_rng(24)
    left = random_complex(rng, 4, 2)
    right = random_complex(rng, 2, 6)
    matrix = characteristic_from_blocks(np.split(left @ right, 3, axis=1))
    directions = kernel_directions(matrix)
    assert len(directions) == 6 - matrix.numerical_rank == 4
    norm = np.linalg.norm(matrix.entries, 2)
    for v in directions:
        assert np.linalg.norm(matrix.entries @ v) <= matrix.rank_tolerance * max(norm, 1.0)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_index_identities_randomized():
    rng = np.random.default_rng(25)
    grid = Grid.uniform(UNIT, 101)
    for _ in range(12):
        r = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4))
        q = r * m + int(rng.integers(-1, 2))
        if q < 1:
            continue
        n = int(rng.integers(0, 2))
        coeffs = CoefficientSet(r, m, n,
                                tuple(random_complex(rng, m, m) * 0.3 for _ in range(r)))
        orders = rng.integers(0, n + r, size=2)
        terms = tuple(
            PointTerm(float(rng.uniform(0, 1)), int(d), random_complex(rng, q, m))
            for d in orders
        )
        problem = ProblemSpec(UNIT, coeffs, BoundaryOperator(q, terms), P2)
        matrix = build_characteristic_matrix(problem, grid)
        report = solvability_report(matrix, problem)
        assert report.index == r * m - q
        assert report.dim_kernel - report.dim_cokernel == report.index


def test_interval_independence_of_one_point_rank():
    # one-point conditions at a with constant coefficients: the rank
    # must not change with the interval length
    rng = np.random.default_rng(26)
    m = 2
    a = random_complex(rng, m, m)
    a *= 1.0 / np.abs(a).sum()
    alphas = [random_complex(rng, m, m), np.zeros((m, m)),
              random_complex(rng, m, m)]
    ranks = []
    matrices = []
    for length in (0.5, 1.0, 2.0):
        interval = Interval(0.0, length)
        problem = one_point_problem(a, alphas, interval)
        matrix = build_characteristic_matrix(problem, Grid.uniform(interval, 501))
        ranks.append(matrix.numerical_rank)
        matrices.append(matrix.entries)
    assert len(set(ranks)) == 1
    np.testing.assert_allclose(matrices[0], matrices[1], atol=1e-9)


def test_kernel_realization():
    # a reported kernel direction reconstructs a near-solution of the
    # homogeneous problem
    rng = np.random.default_rng(27)
    m = 2
    a = random_complex(rng, m, m) * 0.4
    thin = random_complex(rng, m, 1) @ random_complex(rng, 1, m)
    problem = one_point_problem(a, [thin])
    grid = Grid.uniform(UNIT, 501)
    fset = fundamental_set(problem.coefficients, grid)
    matrix = build_characteristic_matrix(problem, grid)
    directions = kernel_directions(matrix)
    assert len(directions) == problem.state_size - matrix.numerical_rank
    assert directions
    for xi in directions:
        y = combine(fset, xi)
        residual = residual_stack(problem.coefficients, y, orders=0)
        assert np.abs(residual.samples[0]).sum(axis=1).max() <= 1e-6
        assert vector_magnitude(problem.boundary.apply(y)) <= 1e-6


def test_rank_fragile_diagnostic():
    fragile = characteristic_from_blocks([np.diag([0.5, 9e-4])], rank_tolerance=1e-3)
    assert any("rank-fragile" in d for d in fragile.diagnostics)
    clean = characteristic_from_blocks([np.diag([0.5, 1e-9])], rank_tolerance=1e-3)
    assert not clean.diagnostics


def test_condition_number():
    matrix = characteristic_from_blocks([np.diag([2.0, 0.5])])
    assert matrix.condition_number == pytest.approx(4.0)
    singular = characteristic_from_blocks([np.diag([1.0, 0.0])])
    assert singular.condition_number == np.inf


def test_one_svd_per_matrix(monkeypatch):
    # analysis, kernel and cokernel all read the one factorisation
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    rng = np.random.default_rng(28)
    m = 2
    problem = one_point_problem(random_complex(rng, m, m) * 0.4,
                                [random_complex(rng, m, 1) @ random_complex(rng, 1, m)])
    _, matrix, report, _ = analyze(problem, Grid.uniform(UNIT, 201))
    assert len(kernel_directions(matrix)) == report.dim_kernel == 1
    assert len(cokernel_directions(matrix)) == report.dim_cokernel == 1
    assert len(calls) == 1


@pytest.mark.parametrize("rows,cols,rank", [(4, 6, 2), (6, 4, 3), (5, 5, 5), (3, 3, 0)])
def test_stored_factors_match_values_only_svd(rows, cols, rank):
    rng = np.random.default_rng(29 + rows + cols + rank)
    entries = random_complex(rng, rows, rank) @ random_complex(rng, rank, cols)
    matrix = characteristic_from_blocks([entries])
    reference = np.linalg.svd(entries, compute_uv=False)
    scale = max(reference[0], 1.0)
    np.testing.assert_allclose(matrix.singular_values, reference, rtol=0, atol=1e-14 * scale)
    assert matrix.numerical_rank == rank
    # the kernel and cokernel bases are orthonormal and annihilated by M and M^H
    kernel = np.array(kernel_directions(matrix)).reshape(-1, cols)
    cokernel = np.array(cokernel_directions(matrix)).reshape(-1, rows)
    assert kernel.shape[0] == cols - rank and cokernel.shape[0] == rows - rank
    np.testing.assert_allclose(kernel.conj() @ kernel.T, np.eye(cols - rank), atol=1e-12)
    np.testing.assert_allclose(cokernel.conj() @ cokernel.T, np.eye(rows - rank), atol=1e-12)
    assert np.abs(entries @ kernel.T).max(initial=0.0) <= 1e-12 * scale
    assert np.abs(cokernel.conj() @ entries).max(initial=0.0) <= 1e-12 * scale


@pytest.mark.parametrize("tolerance", [-1.0, -1e-300, float("nan"), float("inf"), float("-inf")])
def test_rank_tolerance_must_be_finite_and_non_negative(tolerance):
    with pytest.raises(ValueError, match="rank tolerance"):
        characteristic_from_blocks([np.zeros((2, 2))], rank_tolerance=tolerance)


def _column_by_column(problem, fset):
    """The characteristic matrix as assembled before block application:
    per member, per column, one scalar interpolation per point term."""
    grid, op = fset.grid, problem.boundary
    columns = []
    for member in members(fset):
        for j in range(member.dimension):
            column = member.samples[..., j]
            value = np.zeros(op.codomain, dtype=complex)
            for term in op.point_terms:
                value += term.matrix @ interpolate_at(grid, column[term.order], term.point)
            if op.integral_term is not None:
                kernel = op.integral_term.kernel.eval(grid.nodes)
                integrand = np.einsum("nqm,nm->nq", kernel, column[-1])
                value += np.trapezoid(integrand, dx=grid.step, axis=0)
            columns.append(value)
    return np.stack(columns, axis=1)


def _reference_problems():
    from fredholm_bvp.cli import _BUILTINS, _builtin
    from fredholm_bvp.document import document_family, document_problem, load_document

    problems = [(name, _builtin(name)[1]) for name in _BUILTINS]
    for path in sorted(SAMPLES.glob("*.json")):
        doc = load_document(path)
        problems.append((path.stem, document_problem(doc)))
        if doc.family is not None:
            family = document_family(doc)
            problems += [(f"{path.stem}@{eps}", family.at(eps)) for eps in family.epsilons]
    return problems


@pytest.mark.parametrize("count", [101, 997, 1001])
def test_block_application_matches_column_by_column_reference(count):
    # 997 nodes put the samples' interior boundary points off the grid
    problems = _reference_problems()
    assert len(problems) > 8
    for name, problem in problems:
        grid = Grid.uniform(problem.interval, count)
        fset = fundamental_set(problem.coefficients, grid)
        matrix = characteristic_from_fundamental(problem, fset)
        reference = characteristic_from_blocks([_column_by_column(problem, fset)])
        sigma_max = reference.singular_values[0]
        assert np.abs(matrix.entries - reference.entries).max() <= 1e-15 * sigma_max, name
        assert matrix.numerical_rank == reference.numerical_rank, name
        ours, theirs = solvability_report(matrix, problem), solvability_report(reference, problem)
        assert (ours.dim_kernel, ours.dim_cokernel) == (theirs.dim_kernel, theirs.dim_cokernel), name


# ---------------------------------------------------------------------------
# constant coefficients: the matrix read off powers of P, no stack built

# the powers path sums in another order than the stack path: entries agree
# to (N + 100) * POWERS_RTOL of the largest entry, as the README states
POWERS_RTOL = 1e-15


def _random_constant_problem(rng, r, m, n, grid, kernel):
    """Random constant coefficients with q conditions, some of them dependent,
    at points on and off the nodes."""
    coeffs = CoefficientSet(r, m, n, tuple(random_complex(rng, m, m) * (1.5 / m) for _ in range(r)))
    q = int(rng.integers(1, r * m + 3))
    mix = random_complex(rng, q, q)
    mix[:, max(q // 2, 1) :] = 0.0  # the rows span at most max(q // 2, 1) dimensions
    terms = []
    for _ in range(int(rng.integers(1, 5))):
        t = float(grid.nodes[rng.integers(grid.count)]) if rng.random() < 0.5 \
            else float(rng.uniform(grid.interval.a, grid.interval.b))
        terms.append(PointTerm(t, int(rng.integers(n + r)), mix @ random_complex(rng, q, m)))
    integral = IntegralTerm(ConstantFunction(mix @ random_complex(rng, q, m))) if kernel else None
    return ProblemSpec(grid.interval, coeffs, BoundaryOperator(q, tuple(terms), integral), P2)


def _assert_agrees_with_stack(problem, grid):
    matrix = build_characteristic_matrix(problem, grid)
    stack = characteristic_from_fundamental(problem, fundamental_set(problem.coefficients, grid))
    scale = np.abs(stack.entries).max()
    assert np.abs(matrix.entries - stack.entries).max() <= (grid.count + 100) * POWERS_RTOL * scale
    assert matrix.numerical_rank == stack.numerical_rank
    ours, theirs = solvability_report(matrix, problem), solvability_report(stack, problem)
    assert (ours.dim_kernel, ours.dim_cokernel) == (theirs.dim_kernel, theirs.dim_cokernel)
    return matrix


@pytest.mark.parametrize("count,sizes", [
    (4, [(1, 1, 0), (2, 2, 1), (4, 4, 0), (1, 16, 0)]),
    (11, [(1, 3, 2), (3, 2, 1), (2, 8, 0), (4, 4, 1)]),
    (101, [(1, 1, 2), (2, 3, 2), (4, 4, 1), (1, 16, 1)]),
    (997, [(2, 1, 1), (1, 4, 2), (2, 4, 1), (4, 4, 0)]),
    (20001, [(1, 1, 1), (1, 2, 0), (2, 2, 1), (3, 1, 0)]),
])
def test_powers_agree_with_the_stack_path(count, sizes):
    rng = np.random.default_rng(60 + count)
    grid = Grid.uniform(Interval(-0.3, 0.9), count)
    kernels = 0
    for r, m, n in sizes:
        for kernel in (False, True):
            problem = _random_constant_problem(rng, r, m, n, grid, kernel)
            _assert_agrees_with_stack(problem, grid)
            kernels += kernel
    assert kernels == len(sizes)


@pytest.mark.parametrize("count", [1001, 20001])
def test_powers_agree_with_the_stack_path_on_the_damped_sample(count):
    from fredholm_bvp.document import document_problem, load_document

    problem = document_problem(load_document(SAMPLES / "two-point-damped.json"))
    assert problem.coefficients.constant
    _assert_agrees_with_stack(problem, Grid.uniform(problem.interval, count))


@pytest.mark.parametrize("count", [4, 5, 1001])
@pytest.mark.parametrize("case", ["integral-only", "last-stencil", "repeated-and-ends",
                                  "q-below-rm", "q-above-rm"])
def test_powers_agree_with_the_stack_path_on_edge_terms(case, count):
    rng = np.random.default_rng(63 + count)
    r, m, n = 2, 2, 1
    interval = Interval(-0.3, 0.9)
    a, b = interval.a, interval.b
    grid = Grid.uniform(interval, count)
    coeffs = CoefficientSet(r, m, n, tuple(random_complex(rng, m, m) * 0.75 for _ in range(r)))
    q = {"q-below-rm": 2, "q-above-rm": 7}.get(case, r * m)
    last = float(grid.nodes[-2])
    points = {
        "integral-only": [],
        # every point inside the last stencil, none at a node
        "last-stencil": [last + f * (b - last) for f in (0.1, 0.5, 0.9)],
        "repeated-and-ends": [a, b, a, 0.3, b, 0.3],
        "q-below-rm": [a, 0.3, b],
        "q-above-rm": [a, 0.3, b, 0.61],
    }[case]
    if case == "last-stencil":
        assert not point_stencil(grid, points)[1].any()
    terms = tuple(PointTerm(t, k % (n + r), random_complex(rng, q, m))
                  for k, t in enumerate(points))
    integral = (IntegralTerm(ConstantFunction(random_complex(rng, q, m)))
                if case in ("integral-only", "q-above-rm") else None)
    problem = ProblemSpec(interval, coeffs, BoundaryOperator(q, terms, integral), P2)
    assert _characteristic_from_powers(problem, grid) is not None
    _assert_agrees_with_stack(problem, grid)


def test_powers_growth_bound_reached_at_the_top_square():
    # y' = 5e5 y with step 0.01: log2 ||P|| is about 44.6, so the squares
    # P .. P^8 of 16 nodes sum to about 669 bits and are trusted, while the
    # top square P^16 of 17 nodes takes the sum past 1000; the states, up to
    # P^16, stay finite, and the stack path gives the matrix
    coeffs = CoefficientSet(1, 1, 0, (np.array([[-5e5]]),))
    for count, trusted in ((16, True), (17, False)):
        interval = Interval(0.0, 0.01 * (count - 1))
        grid = Grid.uniform(interval, count)
        assert (ode.propagator_squares(coeffs, grid) is not None) == trusted
        terms = (PointTerm(interval.a, 0, np.array([[1.0], [0.5]])),
                 PointTerm(interval.b, 0, np.array([[0.0], [1.0]])))
        problem = ProblemSpec(interval, coeffs, BoundaryOperator(2, terms), P2)
        if trusted:
            _assert_agrees_with_stack(problem, grid)
        else:
            matrix = build_characteristic_matrix(problem, grid)
            stack = characteristic_from_fundamental(problem,
                                                    fundamental_set(problem.coefficients, grid))
            np.testing.assert_array_equal(matrix.entries, stack.entries)
            assert np.isfinite(matrix.entries).all()


def test_powers_blow_up_like_the_stack_path():
    # y' = 1e8 y on 101 nodes: the squares' growth bound passes 2^1000, so the
    # stack path runs and names the nodes where the states overflow
    coeffs = CoefficientSet(1, 1, 0, (np.array([[-1e8]]),))
    problem = ProblemSpec(UNIT, coeffs, BoundaryOperator(1, (PointTerm(0.0, 0, np.eye(1)),)), P2)
    grid = Grid.uniform(UNIT, 101)
    message = r"integration blew up between nodes 13 and 14 \(t = 0\.13\)"
    with pytest.raises(FloatingPointError, match=message):
        fundamental_set(coeffs, grid)
    with pytest.raises(FloatingPointError, match=message):
        build_characteristic_matrix(problem, grid)


def test_powers_need_four_nodes_off_the_grid():
    rng = np.random.default_rng(61)
    coeffs = CoefficientSet(1, 2, 0, (random_complex(rng, 2, 2),))
    grid = Grid.uniform(UNIT, 3)
    problem = ProblemSpec(UNIT, coeffs, BoundaryOperator(2, (PointTerm(0.3, 0, np.eye(2)),)), P2)
    message = "off-node interpolation needs at least four nodes"
    with pytest.raises(ValueError, match=message):
        characteristic_from_fundamental(problem, fundamental_set(coeffs, grid))
    with pytest.raises(ValueError, match=message):
        build_characteristic_matrix(problem, grid)


def test_powers_on_a_two_node_grid():
    rng = np.random.default_rng(62)
    coeffs = CoefficientSet(2, 1, 1, tuple(random_complex(rng, 1, 1) for _ in range(2)))
    terms = (PointTerm(0.0, 0, random_complex(rng, 2, 1)),
             PointTerm(1.0, 2, random_complex(rng, 2, 1)))
    boundary = BoundaryOperator(2, terms, IntegralTerm(ConstantFunction(random_complex(rng, 2, 1))))
    problem = ProblemSpec(UNIT, coeffs, boundary, P2)
    _assert_agrees_with_stack(problem, Grid.uniform(UNIT, 2))
