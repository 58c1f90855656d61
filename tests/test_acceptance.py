"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; tolerances are fixed here and nowhere else.
"""

import time
from contextlib import contextmanager

import numpy as np

from conftest import (BETA1, BETA2, UNIT, combine, endpoint_blocks, family_semicontinuity, members,
                      random_complex, split_series, tagged_family)
from fredholm_bvp import (
    BoundaryOperator,
    CoefficientSet,
    ConstantFunction,
    Grid,
    Interval,
    PointTerm,
    ProblemFamily,
    ProblemSpec,
    RightHandSide,
    build_characteristic_matrix,
    check_multipoint_assumptions,
    convergence_experiment,
    exact_characteristic_matrix,
    fundamental_set,
    kernel_directions,
    matrix_exp,
    point_evaluation,
    residual_stack,
    solvability_report,
    solve,
)
from fredholm_bvp.grid import P2, vector_magnitude


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def relative_deviation(numerical, oracle):
    return np.abs(numerical - oracle).max() / np.abs(oracle).max()


def test_ac01_one_point_oracle_match():
    with criterion("AC-1 one-point constant-coefficient oracle match, < 5 s"):
        rng = np.random.default_rng(101)
        grid = Grid.uniform(UNIT, 2001)
        started = time.perf_counter()
        for m in (2, 3):
            a = random_complex(rng, m, m)
            a *= 1.8 / np.abs(a).sum()  # entrywise-sum norm <= 2
            alphas = [random_complex(rng, m, m) for _ in range(3)]
            coeffs = CoefficientSet(1, m, 2, (a,))
            boundary = BoundaryOperator(
                m, tuple(PointTerm(0.0, k, alphas[k]) for k in range(3)))
            problem = ProblemSpec(UNIT, coeffs, boundary, P2)
            matrix = build_characteristic_matrix(problem, grid)
            oracle = exact_characteristic_matrix(problem)
            assert relative_deviation(matrix.entries, oracle) <= 1e-6
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0


def test_ac02_multipoint_independence():
    with criterion("AC-2 multipoint matrix ignores points and higher orders"):
        rng = np.random.default_rng(102)
        m = 2
        grid = Grid.uniform(UNIT, 501)
        alphas0 = [random_complex(rng, m, m) for _ in range(3)]
        oracle = sum(alphas0[1:], start=alphas0[0].copy())
        results = []
        for points, orders in (((0.0, 0.4, 1.0), (1, 2, 2)),
                               ((0.1, 0.5, 0.9), (2, 1, 1))):
            coeffs = CoefficientSet(1, m, 2, (np.zeros((m, m)),))
            terms = [PointTerm(p, 0, mat) for p, mat in zip(points, alphas0)]
            terms += [PointTerm(p, d, random_complex(rng, m, m))
                      for p, d in zip(points, orders)]
            problem = ProblemSpec(UNIT, coeffs, BoundaryOperator(m, tuple(terms)), P2)
            matrix = build_characteristic_matrix(problem, grid)
            assert np.abs(matrix.entries - oracle).max() <= 1e-10
            results.append(matrix.entries)
        assert np.abs(results[0] - results[1]).max() <= 1e-10


def test_ac03_two_point_oracles_and_length_dependence():
    with criterion("AC-3 second-order block oracles and interval dependence"):
        rng = np.random.default_rng(103)
        m, n = 2, 1
        q = 2 * m
        a = random_complex(rng, m, m)
        a *= 1.5 / np.abs(a).sum()
        alphas = [random_complex(rng, q, m) for _ in range(n + 2)]
        betas = [random_complex(rng, q, m) for _ in range(n + 2)]
        zeros = [np.zeros((q, m)) for _ in range(n + 2)]
        damped_matrices = {}
        oscillatory_matrices = {}
        one_point_matrices = {}
        for length in (1.0, 2.0):
            interval = Interval(0.0, length)
            grid = Grid.uniform(interval, 2001)
            terms = tuple(PointTerm(0.0, k, alphas[k]) for k in range(n + 2))
            terms += tuple(PointTerm(length, k, betas[k]) for k in range(n + 2))
            boundary = BoundaryOperator(q, terms)

            damped = ProblemSpec(interval,
                                 CoefficientSet(2, m, n, (np.zeros((m, m)), a)),
                                 boundary, P2)
            numerical = build_characteristic_matrix(damped, grid)
            oracle = exact_characteristic_matrix(damped)
            assert relative_deviation(numerical.entries, oracle) <= 1e-6
            damped_matrices[length] = numerical.entries

            oscillatory = ProblemSpec(interval,
                                      CoefficientSet(2, m, n, (a, np.zeros((m, m)))),
                                      boundary, P2)
            numerical = build_characteristic_matrix(oscillatory, grid)
            oracle = exact_characteristic_matrix(oscillatory)
            assert relative_deviation(numerical.entries, oracle) <= 1e-6
            oscillatory_matrices[length] = numerical.entries

            one_point = BoundaryOperator(
                q, tuple(PointTerm(0.0, k, alphas[k]) for k in range(n + 2)))
            problem = ProblemSpec(interval,
                                  CoefficientSet(2, m, n, (np.zeros((m, m)), a)),
                                  one_point, P2)
            one_point_matrices[length] = build_characteristic_matrix(problem, grid).entries

        # the oscillatory matrix must feel the interval length ...
        scale = np.abs(oscillatory_matrices[1.0]).max()
        assert np.abs(oscillatory_matrices[1.0] - oscillatory_matrices[2.0]).max() \
            > 1e-3 * scale
        # ... while the one-point variant must not
        assert relative_deviation(one_point_matrices[1.0], one_point_matrices[2.0]) <= 1e-6


def test_ac04_fredholm_identities():
    with criterion("AC-4 index and rank-nullity identities on 50+ random problems"):
        rng = np.random.default_rng(104)
        grid = Grid.uniform(UNIT, 201)
        checked = 0
        while checked < 50:
            r = int(rng.integers(1, 3))
            m = int(rng.integers(1, 4))
            q = r * m + int(rng.integers(-1, 2))
            if q < 1:
                continue
            n = int(rng.integers(0, 2))
            coeffs = CoefficientSet(
                r, m, n, tuple(random_complex(rng, m, m) * 0.3 for _ in range(r)))
            term_count = int(rng.integers(1, 4))
            terms = tuple(
                PointTerm(float(rng.uniform(0, 1)), int(rng.integers(0, n + r)),
                          random_complex(rng, q, m))
                for _ in range(term_count)
            )
            problem = ProblemSpec(UNIT, coeffs, BoundaryOperator(q, terms), P2)
            matrix = build_characteristic_matrix(problem, grid)
            report = solvability_report(matrix, problem)
            assert report.index == r * m - q
            assert report.dim_kernel - report.dim_cokernel == report.index
            checked += 1
        assert checked >= 50


def test_ac05_kernel_realization():
    with criterion("AC-5 kernel directions reconstruct homogeneous solutions"):
        rng = np.random.default_rng(105)
        grid = Grid.uniform(UNIT, 501)
        cases = 0
        for r, m in ((1, 2), (1, 3), (2, 2)):
            q = r * m
            coeffs = CoefficientSet(
                r, m, 1, tuple(random_complex(rng, m, m) * 0.3 for _ in range(r)))
            # rank-deficient boundary matrices from thin factors
            rank = q - 1
            thin = random_complex(rng, q, rank) @ random_complex(rng, rank, m)
            terms = (PointTerm(0.0, 0, thin),)
            if r > 1:
                terms += (PointTerm(1.0, 1, random_complex(rng, 1, q).T @ random_complex(rng, 1, m)),)
            problem = ProblemSpec(UNIT, coeffs, BoundaryOperator(q, terms), P2)
            fset = fundamental_set(problem.coefficients, grid)
            matrix = build_characteristic_matrix(problem, grid)
            directions = kernel_directions(matrix)
            assert len(directions) == problem.state_size - matrix.numerical_rank
            assert directions, "test problem should be rank deficient"
            for xi in directions:
                y = combine(fset, xi)
                residual = residual_stack(problem.coefficients, y, orders=0)
                assert np.abs(residual.samples[0]).sum(axis=1).max() <= 1e-6
                assert vector_magnitude(problem.boundary.apply(y)) <= 1e-6
                cases += 1
        assert cases >= 3


def test_ac06_solver_oracles():
    with criterion("AC-6 solver matches the analytic solutions"):
        grid = Grid.uniform(UNIT, 1001)
        coeffs = CoefficientSet(1, 1, 1, (np.array([[1.0]]),))
        rhs = RightHandSide(ConstantFunction(np.array([1.0])), np.array([0.0]))
        problem = ProblemSpec(UNIT, coeffs, point_evaluation(0.0, np.eye(1)), P2, rhs)
        y = solve(problem, grid)
        exact = 1.0 - np.exp(-grid.nodes)
        assert np.abs(y.samples[0, :, 0] - exact).max() <= 1e-8

        coeffs = CoefficientSet(2, 1, 0, (np.zeros((1, 1)), np.zeros((1, 1))))
        boundary = BoundaryOperator(2, (
            PointTerm(0.0, 0, np.array([[1.0], [0.0]])),
            PointTerm(1.0, 0, np.array([[0.0], [1.0]])),
        ))
        rhs = RightHandSide(ConstantFunction(np.zeros(1)), np.array([0.0, 1.0]))
        problem = ProblemSpec(UNIT, coeffs, boundary, P2, rhs)
        y = solve(problem, grid)
        assert np.abs(y.samples[0, :, 0] - grid.nodes).max() <= 1e-10


def test_ac07_solution_error_scales_with_perturbation():
    with criterion("AC-7 solution error scales like eps; ratio bracket bounded"):
        a0 = np.array([[0.3, 0.1], [0.0, 0.2]], dtype=complex)
        e = np.array([[0.5, -0.2], [0.1, 0.4]], dtype=complex)
        rhs = RightHandSide(ConstantFunction(np.array([1.0, 0.5])),
                            np.array([1.0, -1.0]))

        def make(eps):
            coeffs = CoefficientSet(1, 2, 1, (a0 + eps * e,))
            return ProblemSpec(UNIT, coeffs, point_evaluation(0.0, np.eye(2)), P2, rhs)

        family = ProblemFamily(make(0.0), make, epsilons=(1e-1, 1e-2, 1e-3, 1e-4))
        report = convergence_experiment(family, Grid.uniform(UNIT, 501))
        errors = np.array([row.solution_error for row in report.rows])
        slope = np.polyfit(np.log(family.epsilons), np.log(errors), 1)[0]
        assert abs(slope - 1.0) <= 0.15
        low, high = report.ratio_bracket
        assert high / low < 1e3


def _splitting_family(extra_series=None):
    series = {1: split_series(0.3, BETA1), 2: split_series(0.8, BETA2), **(extra_series or {})}
    return tagged_family(series, (1e-2, 1e-4, 1e-7))


def test_ac08_multipoint_splitting():
    with criterion("AC-8 splitting family converges; zero series breaks it"):
        family = _splitting_family()
        grid = Grid.uniform(UNIT, 501)
        assumptions = check_multipoint_assumptions(family)
        for name in ("alpha", "beta", "gamma", "delta", "gamma_p", "gamma_prime"):
            assert assumptions.tables[name].passed, name
        assert assumptions.passed
        report = convergence_experiment(family, grid)
        assert report.multipoint == assumptions
        assert report.error_trend_passed

        fixed = np.diag([0.5, 0.5])  # entrywise-sum norm 1, eps-independent
        bad_family = _splitting_family(extra_series={
            0: lambda eps: [(0.55, 0, fixed if eps else 0 * fixed)]})
        bad_assumptions = check_multipoint_assumptions(bad_family)
        assert not bad_assumptions.tables["delta"].passed
        bad_report = convergence_experiment(bad_family, grid)
        assert not bad_report.error_trend_passed


def test_ac09_semicontinuity():
    with criterion("AC-9 kernel dimensions are upper semicontinuous"):
        rhs = RightHandSide(ConstantFunction(np.zeros(2)), np.array([1.0, 0.0]))

        def rank_jump(eps):
            coeffs = CoefficientSet(1, 2, 1, (np.zeros((2, 2)),))
            return ProblemSpec(UNIT, coeffs,
                               point_evaluation(0.0, np.diag([1.0, eps])), P2, rhs)

        family = ProblemFamily(rank_jump(0.0), rank_jump)
        report = family_semicontinuity(family, Grid.uniform(UNIT, 201))
        assert report.dim_kernel_limit == 1 and report.dim_cokernel_limit == 1
        assert report.passed and not report.violations
        assert all(ker <= 1 and coker <= 1 for _, ker, coker in report.rows)

        # invertible limit with conditions (I)/(II): members stay invertible
        a0 = np.array([[0.3, 0.1], [0.0, 0.2]], dtype=complex)
        e = np.array([[0.5, -0.2], [0.1, 0.4]], dtype=complex)

        def smooth(eps):
            coeffs = CoefficientSet(1, 2, 1, (a0 + eps * e,))
            return ProblemSpec(UNIT, coeffs, point_evaluation(1.0, np.eye(2)), P2, rhs)

        smooth_family = ProblemFamily(smooth(0.0), smooth)
        smooth_report = family_semicontinuity(smooth_family, Grid.uniform(UNIT, 201))
        assert smooth_report.dim_kernel_limit == 0
        assert all(ker == 0 and coker == 0 for _, ker, coker in smooth_report.rows)


def test_ac10_numerics_hygiene():
    with criterion("AC-10 integrator order and matrix-function agreement"):
        rng = np.random.default_rng(110)
        a = random_complex(rng, 2, 2)
        a *= 2.0 / np.abs(a).sum()
        oracle = matrix_exp(-a, 1.0).value
        errors = []
        for count in (33, 65, 129):
            grid = Grid.uniform(UNIT, count)
            fset = fundamental_set(CoefficientSet(1, 2, 0, (a,)), grid)
            errors.append(np.abs(members(fset)[0].samples[0, -1] - oracle).max())
        for coarse, fine in zip(errors, errors[1:]):
            assert 12.0 <= coarse / fine <= 20.0

        for _ in range(3):
            v = random_complex(rng, 3, 3)
            lam = random_complex(rng, 3)
            matrix = v @ np.diag(lam) @ np.linalg.inv(v)
            inv = np.linalg.inv(v)
            s = 0.9

            def via_eig(fn):
                return v @ np.diag(fn(lam)) @ inv

            assert np.abs(matrix_exp(matrix, s).value
                          - via_eig(lambda z: np.exp(z * s))).max() <= 1e-8
            # the damped ramp and the oscillatory pair, off the exact matrix of y(s)
            zero = np.zeros_like(matrix)
            assert np.abs(endpoint_blocks(zero, matrix, s)[1]
                          - via_eig(lambda z: (1 - np.exp(-z * s)) / z)).max() <= 1e-8
            cos_block, sinc_block = endpoint_blocks(matrix, zero, s)
            assert np.abs(cos_block - via_eig(lambda z: np.cos(np.sqrt(z) * s))).max() <= 1e-8
            assert np.abs(sinc_block
                          - via_eig(lambda z: np.sin(np.sqrt(z) * s) / np.sqrt(z))).max() <= 1e-8
