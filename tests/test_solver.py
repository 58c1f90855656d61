import json
from pathlib import Path

import numpy as np
import pytest

from conftest import UNIT, combine, particular, random_complex
from fredholm_bvp import ode
from fredholm_bvp import (
    BoundaryOperator,
    CoefficientSet,
    ConstantFunction,
    Grid,
    IllConditionedWarning,
    NotWellPosedError,
    PointTerm,
    ProblemSpec,
    RightHandSide,
    analyze,
    build_characteristic_matrix,
    convergence_experiment,
    discrepancy,
    fundamental_set,
    kernel_directions,
    point_evaluation,
    residual_stack,
    solve,
    superpose,
)
from fredholm_bvp.cli import main
from fredholm_bvp.document import document_family, document_problem, load_document
from fredholm_bvp.grid import P2, vector_magnitude


def initial_value_problem(a, f, c, n=1):
    m = np.asarray(a).shape[0]
    coeffs = CoefficientSet(1, m, n, (a,))
    op = point_evaluation(0.0, np.eye(m))
    rhs = RightHandSide(ConstantFunction(np.asarray(f, dtype=complex)), np.asarray(c))
    return ProblemSpec(UNIT, coeffs, op, P2, rhs)


def test_constant_solution():
    problem = initial_value_problem(np.zeros((2, 2)), [0.0, 0.0], [1.0 + 1.0j, -2.0])
    y = solve(problem, Grid.uniform(UNIT, 101))
    np.testing.assert_allclose(y.samples[0], np.broadcast_to([1.0 + 1.0j, -2.0], (101, 2)),
                               atol=1e-12)


def test_antiderivative_oracle():
    # oracle: y' = 1 with y(0) = 0 is y(t) = t
    problem = initial_value_problem(np.zeros((1, 1)), [1.0], [0.0])
    grid = Grid.uniform(UNIT, 1001)
    y = solve(problem, grid)
    assert np.abs(y.samples[0, :, 0] - grid.nodes).max() <= 1e-9


def test_canonical_problem_solvable_for_any_data():
    # square nonsingular order-0 matrix: unique solution for every (f, c)
    rng = np.random.default_rng(40)
    for _ in range(3):
        f = random_complex(rng, 2)
        c = random_complex(rng, 2)
        problem = initial_value_problem(np.zeros((2, 2)), f, c)
        grid = Grid.uniform(UNIT, 201)
        y = solve(problem, grid)
        residual = residual_stack(problem.coefficients, y, problem.rhs.f, orders=0)
        assert np.abs(residual.samples[0]).sum(axis=1).max() <= 1e-9
        assert vector_magnitude(problem.boundary.apply(y) - c) <= 1e-9


def test_two_point_bridge():
    # y'' = 0, y(0) = 0, y(1) = 1 -> y(t) = t, exactly up to roundoff
    coeffs = CoefficientSet(2, 1, 0, (np.zeros((1, 1)), np.zeros((1, 1))))
    op = BoundaryOperator(2, (
        PointTerm(0.0, 0, np.array([[1.0], [0.0]])),
        PointTerm(1.0, 0, np.array([[0.0], [1.0]])),
    ))
    rhs = RightHandSide(ConstantFunction(np.zeros(1)), np.array([0.0, 1.0]))
    problem = ProblemSpec(UNIT, coeffs, op, P2, rhs)
    grid = Grid.uniform(UNIT, 1001)
    y = solve(problem, grid)
    assert np.abs(y.samples[0, :, 0] - grid.nodes).max() <= 1e-10


def test_boundary_exactness():
    rng = np.random.default_rng(41)
    a = random_complex(rng, 2, 2) * 0.5
    c = random_complex(rng, 2)
    problem = initial_value_problem(a, random_complex(rng, 2), c)
    y = solve(problem, Grid.uniform(UNIT, 501))
    assert vector_magnitude(problem.boundary.apply(y) - c) <= 1e-8 * (1 + vector_magnitude(c))


def test_residual_bounded_by_integrator_tolerance():
    rng = np.random.default_rng(42)
    a = random_complex(rng, 2, 2) * 0.5
    problem = initial_value_problem(a, random_complex(rng, 2), random_complex(rng, 2))
    grid = Grid.uniform(UNIT, 501)
    analysis = analyze(problem, grid)
    solution, _ = superpose(problem, analysis)
    residual = residual_stack(problem.coefficients, solution,
                              problem.rhs.f, orders=0)
    max_residual = np.abs(residual.samples[0]).sum(axis=1).max()
    assert max_residual <= 10.0 * max(ode.integration_residual(analysis.fundamental, 1), 1e-12)


def test_missing_rhs_rejected():
    problem = ProblemSpec(UNIT, CoefficientSet(1, 1, 0, (np.zeros((1, 1)),)),
                          point_evaluation(0.0, np.eye(1)), P2)
    with pytest.raises(ValueError, match="right-hand side"):
        solve(problem, Grid.uniform(UNIT, 101))


def test_not_well_posed_refusal_and_kernel():
    # rank-one boundary matrix: kernel direction exists, solve refuses,
    # and adding the kernel direction changes nothing observable
    coeffs = CoefficientSet(1, 2, 0, (np.zeros((2, 2)),))
    op = point_evaluation(0.0, np.array([[1.0, 0.0], [0.0, 0.0]]))
    rhs = RightHandSide(ConstantFunction(np.zeros(2)), np.array([1.0, 0.0]))
    problem = ProblemSpec(UNIT, coeffs, op, P2, rhs)
    grid = Grid.uniform(UNIT, 201)
    with pytest.raises(NotWellPosedError) as err:
        solve(problem, grid)
    assert err.value.report.dim_kernel == 1
    matrix = build_characteristic_matrix(problem, grid)
    directions = kernel_directions(matrix)
    assert len(directions) == 1
    fset = fundamental_set(problem.coefficients, grid)
    shift = combine(fset, directions[0])
    residual = residual_stack(problem.coefficients, shift, orders=0)
    assert np.abs(residual.samples[0]).sum(axis=1).max() <= 1e-9
    assert vector_magnitude(problem.boundary.apply(shift)) <= 1e-9


def ill_conditioned_problem():
    coeffs = CoefficientSet(1, 2, 0, (np.zeros((2, 2)),))
    op = point_evaluation(0.0, np.diag([1.0, 1e-13]))
    rhs = RightHandSide(ConstantFunction(np.zeros(2)), np.array([1.0, 0.0]))
    return ProblemSpec(UNIT, coeffs, op, P2, rhs)


def test_ill_conditioned_warning():
    with pytest.warns(IllConditionedWarning):
        solve(ill_conditioned_problem(), Grid.uniform(UNIT, 101), rank_tolerance=1e-15)


def test_superpose_warns_when_ill_conditioned():
    problem = ill_conditioned_problem()
    grid = Grid.uniform(UNIT, 101)
    analysis = analyze(problem, grid, 1e-15)
    assert analysis.report.well_posed
    with pytest.warns(IllConditionedWarning, match="condition number 1.000e\\+13"):
        solution, weights = superpose(problem, analysis)
    np.testing.assert_allclose(weights, [1.0, 0.0])
    # the default cutoff calls the same matrix rank-deficient: refused, not warned
    with pytest.raises(NotWellPosedError):
        superpose(problem, analyze(problem, grid))


def test_discrepancy_vanishes_at_solution():
    rng = np.random.default_rng(44)
    a = random_complex(rng, 2, 2) * 0.5
    problem = initial_value_problem(a, random_complex(rng, 2), random_complex(rng, 2))
    grid = Grid.uniform(UNIT, 501)
    y = solve(problem, grid)
    assert discrepancy(problem, y) <= 1e-8


def test_discrepancy_of_constant_forcing_shift():
    # shifting f by a constant vector moves the discrepancy by exactly
    # the Lebesgue norm of that constant (its derivatives vanish)
    rng = np.random.default_rng(45)
    problem = initial_value_problem(np.zeros((2, 2)), [1.0, 2.0], [0.0, 0.0])
    grid = Grid.uniform(UNIT, 501)
    y = solve(problem, grid)
    v = np.array([0.3, -0.4])
    shifted = initial_value_problem(np.zeros((2, 2)),
                                    np.array([1.0, 2.0]) + v, [0.0, 0.0])
    from fredholm_bvp import lp_norm

    expected = lp_norm(np.broadcast_to(v, (grid.count, 2)), P2, grid)
    base = discrepancy(problem, y)
    assert discrepancy(shifted, y) == pytest.approx(expected + base, abs=1e-9)


def test_discrepancy_dimension_check():
    problem = initial_value_problem(np.zeros((1, 1)), [1.0], [0.0], n=2)
    other = initial_value_problem(np.zeros((1, 1)), [1.0], [0.0], n=1)
    y = solve(other, Grid.uniform(UNIT, 101))
    with pytest.raises(ValueError):
        discrepancy(problem, y)


# ---------------------------------------------------------------------------
# one integration and one boundary pass per analysed problem

SAMPLES = Path(__file__).resolve().parent.parent / "docs" / "samples"


@pytest.fixture
def passes(monkeypatch):
    """Record the width of every integration and count boundary applications."""
    widths, applied = [], []
    integrate, apply = ode._integrate, BoundaryOperator.apply

    def counting_integrate(coeffs, grid, f=None):
        states = integrate(coeffs, grid, f)
        widths.append(states.shape[2])
        return states

    def counting_apply(self, stack):
        applied.append(stack.samples.shape[3:])
        return apply(self, stack)

    monkeypatch.setattr(ode, "_integrate", counting_integrate)
    monkeypatch.setattr(BoundaryOperator, "apply", counting_apply)
    return widths, applied


def test_solve_integrates_and_applies_once(passes):
    rng = np.random.default_rng(46)
    problem = initial_value_problem(random_complex(rng, 2, 2) * 0.4,
                                    random_complex(rng, 2), random_complex(rng, 2))
    grid = Grid.uniform(UNIT, 201)
    solution, weights = superpose(problem, analyze(problem, grid))
    widths, applied = passes
    assert widths == [3]
    assert applied == [(3,)]
    # y_p + Y xi against the solution assembled from the two integrations
    fset = fundamental_set(problem.coefficients, grid)
    y_p = particular(problem.coefficients, problem.rhs.f, grid)
    expected = y_p + combine(fset, weights)
    assert np.abs(solution.samples - expected.samples).max() \
        <= 1e-14 * np.abs(expected.samples).max()


def test_family_integrates_once_per_problem(passes):
    doc = load_document(str(SAMPLES / "splitting-family.json"))
    family = document_family(doc)
    grid = Grid.uniform(family.at_zero.interval, 201)
    assert convergence_experiment(family, grid).multipoint is not None
    widths, _ = passes
    assert len(family.epsilons) == 4
    assert widths == [3] * 5


def test_cli_analyze_leaves_the_forcing_out(passes, tmp_path):
    # a varying coefficient integrates [Y_1 Y_2] alone, width r*m = 4; the
    # constant sample reads its matrix off powers of P and integrates nothing
    widths, _ = passes
    doc = json.loads((SAMPLES / "two-point-damped.json").read_text())
    varying = {"kind": "expression", "entries": [["0.6", "0.2 + 0.1*t"], ["-0.1", "0.4"]]}
    path = tmp_path / "varying.json"
    path.write_text(json.dumps(dict(doc, coefficients=[doc["coefficients"][0], varying])))
    out = ["--nodes", "201", "--out", str(tmp_path / "report.txt")]
    assert main(["analyze", str(path)] + out) == 0
    assert widths == [4]
    assert main(["analyze", str(SAMPLES / "two-point-damped.json")] + out) == 0
    assert widths == [4]


@pytest.mark.parametrize("argv", [
    ["analyze", str(SAMPLES / "two-point-damped.json")],
    ["oracle-check", str(SAMPLES / "two-point-damped.json")],
    ["oracle-check", "ex4"],
    ["family", str(SAMPLES / "splitting-family.json")],
], ids=["analyze", "oracle-check", "oracle-check-builtin", "family"])
def test_only_solve_computes_the_integration_residual(monkeypatch, tmp_path, argv):
    class ResidualComputed(Exception):
        pass

    def refuse(values, step):
        raise ResidualComputed

    monkeypatch.setattr(ode, "differentiate_samples", refuse)
    out = ["--nodes", "201", "--format", "machine", "--out", str(tmp_path / "report.json")]
    assert main(argv + out) == 0
    with pytest.raises(ResidualComputed):
        main(["solve", str(SAMPLES / "two-point-damped.json")] + out)


def test_solve_evaluates_an_expression_kernel_once(monkeypatch, tmp_path):
    # the stack and the solution are read on one grid: the kernel is
    # evaluated once, at its nodes, whoever applies the boundary operator
    from fredholm_bvp.functions import ExpressionFunction

    calls = []
    evaluate = ExpressionFunction.eval

    def counting(self, ts, order=0):
        if self.path.startswith("$.boundary.integral.kernel"):
            calls.append((len(ts), order))
        return evaluate(self, ts, order)

    monkeypatch.setattr(ExpressionFunction, "eval", counting)
    doc = json.loads((SAMPLES / "two-point-damped.json").read_text())
    kernel = {"kind": "expression", "entries": [["0.5*t", "0"], ["0", "0.5*t"], ["0", "0"],
                                                ["0.1*t", "0"]]}
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(dict(doc, boundary=dict(doc["boundary"],
                                                       integral={"kernel": kernel}))))
    out = ["--nodes", "201", "--format", "machine", "--out", str(tmp_path / "report.json")]
    assert main(["solve", str(path)] + out) == 0
    assert calls == [(201, 0)]


def test_only_constant_coefficients_propagate_by_doubling(monkeypatch, tmp_path):
    class Doubled(Exception):
        pass

    def refuse(coeffs, grid, width, f):
        raise Doubled

    monkeypatch.setattr(ode, "_doubled_states", refuse)
    doc = json.loads((SAMPLES / "two-point-damped.json").read_text())
    constant = doc["coefficients"][1]
    expression = {"kind": "expression", "entries": [["0.6", "0.2 + 0.1*t"], ["-0.1", "0.4"]]}
    nodes = [0.0, 0.25, 0.5, 0.75, 1.0]
    table = {"kind": "table", "nodes": nodes, "samples": [[constant["values"]] * len(nodes)]}
    zero = {"kind": "table", "nodes": nodes, "samples": [[[[0, 0], [0, 0]]] * len(nodes)]}
    out = ["--nodes", "201", "--out", str(tmp_path / "report.txt")]
    for name, coefficients in {"expression": [expression, expression], "table": [zero, table],
                               "mixed": [doc["coefficients"][0], expression]}.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(doc, coefficients=coefficients)))
        assert main(["analyze", str(path)] + out) == 0
    # analyze reads a constant problem off powers of P; solve still builds its stack
    with pytest.raises(Doubled):
        main(["solve", str(SAMPLES / "two-point-damped.json")] + out)


def test_only_constant_problems_skip_the_stack(monkeypatch, tmp_path):
    # build_characteristic_matrix and analyze read a constant problem off
    # powers of P; any other coefficient, or a kernel that is not a
    # ConstantFunction, integrates the fundamental set
    class Integrated(Exception):
        pass

    def refuse(coeffs, grid, f=None):
        raise Integrated

    monkeypatch.setattr(ode, "_integrate", refuse)
    doc = json.loads((SAMPLES / "two-point-damped.json").read_text())
    constant = doc["coefficients"][1]
    expression = {"kind": "expression", "entries": [["0.6", "0.2 + 0.1*t"], ["-0.1", "0.4"]]}
    nodes = [0.0, 0.25, 0.5, 0.75, 1.0]
    table = {"kind": "table", "nodes": nodes, "samples": [[constant["values"]] * len(nodes)]}
    zero = {"kind": "table", "nodes": nodes, "samples": [[[[0, 0], [0, 0]]] * len(nodes)]}
    kernel = [[1, 0], [0, 1], [0, 0], [0.5, 0]]

    def variant(name, coefficients=doc["coefficients"], kernel_fn=None):
        boundary = dict(doc["boundary"])
        if kernel_fn is not None:
            boundary["integral"] = {"kernel": kernel_fn}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(doc, coefficients=coefficients, boundary=boundary)))
        return str(path)

    out = ["--nodes", "201", "--out", str(tmp_path / "report.txt")]
    constant_docs = [str(path) for path in sorted(SAMPLES.glob("*.json"))]
    constant_kernel = {"kind": "constant", "values": kernel}
    constant_docs.append(variant("constant-kernel", kernel_fn=constant_kernel))
    for path in constant_docs:
        problem = document_problem(load_document(path))
        build_characteristic_matrix(problem, Grid.uniform(problem.interval, 201))
        assert main(["analyze", path] + out) in (0, 2)
    expression_kernel = {"kind": "expression", "entries": [[str(v) for v in row] for row in kernel]}
    for path in (variant("expression", [expression, expression]), variant("table", [zero, table]),
                 variant("mixed", [doc["coefficients"][0], expression]),
                 variant("expression-kernel", kernel_fn=expression_kernel)):
        problem = document_problem(load_document(path))
        with pytest.raises(Integrated):
            build_characteristic_matrix(problem, Grid.uniform(problem.interval, 201))
        with pytest.raises(Integrated):
            main(["analyze", path] + out)
