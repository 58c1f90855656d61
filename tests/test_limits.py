from dataclasses import replace

import numpy as np
import pytest

from conftest import BETA1, BETA2, UNIT, family_semicontinuity, split_series, tagged_family
from fredholm_bvp import (
    BoundaryOperator,
    CoefficientSet,
    ConstantFunction,
    Grid,
    NotWellPosedError,
    PointTerm,
    ProblemFamily,
    ProblemSpec,
    RightHandSide,
    SolvabilityReport,
    analyze,
    convergence_experiment,
    point_evaluation,
    solve,
)
from fredholm_bvp import limits
from fredholm_bvp.grid import P2, PINF, LebesgueExponent, sobolev_norm, vector_magnitude
from fredholm_bvp.limits import DEFAULT_EPSILONS, semicontinuity, tends_to_zero

GRID = Grid.uniform(UNIT, 201)


def first_order_problem(a, boundary, c=None, f=None, n=1):
    m = np.asarray(a).shape[0]
    coeffs = CoefficientSet(1, m, n, (np.asarray(a, dtype=complex),))
    rhs = None
    if c is not None:
        f = np.zeros(m) if f is None else np.asarray(f, dtype=complex)
        rhs = RightHandSide(ConstantFunction(f), np.asarray(c, dtype=complex))
    return ProblemSpec(UNIT, coeffs, boundary, P2, rhs)


def identity_boundary(m):
    return point_evaluation(0.0, np.eye(m))


def coefficient_family(a0, perturbation, scale, epsilons=DEFAULT_EPSILONS):
    def make(eps):
        return first_order_problem(a0 + scale(eps) * perturbation,
                                   identity_boundary(a0.shape[0]),
                                   c=[1.0, -1.0], f=[1.0, 0.5])

    return ProblemFamily(make(0.0), make, epsilons=epsilons)


def boundary_family(make_boundary, epsilons=DEFAULT_EPSILONS, a=None, c=(1.0, -1.0)):
    a = np.zeros((2, 2)) if a is None else a

    def make(eps):
        return first_order_problem(a, make_boundary(eps), c=list(c), f=[1.0, 0.5])

    return ProblemFamily(make(0.0), make, epsilons=epsilons)


A0 = np.array([[0.3, 0.1], [0.0, 0.2]], dtype=complex)
E = np.array([[0.5, -0.2], [0.1, 0.4]], dtype=complex)


def test_schedule_validation():
    zero = first_order_problem(A0, identity_boundary(2))
    with pytest.raises(ValueError):
        ProblemFamily(zero, lambda e: zero, epsilons=(1e-2, 1e-1))
    with pytest.raises(ValueError):
        ProblemFamily(zero, lambda e: zero, epsilons=())
    for bad in ((float("nan"),), (1e-1, float("nan")), (float("inf"), 1e-1), (1e-1, 0.0)):
        with pytest.raises(ValueError, match="finite and positive"):
            ProblemFamily(zero, lambda e: zero, epsilons=bad)


def test_vanishing_rule():
    assert tends_to_zero([1e-2, 1e-4, 1e-6, 1e-8])
    assert tends_to_zero([0.0, 0.0, 0.0])
    assert not tends_to_zero([1e-2, 1e-2, 1e-2, 1e-2])
    assert not tends_to_zero([1e-3, 1e-4, 1e-5, 1e-5])  # small but no 100x drop


def test_condition_0_canonical():
    assert analyze(first_order_problem(np.zeros((2, 2)),
                                       identity_boundary(2)), GRID).report.well_posed
    zero_matrix = point_evaluation(0.0, np.zeros((2, 2)))
    assert not analyze(first_order_problem(np.zeros((2, 2)), zero_matrix), GRID).report.well_posed
    underdetermined = BoundaryOperator(1, (PointTerm(0.0, 0, np.array([[1.0, 1.0]])),))
    assert not analyze(
        first_order_problem(np.zeros((2, 2)), underdetermined), GRID).report.well_posed


def test_condition_I_constant_family():
    family = coefficient_family(A0, E, lambda e: 0.0)
    report = convergence_experiment(family, GRID).condition_I
    assert report.passed
    assert all(v == 0.0 for table in report.tables for v in table.values)


def test_condition_I_linear_family():
    family = coefficient_family(A0, E, lambda e: e, epsilons=(1e-2, 1e-4, 1e-6, 1e-8))
    report = convergence_experiment(family, GRID).condition_I
    assert report.passed
    values = report.tables[0].values
    for eps, value in zip(family.epsilons, values):
        assert value == pytest.approx(eps * np.abs(E).sum(), rel=1e-6)


def test_condition_I_divergent_family():
    family = coefficient_family(A0, E, lambda e: 0.0 if e == 0 else 1.0)
    assert not convergence_experiment(family, GRID).condition_I.passed


def test_condition_II_constant_family():
    family = boundary_family(lambda eps: identity_boundary(2))
    assert convergence_experiment(family, GRID).condition_II.passed


def test_condition_II_point_splitting_is_second_order():
    # oracle: Taylor expansion gives (y(t-e) + y(t+e))/2 - y(t) = O(e^2)
    beta = np.eye(2)

    def make_boundary(eps):
        if eps == 0.0:
            return BoundaryOperator(2, (PointTerm(0.3, 0, beta),))
        return BoundaryOperator(2, (
            PointTerm(0.3 - eps, 0, beta / 2),
            PointTerm(0.3 + eps, 0, beta / 2),
        ))

    family = boundary_family(make_boundary, epsilons=(1e-1, 1e-2, 1e-4))
    report = convergence_experiment(family, GRID).condition_II
    assert report.passed
    for table in report.tables:
        if table.values[0] > 1e-9:  # probes curved at 0.3 show the e^2 rate
            assert table.values[0] / table.values[1] == pytest.approx(100.0, rel=0.2)


def test_condition_II_divergent_coefficients():
    beta = np.array([[0.5, 0.5], [0.0, 0.5]])

    def make_boundary(eps):
        if eps == 0.0:
            return identity_boundary(2)
        return BoundaryOperator(2, (
            PointTerm(0.0, 0, np.eye(2)),
            PointTerm(0.55, 0, beta / eps),
        ))

    family = boundary_family(make_boundary)
    assert not convergence_experiment(family, GRID).condition_II.passed


# ---------------------------------------------------------------------------
# multipoint assumptions


def static_series(point, matrices):
    """One eps-independent point carrying a matrix at every order."""
    return lambda eps: [(point, d, matrix) for d, matrix in enumerate(matrices)]


def fixed_zero_series(point, matrix):
    """A zero-series point whose order-0 matrix keeps its norm for eps > 0."""
    return lambda eps: [(point, 0, matrix if eps else np.zeros_like(matrix))]


def table_rows(report, name):
    return {row.label: row.values for row in report.tables[name].tables}


def test_static_multipoint_family_passes_everything():
    for p in (P2, PINF):
        family = tagged_family({1: static_series(0.3, BETA1), 2: static_series(0.8, BETA2)},
                               DEFAULT_EPSILONS, exponent=p)
        report = convergence_experiment(family, GRID).multipoint
        assert report.passed
        assert all(table.passed for table in report.tables.values())


def test_splitting_family_quantities_match_hand_computation():
    epsilons = (1e-2, 1e-4, 1e-7)
    family = tagged_family({1: split_series(0.3, BETA1)}, epsilons)
    report = convergence_experiment(family, GRID).multipoint
    for i, eps in enumerate(epsilons):
        assert table_rows(report, "alpha")["series 1"][i] == pytest.approx(eps, rel=1e-12)
        assert table_rows(report, "beta")["series 1 order 0"][i] == 0.0
        gamma_rows = table_rows(report, "gamma")
        assert gamma_rows["series 1 order 0"][i] == pytest.approx(2.0 * eps, rel=1e-12)
        assert gamma_rows["series 1 order 1"][i] == pytest.approx(0.4 * eps, rel=1e-12)
        assert table_rows(report, "gamma_p")["series 1 order 1"][i] == pytest.approx(
            0.4 * eps**0.5, rel=1e-12)
        assert table_rows(report, "gamma_prime")["series 1 order 0"][i] == pytest.approx(
            2.0 * eps, rel=1e-12)
    assert report.passed
    assert report.required == ("alpha", "beta", "gamma_p", "gamma_prime", "delta")


def test_splitting_family_passes_sup_norm_rule_too():
    family = tagged_family({1: split_series(0.3, BETA1)}, (1e-2, 1e-4, 1e-7), exponent=PINF)
    report = convergence_experiment(family, GRID).multipoint
    assert report.required == ("alpha", "beta", "gamma", "delta")
    assert report.passed


def test_zero_series_with_fixed_norm_fails_delta():
    matrix = np.array([[0.5, 0.0], [0.0, 0.5]])  # entrywise sum 1, fixed
    family = tagged_family({0: fixed_zero_series(0.55, matrix), 1: split_series(0.3, BETA1)},
                           (1e-2, 1e-4, 1e-7))
    report = convergence_experiment(family, GRID).multipoint
    assert list(table_rows(report, "delta")) == ["series 0 order 0", "series 0 order 1"]
    assert not report.tables["delta"].passed
    assert not report.passed


def test_member_with_wrong_point_term_count_raises():
    family = tagged_family({1: split_series(0.3, BETA1)}, (1e-2, 1e-4))
    fewer = replace(family.at_zero,
                    boundary=BoundaryOperator(2, family.at_zero.boundary.point_terms[:1]))
    drifting = ProblemFamily(family.at_zero, lambda eps: fewer, series=family.series)
    with pytest.raises(ValueError, match="4 series tags for 1 boundary point terms"):
        drifting.at(1e-2)
    with pytest.raises(ValueError, match="3 series tags for 4 boundary point terms"):
        ProblemFamily(family.at_zero, family.generator, series=family.series[:-1])


def test_converging_series_needs_one_limit_point():
    def spread(eps):
        return [(0.3, 0, BETA1[0]), (0.4, 0, BETA1[1])]

    family = tagged_family({1: spread}, (1e-2, 1e-4))
    assert family.stray_limit_term() == 1
    with pytest.raises(ValueError, match="point term 1"):
        convergence_experiment(family, GRID)


def _multipoint_per_term(family):
    """The multipoint tables term by term, as rows {table: {label: values}}.

    Magnitudes are taken term by term, and every sum adds its terms in
    order from zero, the limit's matrix sums as well as the members'.
    The sums are plain loops: Python's builtin ``sum`` is compensated
    since 3.12.
    """
    zero = family.at_zero
    orders = zero.n + zero.r
    conj = zero.exponent.conjugate
    weight_exponent = 0.0 if np.isinf(conj) else 1.0 / conj

    def by_series(problem):
        terms = problem.boundary.point_terms
        return {tag: [term for term, s in zip(terms, family.series) if s == tag]
                for tag in sorted(set(family.series))}

    def total(values):
        result = 0.0
        for value in values:
            result += value
        return result

    def matrix_sums(terms):
        sums = np.zeros((orders, *terms[0].matrix.shape), dtype=complex)
        for term in terms:
            sums[term.order] += term.matrix
        return sums

    limits_ = {tag: (terms[0].point, matrix_sums(terms))
               for tag, terms in by_series(zero).items() if tag != 0}
    columns = {key: {} for key in ("alpha", "beta", "gamma", "delta", "gamma_p", "gamma_prime")}

    def put(table, label, value):
        columns[table].setdefault(label, []).append(value)

    def magnitude(term, d):
        return vector_magnitude(term.matrix) if term.order == d else 0.0

    for member in map(family.at, family.epsilons):
        for j, terms in by_series(member).items():
            if j == 0:
                for d in range(orders):
                    put("delta", f"series {j} order {d}", total(magnitude(t, d) for t in terms))
                continue
            limit_point, limit_sums = limits_[j]
            offsets = [abs(term.point - limit_point) for term in terms]
            sums = matrix_sums(terms)
            put("alpha", f"series {j}", max(offsets))
            for d in range(orders):
                label = f"series {j} order {d}"
                put("beta", label, vector_magnitude(sums[d] - limit_sums[d]))
                weighted = total(magnitude(t, d) * o for t, o in zip(terms, offsets))
                put("gamma", label, weighted)
                if d == orders - 1:
                    put("gamma_p", label, total(magnitude(t, d) * o ** weight_exponent
                                                for t, o in zip(terms, offsets)))
                else:
                    put("gamma_prime", label, weighted)
    return columns


def _scattered_series(rng, limit_point, count, m, scale=None):
    """``count`` points limit_point + delta_k eps at random orders 0 and 1,
    with random m x m matrices times ``scale(eps)``, or fixed ones."""
    deltas = rng.uniform(-1.0, 1.0, count)
    orders = rng.integers(0, 2, count)
    matrices = rng.normal(size=(count, m, m)) + 1j * rng.normal(size=(count, m, m))

    def terms(eps):
        factor = 1.0 if scale is None else scale(eps)
        return [(limit_point + float(delta) * eps, int(d), matrix * factor)
                for delta, d, matrix in zip(deltas, orders, matrices)]

    return terms


@pytest.mark.parametrize("m", [1, 2])
def test_multipoint_tables_match_the_per_term_loop_bit_for_bit(m):
    # 48 points: two converging series whose matrices move with eps, and a
    # zero series; with m = 1 numpy's own sum over the terms is pairwise
    rng = np.random.default_rng(80 + m)
    epsilons = (1e-1, 1e-3, 1e-5, 1e-8)
    for exponent in (P2, PINF, LebesgueExponent(3.0)):
        family = tagged_family({
            0: _scattered_series(rng, 0.55, 8, m, scale=lambda eps: eps),
            1: _scattered_series(rng, 0.3, 20, m, scale=lambda eps: 1.0 + eps),
            2: _scattered_series(rng, 0.8, 20, m, scale=lambda eps: 1.0 - 2.0 * eps),
        }, epsilons, exponent=exponent, m=m)
        assert len(family.series) == 48
        report = convergence_experiment(family, GRID).multipoint
        expected = _multipoint_per_term(family)
        assert list(report.tables) == list(expected)
        for name, rows in expected.items():
            assert [(row.label, row.values) for row in report.tables[name].tables] \
                == [(label, tuple(values)) for label, values in rows.items()]


@pytest.mark.parametrize("m", [1, 2])
def test_beta_is_zero_when_the_series_matrices_do_not_depend_on_eps(m):
    # the members' matrix sums and the limit's are reduced the same way,
    # so equal matrices give beta exactly 0, not a rounding residue
    rng = np.random.default_rng(90 + m)
    family = tagged_family({1: _scattered_series(rng, 0.3, 24, m),
                            2: _scattered_series(rng, 0.8, 24, m)}, (1e-2, 1e-4, 1e-6), m=m)
    report = convergence_experiment(family, GRID).multipoint
    beta = table_rows(report, "beta")
    assert list(beta) == [f"series {j} order {d}" for j in (1, 2) for d in (0, 1)]
    assert all(value == 0.0 for values in beta.values() for value in values)


# ---------------------------------------------------------------------------
# characteristic convergence and semicontinuity


def test_characteristic_convergence_constant_family():
    family = coefficient_family(A0, E, lambda e: 0.0)
    trend = convergence_experiment(family, GRID).characteristic_trend
    assert trend.passed
    assert all(v == 0.0 for v in trend.values)


def test_characteristic_convergence_linear_family():
    # right-endpoint evaluation so the matrix actually sees the
    # coefficient perturbation (M = trajectory value at b)
    def make(eps):
        return first_order_problem(A0 + eps * E, point_evaluation(1.0, np.eye(2)),
                                   c=[1.0, -1.0], f=[1.0, 0.5])

    family = ProblemFamily(make(0.0), make, epsilons=(1e-2, 1e-4, 1e-6, 1e-8))
    trend = convergence_experiment(family, GRID).characteristic_trend
    assert trend.passed
    assert all(b < a for a, b in zip(trend.values, trend.values[1:]))


def test_characteristic_convergence_divergent_boundary():
    beta = np.array([[0.5, 0.5], [0.0, 0.5]])

    def make_boundary(eps):
        if eps == 0.0:
            return identity_boundary(2)
        return BoundaryOperator(2, (
            PointTerm(0.0, 0, np.eye(2)),
            PointTerm(0.55, 0, beta / eps),
        ))

    family = boundary_family(make_boundary)
    assert not convergence_experiment(family, GRID).characteristic_trend.passed


def test_semicontinuity_rank_jump_up_is_allowed():
    # limit matrix diag(1, 0): kernel drops from 1 to 0 under perturbation
    def make_boundary(eps):
        return point_evaluation(0.0, np.diag([1.0, eps]))

    family = boundary_family(make_boundary)
    report = family_semicontinuity(family, GRID)
    assert report.passed
    assert report.dim_kernel_limit == 1
    assert all(row[1] == 0 for row in report.rows)
    assert report.threshold == family.epsilons[0]
    assert report.violations == ()


def test_semicontinuity_constant_family_equality():
    family = coefficient_family(A0, E, lambda e: 0.0)
    report = family_semicontinuity(family, GRID)
    assert report.passed
    assert all(row[1] == report.dim_kernel_limit for row in report.rows)
    assert all(row[2] == report.dim_cokernel_limit for row in report.rows)


def test_semicontinuity_violation_detected():
    # artificial family whose members lose rank although the limit is
    # invertible: the inequalities must flag every scheduled eps
    def make_boundary(eps):
        if eps == 0.0:
            return identity_boundary(2)
        return point_evaluation(0.0, np.diag([1.0, 0.0]))

    family = boundary_family(make_boundary)
    report = family_semicontinuity(family, GRID)
    assert not report.passed
    assert report.threshold is None
    assert report.violations == family.epsilons


def test_invertible_limit_stays_invertible_nearby():
    # the linear coefficient family keeps dim ker = 0 along the schedule
    family = coefficient_family(A0, E, lambda e: e)
    report = family_semicontinuity(family, GRID)
    assert report.passed
    assert report.dim_kernel_limit == 0
    assert all(row[1] == 0 and row[2] == 0 for row in report.rows)


# ---------------------------------------------------------------------------
# the convergence experiment


def test_experiment_requires_well_posed_limit():
    def make_boundary(eps):
        return point_evaluation(0.0, np.diag([1.0, 0.0]))

    family = boundary_family(make_boundary)
    with pytest.raises(NotWellPosedError):
        convergence_experiment(family, GRID)


def test_experiment_constant_family_degenerate_ratio():
    family = coefficient_family(A0, E, lambda e: 0.0)
    report = convergence_experiment(family, GRID)
    assert report.ratio_bracket is None
    for row in report.rows:
        assert "degenerate-ratio" in row.flags
        assert row.solution_error <= 1e-10


def test_experiment_linear_coefficient_family():
    family = coefficient_family(A0, E, lambda e: e, epsilons=(1e-2, 1e-4, 1e-6, 1e-8))
    report = convergence_experiment(family, GRID)
    assert report.condition_I.passed
    assert report.condition_II.passed
    assert report.characteristic_trend.passed
    assert report.error_trend_passed
    low, high = report.ratio_bracket
    assert 0 < low <= high
    assert high / low < 1e3
    errors = [row.solution_error for row in report.rows]
    for eps_ratio, err_ratio in zip(
        (family.epsilons[i] / family.epsilons[i + 1] for i in range(3)),
        (errors[i] / errors[i + 1] for i in range(3)),
    ):
        assert err_ratio == pytest.approx(eps_ratio, rel=0.3)


def test_rounding_level_row_stays_out_of_the_ratio_bracket():
    # with a solution of norm ~1e3 the rounding level N 2^-52 ||y(0)|| is
    # ~1e-10 on 201 nodes; the eps = 1e-14 row's discrepancy lies below it,
    # though far above an absolute 1e-13, so its ratio is rounding noise
    def make(eps):
        return first_order_problem(A0 + eps * E, identity_boundary(2),
                                   c=[1e3, -1e3], f=[1e3, 5e2])

    family = ProblemFamily(make(0.0), make, epsilons=(1e-2, 1e-4, 1e-14))
    report = convergence_experiment(family, GRID)
    y_zero = solve(family.at_zero, GRID)
    floor = GRID.count * 2.0**-52 * sobolev_norm(y_zero, P2)
    *kept, noise = report.rows
    assert 1e-13 < noise.discrepancy <= floor
    assert noise.ratio is None and "degenerate-ratio" in noise.flags
    assert all(row.discrepancy > floor and not row.flags for row in kept)
    ratios = [row.ratio for row in kept]
    assert report.ratio_bracket == (min(ratios), max(ratios))


def test_experiment_builds_each_member_once(monkeypatch):
    family = coefficient_family(A0, E, lambda e: e, epsilons=(1e-2, 1e-4, 1e-6))
    built = []
    distances = []
    original_distances = limits.coefficient_distances

    def generator(eps):
        built.append(eps)
        return family.generator(eps)

    def counting_distances(*args):
        distances.append(args)
        return original_distances(*args)

    counted = ProblemFamily(family.at_zero, generator, epsilons=family.epsilons)
    expected = convergence_experiment(family, GRID)
    monkeypatch.setattr(limits, "coefficient_distances", counting_distances)
    report = convergence_experiment(counted, GRID)
    assert built == list(family.epsilons)
    assert len(distances) == len(family.epsilons)
    assert report.to_document() == expected.to_document()


def test_experiment_tabulates_each_coefficient_once(monkeypatch):
    # expression coefficients and forcing, from one document: every A_d^(k)
    # and f^(k), k <= n, of each member and of the limit is evaluated once
    # on the nodes and A_d and f once on the midpoints, and each entry of a
    # payload is differentiated once for all of them
    from fredholm_bvp import expressions
    from fredholm_bvp.document import document_family, load_document
    from fredholm_bvp.functions import ExpressionFunction

    schedule = [1e-2, 1e-4, 1e-6]
    entries = [["0.3 + eps*sin(t)", "0.1*t"], ["eps*t^2", "0.2 + eps*cos(2*t)"]]
    doc = load_document({
        "interval": {"a": 0, "b": 1}, "orders": {"r": 1, "m": 2, "n": 2}, "exponent": 2,
        "coefficients": [{"kind": "constant", "values": [[0.3, 0], [0, 0.2]]}],
        "boundary": {"conditions": 2, "points": [{"t": 0, "order": 0, "matrix": [[1, 0], [0, 1]]}]},
        "rhs": {"f": {"kind": "expression", "entries": ["1 + t", "sin(t)"]}, "c": [1, -1]},
        "family": {"schedule": schedule,
                   "coefficients": [{"kind": "expression", "entries": entries}]},
    })
    evaluations, differentiated = [], []
    evaluate, differentiate = ExpressionFunction.eval, expressions.symbolic_derivative
    depth = [0]

    def counting_eval(self, ts, order=0):
        evaluations.append((self.path, self.eps, order, len(ts)))
        return evaluate(self, ts, order)

    def counting_derivative(expr, var="t"):
        if not depth[0]:  # the outermost call builds one entry's tree
            differentiated.append(id(expr))
        depth[0] += 1
        try:
            return differentiate(expr, var)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ExpressionFunction, "eval", counting_eval)
    monkeypatch.setattr(expressions, "symbolic_derivative", counting_derivative)
    convergence_experiment(document_family(doc), GRID)
    for path in ("$.family.coefficients[0].entries", "$.rhs.f.entries"):
        tabulated = [call for call in evaluations if call[0] == path]
        expected = [(path, eps, k, GRID.count) for eps in [0.0, *schedule] for k in range(3)]
        expected += [(path, eps, 0, GRID.count - 1) for eps in [0.0, *schedule]]
        assert sorted(tabulated) == sorted(expected)
    # two derivative orders of 4 coefficient entries and 2 forcing entries
    assert len(differentiated) == len(set(differentiated)) == 2 * (4 + 2)


def test_no_member_outlives_the_experiment():
    # each member is built when the pass reaches it and dropped with its
    # row: no member's coefficient function, nor the samples it keeps on
    # the grid, is alive when the experiment returns
    import weakref

    from fredholm_bvp.expressions import parse_expression
    from fredholm_bvp.functions import ExpressionFunction

    entries = np.array([[parse_expression(e) for e in row]
                        for row in (["0.3 + eps*sin(t)", "0.1*t"], ["eps*t^2", "0.2"])],
                       dtype=object)
    alive = []

    def make(eps):
        a = ExpressionFunction(entries, eps=eps)
        if eps:
            alive.append(weakref.ref(a))
        return ProblemSpec(UNIT, CoefficientSet(1, 2, 1, (a,)), identity_boundary(2), P2,
                           RightHandSide(np.array([1.0, 0.5]), np.array([1.0, -1.0])))

    family = ProblemFamily(make(0.0), make, epsilons=(1e-2, 1e-4, 1e-6))
    report = convergence_experiment(family, GRID)
    assert len(report.rows) == len(alive) == 3
    assert [ref() for ref in alive] == [None] * 3


def test_no_earlier_member_is_alive_when_the_next_is_built():
    # condition (II) and the multipoint tables are read off each member in
    # its row: when the pass builds a member, no earlier member's boundary
    # operator, nor its kernel function with the samples it keeps, is alive
    import gc
    import weakref

    from fredholm_bvp import IntegralTerm
    from fredholm_bvp.expressions import parse_expression
    from fredholm_bvp.functions import ExpressionFunction

    kernel_entries = np.array([[parse_expression(e) for e in row]
                               for row in (["eps*t", "0"], ["0", "eps*t"])], dtype=object)
    alive = []

    def make(eps):
        gc.collect()
        assert [ref() for ref in alive] == [None] * len(alive)
        kernel = ExpressionFunction(kernel_entries, eps=eps)
        terms = tuple(PointTerm(t, 0, BETA1[0] / 2) for t in (0.3 - eps, 0.3 + eps))
        boundary = BoundaryOperator(2, terms, IntegralTerm(kernel))
        if eps:
            alive.extend([weakref.ref(boundary), weakref.ref(kernel)])
        return ProblemSpec(UNIT, CoefficientSet(1, 2, 1, (0.3 * np.eye(2),)), boundary, P2,
                           RightHandSide(np.array([1.0, 0.5]), np.array([1.0, -1.0])))

    family = ProblemFamily(make(0.0), make, epsilons=(1e-2, 1e-4, 1e-6), series=(1, 1))
    report = convergence_experiment(family, GRID)
    assert len(alive) == 6 and len(report.condition_II.tables) == 10
    assert report.multipoint.tables["alpha"].passed


def _splitting_problem_family(extra_series=None, epsilons=(1e-2, 1e-4, 1e-7)):
    series = {1: split_series(0.3, BETA1), 2: split_series(0.8, BETA2), **(extra_series or {})}
    return tagged_family(series, epsilons)


def test_multipoint_splitting_experiment_converges():
    report = convergence_experiment(_splitting_problem_family(), GRID)
    assert report.multipoint.passed
    assert report.error_trend_passed
    assert report.characteristic_trend.passed
    errors = [row.solution_error for row in report.rows]
    assert errors[0] / errors[1] == pytest.approx(1e4, rel=0.3)  # O(eps^2)


def test_multipoint_zero_series_counterexample():
    matrix = np.array([[0.5, 0.0], [0.0, 0.5]])
    family = _splitting_problem_family(extra_series={0: fixed_zero_series(0.55, matrix)})
    report = convergence_experiment(family, GRID)
    assert not report.multipoint.tables["delta"].passed
    assert not report.multipoint.passed
    assert not report.error_trend_passed


def test_untagged_family_reports_no_multipoint_assumptions():
    report = convergence_experiment(coefficient_family(A0, E, lambda e: e), GRID)
    assert report.multipoint is None
    assert "multipoint_assumptions" not in report.to_document()


def test_experiment_flags_singular_members_and_continues():
    # the member at eps = 1e-2 is singular; its row is flagged and the
    # remaining rows still carry data
    def make_boundary(eps):
        return point_evaluation(0.0, np.diag([1.0, eps - 1e-2]))

    family = boundary_family(make_boundary, epsilons=(1e-1, 1e-2, 1e-3))
    report = convergence_experiment(family, GRID)
    flagged = {row.eps: row for row in report.rows}
    assert "not-well-posed" in flagged[1e-2].flags
    assert flagged[1e-2].solution_error is None
    assert flagged[1e-1].solution_error is not None
    assert flagged[1e-3].solution_error is not None


def test_family_members_must_share_exponent():
    def make(eps):
        exponent = P2 if eps == 0 else PINF
        coeffs = CoefficientSet(1, 2, 1, (A0,))
        return ProblemSpec(UNIT, coeffs, identity_boundary(2), exponent)

    family = ProblemFamily(make(0.0), make)
    with pytest.raises(ValueError, match="exponent"):
        family.at(0.1)


def test_family_members_must_share_condition_count():
    # refused up front, not left to a numpy broadcast between the (3, probes)
    # and (2, probes) boundary values of condition (II)
    def make(eps):
        if eps == 0:
            return first_order_problem(A0, identity_boundary(2), c=[1.0, -1.0])
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        return first_order_problem(A0, point_evaluation(0.0, rows), c=[1.0, -1.0, 0.0])

    family = ProblemFamily(make(0.0), make)
    with pytest.raises(ValueError, match="number of boundary conditions"):
        convergence_experiment(family, GRID)


def test_family_members_must_match_the_limit_right_hand_side():
    # refused up front: a well-posed member without a right-hand side would
    # have no solution to compare and fail solution convergence
    def make(eps):
        return first_order_problem(A0, identity_boundary(2), c=None if eps else [1.0, -1.0])

    with pytest.raises(ValueError, match="right-hand side exactly when"):
        convergence_experiment(ProblemFamily(make(0.0), make), GRID)

    def unforced_limit(eps):
        return first_order_problem(A0, identity_boundary(2), c=[1.0, -1.0] if eps else None)

    with pytest.raises(ValueError, match="right-hand side exactly when"):
        ProblemFamily(unforced_limit(0.0), unforced_limit).at(0.1)


def test_experiment_semicontinuity_reads_its_own_rows():
    def make_boundary(eps):
        return point_evaluation(0.0, np.diag([1.0, eps - 1e-2]))

    family = boundary_family(make_boundary, epsilons=(1e-1, 1e-2, 1e-3))
    report = convergence_experiment(family, GRID)
    members = [SolvabilityReport(0, row.dim_kernel, row.dim_cokernel, row.well_posed)
               for row in report.rows]
    expected = semicontinuity(family.epsilons, analyze(family.at_zero, GRID).report, members)
    assert report.semicontinuity == expected
    assert report.semicontinuity.violations == (1e-2,)
    assert report.semicontinuity.threshold == 1e-3
    assert not report.semicontinuity.passed
    assert "semicontinuity: FAIL" in report.to_text()
    assert report.to_document()["semicontinuity"] == {
        "threshold": 1e-3, "violations": [1e-2], "passed": False}


def test_report_rendering():
    family = coefficient_family(A0, E, lambda e: e)
    report = convergence_experiment(family, GRID)
    text = report.to_text()
    assert "condition (0): pass" in text
    assert "ratio bracket" in text
    doc = report.to_document()
    assert doc["condition_0"] is True
    assert len(doc["rows"]) == len(family.epsilons)


# ---------------------------------------------------------------------------
# cross-family implications, checked empirically over a corpus


def _family_corpus():
    splitting_family = _splitting_problem_family()
    return [
        ("constant", coefficient_family(A0, E, lambda e: 0.0)),
        ("linear-coefficient", coefficient_family(A0, E, lambda e: e)),
        ("quadratic-coefficient", coefficient_family(A0, E, lambda e: e * e)),
        ("divergent-coefficient",
         coefficient_family(A0, E, lambda e: 0.0 if e == 0 else 1.0)),
        ("multipoint-splitting", splitting_family),
    ]


def test_strong_convergence_implies_matrix_convergence():
    for name, family in _family_corpus():
        report = convergence_experiment(family, GRID)
        if report.condition_I.passed and report.condition_II.passed:
            assert report.characteristic_trend.passed, name


def test_strong_convergence_implies_semicontinuity():
    for name, family in _family_corpus():
        report = convergence_experiment(family, GRID)
        if report.condition_I.passed and report.condition_II.passed:
            assert not report.semicontinuity.violations, name


def test_default_probes_column_order():
    # column i*m + j is profile i of {1, t, t^2, sin t, cos t} along coordinate j
    from fredholm_bvp.limits import default_probes

    ts = GRID.nodes
    zero, one = np.zeros_like(ts), np.ones_like(ts)
    profiles = [
        [one, zero, zero],
        [ts, one, zero],
        [ts**2, 2 * ts, 2 * one],
        [np.sin(ts), np.cos(ts), -np.sin(ts)],
        [np.cos(ts), -np.sin(ts), -np.cos(ts)],
    ]
    m = 3
    probes = default_probes(GRID, m, 2)
    assert probes.samples.shape == (3, GRID.count, m, 5 * m)
    for i, rows in enumerate(profiles):
        for j in range(m):
            column = probes.samples[:, :, :, i * m + j]
            expected = np.zeros_like(column)
            expected[:, :, j] = np.stack(rows)
            np.testing.assert_allclose(column, expected, rtol=0, atol=1e-15)


def test_condition_II_tables_one_per_default_probe():
    from fredholm_bvp.limits import default_probes

    def make_boundary(eps):
        return BoundaryOperator(2, (PointTerm(0.0, 0, np.eye(2)),
                                    PointTerm(0.5, 1, eps * np.ones((2, 2)))))

    family = boundary_family(make_boundary, epsilons=(1e-1, 1e-2))
    report = convergence_experiment(family, GRID).condition_II
    assert default_probes(GRID, 2, 2).samples.shape[-1] == len(report.tables) == 10
    assert [table.label for table in report.tables] == [f"probe {i}" for i in range(10)]
