"""Parameter-dependent families of problems and their limit behavior.

A family assigns a problem to every parameter value eps in a decreasing
schedule, plus the limit problem at eps = 0.  The same abstraction
serves sequences indexed k -> infinity, read as eps = 1/k; the checks
only care about the ordered schedule.

What is verified, per family:

* condition (0): the limit problem is square and nonsingular;
* condition (I): coefficients converge in the order-n Sobolev norm;
* condition (II): boundary values converge on a finite probe set —
  pointwise operator convergence is undecidable from finitely many
  probes, so the verdict is evidence, not proof;
* convergence of the characteristic matrices and upper semicontinuity
  of kernel/cokernel dimensions;
* convergence of solutions, with the error/discrepancy ratio tabulated
  so its empirical bracket can stand in for the (existential) two-sided
  estimate constants.  A row whose discrepancy is within the rounding
  level N * 2^-52 * ||y(0)|| (N grid nodes) gets no ratio: both of its
  terms are set by the arithmetic order there, not by eps.

Multipoint families are families whose boundary point terms carry series
tags; they get their own assumption checks (point clustering,
coefficient-sum convergence, weighted-norm smallness, zero-series decay),
read off the members' boundary operators, with the selection rule
depending on whether p is finite.

The experiment is one pass over the schedule.  Each member is built when
the pass reaches it and measured by one function (``member_row``), so
nothing of it outlives its row but its boundary operator, which the
condition (II) and multipoint tables read after the pass.  Every function
keeps its samples on the grid (``ArrayFunction.tabulate``): a member's
coefficients and forcing are evaluated once for its integration,
condition (I) and discrepancy, and the limit's once for the whole pass.
Each series of a member is read off the boundary operator's term arrays
as one magnitude table and one matrix sum, and each multipoint table
entry is one reduction of those over the terms, added in term order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .boundary import BoundaryOperator
from .characteristic import ProblemSpec, SolvabilityReport, analyze
from .grid import DerivativeStack, Grid, LebesgueExponent, lp_norm, sobolev_norm, vector_magnitude
from .ode import CoefficientSet, coefficient_samples
from .solver import discrepancy, superpose

DEFAULT_EPSILONS = (1e-1, 1e-2, 1e-3, 1e-4)
VANISH_ABS_TOL = 1e-6
VANISH_DROP_FACTOR = 100.0
BOUNDED_GROWTH_FACTOR = 100.0
MACHINE_EPSILON = 2.0**-52
LIMIT_POINT_TOL = 1e-12


def tends_to_zero(values) -> bool:
    """Two-part vanishing rule: small final value and a 100x drop.

    Columns that start already below the absolute tolerance pass without
    the drop requirement (nothing left to decay).
    """
    values = [float(v) for v in values]
    if not values:
        return True
    first, last = values[0], values[-1]
    return last <= VANISH_ABS_TOL and (last * VANISH_DROP_FACTOR <= first or first <= VANISH_ABS_TOL)


def stays_bounded(values) -> bool:
    """O(1) rule on a finite schedule: no 100x growth over the first value."""
    values = [float(v) for v in values]
    if not values:
        return True
    return max(values) <= BOUNDED_GROWTH_FACTOR * (values[0] + 1e-9)


@dataclass(frozen=True)
class TrendTable:
    """One labeled column of per-eps values with its verdict."""

    label: str
    epsilons: tuple[float, ...]
    values: tuple[float, ...]
    passed: bool

    @classmethod
    def vanishing(cls, label, epsilons, values) -> "TrendTable":
        return cls(label, tuple(epsilons), tuple(float(v) for v in values),
                   tends_to_zero(values))

    @classmethod
    def bounded(cls, label, epsilons, values) -> "TrendTable":
        return cls(label, tuple(epsilons), tuple(float(v) for v in values),
                   stays_bounded(values))


@dataclass(frozen=True)
class ConditionReport:
    """Named tables; the condition holds when every table passes."""

    name: str
    tables: tuple[TrendTable, ...]

    @property
    def passed(self) -> bool:
        return all(t.passed for t in self.tables)


@dataclass(frozen=True)
class ProblemFamily:
    """eps-indexed problems sharing interval, orders, exponent and number
    of boundary conditions, each with a right-hand side exactly when the
    limit problem has one.

    ``series``, when set, tags the boundary point terms of every member
    and of the limit problem, in term order, with the multipoint series
    each belongs to.  Series 0 is the zero series, whose matrices must
    vanish; the terms of any other series converge to one point, where
    the limit problem holds their limit matrices.
    """

    at_zero: ProblemSpec
    generator: Callable[[float], ProblemSpec]
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    series: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "epsilons", self.checked_schedule(self.epsilons))
        if self.series is not None:
            object.__setattr__(self, "series", tuple(self.series))
            self._check_tags(self.at_zero)

    @staticmethod
    def checked_schedule(epsilons) -> tuple[float, ...]:
        """The schedule as floats; it must be finite, positive and strictly decreasing."""
        eps = tuple(float(e) for e in epsilons)
        if not eps or not all(0 < e < math.inf for e in eps):
            raise ValueError("epsilon schedule must be finite and positive")
        if any(later >= earlier for later, earlier in zip(eps[1:], eps)):
            raise ValueError("epsilon schedule must be strictly decreasing")
        return eps

    def at(self, eps: float) -> ProblemSpec:
        if eps == 0:
            return self.at_zero
        member = self.generator(eps)
        if (member.r, member.m, member.n) != (self.at_zero.r, self.at_zero.m, self.at_zero.n):
            raise ValueError("family members must share the orders (r, m, n)")
        if member.q != self.at_zero.q:
            raise ValueError("family members must share the number of boundary conditions")
        if (member.rhs is None) != (self.at_zero.rhs is None):
            raise ValueError("family members must carry a right-hand side exactly when "
                             "the limit problem does")
        if member.interval != self.at_zero.interval:
            raise ValueError("family members must share the interval")
        if member.exponent != self.at_zero.exponent:
            raise ValueError("family members must share the integrability exponent")
        self._check_tags(member)
        return member

    def _check_tags(self, problem: ProblemSpec) -> None:
        count = problem.boundary.orders.size
        if self.series is not None and count != len(self.series):
            raise ValueError(f"{len(self.series)} series tags for {count} boundary point terms")

    def stray_limit_term(self) -> int | None:
        """The index of the first limit-problem point term that lies more than
        LIMIT_POINT_TOL from the first point of its converging series, or None."""
        first: dict[int, float] = {}
        for i, (tag, point) in enumerate(zip(self.series, self.at_zero.boundary.points.tolist())):
            if tag != 0 and abs(point - first.setdefault(tag, point)) > LIMIT_POINT_TOL:
                return i
        return None


def coefficient_distances(coeffs_eps: CoefficientSet, coeffs_zero: CoefficientSet, grid: Grid,
                          exponent: LebesgueExponent) -> list[float]:
    """Order-n Sobolev distance of each coefficient matrix on ``grid``, by order d.

    The derivatives of a constant coefficient, all zero, are None in its
    samples (``coefficient_samples``) and add nothing.
    """
    distances = []
    for derivs_eps, derivs_zero in zip(coefficient_samples(coeffs_eps, grid),
                                       coefficient_samples(coeffs_zero, grid)):
        total = 0.0
        for a_eps, a_zero in zip(derivs_eps, derivs_zero):
            if a_eps is None and a_zero is None:
                continue
            diff = (0.0 if a_eps is None else a_eps) - (0.0 if a_zero is None else a_zero)
            total += lp_norm(np.broadcast_to(diff, (grid.count, *diff.shape[-2:])), exponent, grid)
        distances.append(total)
    return distances


def _condition_I(epsilons, rows) -> ConditionReport:
    """Coefficient convergence tables from per-eps rows of distances, one per order d."""
    return ConditionReport("condition-I", tuple(
        TrendTable.vanishing(f"coefficient of y^({d})", epsilons, column)
        for d, column in enumerate(zip(*rows))
    ))


def check_condition_I(family: ProblemFamily, grid: Grid) -> ConditionReport:
    """Coefficient convergence tables, one per derivative order d."""
    zero = family.at_zero
    return _condition_I(family.epsilons, [
        coefficient_distances(family.at(eps).coefficients, zero.coefficients, grid, zero.exponent)
        for eps in family.epsilons
    ])


def default_probes(grid: Grid, dimension: int, max_order: int) -> DerivativeStack:
    """Smooth probes {1, t, t^2, sin t, cos t} x coordinate vectors, as one block.

    Column ``i * dimension + j`` is profile i along coordinate j.
    """
    ts = grid.nodes
    zero = np.zeros_like(ts)

    def poly_rows(degree):
        rows = []
        for k in range(max_order + 1):
            if k > degree:
                rows.append(zero)
            else:
                factor = 1.0
                for i in range(k):
                    factor *= degree - i
                rows.append(factor * ts ** (degree - k))
        return rows

    def trig_rows(start):  # start=0 for sin, 1 for cos; derivatives cycle
        table = [np.sin(ts), np.cos(ts), -np.sin(ts), -np.cos(ts)]
        return [table[(start + k) % 4] for k in range(max_order + 1)]

    profiles = np.stack([np.stack(rows) for rows in (
        poly_rows(0), poly_rows(1), poly_rows(2), trig_rows(0), trig_rows(1)
    )], axis=-1)
    samples = np.zeros((max_order + 1, grid.count, dimension, 5, dimension), dtype=complex)
    for j in range(dimension):
        samples[:, :, j, :, j] = profiles
    return DerivativeStack(grid, samples.reshape(max_order + 1, grid.count, dimension, -1))


def check_condition_II(family: ProblemFamily, grid: Grid) -> ConditionReport:
    """Boundary-value convergence on the probe set, table per probe."""
    return _condition_II(family, grid, (family.at(eps).boundary for eps in family.epsilons))


def _condition_II(family: ProblemFamily, grid: Grid,
                  boundaries: Iterable[BoundaryOperator]) -> ConditionReport:
    """Condition (II) from the members' boundary operators, in schedule order.

    The polynomial/trigonometric probes form one block, which each
    operator is applied to once.
    """
    zero = family.at_zero
    probes = default_probes(grid, zero.m, zero.coefficients.max_order)
    reference = zero.boundary.apply(probes)
    rows = [[vector_magnitude(column) for column in (boundary.apply(probes) - reference).T]
            for boundary in boundaries]
    tables = tuple(
        TrendTable.vanishing(f"probe {i}", family.epsilons, column)
        for i, column in enumerate(zip(*rows))
    )
    return ConditionReport("condition-II", tables)


@dataclass(frozen=True)
class SemicontinuityReport:
    """Kernel/cokernel dimensions along the schedule vs. the limit."""

    dim_kernel_limit: int
    dim_cokernel_limit: int
    rows: tuple[tuple[float, int, int], ...]
    threshold: float | None
    violations: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def semicontinuity(epsilons: Sequence[float], limit: SolvabilityReport,
                   members: Sequence[SolvabilityReport]) -> SemicontinuityReport:
    """Check dim ker / dim coker of the members never exceed their limit values.

    ``members`` holds one report per scheduled eps, in schedule order.  The
    threshold is the largest scheduled eps below which (inclusive) every
    scheduled value satisfies both inequalities.
    """
    rows = tuple((eps, report.dim_kernel, report.dim_cokernel)
                 for eps, report in zip(epsilons, members, strict=True))
    bad = [i for i, (_, ker, coker) in enumerate(rows)
           if ker > limit.dim_kernel or coker > limit.dim_cokernel]
    start = bad[-1] + 1 if bad else 0
    return SemicontinuityReport(
        dim_kernel_limit=limit.dim_kernel,
        dim_cokernel_limit=limit.dim_cokernel,
        rows=rows,
        threshold=rows[start][0] if start < len(rows) else None,
        violations=tuple(rows[i][0] for i in bad),
    )


# ---------------------------------------------------------------------------
# multipoint families


BOUNDED_TABLES = ("gamma_p",)


@dataclass(frozen=True)
class MultipointAssumptionReport:
    tables: dict[str, ConditionReport]
    required: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(self.tables[name].passed for name in self.required)


def _term_sum(values: np.ndarray) -> np.ndarray:
    """The sum over axis 0, terms added in order: the same bits for any shape.

    A plain ``sum`` over terms is reordered pairwise by numpy for some
    shapes, and compensated by Python's builtin ``sum`` since 3.12.
    """
    return np.cumsum(values, axis=0)[-1]


def _series_table(boundary: BoundaryOperator, tags: np.ndarray, tag: int,
                  orders: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms of one series of ``boundary``, each term its own point k.

    Returns the points (K,), the magnitudes |M_k^(d)| (K, orders), zero
    at the orders a term does not have, and the summed matrices
    sum_k M_k^(d), shape (orders, q, m).
    """
    at = tags == tag
    points, term_orders, matrices = boundary.points[at], boundary.orders[at], boundary.matrices[at]
    k = np.arange(points.size)
    magnitudes = np.zeros((points.size, orders))
    magnitudes[k, term_orders] = np.abs(matrices).sum(axis=(1, 2))
    by_order = np.zeros((points.size, orders, *matrices.shape[1:]), dtype=complex)
    by_order[k, term_orders] = matrices
    return points, magnitudes, _term_sum(by_order)


def check_multipoint_assumptions(family: ProblemFamily) -> MultipointAssumptionReport:
    """Evaluate the clustering/decay assumptions over the family's schedule."""
    return _multipoint_assumptions(family, (family.at(eps).boundary for eps in family.epsilons))


def _multipoint_assumptions(family: ProblemFamily,
                            boundaries: Iterable[BoundaryOperator]) -> MultipointAssumptionReport:
    """The assumptions read off the members' boundary operators, in schedule order.

    The point terms of each member are grouped by their series tags;
    converging series are measured against the point and the summed
    matrices of their terms in the limit problem.  For p = inf the
    required set is {point-clustering, coefficient-sum, weighted-decay,
    zero-series}; for finite p the weighted-decay requirement splits into
    a boundedness condition on the top derivative order (with the
    conjugate-exponent weight) and a decay condition on the lower orders.

    Each member's series is read as one magnitude table |M_k^(d)| and
    one sum of its matrices (``_series_table``); every table entry is a
    reduction of those over the terms k, in term order (``_term_sum``).
    The limit's sums are reduced the same way, so a series whose
    matrices do not depend on eps has beta exactly 0.
    """
    if family.series is None:
        raise ValueError("the family's boundary point terms carry no series tags")
    stray = family.stray_limit_term()
    if stray is not None:
        raise ValueError(f"point term {stray}: the points of a converging series "
                         "must share the eps = 0 limit")
    zero = family.at_zero
    orders = zero.n + zero.r
    tags = np.array(family.series)
    present = sorted(set(family.series))
    limits = {}
    for tag in present:
        if tag != 0:
            points, _, sums = _series_table(zero.boundary, tags, tag, orders)
            limits[tag] = (points[0], sums)
    columns: dict[str, dict[str, list[float]]] = {
        key: {} for key in ("alpha", "beta", "gamma", "delta", "gamma_p", "gamma_prime")
    }

    def put(table: str, label: str, value: float):
        columns[table].setdefault(label, []).append(value)

    conj = zero.exponent.conjugate
    weight_exponent = 0.0 if np.isinf(conj) else 1.0 / conj
    for boundary in boundaries:
        for j in present:
            points, magnitudes, sums = _series_table(boundary, tags, j, orders)
            labels = [f"series {j} order {d}" for d in range(orders)]
            if j == 0:
                for label, value in zip(labels, _term_sum(magnitudes).tolist()):
                    put("delta", label, value)
                continue
            limit_point, limit_sums = limits[j]
            offsets = np.abs(points - limit_point)
            # scalar powers, as libm computes them: numpy's array power may not
            weights = np.array([offset ** weight_exponent for offset in offsets.tolist()])
            beta = np.abs(sums - limit_sums).sum(axis=(1, 2)).tolist()
            weighted = _term_sum(magnitudes * offsets[:, None]).tolist()
            put("alpha", f"series {j}", float(offsets.max()))
            for d, label in enumerate(labels):
                put("beta", label, beta[d])
                put("gamma", label, weighted[d])
                if d == orders - 1:
                    put("gamma_p", label, float(_term_sum(magnitudes[:, d] * weights)))
                else:
                    put("gamma_prime", label, weighted[d])

    tables = {}
    for name, rows in columns.items():
        trend = TrendTable.bounded if name in BOUNDED_TABLES else TrendTable.vanishing
        tables[name] = ConditionReport(name, tuple(
            trend(label, family.epsilons, values) for label, values in rows.items()))

    if zero.exponent.is_infinite:
        required = ("alpha", "beta", "gamma", "delta")
    else:
        required = ("alpha", "beta", "gamma_p", "gamma_prime", "delta")
    return MultipointAssumptionReport(tables, required)


# ---------------------------------------------------------------------------
# the convergence experiment


@dataclass(frozen=True)
class LimitRow:
    eps: float
    coefficient_distances: tuple[float, ...]
    matrix_distance: float
    dim_kernel: int
    dim_cokernel: int
    well_posed: bool
    solution_error: float | None
    discrepancy: float
    ratio: float | None
    flags: tuple[str, ...]


@dataclass(frozen=True)
class LimitReport:
    """Everything the experiment measured, one row per scheduled eps.

    There is no condition (0) field: the experiment raises
    NotWellPosedError on a singular limit, so condition (0) holds in
    every report it returns, and the reports write it as a constant.
    """

    epsilons: tuple[float, ...]
    rows: tuple[LimitRow, ...]
    condition_I: ConditionReport
    condition_II: ConditionReport
    characteristic_trend: TrendTable
    semicontinuity: SemicontinuityReport
    error_trend_passed: bool
    ratio_bracket: tuple[float, float] | None
    multipoint: MultipointAssumptionReport | None = None

    def to_text(self) -> str:
        lines = []
        header = (f"{'eps':>12}  {'coeff dist':>12}  {'|dM|':>12}  {'ker':>3}  "
                  f"{'coker':>5}  {'error':>12}  {'discrepancy':>12}  {'ratio':>12}  flags")
        lines.append(header)
        for row in self.rows:
            coeff = max(row.coefficient_distances) if row.coefficient_distances else 0.0
            lines.append(
                f"{row.eps:>12.4e}  {coeff:>12.4e}  {row.matrix_distance:>12.4e}  "
                f"{row.dim_kernel:>3d}  {row.dim_cokernel:>5d}  "
                f"{_fmt(row.solution_error):>12}  {_fmt(row.discrepancy):>12}  "
                f"{_fmt(row.ratio):>12}  {','.join(row.flags)}"
            )
        lines.append("")
        lines.append("condition (0): pass")
        lines.append(f"condition (I): {'pass' if self.condition_I.passed else 'FAIL'}")
        lines.append(f"condition (II): {'pass' if self.condition_II.passed else 'FAIL'}")
        lines.append(
            "characteristic convergence: "
            f"{'pass' if self.characteristic_trend.passed else 'FAIL'}"
        )
        lines.append(f"semicontinuity: {'pass' if self.semicontinuity.passed else 'FAIL'}")
        lines.append(f"solution convergence: {'pass' if self.error_trend_passed else 'FAIL'}")
        if self.ratio_bracket is not None:
            lines.append(
                f"error/discrepancy ratio bracket: [{self.ratio_bracket[0]:.4e}, "
                f"{self.ratio_bracket[1]:.4e}]"
            )
        if self.multipoint is not None:
            lines.append(
                "multipoint assumptions "
                f"({', '.join(self.multipoint.required)}): "
                f"{'pass' if self.multipoint.passed else 'FAIL'}"
            )
        return "\n".join(lines)

    def to_document(self) -> dict:
        doc = {
            "epsilons": list(self.epsilons),
            "rows": [
                {
                    "eps": row.eps,
                    "coefficient_distances": list(row.coefficient_distances),
                    "matrix_distance": row.matrix_distance,
                    "dim_kernel": row.dim_kernel,
                    "dim_cokernel": row.dim_cokernel,
                    "well_posed": row.well_posed,
                    "solution_error": row.solution_error,
                    "discrepancy": row.discrepancy,
                    "ratio": row.ratio,
                    "flags": list(row.flags),
                }
                for row in self.rows
            ],
            "condition_0": True,
            "condition_I": _condition_doc(self.condition_I),
            "condition_II": _condition_doc(self.condition_II),
            "characteristic_convergence": {
                "values": list(self.characteristic_trend.values),
                "passed": self.characteristic_trend.passed,
            },
            "semicontinuity": {
                "threshold": self.semicontinuity.threshold,
                "violations": list(self.semicontinuity.violations),
                "passed": self.semicontinuity.passed,
            },
            "solution_convergence": self.error_trend_passed,
            "ratio_bracket": list(self.ratio_bracket) if self.ratio_bracket else None,
        }
        if self.multipoint is not None:
            doc["multipoint_assumptions"] = {
                "required": list(self.multipoint.required),
                "passed": self.multipoint.passed,
                "tables": {
                    name: {
                        "kind": "bounded" if name in BOUNDED_TABLES else "vanish",
                        "rows": {row.label: list(row.values) for row in table.tables},
                        "passed": table.passed,
                    }
                    for name, table in self.multipoint.tables.items()
                },
            }
        return doc


def _fmt(value) -> str:
    return f"{value:.4e}" if value is not None else "-"


def _condition_doc(report: ConditionReport) -> dict:
    return {
        "passed": report.passed,
        "tables": {
            table.label: {"values": list(table.values), "passed": table.passed}
            for table in report.tables
        },
    }


def convergence_experiment(family: ProblemFamily, grid: Grid,
                           rank_tolerance: float | None = None) -> LimitReport:
    """Solve the family along the schedule and tabulate all limit data.

    Requires the limit problem to be square and nonsingular (raises
    NotWellPosedError otherwise).  Rows whose member problem is not well
    posed are flagged but the experiment continues: well-posedness is
    only guaranteed for sufficiently small eps.  Families with series
    tags get their multipoint assumptions checked as well.  Members are
    built one at a time, in schedule order (``member_row``).
    """
    zero = family.at_zero
    if zero.rhs is None:
        raise ValueError("the limit problem needs a right-hand side for the experiment")
    limit = analyze(zero, grid, rank_tolerance)
    y_zero, _ = superpose(zero, limit)
    ratio_floor = grid.count * MACHINE_EPSILON * sobolev_norm(y_zero, zero.exponent)

    def member_row(eps: float) -> tuple[LimitRow, SolvabilityReport, BoundaryOperator]:
        """The row of the member at eps, its report and its boundary operator."""
        member = family.at(eps)
        analysis = analyze(member, grid, rank_tolerance)
        report = analysis.report
        distances = coefficient_distances(member.coefficients, zero.coefficients, grid,
                                          zero.exponent)
        flags = []
        error = ratio = None
        disc = discrepancy(member, y_zero)
        if report.well_posed:
            y_eps, _ = superpose(member, analysis)
            error = sobolev_norm(y_eps - y_zero, zero.exponent)
            if disc > ratio_floor:
                ratio = error / disc
            else:
                flags.append("degenerate-ratio")
        else:
            flags.append("not-well-posed")
        row = LimitRow(
            eps=eps,
            coefficient_distances=tuple(distances),
            matrix_distance=float(np.abs(analysis.matrix.entries - limit.matrix.entries).max()),
            dim_kernel=report.dim_kernel,
            dim_cokernel=report.dim_cokernel,
            well_posed=report.well_posed,
            solution_error=error,
            discrepancy=disc,
            ratio=ratio,
            flags=tuple(flags),
        )
        return row, report, member.boundary

    rows, reports, boundaries = zip(*(member_row(eps) for eps in family.epsilons))
    errors = [row.solution_error for row in rows if row.solution_error is not None]
    ratios = [row.ratio for row in rows if row.ratio is not None]
    characteristic_trend = TrendTable.vanishing(
        "characteristic matrix", family.epsilons, [row.matrix_distance for row in rows]
    )
    error_trend_passed = bool(errors) and len(errors) == len(family.epsilons) \
        and tends_to_zero(errors)
    bracket = (min(ratios), max(ratios)) if ratios else None
    return LimitReport(
        epsilons=family.epsilons,
        rows=rows,
        condition_I=_condition_I(family.epsilons, [row.coefficient_distances for row in rows]),
        condition_II=_condition_II(family, grid, boundaries),
        characteristic_trend=characteristic_trend,
        semicontinuity=semicontinuity(family.epsilons, limit.report, reports),
        error_trend_passed=error_trend_passed,
        ratio_bracket=bracket,
        multipoint=(None if family.series is None
                    else _multipoint_assumptions(family, boundaries)),
    )
