"""Checks of the program's outputs against references and required properties.

Every check returns a list of error strings; an empty list means the
output passed.  Tolerances scale with RK4's O(h^4) global error: the
characteristic matrix may deviate from the reference by
``1e-9 + 10 (h rho)^4`` relative to its largest entry, where rho is the
companion-matrix norm times the interval length.  Tabulated
coefficients add the cubic interpolation error of their table.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import CubicSpline

import reference as ref
from reference import Model

SOLUTION_RTOL = 1e-8
BOUNDARY_RTOL = 1e-8
CLOSED_FORM_RTOL = 1e-10


def cplx(raw) -> np.ndarray:
    """[re, im] pairs of a machine report as a complex array."""
    arr = np.asarray(raw, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _companion_norm(model: Model) -> float:
    ts = np.linspace(model.a, model.b, 9)
    r, m = model.r, model.m
    worst = 0.0
    for i in range(ts.size):
        c = np.zeros((r * m, r * m), dtype=complex)
        for j in range(r - 1):
            c[j * m:(j + 1) * m, (j + 1) * m:(j + 2) * m] = np.eye(m)
        for d, fn in enumerate(model.coeffs):
            c[(r - 1) * m:, d * m:(d + 1) * m] = -fn(ts[i])[0]
        worst = max(worst, float(np.linalg.norm(c, 2)))
    return worst


def matrix_tolerance(model: Model, nodes: int) -> float:
    """Allowed deviation from the reference, relative to its largest entry."""
    rho = max(1.0, _companion_norm(model)) * (model.b - model.a)
    tol = 1e-9 + 10.0 * (model.step(nodes) * rho) ** 4
    if model.table_nodes:
        tol += 10.0 * ((model.b - model.a) / (model.table_nodes - 1) * 3.0) ** 4
    return tol


def relative_deviation(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


def check_matrix(label: str, got: np.ndarray, want: np.ndarray, tol: float) -> list[str]:
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape}, expected {want.shape}"]
    deviation = relative_deviation(got, want)
    if not deviation <= tol:
        return [f"{label}: relative deviation {deviation:.3e} from the reference exceeds {tol:.3e}"]
    return []


def check_fredholm(report: dict, rank: int, model: Model, expected: dict) -> list[str]:
    """index = r*m - q, dim ker - dim coker = index, and the built rank."""
    errors = []
    size = model.r * model.m
    if report["index"] != size - model.q:
        errors.append(f"index {report['index']} != r*m - q = {size - model.q}")
    if report["dim_kernel"] - report["dim_cokernel"] != report["index"]:
        errors.append("dim ker - dim coker differs from the index")
    for key in ("dim_kernel", "dim_cokernel", "well_posed"):
        if report[key] != expected[key]:
            errors.append(f"{key} {report[key]} != {expected[key]} (as built)")
    if rank != expected["rank"]:
        errors.append(f"numerical rank {rank} != {expected['rank']} (as built)")
    return errors


def check_directions(label: str, directions: list[np.ndarray], matrix: np.ndarray,
                     count: int, bound: float, left: bool = False) -> list[str]:
    """Each direction is a unit vector that the reference matrix (nearly) annihilates."""
    errors = []
    if len(directions) != count:
        errors.append(f"{len(directions)} {label} directions, expected {count}")
    for i, v in enumerate(directions):
        if abs(np.linalg.norm(v) - 1.0) > 1e-10:
            errors.append(f"{label} direction {i} is not a unit vector")
        image = v.conj() @ matrix if left else matrix @ v
        if not np.linalg.norm(image) <= bound:
            errors.append(f"{label} direction {i}: |M v| = {np.linalg.norm(image):.3e} > {bound:.3e}")
    return errors


def _direction_bound(reference: np.ndarray, tol: float, rank: int) -> float:
    """Largest |M v| allowed for a null direction of a matrix within ``tol`` of ``reference``.

    The slack comes from the reference alone: its singular value just past
    the built rank (zero where there is none), and the deviation the matrix
    tolerance allows.  Nothing the program reports loosens it.
    """
    q, size = reference.shape
    sv = np.linalg.svd(reference, compute_uv=False)
    beyond = float(sv[rank]) if rank < sv.size else 0.0
    return 10.0 * math.sqrt(q * size) * tol * np.abs(reference).max() + 2.0 * beyond


def check_singular_values(values: np.ndarray, reference: np.ndarray, tol: float) -> list[str]:
    want = np.linalg.svd(reference, compute_uv=False)
    q, size = reference.shape
    bound = math.sqrt(q * size) * tol * np.abs(reference).max() + 1e-14 * want[0]
    if values.shape != want.shape or not np.all(np.abs(values - want) <= bound):
        return [f"singular values deviate from the reference's by more than {bound:.3e}"]
    return []


def check_analyze(out: dict, model: Model, expected: dict, nodes: int) -> tuple[list[str], float]:
    """An `analyze` machine report; returns errors and the matrix deviation."""
    reference = ref.characteristic(model, nodes)
    tol = matrix_tolerance(model, nodes)
    matrix = cplx(out["characteristic_matrix"])
    errors = []
    if out["grid_nodes"] != nodes:
        errors.append(f"grid_nodes {out['grid_nodes']} != {nodes}")
    errors += check_matrix("characteristic matrix", matrix, reference, tol)
    if errors:
        return errors, float("inf")
    errors += check_singular_values(np.asarray(out["singular_values"]), reference, tol)
    errors += check_fredholm(out["report"], out["numerical_rank"], model, expected)
    directions = [cplx(v) for v in out["kernel_directions"]]
    errors += check_directions("kernel", directions, reference, expected["dim_kernel"],
                               _direction_bound(reference, tol, expected["rank"]))
    return errors, relative_deviation(matrix, reference)


def check_library(out: dict, model: Model, expected: dict, nodes: int) -> tuple[list[str], float]:
    """The library analysis of analyze-scale, with cokernel directions as well."""
    reference = ref.characteristic(model, nodes)
    tol = matrix_tolerance(model, nodes)
    matrix = cplx(out["entries"])
    errors = check_matrix("characteristic matrix", matrix, reference, tol)
    if errors:
        return errors, float("inf")
    errors += check_singular_values(np.asarray(out["singular_values"]), reference, tol)
    errors += check_fredholm(out["report"], out["rank"], model, expected)
    bound = _direction_bound(reference, tol, expected["rank"])
    errors += check_directions("kernel", [cplx(v) for v in out["kernel"]], reference,
                               expected["dim_kernel"], bound)
    errors += check_directions("cokernel", [cplx(v) for v in out["cokernel"]], reference,
                               expected["dim_cokernel"], bound, left=True)
    return errors, relative_deviation(matrix, reference)


def check_oracle(out: dict, model: Model, nodes: int) -> tuple[list[str], float]:
    """An `oracle-check` report: both matrices against the reference."""
    reference = ref.characteristic(model, nodes)
    numerical = cplx(out["numerical"])
    closed = cplx(out["closed_form"])
    errors = check_matrix("numerical matrix", numerical, reference, matrix_tolerance(model, nodes))
    errors += check_matrix("closed form", closed, reference, CLOSED_FORM_RTOL)
    if not errors:
        recomputed = float(np.abs(numerical - closed).max())
        if abs(out["max_deviation"] - recomputed) > 1e-12 * max(1.0, np.abs(closed).max()):
            errors.append(f"max_deviation {out['max_deviation']!r} != {recomputed!r}")
    return errors, relative_deviation(numerical, reference) if not errors else float("inf")


def boundary_defect(model: Model, nodes: np.ndarray, samples: np.ndarray) -> float:
    """|B y - c| for reported samples, evaluated apart from the program.

    Point values use a cubic spline through each order's node samples;
    the integral term uses the trapezoid rule the program's grid implies.
    """
    value = -model.c.astype(complex)
    for point, order, matrix in model.terms:
        spline = CubicSpline(nodes, samples[order], axis=0)
        value = value + matrix @ spline(point)
    if model.kernel is not None:
        value = value + np.trapezoid(samples[model.top] @ model.kernel.T, nodes, axis=0)
    return float(np.abs(value).sum())


def check_solve(out: dict, model: Model, nodes: int) -> list[str]:
    """A `solve` report: matches the reference and meets its boundary conditions."""
    grid = np.linspace(model.a, model.b, nodes)
    reported = np.asarray(out["nodes"], dtype=float)
    if reported.shape != grid.shape or np.abs(reported - grid).max() > 1e-14 * max(1.0, abs(model.b)):
        return ["reported nodes are not the uniform grid"]
    samples = cplx(out["samples"])
    if samples.shape != (model.top + 1, nodes, model.m):
        return [f"samples have shape {samples.shape}, expected {(model.top + 1, nodes, model.m)}"]
    want = ref.solution(model, nodes)
    errors = []
    tol = SOLUTION_RTOL + 100.0 * matrix_tolerance(model, nodes)
    deviation = relative_deviation(samples[:model.r], want)
    if not deviation <= tol:
        errors.append(f"solution deviates from the reference by {deviation:.3e} > {tol:.3e}")
    defect = boundary_defect(model, grid, samples)
    scale = float(np.abs(model.c).sum()) + sum(
        float(np.abs(w).sum()) for _, _, w in model.terms) * float(np.abs(samples).max())
    if not defect <= BOUNDARY_RTOL * scale:
        errors.append(f"boundary conditions missed by {defect:.3e}")
    return errors


def family_verdicts(out: dict) -> dict:
    multipoint = out.get("multipoint_assumptions") or {}
    return {
        "condition_I": out["condition_I"]["passed"],
        "condition_II": out["condition_II"]["passed"],
        "characteristic": out["characteristic_convergence"]["passed"],
        "solution": out["solution_convergence"],
        "multipoint": multipoint.get("passed"),
        "delta": multipoint.get("tables", {}).get("delta", {}).get("passed"),
    }


def check_family(out: dict, expected: dict) -> list[str]:
    """A `family` report: schedule, verdicts as built, and the clustering column."""
    errors = []
    if out["epsilons"] != list(expected["schedule"]) or len(out["rows"]) != len(expected["schedule"]):
        errors.append("the report's schedule differs from the document's")
    if out["condition_0"] is not True:
        errors.append("condition (0) fails on a limit problem built well posed")
    verdicts = family_verdicts(out)
    for key, want in expected["verdicts"].items():
        if verdicts[key] != want:
            errors.append(f"{expected['kind']} family: verdict {key} is {verdicts[key]}, built {want}")
    # alpha: the largest distance of a series' points from its limit point
    alpha = dict((out.get("multipoint_assumptions") or {}).get("tables", {})
                 .get("alpha", {}).get("rows", {}))
    for j, (tau, deltas) in enumerate(zip(expected.get("limits", ()),
                                          expected.get("offsets", ())), start=1):
        want = [max(abs((tau + d * eps) - tau) for d in deltas) for eps in expected["schedule"]]
        got = alpha.get(f"series {j}")
        if got is None or not np.allclose(got, want, rtol=1e-9, atol=1e-15):
            errors.append(f"alpha column of series {j} differs from the point offsets")
    return errors
