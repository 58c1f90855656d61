"""Command-line interface: analyze, solve, family, oracle-check.

Machine-readable reports are JSON with a fixed field order and floats
formatted at 17 significant digits, so identical inputs and flags
produce byte-identical output.  ``analyze`` and ``oracle-check`` call
``build_characteristic_matrix``, ``solve`` calls ``analyze`` and
``superpose``, and each hands numpy arrays to the one encoder,
``emit_json``, which writes every complex value as an ``[re, im]`` pair.  A float array
whose values are all finite is written by filling one ``%.17g`` template
built for its shape; any other array goes through ``tolist()`` and the
recursive list path, which writes NaN as ``null`` and +-inf as ``"inf"`` and
``"-inf"``.  Both give the same bytes for the same values.  ``oracle-check``
compares the numerical matrix with ``exact_characteristic_matrix``, exact
for any constant-coefficient problem whose integral kernel is absent or
constant, whether it comes from a document or is one of the builtins
``ex1``..``ex5``; a varying coefficient or kernel is an error.
Exit status: 0 on success, 2 when an analysis completes but the problem
is not well posed, 1 on any error.  ``main`` builds its argument parser
once per process and parses every command line with it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

import numpy as np

from .characteristic import (
    ProblemSpec,
    analyze,
    build_characteristic_matrix,
    kernel_directions,
    solvability_report,
)
from .boundary import BoundaryOperator, IntegralTerm, PointTerm
from .closed_forms import exact_characteristic_matrix
from .document import DocumentError, document_family, document_problem, load_document
from .expressions import ExpressionError
from .functions import ConstantFunction
from .grid import DEFAULT_NODE_COUNT, Grid, Interval, LebesgueExponent, vector_magnitude
from .limits import convergence_experiment
from .ode import CoefficientSet, integration_residual, residual_stack
from .solver import NotWellPosedError, superpose

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_WELL_POSED = 2


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1; status 2 is reserved for not-well-posed
    def error(self, message):
        raise CliError(message)


# ---------------------------------------------------------------------------
# deterministic JSON emission


def _format_float(value: float) -> str:
    if value != value:
        return "null"
    if value == float("inf"):
        return '"inf"'
    if value == float("-inf"):
        return '"-inf"'
    return f"{value:.17g}"


def _array_template(shape: tuple[int, ...], indent: int) -> str:
    """What emit_json writes for nested lists of this shape, a %.17g slot per float."""
    template = "%.17g"
    for axis in reversed(range(len(shape))):
        if shape[axis] == 0:
            template = "[]"
        else:
            pad = "  " * (indent + axis)
            item = pad + "  " + template
            template = "[\n" + ",\n".join([item] * shape[axis]) + "\n" + pad + "]"
    return template


def emit_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (complex, np.ndarray)):
        # complex values, scalar or array, end in [re, im] pairs
        obj = np.asarray(obj)
        if np.iscomplexobj(obj):
            obj = np.stack([obj.real, obj.imag], axis=-1)
        if obj.ndim and obj.dtype.kind == "f" and np.isfinite(obj).all():
            return _array_template(obj.shape, indent) % tuple(obj.ravel().tolist())
        return emit_json(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join("  " * (indent + 1) + emit_json(x, indent + 1) for x in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            "  " * (indent + 1) + json.dumps(str(k)) + ": " + emit_json(v, indent + 1)
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _format_complex(z: complex) -> str:
    return f"{z.real:+.6g}{z.imag:+.6g}j"


def _matrix_lines(matrix: np.ndarray, title: str) -> list[str]:
    lines = [f"{title}:"]
    for row in np.atleast_2d(matrix):
        lines.append("  [" + ", ".join(_format_complex(z) for z in row) + "]")
    return lines


# ---------------------------------------------------------------------------
# command handlers


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _run_analyze(args) -> int:
    problem = document_problem(load_document(args.document))
    grid = Grid.uniform(problem.interval, args.nodes)
    # the report concerns (L, B) only: no forcing and no fundamental stack
    matrix = build_characteristic_matrix(problem, grid, args.rank_tol)
    report = solvability_report(matrix, problem)
    directions = kernel_directions(matrix)
    if args.format == "machine":
        doc = {
            "command": "analyze",
            "problem": {
                "interval": {"a": problem.interval.a, "b": problem.interval.b},
                "orders": {"r": problem.r, "m": problem.m, "n": problem.n},
                "conditions": problem.q,
            },
            "grid_nodes": grid.count,
            "characteristic_matrix": matrix.entries,
            "singular_values": matrix.singular_values,
            "rank_tolerance": matrix.rank_tolerance,
            "numerical_rank": matrix.numerical_rank,
            "report": {
                "index": report.index,
                "dim_kernel": report.dim_kernel,
                "dim_cokernel": report.dim_cokernel,
                "well_posed": report.well_posed,
                "diagnostics": list(report.diagnostics),
            },
            "kernel_directions": directions,
        }
        _write_output(emit_json(doc), args.out)
    else:
        lines = []
        lines.extend(_matrix_lines(matrix.entries, "characteristic matrix"))
        lines.append("singular values: "
                     + ", ".join(f"{s:.6e}" for s in matrix.singular_values))
        lines.append(f"numerical rank: {matrix.numerical_rank} "
                     f"(tolerance {matrix.rank_tolerance:.3e})")
        lines.append(f"index: {report.index}")
        lines.append(f"dim kernel: {report.dim_kernel}")
        lines.append(f"dim cokernel: {report.dim_cokernel}")
        lines.append(f"well posed: {'yes' if report.well_posed else 'no'}")
        for diagnostic in report.diagnostics:
            lines.append(f"diagnostic: {diagnostic}")
        for i, direction in enumerate(directions):
            lines.append(
                f"kernel direction {i}: ["
                + ", ".join(_format_complex(z) for z in direction) + "]"
            )
        _write_output("\n".join(lines), args.out)
    return EXIT_OK if report.well_posed else EXIT_NOT_WELL_POSED


def _run_solve(args) -> int:
    problem = document_problem(load_document(args.document))
    grid = Grid.uniform(problem.interval, args.nodes)
    analysis = analyze(problem, grid, args.rank_tol)
    y, weights = superpose(problem, analysis)
    condition_number = analysis.matrix.condition_number
    residual = residual_stack(problem.coefficients, y, problem.rhs.f, orders=0)
    equation_residual = float(np.abs(residual.samples[0]).sum(axis=1).max())
    boundary_residual = vector_magnitude(problem.boundary.apply(y) - problem.rhs.c)
    if args.format == "machine":
        doc = {
            "command": "solve",
            "grid_nodes": grid.count,
            "nodes": grid.nodes,
            "orders": y.max_order,
            "samples": y.samples,
            "weights": weights,
            "residuals": {
                "equation_max": equation_residual,
                "boundary": boundary_residual,
                "integration": integration_residual(analysis.fundamental, problem.r),
            },
            "condition_number": condition_number,
        }
        _write_output(emit_json(doc), args.out)
    else:
        lines = [
            f"solved on {grid.count} nodes; derivative orders 0..{y.max_order}",
            f"equation residual (max node): {equation_residual:.3e}",
            f"boundary residual: {boundary_residual:.3e}",
            f"characteristic matrix condition number: {condition_number:.3e}",
            "solution samples (order 0):",
        ]
        step = max(1, grid.count // 10)
        for i in range(0, grid.count, step):
            values = ", ".join(_format_complex(z) for z in y.samples[0, i])
            lines.append(f"  t={grid.nodes[i]:+.6f}  [{values}]")
        _write_output("\n".join(lines), args.out)
    return EXIT_OK


def _run_family(args) -> int:
    doc = load_document(args.document)
    family = document_family(doc)
    if args.eps_schedule:
        family = replace(family, epsilons=tuple(args.eps_schedule))
    grid = Grid.uniform(family.at_zero.interval, args.nodes)
    report = convergence_experiment(family, grid, rank_tolerance=args.rank_tol)
    if args.format == "machine":
        _write_output(emit_json({"command": "family", **report.to_document()}), args.out)
    else:
        _write_output(report.to_text(), args.out)
    return EXIT_OK


def _run_oracle_check(args) -> int:
    if args.document in _BUILTINS:
        problem = _BUILTINS[args.document]()
        name = _EXAMPLE_ALIASES.get(args.document, args.document)
    else:
        problem = document_problem(load_document(args.document))
        name = "constant-coefficient"
    oracle = exact_characteristic_matrix(problem)
    grid = Grid.uniform(problem.interval, args.nodes)
    matrix = build_characteristic_matrix(problem, grid, args.rank_tol)
    deviation = float(np.abs(matrix.entries - oracle).max())
    scale = float(np.abs(oracle).max())
    relative = deviation / scale if scale > 0 else deviation
    if args.format == "machine":
        doc_out = {
            "command": "oracle-check",
            "example": name,
            "grid_nodes": grid.count,
            "numerical": matrix.entries,
            "closed_form": oracle,
            "max_deviation": deviation,
            "relative_deviation": relative,
        }
        _write_output(emit_json(doc_out), args.out)
    else:
        lines = [f"configuration: {name}"]
        lines.extend(_matrix_lines(matrix.entries, "numerical"))
        lines.extend(_matrix_lines(oracle, "closed form"))
        lines.append(f"max entrywise deviation: {deviation:.6e}")
        lines.append(f"relative deviation: {relative:.6e}")
        _write_output("\n".join(lines), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle-check builtins


def _builtin_rng() -> np.random.Generator:
    return np.random.default_rng(20240611)


def _random_complex(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def _builtin_ex1():
    rng = _builtin_rng()
    m = 2
    a = _random_complex(rng, m, m)
    a *= 1.5 / np.abs(a).sum()
    alphas = [_random_complex(rng, m, m) for _ in range(3)]
    coeffs = CoefficientSet(1, m, 2, (a,))
    boundary = BoundaryOperator(
        m, tuple(PointTerm(0.0, k, alphas[k]) for k in range(3))
    )
    return ProblemSpec(Interval(0.0, 1.0), coeffs, boundary, LebesgueExponent(2.0))


def _builtin_ex2():
    rng = _builtin_rng()
    m = 2
    points = [0.0, 0.3, 0.7, 1.0]
    alphas0 = [_random_complex(rng, m, m) for _ in points]
    higher = [_random_complex(rng, m, m) for _ in points]
    coeffs = CoefficientSet(1, m, 2, (np.zeros((m, m)),))
    terms = [PointTerm(p, 0, mat) for p, mat in zip(points, alphas0)]
    terms += [PointTerm(p, 2, mat) for p, mat in zip(points, higher)]
    boundary = BoundaryOperator(m, tuple(terms))
    return ProblemSpec(Interval(0.0, 1.0), coeffs, boundary, LebesgueExponent(2.0))


def _builtin_second_order(damped: bool):
    rng = _builtin_rng()
    m, n = 2, 1
    q = 2 * m
    a = _random_complex(rng, m, m)
    a *= 1.5 / np.abs(a).sum()
    alphas = [_random_complex(rng, q, m) for _ in range(n + 2)]
    betas = [_random_complex(rng, q, m) for _ in range(n + 2)]
    zero = np.zeros((m, m))
    coeffs = CoefficientSet(2, m, n, (zero, a) if damped else (a, zero))
    terms = tuple(PointTerm(0.0, k, alphas[k]) for k in range(n + 2))
    terms += tuple(PointTerm(1.0, k, betas[k]) for k in range(n + 2))
    boundary = BoundaryOperator(q, terms)
    return ProblemSpec(Interval(0.0, 1.0), coeffs, boundary, LebesgueExponent(2.0))


def _builtin_ex5():
    rng = _builtin_rng()
    m, n = 2, 1
    alpha0 = _random_complex(rng, m, m)
    alpha1 = _random_complex(rng, m, m)
    kernel = ConstantFunction(_random_complex(rng, m, m))
    coeffs = CoefficientSet(1, m, n, (np.zeros((m, m)),))
    boundary = BoundaryOperator(
        m,
        (PointTerm(0.0, 0, alpha0), PointTerm(0.0, 1, alpha1)),
        IntegralTerm(kernel),
    )
    return ProblemSpec(Interval(0.0, 1.0), coeffs, boundary, LebesgueExponent(2.0))


_BUILTINS = {
    "ex1": _builtin_ex1,
    "ex2": _builtin_ex2,
    "ex3": lambda: _builtin_second_order(True),
    "ex4": lambda: _builtin_second_order(False),
    "ex5": _builtin_ex5,
}
# each builtin also answers to the configuration name oracle-check reports for it
_EXAMPLE_ALIASES = {
    "ex1": "one-point-first-order",
    "ex2": "multipoint-zero-coefficient",
    "ex3": "two-point-damped",
    "ex4": "two-point-oscillatory",
    "ex5": "canonical-first-order",
}
_BUILTINS.update({name: _BUILTINS[short] for short, name in _EXAMPLE_ALIASES.items()})


# ---------------------------------------------------------------------------
# argument parsing


def _eps_schedule(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad epsilon schedule {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("epsilon schedule is empty")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fredholm-bvp",
        description="Solvability analysis of linear ODE boundary-value problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--nodes", type=int, default=DEFAULT_NODE_COUNT,
                       help="grid node count (default %(default)s)")
        p.add_argument("--rank-tol", type=float, default=None,
                       help="singular-value cutoff for the numerical rank")
        p.add_argument("--format", choices=("text", "machine"), default="text",
                       help="report format (default %(default)s)")
        p.add_argument("--out", default=None, help="write the report to a file")

    analyze = sub.add_parser("analyze", help="Fredholm analysis of a problem document")
    analyze.add_argument("document")
    add_common(analyze)
    analyze.set_defaults(handler=_run_analyze)

    solve_cmd = sub.add_parser("solve", help="solve a well-posed problem document")
    solve_cmd.add_argument("document")
    add_common(solve_cmd)
    solve_cmd.set_defaults(handler=_run_solve)

    family = sub.add_parser("family", help="run the parameter-continuity experiment")
    family.add_argument("document")
    add_common(family)
    family.add_argument("--eps-schedule", type=_eps_schedule, default=None,
                        help="comma-separated decreasing schedule, e.g. 1e-1,1e-2")
    family.set_defaults(handler=_run_family)

    oracle = sub.add_parser(
        "oracle-check",
        help="compare the numerical matrix with the exact one "
             f"(builtins: {', '.join(sorted(k for k in _BUILTINS if k.startswith('ex')))})",
    )
    oracle.add_argument("document", help="problem document or builtin name")
    add_common(oracle)
    oracle.set_defaults(handler=_run_oracle_check)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one argument parser: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.handler(args)
    except NotWellPosedError as err:
        print(f"not well posed: {err}", file=sys.stderr)
        return EXIT_NOT_WELL_POSED
    except (CliError, DocumentError, ExpressionError, ValueError, OSError,
            FloatingPointError, OverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
