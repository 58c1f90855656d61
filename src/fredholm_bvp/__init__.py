"""Solvability analysis of linear ODE boundary-value problems.

The library assembles the characteristic matrix of a problem of any
order with generic inhomogeneous boundary conditions, reports its
Fredholm index and kernel/cokernel dimensions, solves well-posed
problems by superposition, and runs parameter-continuity experiments
over eps-indexed families of problems.
"""

from .boundary import BoundaryOperator, IntegralTerm, PointTerm, point_evaluation
from .characteristic import (
    Analysis,
    CharacteristicMatrix,
    ProblemSpec,
    SolvabilityReport,
    analyze,
    build_characteristic_matrix,
    characteristic_from_blocks,
    cokernel_directions,
    kernel_directions,
    solvability_report,
)
from .closed_forms import MatrixFunctionResult, exact_characteristic_matrix, matrix_exp
from .expressions import ExpressionError, parse_expression, symbolic_derivative
from .functions import (
    ArrayFunction,
    ConstantFunction,
    ExpressionFunction,
    TabulatedFunction,
)
from .grid import (
    DerivativeStack,
    Grid,
    Interval,
    LebesgueExponent,
    lp_norm,
    sobolev_norm,
)
from .limits import (
    LimitReport,
    ProblemFamily,
    check_condition_I,
    check_condition_II,
    check_multipoint_assumptions,
    convergence_experiment,
)
from .ode import (
    CoefficientSet,
    RightHandSide,
    fundamental_set,
    residual_stack,
)
from .solver import IllConditionedWarning, NotWellPosedError, discrepancy, solve, superpose

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "ArrayFunction",
    "BoundaryOperator",
    "CharacteristicMatrix",
    "CoefficientSet",
    "ConstantFunction",
    "DerivativeStack",
    "ExpressionError",
    "ExpressionFunction",
    "Grid",
    "IllConditionedWarning",
    "IntegralTerm",
    "Interval",
    "LebesgueExponent",
    "LimitReport",
    "MatrixFunctionResult",
    "NotWellPosedError",
    "PointTerm",
    "ProblemFamily",
    "ProblemSpec",
    "RightHandSide",
    "SolvabilityReport",
    "TabulatedFunction",
    "analyze",
    "build_characteristic_matrix",
    "characteristic_from_blocks",
    "check_condition_I",
    "check_condition_II",
    "check_multipoint_assumptions",
    "cokernel_directions",
    "convergence_experiment",
    "discrepancy",
    "exact_characteristic_matrix",
    "fundamental_set",
    "kernel_directions",
    "lp_norm",
    "matrix_exp",
    "parse_expression",
    "point_evaluation",
    "residual_stack",
    "sobolev_norm",
    "solvability_report",
    "solve",
    "superpose",
    "symbolic_derivative",
]
