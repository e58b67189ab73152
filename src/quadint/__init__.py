"""quadint: solver and contraction certifier for systems of quadratic
integral equations on periodic boxes.

The package discretizes coupled equations of the form

    u_m = u0_m + [T_m u_m] . (K_m convolved with g_m(u)),    m = 1..N,

on a truncated box with periodic wrap, certifies that the associated
fixed-point map contracts a Sobolev ball, solves by iteration, and checks
the certified rates and continuity bounds against measurements.
"""

__version__ = "0.14.0"

from .errors import (AssumptionViolation, BallEscapeError, ConfigurationError,
                     ExpressionDomainError, ExpressionSyntaxError,
                     NonConvergenceError, NumericOverflowError, OracleBudgetError,
                     QuadIntError)
from .spectral import Grid
from .model import (GaussianKernel, MaterializedProblem, ProblemSpec,
                    RationalMultiplier, materialize, validate_assumptions)
from .exprdsl import NonlinearitySpec, parse
from .analysis import ConstantsReport, ContractionCertificate, constants_report
from .solver import (ContinuityReport, IterationTrace, Solution, apply_map_tg,
                     continuity_experiment, picard_solve, residual_original_system)

__all__ = [
    "__version__",
    "Grid",
    "GaussianKernel", "RationalMultiplier",
    "NonlinearitySpec", "parse",
    "ProblemSpec", "MaterializedProblem", "materialize", "validate_assumptions",
    "ConstantsReport", "ContractionCertificate", "constants_report",
    "Solution", "IterationTrace", "ContinuityReport",
    "apply_map_tg", "picard_solve",
    "residual_original_system", "continuity_experiment",
    "QuadIntError", "ConfigurationError", "ExpressionSyntaxError",
    "ExpressionDomainError", "AssumptionViolation", "NonConvergenceError",
    "BallEscapeError", "OracleBudgetError", "NumericOverflowError",
]
