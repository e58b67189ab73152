"""Exception classes shared across the package."""


class QuadIntError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(QuadIntError):
    """Invalid grid, problem description, or mismatched inputs."""


class ExpressionSyntaxError(QuadIntError):
    """Malformed expression text.  Carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ExpressionDomainError(QuadIntError):
    """Evaluation hit a domain fault (division by zero, sqrt of a negative,
    or a non-finite result)."""


class NumericOverflowError(ExpressionDomainError):
    """A number computed from the input overflows a double: a folded
    literal, a power of a float, or an enclosure.  Always an input
    error, never a failed hypothesis."""


class AssumptionViolation(QuadIntError):
    """A structural hypothesis on the problem data does not hold
    (trivial kernel, vanishing initial data, nonlinearity not rooted at 0,
    degenerate operator)."""


class NonConvergenceError(QuadIntError):
    """Fixed-point iteration failed to reach the requested tolerance."""

    def __init__(self, message: str, iterations: int, last_delta: float, trace=None):
        super().__init__(message)
        self.iterations = iterations
        self.last_delta = last_delta
        self.trace = trace


class BallEscapeError(QuadIntError):
    """An iterate left the certified ball.  On a certified problem this
    signals a bug or an unsound constant, never a legitimate outcome."""


class OracleBudgetError(QuadIntError):
    """A brute-force reference path was asked to run above its size budget."""
