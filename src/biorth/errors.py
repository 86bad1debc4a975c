"""Exception types shared across the package."""


class BiorthError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(BiorthError, ValueError):
    """Operands have incompatible or disallowed shapes."""


class NumericalError(BiorthError, ArithmeticError):
    """A value is not finite, or a numerical kernel overflowed or did not converge."""


class OffManifoldError(BiorthError, ValueError):
    """A matrix pair violates the feasibility tolerance of the manifold."""


class InvalidTangentError(BiorthError, ValueError):
    """A pair of the right kind and size is not a tangent at the given point.

    Raised for a pair whose residual exceeds the tangency tolerance, an
    ambient pair where a tangent is required, or a tangent based at another
    point. A value of the wrong kind raises TypeError and a pair of the
    wrong size DimensionError instead.
    """


class LineSearchError(BiorthError, RuntimeError):
    """Backtracking reached the minimum step without sufficient decrease."""


class MatrixFormatError(BiorthError, ValueError):
    """A matrix or trace file is malformed.

    `line` is the 1-based line number of the offending input line, or None
    when the problem is not tied to a single line.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
