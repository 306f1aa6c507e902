"""Exception types shared across the package."""


class DynheightsError(Exception):
    """Base class for all package errors."""


class InvalidPointError(DynheightsError):
    """Raised for (0,0) or otherwise malformed projective coordinates."""


class UndefinedLogError(DynheightsError):
    """Raised when asking for log|x|_v at x = 0."""


class ParseError(DynheightsError):
    """Syntax error in a polynomial / map expression.

    Carries the 0-based position of the offending token.
    """

    def __init__(self, message, position=0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DegenerateMapError(DynheightsError):
    """Resultant vanishes: the two forms share a projective root."""


class FactorizationError(DynheightsError):
    """Raised for an integer without a prime factorization (zero)."""


class CoefficientRangeError(DynheightsError):
    """The coefficients of a polynomial span more than double precision
    holds: scaled by the largest, the leading one falls below the normal
    double range."""


class RootFindingError(DynheightsError):
    """Simultaneous root iteration failed to converge.

    ``best`` holds the last iterate (list of complex numbers) for diagnosis.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best or []


class WorkBudgetError(DynheightsError):
    """The work a scan or an equidistribution run would do, predicted
    before it starts, exceeds `bounds.WORK_BUDGET`."""


class GraphShapeError(DynheightsError):
    """Graph does not have the shape required by the operation."""
