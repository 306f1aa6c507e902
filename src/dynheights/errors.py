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


class DistortionBoundError(DynheightsError):
    """The certified archimedean distortion constant C_arch of a map
    failed its spot check."""


class RootFindingError(DynheightsError):
    """Simultaneous root iteration failed to converge.

    ``best`` holds the last iterate (list of complex numbers) for diagnosis.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best or []


class GraphShapeError(DynheightsError):
    """Graph does not have the shape required by the operation."""
