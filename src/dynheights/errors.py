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
    """The work a parse, scan or equidistribution run would do, predicted
    before it starts, exceeds WORK_BUDGET."""


# The most units of work one parse, scan, preimage run or quadrature may
# do, predicted before it starts: coefficients of a dense polynomial, bits
# of a power's coefficients and term products of a product (weighted by
# coefficient words) in `polys.parse_expr`, candidate points of
# `dynamics.common_preperiodic_scan`, candidates a `bounds.scan_exceptions`
# scores (each of its rational box, and deg psi for each of its quadratic
# box, whose image polynomials grow with deg psi), degree-d solves of
# `bounds.preimage_measure_stats`, or grid nodes of
# `bounds.energy_level_curve` and of the `mahler` quadratures.  A unit
# costs 1-10 us (a reported quadratic exception adds a root solve, a
# scan-pair candidate two orbit walks), a parse's weighted term product
# 0.03-0.2 us; level 18 on x^2 + 1, 524 286 solves, takes about 2.5 s
# from the shell on a 2-vCPU x86 VM.  Every golden, demo script and
# benchmark item needs at most about 16 384 (the largest node count).
WORK_BUDGET = 10 ** 6


def _require_budget(work: int, exact: bool, what: str, unit: str):
    """Raise WorkBudgetError when the predicted work is over WORK_BUDGET;
    a prediction that stopped counting early (exact false) is a lower
    bound."""
    if work > WORK_BUDGET:
        raise WorkBudgetError(
            f"{what} needs {'' if exact else 'more than '}{work} {unit}, "
            f"beyond the work budget of {WORK_BUDGET}")


class GraphShapeError(DynheightsError):
    """Graph does not have the shape required by the operation."""
