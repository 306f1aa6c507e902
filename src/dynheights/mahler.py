"""Mahler measures by roots and by circle quadrature.

Two independent routes to log M(P):

* roots: Jensen's formula, log M = log|lead| + sum log max(1, |root|),
  with roots from the simultaneous Aberth iteration;
* quadrature: the circle average of log|P(e^{i theta})| by the periodic
  trapezoid rule.  Roots close to the unit circle ruin the spectral rate,
  so factors for roots within a window of |z| = 1 are removed from the
  integrand (their circle average is the exact Jensen value log^+|root|)
  and only the smooth remainder is integrated.

The one-sided variant M^+(psi) = exp of the circle average of
log max(|psi|, 1) has corner singularities where |psi(e^{i theta})| = 1;
the crossings are located by bisection and the integral is assembled as a
composite trapezoid per smooth piece.  M^+(psi) equals the two-variable
Mahler measure M(psi(x) - y), for which a tensor-grid double-trapezoid
oracle is provided as a cross-check.

Each polynomial's roots are found once per call: `mahler_both` shares
them between the two routes, and `log_mahler_plus` between its two
grids.  numpy is imported by the quadratures alone; the roots route
(and `height_from_minpoly`) runs without it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .places import ARCH, log_abs_at
from .polys import Poly
from .roots import complex_roots, prescale

_NEAR_CIRCLE_WINDOW = 0.05  # roots this close to |z|=1 are handled by Jensen
_DEFAULT_NODES = 16384


@dataclass(frozen=True)
class MahlerResult:
    log_value: float
    method: str  # "roots" or "quadrature"
    error_estimate: float


def _float_coeffs(P: Poly):
    import numpy as np

    scaled, m = prescale(P.coeffs)
    return np.array(scaled), m


def _eval_on_circle(coeffs_ascending, theta):
    import numpy as np

    z = np.exp(1j * theta)
    return np.polyval(coeffs_ascending[::-1], z)


def _constant_result(P: Poly, method: str):
    """The exact result for a nonzero constant, None for degree >= 1."""
    if P.is_zero:
        raise ValueError("Mahler measure of the zero polynomial")
    if P.degree() == 0:
        return MahlerResult(log_abs_at(Fraction(P.coeffs[0]), ARCH), method,
                            0.0)
    return None


def _check_nodes(nodes: int):
    if nodes < 16 or nodes & (nodes - 1):
        raise ValueError("nodes must be a power of two, >= 16")


def mahler_via_roots(P: Poly) -> MahlerResult:
    """log M(P) = log|a_d| + sum over roots of log max(1, |root|)."""
    const = _constant_result(P, "roots")
    if const is not None:
        return const
    return _roots_result(P, complex_roots(P))


def _roots_result(P: Poly, roots) -> MahlerResult:
    """Jensen's formula on P's roots (ComplexApprox records)."""
    log_m = log_abs_at(Fraction(P.leading()), ARCH)
    for r in roots:
        mod = abs(r.value)
        if mod > 1.0:
            log_m += math.log(mod)
    err = max(r.residual for r in roots)
    return MahlerResult(log_m, "roots", err)


def _circle_average_log_abs(P: Poly, nodes: int, roots) -> float:
    """Circle average of log|P| with near-circle roots removed by Jensen;
    `roots` are P's roots as complex numbers.

    The grid is offset by half a step so a root exactly on the unit circle
    never coincides with a node.
    """
    import numpy as np

    coeffs, scale = _float_coeffs(P)
    window = min(_NEAR_CIRCLE_WINDOW, 64.0 / nodes)
    near = [a for a in roots if abs(abs(a) - 1.0) < window]
    theta = (np.arange(nodes) + 0.5) * (2 * math.pi / nodes)
    z = np.exp(1j * theta)
    vals = np.log(np.maximum(np.abs(np.polyval(coeffs[::-1], z)), 1e-300))
    exact = 0.0
    for a in near:
        vals -= np.log(np.maximum(np.abs(z - a), 1e-300))
        exact += max(0.0, math.log(abs(a))) if a != 0 else 0.0
    return float(np.mean(vals)) + exact + float(log_abs_at(scale, ARCH))


def mahler_via_quadrature(P: Poly, nodes: int = _DEFAULT_NODES) -> MahlerResult:
    """log M(P) by the periodic trapezoid rule; the error estimate is the
    node-doubling difference (Richardson-style, not a rigorous enclosure)."""
    const = _constant_result(P, "quadrature")
    if const is not None:
        return const
    _check_nodes(nodes)
    return _quadrature_result(P, nodes, complex_roots(P))


def _quadrature_result(P: Poly, nodes: int, roots) -> MahlerResult:
    """The fine and the coarse grid of `mahler_via_quadrature`, with the
    near-circle factors taken from P's roots (ComplexApprox records)."""
    values = [r.value for r in roots]
    fine = _circle_average_log_abs(P, nodes, values)
    coarse = _circle_average_log_abs(P, nodes // 2, values)
    return MahlerResult(fine, "quadrature", abs(fine - coarse))


def mahler_both(P: Poly, nodes: int = _DEFAULT_NODES):
    """(`mahler_via_roots(P)`, `mahler_via_quadrature(P, nodes)`) from one
    root solve, with the same values and errors as the two calls."""
    const = _constant_result(P, "roots")
    if const is not None:
        return const, _constant_result(P, "quadrature")
    roots = complex_roots(P)
    by_roots = _roots_result(P, roots)
    _check_nodes(nodes)
    return by_roots, _quadrature_result(P, nodes, roots)


def _crossings(coeffs, nodes):
    """Angles where |psi(e^{i theta})| = 1, located by bisection between
    sign changes of the coarse grid."""
    import numpy as np

    theta = np.arange(nodes) * (2 * math.pi / nodes)
    g = np.abs(_eval_on_circle(coeffs, theta)) - 1.0

    def gfun(t):
        return abs(np.polyval(coeffs[::-1], complex(math.cos(t), math.sin(t)))) - 1.0

    crossings = []
    for k in range(nodes):
        a, b = g[k], g[(k + 1) % nodes]
        ta = theta[k]
        tb = theta[k] + 2 * math.pi / nodes
        if a == 0.0:
            crossings.append(ta)
            continue
        if a * b < 0.0:
            lo, hi = ta, tb
            flo = a
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                fm = gfun(mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if flo * fm < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            crossings.append(0.5 * (lo + hi))
    return sorted(crossings)


def _trapezoid_log_abs(coeffs, a, b, n):
    """Composite trapezoid of log|psi(e^{i theta})| over [a, b]."""
    import numpy as np

    theta = np.linspace(a, b, n + 1)
    vals = np.log(np.maximum(np.abs(_eval_on_circle(coeffs, theta)), 1e-300))
    h = (b - a) / n
    return float(h * (vals.sum() - 0.5 * (vals[0] + vals[-1])))


def _log_mahler_plus_value(psi: Poly, nodes: int, psi_roots) -> float:
    """log M^+(psi) on one grid; psi_roots() gives psi's roots as complex
    numbers, for when |psi| > 1 on the whole circle."""
    import numpy as np

    coeffs, scale = _float_coeffs(psi)
    # the clipping max(|psi|, 1) is on the original polynomial: undo the
    # prescale on the evaluated values by folding it into the coefficients
    coeffs = coeffs * float(scale)
    theta = np.arange(nodes) * (2 * math.pi / nodes)
    absvals = np.abs(_eval_on_circle(coeffs, theta))
    if np.max(np.abs(absvals - 1.0)) < 1e-14:
        return 0.0  # |psi| = 1 identically (monomials with unit coefficient)
    cross = _crossings(coeffs, nodes)
    if not cross:
        if float(np.max(absvals)) <= 1.0:
            return 0.0
        return _circle_average_log_abs(psi, nodes, psi_roots())
    total = 0.0
    for i, a in enumerate(cross):
        b = cross[(i + 1) % len(cross)]
        if b <= a:
            b += 2 * math.pi
        mid = 0.5 * (a + b)
        gmid = abs(np.polyval(coeffs[::-1],
                              complex(math.cos(mid), math.sin(mid))))
        if gmid <= 1.0:
            continue
        n = max(16, int(round(nodes * (b - a) / (2 * math.pi))))
        total += _trapezoid_log_abs(coeffs, a, b, n)
    return total / (2 * math.pi)


def log_mahler_plus(psi: Poly, nodes: int = _DEFAULT_NODES) -> MahlerResult:
    """log M^+(psi), the circle average of log max(|psi|, 1)."""
    if psi.is_zero:
        raise ValueError("M^+ of the zero polynomial")
    _check_nodes(nodes)

    @functools.cache
    def psi_roots():
        return [r.value for r in complex_roots(psi)]

    fine = _log_mahler_plus_value(psi, nodes, psi_roots)
    coarse = _log_mahler_plus_value(psi, nodes // 2, psi_roots)
    return MahlerResult(fine, "quadrature", abs(fine - coarse))


def two_variable_grid_oracle(psi: Poly, n1: int = 1024, n2: int = 1024) -> float:
    """Double trapezoid of log|psi(e^{i t1}) - e^{i t2}| over both circles.

    Independent tensor-grid route to log M(psi(x) - y); both grids are
    offset by half a step to dodge the logarithmic singularities.
    """
    import numpy as np

    coeffs, scale = _float_coeffs(psi)
    coeffs = coeffs * float(scale)
    t1 = (np.arange(n1) + 0.5) * (2 * math.pi / n1)
    t2 = (np.arange(n2) + 0.5) * (2 * math.pi / n2)
    c = _eval_on_circle(coeffs, t1)
    diff = c[:, None] - np.exp(1j * t2)[None, :]
    return float(np.mean(np.log(np.maximum(np.abs(diff), 1e-300))))


def height_from_minpoly(P: Poly) -> float:
    """Height of an algebraic number from its primitive integer minimal
    polynomial: h = log M(P) / deg P.  Irreducibility is the caller's
    responsibility (for a power of the minimal polynomial the value is
    unchanged)."""
    if P.is_zero:
        raise ValueError("zero polynomial")
    if P.degree() < 1:
        raise ValueError("need degree >= 1")
    return mahler_via_roots(P).log_value / P.degree()
