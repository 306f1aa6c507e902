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
log max(|psi|, 1) has corners where |psi(e^{i theta})| = 1, which cost the
trapezoid rule its spectral rate (Trefethen & Weideman, SIAM Rev. 2014).
log|psi| is evaluated once on a grid of angles; its sign changes and
exact zeros bracket the crossings, which are refined all at once by
bisection and a secant step (log|psi| vanishes there, so an endpoint error
d costs O(d^2)).  On each arc where |psi| > 1 the integrand is analytic
and gets composite 16-point Gauss-Legendre panels, about one node per grid
cell, evaluated in one pass: machine precision.  The one limit: two
crossings inside one grid cell are missed, an O(h^2) error (h = 2 pi /
nodes).  Without a crossing M^+ is 1 or M(psi).  M^+(psi) = M(psi(x) - y),
and a tensor-grid double-trapezoid oracle of the latter cross-checks it.

Every polynomial the grammar expresses has rational, hence real,
coefficients, so |P(conj z)| = |P(z)| and both integrands are even in
theta.  Both quadratures therefore integrate over the closed upper half
circle and double it: the circle average on the nodes / 2 offset nodes
in (0, pi), M^+ on the nodes / 2 + 1 angles 2 pi k / nodes from 0 to pi,
with its arcs ending at 0 and pi.  The oracle keeps its full tensor grid,
as the independent check.

Each polynomial's roots are found once per call: `mahler_both` shares
them between the two routes, and `log_mahler_plus` between its two
grids; each quadrature scales P to floats once for both of its grids.
The offset half grid of the circle average is built once per node count,
on the first quadrature that needs it, and the last two counts are kept
read-only (`_offset_circle`).  numpy is imported by the quadratures and,
at degree 8 and above, by the eigenvalue start of `roots.aberth`; below
degree 8 the roots route (and `height_from_minpoly`) runs without it.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .dynamics import _require_budget
from .places import ARCH, log_abs_at
from .polys import Poly, horner
from .roots import complex_roots, prescale

_NEAR_CIRCLE_WINDOW = 0.05  # roots this close to |z|=1 are handled by Jensen
_DEFAULT_NODES = 16384
_HALVINGS = 12  # of a grid cell, before the secant step on each crossing
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min  # floor of |P|^2 / |prod| before its logarithm
# the positive Gauss-Legendre nodes of order 16 on [-1, 1] (the others are
# their negatives) and their weights, pinned: numpy.polynomial costs memory
_GL_ORDER = 16
_GL_X = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
         0.6178762444026438, 0.755404408355003, 0.8656312023878318,
         0.9445750230732326, 0.9894009349916499)
_GL_W = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
         0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
         0.062253523938647456, 0.027152459411754176)


@dataclass(frozen=True)
class MahlerResult:
    log_value: float
    method: str  # "roots" or "quadrature"
    error_estimate: float


def _float_coeffs(P: Poly):
    import numpy as np

    scaled, m = prescale(P)
    return np.array(scaled), m


def _constant_result(P: Poly, method: str):
    """The exact result for a nonzero constant, None for degree >= 1."""
    if P.is_zero:
        raise ValueError("Mahler measure of the zero polynomial")
    if P.degree() == 0:
        return MahlerResult(log_abs_at(Fraction(P.coeffs[0], P.den), ARCH),
                            method, 0.0)
    return None


def _check_nodes(nodes: int):
    """Refuse a node count before any grid is allocated: ValueError unless
    a power of two >= 16, WorkBudgetError beyond `dynamics.WORK_BUDGET`."""
    if nodes < 16 or nodes & (nodes - 1):
        raise ValueError("nodes must be a power of two, >= 16")
    _require_budget(nodes, True, "quadrature", "nodes")


def mahler_via_roots(P: Poly) -> MahlerResult:
    """log M(P) = log|a_d| + sum over roots of log max(1, |root|)."""
    const = _constant_result(P, "roots")
    if const is not None:
        return const
    return _roots_result(P, complex_roots(P))


def _roots_result(P: Poly, roots) -> MahlerResult:
    """Jensen's formula on P's roots (ComplexApprox records)."""
    log_m = log_abs_at(Fraction(P.leading(), P.den), ARCH)
    for r in roots:
        mod = abs(r.value)
        if mod > 1.0:
            log_m += math.log(mod)
    err = max(r.residual for r in roots)
    return MahlerResult(log_m, "roots", err)


@functools.lru_cache(maxsize=2)
def _offset_circle(nodes: int):
    """The read-only upper half exp(i (k + 1/2) 2 pi / nodes), k < nodes / 2,
    of the offset grid, built on first use: a `mahler_both` call reads it
    at `nodes` and nodes / 2.  Node nodes - 1 - k is the conjugate of
    node k."""
    import numpy as np

    z = np.exp(1j * ((np.arange(nodes // 2) + 0.5) * (2 * math.pi / nodes)))
    z.flags.writeable = False
    return z


def _circle_average_log_abs(coeffs, log_scale: float, nodes: int,
                            roots) -> float:
    """Circle average of log|P| with near-circle roots removed by Jensen,
    for a real P = exp(log_scale) * sum coeffs[k] x^k (`_float_coeffs`);
    `roots` are P's roots as complex numbers.

    The grid of `nodes` angles is offset by half a step so a root exactly
    on the unit circle never coincides with a node.  P is real, so
    |P(conj z)| = |P(z)| and only the upper half of the grid is evaluated
    (`_offset_circle`, built once per node count): each node z and its
    conjugate together give log(|P(z)|^2 / |prod (z - a)(z - conj a)|)
    over the near-circle roots a, one logarithm per node.  That is exact
    for any set of near roots, so computed conjugate pairs need not match.
    """
    import numpy as np

    window = min(_NEAR_CIRCLE_WINDOW, 64.0 / nodes)
    near = [a for a in roots if abs(abs(a) - 1.0) < window]
    z = _offset_circle(nodes)
    vals = horner(coeffs, z)
    sq = vals.real * vals.real + vals.imag * vals.imag
    if near:
        prod = (z - near[0]) * (z - near[0].conjugate())
        for a in near[1:]:
            prod *= z - a
            prod *= z - a.conjugate()
        sq /= np.abs(prod)
    mean = 0.5 * float(np.mean(np.log(np.maximum(sq, _TINY))))
    exact = sum(max(0.0, math.log(abs(a))) for a in near)
    return mean + exact + log_scale


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
    near-circle factors taken from P's roots (ComplexApprox records); P
    is scaled to floats once for both grids."""
    coeffs, scale = _float_coeffs(P)
    log_scale = float(log_abs_at(scale, ARCH))
    values = [r.value for r in roots]
    fine = _circle_average_log_abs(coeffs, log_scale, nodes, values)
    coarse = _circle_average_log_abs(coeffs, log_scale, nodes // 2, values)
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


def _log_mahler_plus_value(g, log_abs, log_m, split):
    """(log M^+(psi), least log|psi| integrated or inf) from g = log|psi| on
    the grid theta_k = 2 pi k / nodes, k = 0 ... nodes / 2, of the closed
    upper half circle (both ends included).  psi is real, so the
    integrand is even and the lower half mirrors the upper.
    log_abs(theta) evaluates log|psi(e^{i theta})|; log_m(nodes) gives
    log M(psi), for when |psi| > 1 on the whole circle.  An arc gets
    `split` times the panels that a grid `split` times coarser would give
    it."""
    import numpy as np

    cells = g.size - 1
    h = math.pi / cells
    theta = np.arange(g.size) * h
    brackets = np.flatnonzero(g[:-1] * g[1:] < 0.0)
    zeros = theta[g == 0.0]  # exact zeros on the grid are crossings
    if not (brackets.size or zeros.size):
        return ((log_m(2 * cells), float(g.min())) if g[0] > 0
                else (0.0, math.inf))
    lo, hi = theta[brackets], theta[brackets] + h
    glo, ghi = g[brackets], g[brackets + 1]
    for _ in range(_HALVINGS):  # bisect every bracket at once
        mid = 0.5 * (lo + hi)
        gm = log_abs(mid)
        left = glo * gm > 0.0
        lo, glo = np.where(left, mid, lo), np.where(left, gm, glo)
        hi, ghi = np.where(left, hi, mid), np.where(left, ghi, gm)
    # a final secant step
    cross = np.concatenate((lo + (hi - lo) * glo / (glo - ghi), zeros))
    # the arcs run between 0, the crossings and pi
    ends = np.unique(np.concatenate(([0.0], cross, [math.pi])))
    a, b = ends[:-1], ends[1:]
    keep = log_abs(0.5 * (a + b)) > 0.0
    a, b = a[keep], b[keep]
    # composite Gauss-Legendre panels of about _GL_ORDER grid cells each
    n = split * np.ceil((b - a) / (split * _GL_ORDER * h)).astype(int)
    width = np.repeat((b - a) / n, n)
    left = np.repeat(a, n) + width * (np.arange(n.sum())
                                      - np.repeat(np.cumsum(n) - n, n))
    x = np.array(_GL_X + tuple(-t for t in _GL_X))
    vals = np.maximum(log_abs(left[:, None] + width[:, None] * (1 + x) / 2),
                      0.0)
    total = float(((vals @ np.array(_GL_W + _GL_W)) * width).sum()) / 2
    return total / math.pi, float(vals.min(initial=np.inf))


def log_mahler_plus(psi: Poly, nodes: int = _DEFAULT_NODES) -> MahlerResult:
    """log M^+(psi), the circle average of log max(|psi|, 1).

    psi is real, so the integral over the circle is twice the one over
    the upper half: log|psi| is evaluated at the nodes / 2 + 1 angles
    2 pi k / nodes in [0, pi], and the arcs end at 0 and pi.  The error
    estimate is the node-doubling difference plus Horner's rounding bound
    2 m eps sum|a_k| / |psi| at the smallest |psi| integrated (|psi| >= 1
    there), plus eps |log M^+|.
    """
    import numpy as np

    if psi.is_zero:
        raise ValueError("M^+ of the zero polynomial")
    _check_nodes(nodes)
    coeffs, scale = _float_coeffs(psi)
    log_scale = float(log_abs_at(scale, ARCH))

    def log_abs(theta):
        vals = np.abs(horner(coeffs, np.exp(1j * theta)))
        return np.log(np.maximum(vals, 1e-300)) + log_scale

    g = log_abs(np.arange(nodes // 2 + 1) * (2 * math.pi / nodes))
    if np.max(np.abs(g)) < 1e-14:  # |psi| = 1 identically
        return MahlerResult(0.0, "quadrature", 0.0)

    @functools.cache
    def psi_roots():
        return [r.value for r in complex_roots(psi)]

    def log_m(nodes):
        return _circle_average_log_abs(coeffs, log_scale, nodes, psi_roots())

    # the coarse grid is every other node of the fine one, and the fine
    # run halves every coarse panel, so the two differ on every arc
    fine, g_min = _log_mahler_plus_value(g, log_abs, log_m, 2)
    coarse, _ = _log_mahler_plus_value(g[::2], log_abs, log_m, 1)
    log_norm = log_abs_at(Fraction(sum(map(abs, psi.coeffs)), psi.den), ARCH)
    rounding = 2 * psi.degree() * _EPS * math.exp(min(log_norm - g_min, 700.0))
    return MahlerResult(fine, "quadrature",
                        abs(fine - coarse) + rounding + _EPS * abs(fine))


def two_variable_grid_oracle(psi: Poly, n1: int = 1024, n2: int = 1024) -> float:
    """Double trapezoid of log|psi(e^{i t1}) - e^{i t2}| over both circles.

    Independent tensor-grid route to log M(psi(x) - y); both grids are
    offset by half a step to dodge the logarithmic singularities.  With
    psi = m psi_s (`prescale`) and top = max(m, 1), the integrand is
    log top + log|psi_s m/top - w/top|, so no factor leaves the double
    range.
    """
    import numpy as np

    coeffs, scale = _float_coeffs(psi)
    top = max(scale, 1)
    t1 = (np.arange(n1) + 0.5) * (2 * math.pi / n1)
    t2 = (np.arange(n2) + 0.5) * (2 * math.pi / n2)
    c = horner(coeffs, np.exp(1j * t1)) * float(scale / top)
    diff = c[:, None] - np.exp(1j * t2)[None, :] * float(Fraction(1) / top)
    return (float(log_abs_at(top, ARCH))
            + float(np.mean(np.log(np.maximum(np.abs(diff), 1e-300)))))


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
