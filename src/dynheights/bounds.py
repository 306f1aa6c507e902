"""Height lower bounds from the arithmetic Hodge index inequality,
archimedean Dirichlet energies, exception scans and equidistribution
diagnostics on the unit circle.

For integer polynomials phi (degree l) and psi (degree m) pulled back
against the Weil metric, the only nonzero Dirichlet energy sits at the
archimedean place, and for phi = x^l it equals 2*l*m*log M^+(psi).  The
resulting bound reads

    l h(x) + h(psi(x)) >= log M(psi(x) - y) / (l + m)

for all algebraic x outside a finite exceptional set.  The level-curve
quadrature integrates log max(|psi|,1) against dArg phi over |phi| = 1 by
pulling a uniform grid back through phi; its normalization (each of the
l*nodes preimages carries weight 2 pi/(l*nodes)) is frozen by requiring
exact agreement with the x^l closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .dynamics import DynSystem, rational_points_up_to_height
from .errors import RootFindingError
from .mahler import (height_from_minpoly, log_mahler_plus,
                     two_variable_mahler)
from .places import weil_height
from .polys import Poly, int_poly
from .roots import aberth, complex_roots

_CIRCLE_BAND = 1e-6  # |z| band for circle moments


@dataclass(frozen=True)
class DynPair:
    """A pair (phi of degree l, psi of degree m) with integer coefficients,
    so that the metric-comparison function vanishes at finite places."""

    ell: int
    psi: Poly
    phi: Poly = None  # None means the power map x^ell

    def __post_init__(self):
        if self.ell < 1 or self.psi.degree() < 1:
            raise ValueError("degrees must be >= 1")


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted complex point cloud; weights sum to 1 (within 1e-12)."""

    points: tuple  # of (complex, weight)

    def __post_init__(self):
        total = sum(w for _, w in self.points)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, not 1")


def pair_bound_power(ell: int, psi: Poly, nodes: int = 16384) -> float:
    """Lower bound for l h(x) + h(psi(x)) outside finitely many points:
    log M(psi(x) - y) / (l + m)."""
    if ell < 1 or psi.degree() < 1:
        raise ValueError("degrees must be >= 1")
    m = psi.degree()
    return two_variable_mahler(psi, nodes).log_value / (ell + m)


def energy_arch_power(ell: int, psi: Poly, nodes: int = 16384) -> float:
    """Magnitude of the archimedean Dirichlet energy for phi = x^l:
    2 l m log M^+(psi).  (The admissible-pairing form is its negative.)"""
    if ell < 1 or psi.degree() < 1:
        raise ValueError("degrees must be >= 1")
    m = psi.degree()
    return 2.0 * ell * m * log_mahler_plus(psi, nodes).log_value


def energy_level_curve(phi: Poly, psi: Poly, nodes: int = 4096) -> float:
    """Archimedean Dirichlet energy by level-curve quadrature:
    (l m / pi) * integral of log max(|psi|, 1) dArg phi over |phi| = 1.

    For each grid angle the l preimages under phi are found by the
    simultaneous root iteration; each carries weight 2 pi/(l*nodes).
    Nodes where the solve fails are retried at a half-step perturbation
    then skipped (error if more than 1% are skipped).
    """
    ell = phi.degree()
    m = psi.degree()
    if ell < 1 or m < 1:
        raise ValueError("degrees must be >= 1")
    if nodes < 64:
        raise ValueError("need at least 64 nodes")
    phic = [complex(c) for c in phi.coeffs]
    psic = [complex(c) for c in psi.coeffs]

    def eval_psi(z):
        acc = 0j
        for c in reversed(psic):
            acc = acc * z + c
        return acc

    total = 0.0
    skipped = 0
    step = 2 * math.pi / nodes
    for k in range(nodes):
        theta = (k + 0.5) * step
        for attempt in (0.0, 0.5 * step):
            target = cmath.exp(1j * (theta + attempt))
            coeffs = list(phic)
            coeffs[0] -= target
            try:
                pre = aberth(coeffs, tol=1e-11)
                break
            except RootFindingError:
                continue
        else:
            skipped += 1
            continue
        for z in pre:
            mod = abs(eval_psi(z))
            if mod > 1.0:
                total += math.log(mod)
    if skipped > max(1, nodes // 100):
        raise RootFindingError(
            f"{skipped} of {nodes} level-curve nodes failed to solve")
    good = nodes - skipped
    # weight 2 pi/(l*nodes) per preimage times the (l m / pi) prefactor
    return (2.0 * m / good) * total


def _minpoly_of_psi_image(a: int, b: int, c: int, psi: Poly) -> Poly:
    """Primitive integer polynomial vanishing at psi(alpha) for the roots
    alpha of a x^2 + b x + c (a != 0), by trace and norm over Q:
    psi = u + v x modulo a x^2 + b x + c, so the two values psi(alpha)
    have sum T = 2u - v b/a and product N = u^2 - u v b/a + v^2 c/a, and
    the result is y^2 - T y + N made primitive.  This is the resultant
    Res_x(a x^2 + b x + c, psi(x) - y) = a^m (y^2 - T y + N) divided by
    its content."""
    s, p = Fraction(-b, a), Fraction(c, a)  # alpha + alpha', alpha alpha'
    u = v = Fraction(0)
    for cf in reversed(psi.coeffs):
        # (u + v x) x + cf, with x^2 = s x - p
        u, v = cf - v * p, u + v * s
    trace = 2 * u + v * s
    norm = u * u + u * v * s + v * v * p
    return Poly.of([norm, -trace, 1]).primitive_int()


def _is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def scan_exceptions(ell: int, psi: Poly, threshold: float, H: float,
                    include_quadratic: bool = False):
    """Points of height <= H with l h(x) + h(psi(x)) < threshold.

    Rational points are enumerated as coprime pairs; quadratic points (if
    requested) through primitive irreducible integer minimal polynomials
    a x^2 + b x + c with |a|,|b|,|c| <= e^H.  Returns a list of records
    {kind, point, value} in deterministic order.
    """
    if threshold < 0 or H < 0:
        raise ValueError("threshold and H must be >= 0")
    m = psi.degree()
    if ell < 1 or m < 1:
        raise ValueError("degrees must be >= 1")
    psif = [Fraction(c) for c in psi.coeffs]
    out = []
    for P in rational_points_up_to_height(H):
        if P.is_infinity:
            value = 0.0  # h(inf) = 0 and psi(inf) = inf
        else:
            x = P.as_rational()
            hx = weil_height(P)
            if ell * hx >= threshold:
                continue
            img = sum(cf * x ** k for k, cf in enumerate(psif))
            himg = (0.0 if img == 0 else
                    math.log(max(abs(img.numerator), img.denominator)))
            value = ell * hx + himg
        if value < threshold:
            out.append({"kind": "rational", "point": str(P), "value": value})
    if include_quadratic:
        bound = int(math.floor(math.exp(H) + 1e-12))
        # M(P) >= max(|lead|, |const|) and M(P) >= |b|/2 prune the boxes
        ac_max = min(bound, int(math.exp(2.0 * threshold / ell)) + 1)
        b_max = min(bound, int(2.0 * math.exp(2.0 * threshold / ell)) + 1)
        for a in range(1, ac_max + 1):
            for c in range(-ac_max, ac_max + 1):
                for b in range(-b_max, b_max + 1):
                    if math.gcd(math.gcd(a, abs(b)), abs(c)) != 1:
                        continue
                    disc = b * b - 4 * a * c
                    if disc == 0 or _is_perfect_square(disc):
                        continue  # reducible over Q
                    hx = height_from_minpoly(int_poly([c, b, a]))
                    if ell * hx >= threshold:
                        continue
                    Q = _minpoly_of_psi_image(a, b, c, psi)
                    himg = height_from_minpoly(Q)
                    value = ell * hx + himg
                    if value < threshold:
                        minpoly = int_poly([c, b, a])
                        for r in complex_roots(int_poly([c, b, a])):
                            out.append({
                                "kind": "quadratic",
                                "point": f"root of {minpoly.to_str()} "
                                         f"near {r.re:.6f}{r.im:+.6f}i",
                                "minpoly": minpoly.to_str(),
                                "value": value,
                            })
    return out


def roots_of_unity_height_sequence(psi: Poly, n: int) -> float:
    """Height of psi(zeta_n): the average of log max(|psi|, 1) over the
    primitive n-th roots of unity (integer coefficients, so finite places
    contribute nothing)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    coeffs = [complex(c) for c in psi.coeffs]
    total = 0.0
    count = 0
    for k in range(n):
        if math.gcd(k, n) != 1:
            continue
        z = cmath.exp(2j * math.pi * k / n)
        acc = 0j
        for cf in reversed(coeffs):
            acc = acc * z + cf
        total += max(0.0, math.log(abs(acc))) if acc != 0 else 0.0
        count += 1
    return total / count


def star_discrepancy_angles(angles) -> float:
    """Star discrepancy of angles (radians) against the uniform measure
    on the circle, via the classic sorted-sample formula."""
    ts = sorted((a / (2 * math.pi)) % 1.0 for a in angles)
    n = len(ts)
    if n == 0:
        return 1.0
    best = 0.0
    for i, t in enumerate(ts, start=1):
        best = max(best, i / n - t, t - (i - 1) / n)
    return best


def preimage_measure_stats(S: DynSystem, a: Fraction, level: int,
                           max_moment: int):
    """Galois-orbit style diagnostics for the level-n preimages of a.

    Solves phi^n(z) = a, weights each root equally, and reports circle
    moments (restricted to roots with |z| within 1e-6 of 1) plus the
    angular star discrepancy of all nonzero roots.  The uniform-circle
    reference is only meaningful for power maps.

    The preimages are pulled back one level at a time (each step a
    degree-d solve of p0(x) - w p1(x) = 0): backward steps contract
    toward the Julia set, whereas the expanded level-n polynomial has
    monomial coefficients too ill-conditioned for double precision.
    phi^n is never formed: its forms cannot be proportional, so
    phi^n(z) = a never holds identically, because Res(phi) != 0 and
    composition keeps the resultant nonzero (`HomogPair.compose`).
    """
    if level < 1 or max_moment < 1:
        raise ValueError("level and max_moment must be >= 1")
    a = Fraction(a)
    p0, p1 = S.F.dehomog()
    d = S.degree
    c0 = [float(c) for c in p0.coeffs] + [0.0] * (d + 1 - len(p0.coeffs))
    c1 = [float(c) for c in p1.coeffs] + [0.0] * (d + 1 - len(p1.coeffs))
    current = [complex(float(a))]
    for _ in range(level):
        nxt = []
        for w in current:
            nxt.extend(aberth([c0[k] - w * c1[k] for k in range(d + 1)]))
        current = nxt
    roots = sorted(current, key=lambda z: (round(z.real, 12),
                                           round(z.imag, 12)))
    w = 1.0 / len(roots)
    measure = EmpiricalMeasure(tuple((z, w) for z in roots))
    moments = []
    for k in range(1, max_moment + 1):
        mk = 0j
        for z in roots:
            mod = abs(z)
            if mod > 0 and abs(mod - 1.0) <= _CIRCLE_BAND:
                mk += w * (z / mod) ** k
        moments.append(mk)
    angles = [cmath.phase(z) for z in roots if z != 0]
    return measure, moments, star_discrepancy_angles(angles)
