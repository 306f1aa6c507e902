"""Complex root finding: closed form for n <= 2, otherwise the
simultaneous Aberth-Ehrlich iteration.

Deterministic setup: initial guesses are roots of unity scaled by the
Fujiwara bound and rotated by a fixed irrational angle, so repeated runs
produce identical output.  Roots at the origin (trailing zero
coefficients in the monomial basis) are split off exactly.  Quadratics
use the cancellation-free formula (no iteration, so no convergence
failure).  Clusters of radius 10*tol (wider after an iteration that
stalled at a multiple root) are merged to their centroid, which is how
multiple roots are reported.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .errors import RootFindingError
from .polys import Poly

_START_ANGLE = 0.437  # fixed irrational-ish rotation of the start circle
_MAX_ITER = 400
_BACKWARD_ERROR_UNITS = 8.0  # reliability threshold in units of n * eps


@dataclass(frozen=True)
class ComplexApprox:
    """An approximate root with an a-posteriori residual |P(z)| and a flag
    telling whether its backward error is at working precision."""

    re: float
    im: float
    residual: float
    reliable: bool = True

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)


def _horner(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def fujiwara_bound(coeffs) -> float:
    """Upper bound on root moduli, 2 * max |a_{n-k}/a_n|^(1/k)."""
    n = len(coeffs) - 1
    an = abs(coeffs[-1])
    best = 0.0
    for k in range(1, n + 1):
        c = abs(coeffs[n - k]) / an
        if c:
            best = max(best, c ** (1.0 / k))
    return 2.0 * best if best else 1.0


def aberth(coeffs, tol: float = 1e-12, max_iter: int = _MAX_ITER):
    """All roots of a complex-coefficient polynomial (ascending coeffs).

    Returns a list of complex roots with multiplicity (length = degree).
    Raises RootFindingError on non-convergence, carrying the best iterate.
    """
    coeffs = [complex(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        raise ValueError("need degree >= 1")
    # exact zero roots: strip leading (constant-side) zeros
    nzeros = 0
    while coeffs[nzeros] == 0:
        nzeros += 1
    zero_roots = [0j] * nzeros
    coeffs = coeffs[nzeros:]
    n = len(coeffs) - 1
    if n == 0:
        return zero_roots
    scale = max(abs(c) for c in coeffs)
    coeffs = [c / scale for c in coeffs]
    if n == 1:
        return zero_roots + [-coeffs[0] / coeffs[1]]
    if n == 2:
        return zero_roots + _merge_clusters(_quadratic_roots(*coeffs),
                                            10.0 * tol)

    deriv = [k * coeffs[k] for k in range(1, n + 1)]
    radius = 0.8 * fujiwara_bound(coeffs)
    z = [radius * cmath.exp(1j * (2 * math.pi * j / n + _START_ANGLE))
         for j in range(n)]
    best_corr = math.inf
    stagnant = 0
    for _ in range(max_iter):
        max_corr = 0.0
        for j in range(n):
            pj = _horner(coeffs, z[j])
            dj = _horner(deriv, z[j])
            if dj == 0:
                z[j] += (1e-8 + 1e-8j)
                max_corr = math.inf
                continue
            w = pj / dj
            s = 0j
            for k in range(n):
                if k != j:
                    dz = z[j] - z[k]
                    if dz == 0:
                        dz = 1e-14 + 1e-14j
                    s += 1.0 / dz
            denom = 1.0 - w * s
            corr = w / denom if denom != 0 else w
            z[j] -= corr
            max_corr = max(max_corr, abs(corr))
        if max_corr < tol:
            break
        # a multiple root drives corrections to ~sqrt(eps) and no further;
        # accept once they stop improving at a small plateau (clusters are
        # merged below, so the centroid regains the lost accuracy)
        if max_corr < 0.5 * best_corr:
            best_corr, stagnant = max_corr, 0
        else:
            stagnant += 1
            if stagnant >= 40 and best_corr < 1e-7:
                break
    else:
        raise RootFindingError(
            f"Aberth iteration did not reach tol={tol} in {max_iter} steps",
            best=zero_roots + z)
    # final Newton polish (helps simple roots to machine accuracy)
    for _ in range(3):
        for j in range(n):
            dj = _horner(deriv, z[j])
            if dj != 0:
                z[j] -= _horner(coeffs, z[j]) / dj
    return zero_roots + _merge_clusters(z, 10.0 * max(tol, min(best_corr,
                                                               max_corr)))


def _quadratic_roots(c, b, a):
    """Both roots of a x^2 + b x + c (a, c != 0) without cancellation:
    q = -(b + s sqrt(b^2 - 4ac)) / 2 with the sign s making
    Re(conj(b) s sqrt) >= 0, so |q| >= |b| / 2, and the roots are q / a
    and c / q (q != 0 because c != 0)."""
    sq = cmath.sqrt(b * b - 4.0 * a * c)
    if (b.conjugate() * sq).real < 0.0:
        sq = -sq
    q = -0.5 * (b + sq)
    return [q / a, c / q]


def _merge_clusters(points, radius):
    """Merge root clusters of the given radius to repeated centroids."""
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(points[i] - points[j]) <= radius:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(points[i])
    out = []
    for members in groups.values():
        centroid = sum(members) / len(members)
        out.extend([centroid] * len(members))
    out.sort(key=lambda w: (round(w.real, 12), round(w.imag, 12)))
    return out


def complex_roots(P: Poly, tol: float = 1e-12):
    """Roots of an exact-coefficient polynomial as ComplexApprox records.

    The residual is |P(z)| on the scaled polynomial (coefficients divided
    by their max modulus).  A root is flagged unreliable when its relative
    backward error |P(z)| / sum_k |a_k| |z|^k (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 5) exceeds 8 n eps for degree
    n.  A root rounded to working precision has backward error at most
    n u from that rounding (|z P'(z)| <= n sum_k |a_k| |z|^k) plus about
    4 n u from complex Horner evaluation, 2.5 n eps in all (u = eps / 2),
    so the threshold leaves a factor of 3 for the root's own error.
    The absolute residual would instead grow like eps |z|^n and flag
    accurate roots of large modulus.
    """
    if P.degree() < 1:
        raise ValueError("need degree >= 1")
    # exact prescaling so huge integer coefficients cannot overflow float
    # (int / int and Fraction division both round correctly)
    m = max(abs(c) for c in P.coeffs)
    scaled = [float(c / m) for c in P.coeffs]
    zs = aberth(scaled, tol=tol)
    max_eta = _BACKWARD_ERROR_UNITS * P.degree() * sys.float_info.epsilon
    moduli = [abs(c) for c in scaled]
    out = []
    for z in zs:
        res = abs(_horner(scaled, z))
        size = _horner(moduli, abs(z)).real
        out.append(ComplexApprox(z.real, z.imag, res,
                                 reliable=res <= max_eta * size))
    return out
