"""Complex root finding: closed forms for n <= 2 and for binomials
a x^n + b, otherwise the simultaneous Aberth-Ehrlich iteration.

Deterministic setup: `aberth` starts from Bini's Newton-polygon circles
(Numer. Algorithms 13, 1996).  Each edge k0 -> k1 of the upper convex hull
of the points (k, log|a_k|) puts k1 - k0 points on the circle of radius
(|a_k0| / |a_k1|)^(1/(k1 - k0)), at equal angles rotated by a fixed
irrational angle and by 2 pi k0 / n, so roots of very different moduli
each start near their own circle and repeated runs produce identical
output.  At degree 8 <= n <= 64, when those radii span at most 10^4, it
starts instead from the eigenvalues of the companion matrix, which are
already at the roots: one or two sweeps where the circles take 5-12.
Above degree 64 their O(n^3) cost exceeds the sweeps they save.  Roots at
the origin (constant-side coefficients that are zero once divided by the
largest modulus, as in `prescale`) are split off exactly.  Two closed
forms need no iteration, so cannot fail to converge:

* a quadratic (`solve_quadratic`) by the cancellation-free formula, its
  two roots merged when they lie within 10*_TOL, in O(1) by `_merge_pair`,
  not through the union-find of `_merge_clusters`;
* a binomial a x^n + b, n >= 3 (`_binomial_roots`), whose roots are the
  n-th roots of -b/a, their common modulus carried beyond double
  precision so that each root's modulus rounds on its own.

Every iteration stops once its largest correction is below _TOL.
After the iteration, two roots merge to their centroid when they lie
within 10*_TOL or their Weierstrass inclusion discs (Carstensen, Numer.
Math. 59, 1991; radii from |P(z)| plus a bound on its rounding) overlap
once the larger is shrunk to the smaller, or overlap as they are and
P's backward error at their midpoint is that of a reliable root, which
is how multiple roots are reported.  Of the three final Newton
steps, one that raises |P| more than _POLISH_GROWTH-fold to a backward
error above the threshold of `complex_roots` is dropped: at a cluster
Newton can throw one member far off.  P is evaluated by `polys.horner`,
except in the sweeps and polish from degree 8 on, which read P and P'
off a matrix of powers; the inclusion radii and the residuals of
`complex_roots` always use `horner`, whose rounding they bound.

`aberth` solves one polynomial.  Below degree 8 it iterates in Python
complex arithmetic, Gauss-Seidel.  From degree 8 on (`_aberth_vector`)
each step works on all n iterates at once in numpy, vectorised over the
roots as in Bini's MPSolve: a total-step sweep, the polish, the inclusion
radii and the merge test.  Each n x n intermediate (powers, differences,
distances) is built in row blocks of about _BLOCK_ENTRIES entries (at
least one row), so memory beyond a block stays O(n).  `complex_roots`
evaluates its residuals at all roots at once from degree 8 on.
`aberth_rows` solves many polynomials of one degree at once in numpy,
vectorised over the rows, without `aberth`'s guards of a step, polish or
inclusion discs, and hands every row it cannot settle cleanly to
`aberth`.  numpy is imported inside the functions that use it, all of
them at degree 8 or more or in `aberth_rows`, so `aberth` and
`complex_roots` run without it below degree 8.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import CoefficientRangeError, RootFindingError
from .polys import Poly, horner

_START_ANGLE = 0.437  # fixed irrational-ish rotation of the start circles
_COLLINEAR = 1e-9  # slope tolerance of a Newton-polygon vertex (log radius)
_MAX_ITER = 400
_TOL = 1e-12  # the correction an iteration stops below; 10 _TOL merges
_BACKWARD_ERROR_UNITS = 8.0  # reliability threshold in units of n * eps
_POLISH_GROWTH = 4.0  # largest factor by which a polish step may raise |P|
# `aberth` iterates in numpy at degree >= _EIGEN_MIN_DEGREE, from companion
# eigenvalues up to degree _EIGEN_MAX_DEGREE when its Newton-polygon radii
# span at most _EIGEN_MAX_SPAN (see `aberth`)
_EIGEN_MIN_DEGREE = 8
_EIGEN_MAX_DEGREE = 64
_EIGEN_MAX_SPAN = 1e4
# entries of one row block of an n x n intermediate of `_aberth_vector`
_BLOCK_ENTRIES = 1 << 16
# parts this far apart keep their order under `_root_key` (`_merge_pair`,
# `_key_sorted`)
_KEY_GAP = 4e-12


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


def _range_error(log10_lead: float, log10_max: float):
    return CoefficientRangeError(
        "coefficient moduli span 10^%.1f (leading) to 10^%.1f (largest), "
        "beyond the double range: the leading coefficient underflows when "
        "scaled by the largest" % (log10_lead, log10_max))


def prescale(P: Poly):
    """(floats, m): the coefficients of a nonzero P divided by their
    largest modulus m, so huge coefficients cannot overflow.

    The quotients are those of P's integer coefficients c by M = max |c|,
    each the int true division c / M, which Python rounds correctly; the
    denominator cancels, and m = M / P.den.

    Raises CoefficientRangeError when the leading coefficient falls below
    the normal double range after the division: its roots would be lost
    to a degree drop, or computed from a subnormal with few digits.
    """
    big = max(abs(c) for c in P.coeffs)
    scaled = [c / big for c in P.coeffs]
    if abs(scaled[-1]) < sys.float_info.min:
        log10_den = math.log10(P.den)
        raise _range_error(math.log10(abs(P.coeffs[-1])) - log10_den,
                           math.log10(big) - log10_den)
    return scaled, Fraction(big, P.den)


def aberth(coeffs):
    """All roots of a complex-coefficient polynomial (ascending coeffs).

    Returns a list of complex roots with multiplicity (length = degree).
    Raises RootFindingError on non-convergence, carrying the best iterate,
    and CoefficientRangeError when the leading coefficient underflows once
    the coefficients are divided by their largest modulus (the test of
    `prescale`); a coefficient at the constant end that is zero once
    divided is a zero root.  A correction that is not finite (P or P'
    overflowed at an iterate) is non-convergence.

    Two cases are solved in closed form, with no iteration: degree 2 by
    the arithmetic of `solve_quadratic`, and a binomial a x^n + b (n >= 3,
    once the zero roots are split off) by `_binomial_roots`.

    The iteration, to a largest correction below _TOL, starts from the
    Newton-polygon circles, or, at degree
    _EIGEN_MIN_DEGREE <= n <= _EIGEN_MAX_DEGREE when the circle radii span
    at most _EIGEN_MAX_SPAN, from the companion eigenvalues
    (`_companion_start`; numpy.linalg.eigvals, about 0.2 ms at n = 36).
    The eigenvalues are accurate only to about eps times the span of the
    root moduli, hence the span gate.  From degree _EIGEN_MIN_DEGREE on
    the iteration, polish and merge run in numpy, vectorised over the
    roots (`_aberth_vector`).  The lower degree gate keeps numpy out of
    the small solves: below degree 8 a solve costs under about 0.4 ms in
    Python, a numpy kernel lost 4-8x there, and importing numpy costs a
    one-shot process about 0.1 s.  The upper gate is where the O(n^3)
    eigenvalues stop paying: with the vectorised sweeps, the circles are
    as fast at about n = 72 and 1.7x faster at n = 80 on random integer
    polynomials.  Should LAPACK fail or an eigenvalue not be finite, the
    circles are used.
    """
    coeffs = [complex(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        raise ValueError("need degree >= 1")
    scale = max(abs(c) for c in coeffs)
    lead = coeffs[-1]
    coeffs = [c / scale for c in coeffs]
    if abs(coeffs[-1]) < sys.float_info.min:  # as in `prescale`
        raise _range_error(math.log10(abs(lead)), math.log10(scale))
    # zero roots, split off exactly: the constant-side coefficients that
    # are zero once scaled (as `prescale` makes them)
    nzeros = 0
    while coeffs[nzeros] == 0:
        nzeros += 1
    zero_roots = [0j] * nzeros
    coeffs = coeffs[nzeros:]
    n = len(coeffs) - 1
    if n == 0:
        return zero_roots
    if n == 1:
        return zero_roots + [-coeffs[0] / coeffs[1]]
    if n == 2:  # the arithmetic of `solve_quadratic`
        return zero_roots + _merge_pair(*_quadratic_roots(*coeffs),
                                        10.0 * _TOL)
    if not any(coeffs[1:n]):
        return zero_roots + _binomial_roots(coeffs[0], coeffs[n], n)

    edges = _newton_polygon(coeffs)
    z = None
    if (_EIGEN_MIN_DEGREE <= n <= _EIGEN_MAX_DEGREE
            and max(r for _, _, r in edges) <= _EIGEN_MAX_SPAN
            * min(r for _, _, r in edges)):
        z = _companion_start(coeffs)
    if z is None:
        z = _circle_start(edges, n)
    if n >= _EIGEN_MIN_DEGREE:
        try:
            return zero_roots + _aberth_vector(coeffs, z)
        except RootFindingError as exc:
            exc.best = zero_roots + exc.best
            raise
    deriv = [k * coeffs[k] for k in range(1, n + 1)]
    best_corr = math.inf
    stagnant = 0
    for _ in range(_MAX_ITER):
        max_corr = 0.0
        for j in range(n):
            zj = z[j]
            pj = horner(coeffs, zj)
            dj = horner(deriv, zj)
            if dj == 0:
                z[j] = zj + (1e-8 + 1e-8j)
                max_corr = math.inf
                continue
            w = pj / dj
            s = 0j
            for k, zk in enumerate(z):
                if k != j:
                    dz = zj - zk
                    if dz == 0:
                        dz = 1e-14 + 1e-14j
                    s += 1.0 / dz
            denom = 1.0 - w * s
            corr = w / denom if denom != 0 else w
            z[j] = zj - corr
            size = abs(corr)
            if not size <= max_corr:
                if not size < math.inf:  # P or P' overflowed: NaN or inf
                    raise RootFindingError(
                        "Aberth iteration left the double range",
                        best=zero_roots + z)
                max_corr = size
        if max_corr < _TOL:
            break
        # a multiple root drives corrections to ~sqrt(eps) and no further;
        # accept once they stop improving at a small plateau (clusters are
        # merged below, so the centroid regains the lost accuracy).  The
        # plateau is relative to the largest root: rounding alone leaves
        # corrections that grow with |z| on simple roots (up to 2e-7 at
        # |z| = 7e6)
        if max_corr < 0.5 * best_corr:
            best_corr, stagnant = max_corr, 0
        else:
            stagnant += 1
            if (stagnant >= 40
                    and best_corr < 1e-7 * max(1.0, max(map(abs, z)))):
                break
    else:
        raise RootFindingError(
            f"Aberth iteration did not reach tol={_TOL} in {_MAX_ITER} steps",
            best=zero_roots + z)
    # final Newton polish (helps simple roots to machine accuracy)
    moduli = [abs(c) for c in coeffs]
    max_eta = _BACKWARD_ERROR_UNITS * n * sys.float_info.epsilon
    p = [horner(coeffs, zj) for zj in z]
    for _ in range(3):
        for j in range(n):
            dj = horner(deriv, z[j])
            if dj != 0:
                zj = z[j] - p[j] / dj
                pj = horner(coeffs, zj)
                if (abs(pj) <= _POLISH_GROWTH * abs(p[j])
                        or abs(pj) <= max_eta * horner(moduli, abs(zj))):
                    z[j], p[j] = zj, pj
    return zero_roots + _merge_clusters(
        z, 10.0 * _TOL, _inclusion_radii(coeffs, z, p, 10.0 * _TOL), coeffs)


def _newton_polygon(coeffs):
    """The edges (k0, m, radius) of the upper convex hull of the points
    (k, log|a_k|), for coefficients with a_0 != 0 != a_n: the edge k0 ->
    k0 + m holds m roots near modulus (|a_k0| / |a_(k0+m)|)^(1/m).

    A vertex within _COLLINEAR in slope of the chord past it is dropped,
    so edges whose radii differ by rounding alone are one edge: two edges
    of one radius could put start points of `_circle_start` on top of
    each other (for 225 x^4 + 45 x^3 + 270 x^2 + 54 x + 324, whose
    log|a_2| rounds just above the chord, the edges 0 -> 2 and 2 -> 4
    gave the same two points, and Aberth merged all four iterates)."""
    hull = []
    for k, c in enumerate(coeffs):
        if c:
            y = math.log(abs(c))
            # drop the last vertex while it is below the chord to k, or
            # above it by at most _COLLINEAR in slope
            while len(hull) > 1 and ((hull[-1][1] - hull[-2][1])
                                     * (k - hull[-2][0])
                                     <= ((y - hull[-2][1]) + _COLLINEAR
                                         * (k - hull[-2][0]))
                                     * (hull[-1][0] - hull[-2][0])):
                hull.pop()
            hull.append((k, y))
    return [(k0, k1 - k0, math.exp((y0 - y1) / (k1 - k0)))
            for (k0, y0), (k1, y1) in zip(hull, hull[1:])]


def _circle_start(edges, n):
    """Bini's start (Numer. Algorithms 13, 1996): the m points of each
    Newton-polygon edge (k0, m, radius) on the circle of that radius, at
    angles 2 pi j / m + _START_ANGLE + 2 pi k0 / n."""
    z = []
    for k0, m, radius in edges:
        turn = _START_ANGLE + 2 * math.pi * k0 / n
        z += [cmath.rect(radius, 2 * math.pi * j / m + turn)
              for j in range(m)]
    return z


def _companion_start(coeffs):
    """The eigenvalues of the companion matrix of the monic a / a_n,
    real when every a_k is (Edelman & Murakami, Math. Comp. 64, 1995:
    backward stable for a well-scaled polynomial), as a list of Python
    complex; None when LAPACK fails or an eigenvalue is not finite."""
    import numpy as np

    if all(c.imag == 0 for c in coeffs):
        coeffs = [c.real for c in coeffs]
    M = np.eye(len(coeffs) - 1, k=-1, dtype=type(coeffs[0]))
    M[:, -1] = [-c / coeffs[-1] for c in coeffs[:-1]]
    try:
        z = np.linalg.eigvals(M)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(z).all():
        return None
    return z.astype(complex).tolist()


def _inclusion_radii(coeffs, z, p, merge):
    """Radii r_i = n (|P(z_i)| + e_i) / (|a_n| prod_{j != i} |z_i - z_j|)
    of the Weierstrass inclusion discs (Carstensen, Numer. Math. 59,
    1991), with p[i] = P(z_i) as computed.  e_i = eps sum_k (2k + 1)
    |a_k| |z_i|^k bounds the rounding of complex Horner to first order:
    a_k passes k products (sqrt(2) gamma_2 each, Higham, Lemma 3.5) and
    k + 1 sums (u each).  An iterate within the merge radius `merge` of
    z_i, which joins z_i whatever the discs, is left out of the product:
    the two iterates of a double root can land within 1e-15 of each
    other, where e_i over their gap would give both a radius of about 20
    (Phi_3^2 Phi_6 Phi_12), and their discs would take in every root.  A
    radius that is not finite is 0."""
    eps = sys.float_info.epsilon
    weights = [(2 * k + 1) * eps * abs(c) for k, c in enumerate(coeffs)]
    scale = len(z) / abs(coeffs[-1])
    radii = []
    for zi, pi in zip(z, p):
        prod = 1.0
        for zj in z:
            gap = abs(zi - zj)
            if gap > merge:
                prod *= gap
        r = scale * (abs(pi) + horner(weights, abs(zi))) / prod
        radii.append(r if r < math.inf else 0.0)
    return radii


def solve_quadratic(c, b, a):
    """`aberth([c, b, a])` for complex c, b, a, bit for bit, without
    its general setup: the coefficients divided by their largest modulus,
    then `_quadratic_roots` and `_merge_pair` at the radius 10 _TOL.  A
    zero a or c (a degree drop, or a root at 0), and a c that is zero once
    divided, go to `aberth`; a leading coefficient that underflows once
    divided raises its CoefficientRangeError."""
    if a == 0 or c == 0:
        return aberth([c, b, a])
    scale = max(abs(c), abs(b), abs(a))
    lead, low = a / scale, c / scale
    if abs(lead) < sys.float_info.min:  # as in `prescale`
        raise _range_error(math.log10(abs(a)), math.log10(scale))
    if low == 0:
        return aberth([c, b, a])
    return _merge_pair(*_quadratic_roots(low, b / scale, lead), 10.0 * _TOL)


def _binomial_roots(b, a, n):
    """The n roots of a x^n + b (a, b != 0, n >= 3), the n-th roots of
    -b/a: modulus r = |b/a|^(1/n), angles 2 pi (arg(-b/a) / 2 pi + k) / n.

    r is carried as r_hi + r_lo: r_hi = t^(1/n) in doubles for t = |b|/|a|
    as rounded, and r_lo = r_hi (t / r_hi^n - 1) / n from one exact
    correction on r_hi's dyadic value.  Each part of a root is r_hi times
    cos or sin, exact by Dekker's product, plus r_lo times it, rounded
    once.  So the rounding of r is not shared by all n moduli, where it
    would add up in a Mahler measure (1e-13 off log 2 at x^1000 - 2).
    The roots merge to their centroid when neighbours lie within 10 _TOL
    (a gap of 2 r sin(pi / n)); otherwise each stands alone, sorted as
    `_merge_clusters` sorts."""
    t = abs(b) / abs(a)
    r_hi = t ** (1.0 / n)
    (tm, tq), (rm, rq) = t.as_integer_ratio(), r_hi.as_integer_ratio()
    rn = rm ** n
    r_lo = r_hi * ((tm * rq ** n - tq * rn) / (tq * rn)) / n
    h1, h2 = _split(r_hi)
    # arg(-b/a) in turns; a real -b/a gives 0 or -1/2 exactly, and then
    # every root's turn (turn + k) / n is rounded once
    turn = (math.atan2(-b.imag, -b.real)
            - math.atan2(a.imag, a.real)) / (2 * math.pi)
    z = []
    for k in range(n):
        u = (turn + k) / n
        # q quarter turns and an angle within pi/4 (u - q/4 is exact, by
        # Sterbenz), so a root on an axis is exactly real or imaginary
        q = round(4 * u)
        angle = 2 * math.pi * (u - q / 4)
        c, s = math.cos(angle), math.sin(angle)
        part = []
        for x in ((c, s), (-s, c), (-c, -s), (s, -c))[q % 4]:
            p = r_hi * x
            x1, x2 = _split(x)
            part.append(p + ((((h1 * x1 - p) + h1 * x2 + h2 * x1) + h2 * x2)
                             + r_lo * x))
        z.append(complex(*part))
    if 2.0 * r_hi * math.sin(math.pi / n) <= 10.0 * _TOL:
        return _merge_clusters(z, 10.0 * _TOL, [0.0] * n, None)
    return _singletons(z)


def _singletons(z):
    """`_merge_clusters` of points no two of which merge: each becomes its
    own centroid (0 + w) / 1 (a -0.0 part turns +0.0), sorted by
    `_root_key`."""
    return _key_sorted([(0 + w) / 1 for w in z])


def _split(x):
    """Veltkamp's split of a double x = hi + lo, each of at most 26
    significant bits, so that products of halves are exact."""
    t = 134217729.0 * x  # 2^27 + 1
    hi = t - (t - x)
    return hi, x - hi


def _root_key(w):
    """The order of merged roots: by real, then imaginary part, rounded
    to 12 decimals."""
    return (round(w.real, 12), round(w.imag, 12))


def _key_sorted(z):
    """sorted(z, key=_root_key), calling `round` only where it can change
    the order.  Parts more than _KEY_GAP apart keep their order when
    rounded (`_merge_pair`), so the exact order by real, then imaginary
    part is the rounded one when each neighbour in it has a real part
    more than _KEY_GAP above, or an equal real part (a conjugate pair's)
    and an imaginary part more than _KEY_GAP above; `round` costs more
    than the rest of this sort."""
    exact = sorted(z, key=lambda w: (w.real, w.imag))
    for p, q in zip(exact, exact[1:]):
        gap = q.real - p.real
        if gap <= _KEY_GAP and (gap or q.imag - p.imag <= _KEY_GAP):
            return sorted(z, key=_root_key)
    return exact


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


def _merge_pair(r0, r1, radius):
    """`_merge_clusters(points, radius, (0.0, 0.0), None)` of two points, for
    radius >= 0, in O(1): both become their centroid when they lie within
    `radius`; otherwise each becomes (0 + r) / 1, as a singleton's
    centroid does (a -0.0 part turns +0.0), and the pair is sorted by the
    same rounded key.  Real parts more than _KEY_GAP apart keep their
    order when rounded to 12 decimals, which moves each by less than
    1e-12, so the key is rounded only for closer pairs: `round` costs more
    than the rest of a quadratic solve."""
    if abs(r0 - r1) <= radius:
        centroid = (0 + r0 + r1) / 2
        return [centroid, centroid]
    r0, r1 = (0 + r0) / 1, (0 + r1) / 1
    gap = r1.real - r0.real
    if gap > _KEY_GAP:
        return [r0, r1]
    if gap < -_KEY_GAP or _root_key(r1) < _root_key(r0):
        return [r1, r0]
    return [r0, r1]


def _pseudo_zero(coeffs, z):
    """Whether z is a root of P = sum coeffs[k] x^k to the backward error
    of a reliable root (`complex_roots`): |P(z)| <= 8 n eps sum |a_k|
    |z|^k."""
    n = len(coeffs) - 1
    max_eta = _BACKWARD_ERROR_UNITS * n * sys.float_info.epsilon
    return abs(horner(coeffs, z)) <= max_eta * horner(
        [abs(c) for c in coeffs], abs(z)).real


def _merge_clusters(points, radius, discs, coeffs):
    """Merge root clusters of P = sum coeffs[k] x^k to repeated centroids:
    points i and j join when they lie within `radius`, or within 2
    min(discs[i], discs[j]) of each other (the discs overlap once the
    larger is shrunk to the smaller), or when their discs overlap and
    their midpoint is a root to a reliable root's backward error
    (`_pseudo_zero`).  The members of a multiple root have discs of like
    radius, inflated by the rounding of P over their own small gap; a
    simple root's disc is small, so the inflated discs that merely cover
    it do not take it in: the two members of the double root -1 of Phi_23
    Lehmer (7x^2 + 9x + 2)^2 lie 1e-9 apart with discs of radius 0.19,
    which cover a root of Phi_23 0.14 away, where P is far from 0.  A
    member the polish left outside the backward error has the larger
    disc: the double root -0.5257761 of Phi_10 Phi_12 Phi_17 Lehmer
    (3x^3 - 7x^2 + 5x + 5)^2 had members 2.5e-7 apart with discs of 1.1e-7
    and 1.1e-5, and a midpoint within the backward error.  With every
    disc 0 (`_merge_pair`, `_binomial_roots`) no midpoint is tested and
    `coeffs` is not read."""
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        zi, ri = points[i], discs[i]
        for j in range(i + 1, n):
            zj, rj = points[j], discs[j]
            gap = abs(zi - zj)
            if (gap <= radius or gap <= 2.0 * min(ri, rj)
                    or (gap <= ri + rj
                        and _pseudo_zero(coeffs, (zi + zj) / 2))):
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(points[i])
    out = []
    for members in groups.values():
        centroid = sum(members) / len(members)
        out.extend([centroid] * len(members))
    return _key_sorted(out)


def _modulus(z):
    """|z| elementwise, rounded as Python's abs(complex) rounds it."""
    import numpy as np

    return np.hypot(z.real, z.imag)


def _row_blocks(m, width):
    """Slices covering range(m), each of at most _BLOCK_ENTRIES // width
    rows (at least one), so a block of `width` columns stays small."""
    step = max(1, _BLOCK_ENTRIES // width)
    return [slice(i, min(i + step, m)) for i in range(0, m, step)]


def _aberth_vector(coeffs, z):
    """The iteration, polish and merge of `aberth` on its scaled
    coefficients (a_0 != 0, degree n >= 3) from the start z, each step on
    all n iterates at once in numpy: a total-step Aberth iteration, where
    `aberth`'s own loop is Gauss-Seidel.  Its guards are those of the
    loop: an iterate where P' = 0 moves by 1e-8 + 1e-8j, two equal
    iterates are 1e-14 + 1e-14j apart, a zero denominator leaves the
    Newton step, the same stall rule and _MAX_ITER, and a RootFindingError
    carrying the iterates.  Returns the merged roots as a list."""
    import numpy as np

    n = len(coeffs) - 1
    ad = np.zeros((n + 1, 2), dtype=complex)
    ad[:, 0] = coeffs
    ad[:-1, 1] = ad[1:, 0] * np.arange(1, n + 1)
    z = np.array(z, dtype=complex)
    best_corr = math.inf
    stagnant = 0
    with np.errstate(all="ignore"):
        for _ in range(_MAX_ITER):
            p, dp = _values(ad, z)
            flat = dp == 0
            w = p / dp
            denom = 1.0 - w * _reciprocal_sums(z)
            corr = np.where(denom != 0, w / denom, w)
            corr[flat] = -(1e-8 + 1e-8j)
            z = z - corr
            size = _modulus(corr)
            if not (size < math.inf).all():  # P or P' overflowed
                raise RootFindingError(
                    "Aberth iteration left the double range", best=z.tolist())
            max_corr = math.inf if flat.any() else size.max()
            if max_corr < _TOL:
                break
            # the stall rule of `aberth`
            if max_corr < 0.5 * best_corr:
                best_corr, stagnant = max_corr, 0
            else:
                stagnant += 1
                if (stagnant >= 40 and best_corr
                        < 1e-7 * max(1.0, _modulus(z).max())):
                    break
        else:
            raise RootFindingError(
                f"Aberth iteration did not reach tol={_TOL} in {_MAX_ITER} "
                "steps", best=z.tolist())
        # the polish of `aberth`, P' at each iterate read off the
        # evaluation that found P there
        moduli = [abs(c) for c in coeffs]
        max_eta = _BACKWARD_ERROR_UNITS * n * sys.float_info.epsilon
        p, dp = _values(ad, z)
        for _ in range(3):
            step = z - p / dp
            q, dq = _values(ad, step)
            res = _modulus(q)
            keep = res <= _POLISH_GROWTH * _modulus(p)
            rest = ~keep & (dp != 0)
            if rest.any():
                keep[rest] = res[rest] <= max_eta * horner(
                    moduli, _modulus(step[rest]))
            keep &= dp != 0
            z = np.where(keep, step, z)
            p = np.where(keep, q, p)
            dp = np.where(keep, dq, dp)
        return _merge_vector(z, 10.0 * _TOL,
                             _inclusion_radii_vector(coeffs, z, 10.0 * _TOL),
                             coeffs)


def _values(ad, z):
    """P(z) and P'(z) at every iterate, for the columns of ad: the
    coefficients of P, and those of P' padded with a zero.  Each row block
    takes one matrix of powers z^k, and each row of it one product with
    ad, so a value does not depend on the block (a product of the whole
    block with ad, by BLAS, does).  Where a power overflows but P or P'
    need not, as at a large root of a polynomial with a small leading
    coefficient, the iterate is evaluated by `horner` instead."""
    import numpy as np

    both = np.empty((len(z), 1, 2), dtype=complex)
    for rows in _row_blocks(len(z), len(ad)):
        powers = np.empty((rows.stop - rows.start, 1, len(ad)), dtype=complex)
        powers[:, 0, 0] = 1.0
        powers[:, 0, 1:] = z[rows, None]
        np.cumprod(powers, axis=2, out=powers)
        np.matmul(powers, ad, out=both[rows])
    p, dp = both[:, 0, 0], both[:, 0, 1]
    if not np.isfinite(both).all():
        bad = ~(np.isfinite(p) & np.isfinite(dp))
        p[bad] = horner(ad[:, 0], z[bad])
        dp[bad] = horner(ad[:-1, 1], z[bad])
    return p, dp


def _reciprocal_sums(z):
    """sum_{k != j} 1 / (z_j - z_k) for every iterate z_j, by row blocks
    of the pairwise differences.  Two equal iterates are taken 1e-14 +
    1e-14j apart, as in `aberth`, the earlier one ahead: with the same
    difference both ways, as in `aberth`'s Gauss-Seidel loop, a total step
    would move them alike and they would never part."""
    import numpy as np

    s = np.empty_like(z)
    for rows in _row_blocks(len(z), len(z)):
        diff = z[rows, None] - z
        diagonal = (np.arange(rows.stop - rows.start),
                    np.arange(rows.start, rows.stop))
        diff[diagonal] = 1.0
        i, k = np.nonzero(diff == 0)
        if len(i):
            diff[i, k] = np.where(k < rows.start + i, -1.0, 1.0) * (
                1e-14 + 1e-14j)
        inv = 1.0 / diff
        inv[diagonal] = 0
        s[rows] = inv.sum(axis=1)
    return s


def _inclusion_radii_vector(coeffs, z, merge):
    """`_inclusion_radii` at the numpy array z, with P(z) by `horner`, by
    row blocks of the pairwise distances."""
    import numpy as np

    eps = sys.float_info.epsilon
    weights = [(2 * k + 1) * eps * abs(c) for k, c in enumerate(coeffs)]
    p, rounding = _horner_pair(coeffs, weights, z)
    top = (len(z) / abs(coeffs[-1])) * (_modulus(p) + rounding)
    prod = np.empty(len(z))
    for rows in _row_blocks(len(z), len(z)):
        dist = _modulus(z[rows, None] - z)
        dist[dist <= merge] = 1.0  # z_i itself, and iterates it merges with
        prod[rows] = dist.prod(axis=1)
    r = top / prod
    return np.where(r < math.inf, r, 0.0)


def _horner_pair(coeffs, bound, z):
    """(horner(coeffs, z), horner(bound, |z|)) at the numpy array z, in
    one pass over a 2 x n array.  The real bound is evaluated in complex
    arithmetic with zero imaginary parts, which rounds its real parts as
    real arithmetic does."""
    import numpy as np

    both = horner(np.array([coeffs, bound], dtype=complex).T[:, :, None],
                  np.array([z, _modulus(z)]))
    return both[0], both[1].real


def _merge_vector(z, radius, discs, coeffs):
    """`_merge_clusters(z, radius, discs, coeffs)` of numpy arrays, as a
    list: the pairs are tested by row blocks, and the union-find runs only
    when some pair lies within `radius` or has overlapping discs."""
    import numpy as np

    for rows in _row_blocks(len(z), len(z)):
        gap = _modulus(z[rows, None] - z)
        join = (gap <= radius) | (gap <= discs[rows, None] + discs)
        join[np.arange(rows.stop - rows.start),
             np.arange(rows.start, rows.stop)] = False
        if join.any():
            return _merge_clusters(z.tolist(), radius, discs.tolist(),
                                   coeffs)
    return _singletons(z.tolist())


def aberth_rows(C):
    """Roots of N polynomials of one degree n at once.

    C holds N ascending coefficient rows of length n + 1; the result is an
    (N, n) complex array, each row's roots in no fixed order.  Every row
    gets the steps of `aberth` on its coefficients scaled by their largest
    modulus: the closed forms for n <= 2, otherwise the same Gauss-Seidel
    Aberth sweep to the same tolerance _TOL, without guards or polish,
    each step applied to all unfinished rows at once.  The start differs:
    every row starts on one circle of radius 0.8 times its Fujiwara bound
    2 max |a_{n-k}/a_n|^(1/k), rotated by the same fixed angle, because a
    Newton polygon per row would cost more in Python than it saves on the
    low degrees solved here.

    A row is handed to `aberth` itself when its constant or leading
    coefficient is zero, when its corrections stop halving for 40 sweeps
    (a multiple root, or one not finite) or run out of _MAX_ITER sweeps,
    when two roots lie within the merge radius 10 _TOL, or when a root is
    not finite.  So exact zero roots, clusters within 10 _TOL, the guards
    and the failure rule stay those of `aberth`; a settled row is not
    merged by inclusion discs.  A degree drop leaves the missing roots at
    infinity, and a row on which `aberth` raises RootFindingError comes
    back as NaN.  (The batch can settle a row on which `aberth` would
    fail, as its rounding differs; such a row has converged to _TOL all
    the same.)

    A settled row is returned as its last sweep left it: the sweeps
    converge cubically, so a simple root agrees with `aberth`'s polished
    one to within its condition times a few eps, not bit for bit (numpy
    also fuses multiply-adds and divides through a reciprocal).
    """
    import numpy as np

    C = np.asarray(C, dtype=complex)
    if C.ndim != 2 or C.shape[1] < 2:
        raise ValueError("need an (N, n + 1) coefficient array with n >= 1")
    n = C.shape[1] - 1
    moduli = _modulus(C)
    batch = np.flatnonzero((moduli[:, 0] > 0) & (moduli[:, n] > 0))
    scale = moduli[batch].max(axis=1)[:, None]
    A = np.empty((batch.size, n + 1), dtype=complex)
    A.real = C.real[batch] / scale  # as Python divides a complex by a float
    A.imag = C.imag[batch] / scale
    with np.errstate(all="ignore"):
        settled = np.ones(batch.size, dtype=bool)
        if n == 1:
            Z = -A[:, :1] / A[:, 1:]
        elif n == 2:
            Z = _quadratic_rows(A)
        else:
            Z, settled = _aberth_sweeps(A)
        for j in range(n):
            for k in range(j + 1, n):
                settled &= _modulus(Z[:, j] - Z[:, k]) > 10.0 * _TOL
        settled &= np.isfinite(Z).all(axis=1)
    out = np.empty((len(C), n), dtype=complex)
    out[batch[settled]] = Z[settled]
    rest = np.ones(len(C), dtype=bool)
    rest[batch[settled]] = False
    for i in np.flatnonzero(rest):
        try:
            roots = aberth(C[i])
        except RootFindingError:
            roots = [complex(math.nan, math.nan)] * n
        out[i] = roots + [complex(math.inf, 0.0)] * (n - len(roots))
    return out


def _quadratic_rows(A):
    """`_quadratic_roots` of each scaled row (c, b, a) of A.  The
    discriminant is formed with the real operations of Python's complex
    product, which numpy would fuse: it cancels at a double root, where
    one rounding moves the roots by sqrt(eps)."""
    import numpy as np

    c, b, a = A[:, 0], A[:, 1], A[:, 2]
    a4r, a4i = 4.0 * a.real, 4.0 * a.imag
    disc = np.empty_like(b)
    disc.real = ((b.real * b.real - b.imag * b.imag)
                 - (a4r * c.real - a4i * c.imag))
    disc.imag = ((b.real * b.imag + b.imag * b.real)
                 - (a4r * c.imag + a4i * c.real))
    sq = np.sqrt(disc)
    sq = np.where(b.real * sq.real + b.imag * sq.imag < 0.0, -sq, sq)
    q = -0.5 * (b + sq)
    return np.stack([q / a, c / q], axis=1)


def _aberth_sweeps(A):
    """The iteration of `aberth`, without guards or polish, on scaled
    rows A (nonzero constant and leading coefficients, degree n >= 3) at
    once: (roots, settled), the roots of a row that is not settled
    undefined."""
    import numpy as np

    m, n = A.shape[0], A.shape[1] - 1
    moduli = _modulus(A)
    best = np.zeros(m)
    for k in range(1, n + 1):  # Fujiwara's bound 2 max |a_{n-k}/a_n|^(1/k)
        best = np.maximum(best, (moduli[:, n - k] / moduli[:, n]) ** (1.0 / k))
    radius = 0.8 * (2.0 * best)
    z = [radius * cmath.exp(1j * (2 * math.pi * j / n + _START_ANGLE))
         for j in range(n)]
    coeffs = [A[:, k] for k in range(n + 1)]
    deriv = [k * coeffs[k] for k in range(1, n + 1)]
    Z = np.empty((m, n), dtype=complex)
    settled = np.zeros(m, dtype=bool)
    live = np.arange(m)
    best_corr = np.full(m, math.inf)
    stagnant = np.zeros(m, dtype=int)
    for _ in range(_MAX_ITER):
        if not live.size:
            break
        max_corr = np.zeros(live.size)
        for j in range(n):
            zj = z[j]
            w = horner(coeffs, zj) / horner(deriv, zj)
            s = 0j
            for k in range(n):
                if k != j:
                    s = s + 1.0 / (zj - z[k])
            corr = w / (1.0 - w * s)
            z[j] = zj - corr
            max_corr = np.maximum(max_corr, _modulus(corr))
        done = max_corr < _TOL
        improved = max_corr < 0.5 * best_corr
        best_corr = np.where(improved, max_corr, best_corr)
        stagnant = np.where(improved, 0, stagnant + 1)
        leave = done | (stagnant >= 40)
        if leave.any():
            Z[live[done]] = np.stack([zj[done] for zj in z], axis=1)
            settled[live[done]] = True
            keep = ~leave
            live = live[keep]
            z = [zj[keep] for zj in z]
            coeffs = [c[keep] for c in coeffs]
            deriv = [c[keep] for c in deriv]
            best_corr = best_corr[keep]
            stagnant = stagnant[keep]
    return Z, settled


def complex_roots(P: Poly):
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
    scaled, _ = prescale(P)
    zs = aberth(scaled)
    max_eta = _BACKWARD_ERROR_UNITS * P.degree() * sys.float_info.epsilon
    moduli = [abs(c) for c in scaled]
    if P.degree() < _EIGEN_MIN_DEGREE:
        out = []
        for z in zs:
            res = abs(horner(scaled, z))
            size = horner(moduli, abs(z)).real
            out.append(ComplexApprox(z.real, z.imag, res,
                                     reliable=res <= max_eta * size))
        return out
    import numpy as np  # `horner` at all roots at once

    values, sizes = _horner_pair(scaled, moduli, np.array(zs))
    return [ComplexApprox(z.real, z.imag, res, reliable=res <= max_eta * size)
            for z, res, size in zip(zs, _modulus(values).tolist(),
                                    sizes.tolist())]
