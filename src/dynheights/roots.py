"""Complex root finding: closed forms for n <= 2 and for binomials
a x^n + b, otherwise the simultaneous Aberth-Ehrlich iteration.

Deterministic setup: `aberth` starts from Bini's Newton-polygon circles
(Numer. Algorithms 13, 1996).  Each edge k0 -> k1 of the upper convex hull
of the points (k, log|a_k|) puts k1 - k0 points on the circle of radius
(|a_k0| / |a_k1|)^(1/(k1 - k0)), at equal angles rotated by a fixed
irrational angle and by 2 pi k0 / n, so roots of very different moduli
each start near their own circle and repeated runs produce identical
output.  At degree n >= 8, when those radii span at most 10^4, it starts
instead from the eigenvalues of the companion matrix, which are already
at the roots: one or two sweeps where the circles take 5-12.  Roots at
the origin (constant-side coefficients that are zero once divided by the
largest modulus, as in `prescale`) are split off exactly.  Two closed
forms need no iteration, so cannot fail to converge:

* a quadratic (`solve_quadratic`) by the cancellation-free formula, its
  two roots merged when they lie within 10*tol, in O(1) by `_merge_pair`,
  not through the union-find of `_merge_clusters`;
* a binomial a x^n + b, n >= 3 (`_binomial_roots`), whose roots are the
  n-th roots of -b/a, their common modulus carried beyond double
  precision so that each root's modulus rounds on its own.

After the iteration, two roots merge to their centroid when they lie
within 10*tol or their Weierstrass inclusion discs (Carstensen, Numer.
Math. 59, 1991; radii from |P(z)| plus a bound on its rounding) overlap,
which is how multiple roots are reported.  Of the three final Newton
steps, one that raises |P| more than _POLISH_GROWTH-fold to a backward
error above the threshold of `complex_roots` is dropped: at a cluster
Newton can throw one member far off.  P is evaluated by `polys.horner`.

`aberth` solves one polynomial in Python complex arithmetic;
`aberth_rows` solves many polynomials of one degree at once in numpy,
vectorised over the rows (as in Bini's MPSolve), and hands every row it
cannot settle cleanly to `aberth`, whose guards of a step it leaves out.
numpy is imported inside `aberth_rows`, its helpers and the companion
start only, so `aberth` and `complex_roots` run without it below degree 8.
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
_BACKWARD_ERROR_UNITS = 8.0  # reliability threshold in units of n * eps
_POLISH_GROWTH = 4.0  # largest factor by which a polish step may raise |P|
# `aberth` starts from companion eigenvalues at degree >= _EIGEN_MIN_DEGREE
# when its Newton-polygon radii span at most _EIGEN_MAX_SPAN (see `aberth`)
_EIGEN_MIN_DEGREE = 8
_EIGEN_MAX_SPAN = 1e4
# real parts this far apart keep their order under `_root_key` (`_merge_pair`)
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


def aberth(coeffs, tol: float = 1e-12):
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

    The iteration starts from the Newton-polygon circles, or, at degree
    n >= _EIGEN_MIN_DEGREE when the circle radii span at most
    _EIGEN_MAX_SPAN, from the companion eigenvalues (`_companion_start`;
    numpy.linalg.eigvals, about 0.3 ms at n = 36).  The eigenvalues are
    accurate only to about eps times the span of the root moduli, hence
    the span gate.  The degree gate keeps numpy out of the small solves:
    below degree 8 a solve from the circles costs under about 0.3 ms, so
    the eigenvalues would save tens of microseconds where importing numpy
    costs a one-shot process about 0.1 s.  Should LAPACK fail or an
    eigenvalue not be finite, the circles are used.
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
                                        10.0 * tol)
    if not any(coeffs[1:n]):
        return zero_roots + _binomial_roots(coeffs[0], coeffs[n], n, tol)

    deriv = [k * coeffs[k] for k in range(1, n + 1)]
    edges = _newton_polygon(coeffs)
    z = None
    if (n >= _EIGEN_MIN_DEGREE
            and max(r for _, _, r in edges) <= _EIGEN_MAX_SPAN
            * min(r for _, _, r in edges)):
        z = _companion_start(coeffs)
    if z is None:
        z = _circle_start(edges, n)
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
        if max_corr < tol:
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
            f"Aberth iteration did not reach tol={tol} in {_MAX_ITER} steps",
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
    return zero_roots + _merge_clusters(z, 10.0 * tol,
                                        _inclusion_radii(coeffs, z, p))


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


def _inclusion_radii(coeffs, z, p):
    """Radii r_i = n (|P(z_i)| + e_i) / (|a_n| prod_{j != i} |z_i - z_j|)
    of the Weierstrass inclusion discs (Carstensen, Numer. Math. 59,
    1991), with p[i] = P(z_i) as computed.  e_i = eps sum_k (2k + 1)
    |a_k| |z_i|^k bounds the rounding of complex Horner to first order:
    a_k passes k products (sqrt(2) gamma_2 each, Higham, Lemma 3.5) and
    k + 1 sums (u each).  An iterate equal to z_i is left out of the
    product, and a radius that is not finite is 0."""
    eps = sys.float_info.epsilon
    weights = [(2 * k + 1) * eps * abs(c) for k, c in enumerate(coeffs)]
    scale = len(z) / abs(coeffs[-1])
    radii = []
    for zi, pi in zip(z, p):
        prod = 1.0
        for zj in z:
            if zj != zi:
                prod *= abs(zi - zj)
        r = scale * (abs(pi) + horner(weights, abs(zi))) / prod
        radii.append(r if r < math.inf else 0.0)
    return radii


def solve_quadratic(c, b, a, tol: float = 1e-12):
    """`aberth([c, b, a], tol)` for complex c, b, a, bit for bit, without
    its general setup: the coefficients divided by their largest modulus,
    then `_quadratic_roots` and `_merge_pair`.  A zero a or c (a degree
    drop, or a root at 0), and a c that is zero once divided, go to
    `aberth`; a leading coefficient that underflows once divided raises
    its CoefficientRangeError."""
    if a == 0 or c == 0:
        return aberth([c, b, a], tol)
    scale = max(abs(c), abs(b), abs(a))
    lead, low = a / scale, c / scale
    if abs(lead) < sys.float_info.min:  # as in `prescale`
        raise _range_error(math.log10(abs(a)), math.log10(scale))
    if low == 0:
        return aberth([c, b, a], tol)
    return _merge_pair(*_quadratic_roots(low, b / scale, lead), 10.0 * tol)


def _binomial_roots(b, a, n, tol):
    """The n roots of a x^n + b (a, b != 0, n >= 3), the n-th roots of
    -b/a: modulus r = |b/a|^(1/n), angles 2 pi (arg(-b/a) / 2 pi + k) / n.

    r is carried as r_hi + r_lo: r_hi = t^(1/n) in doubles for t = |b|/|a|
    as rounded, and r_lo = r_hi (t / r_hi^n - 1) / n from one exact
    correction on r_hi's dyadic value.  Each part of a root is r_hi times
    cos or sin, exact by Dekker's product, plus r_lo times it, rounded
    once.  So the rounding of r is not shared by all n moduli, where it
    would add up in a Mahler measure (1e-13 off log 2 at x^1000 - 2).
    The roots merge to their centroid when neighbours lie within 10 tol
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
    if 2.0 * r_hi * math.sin(math.pi / n) <= 10.0 * tol:
        return _merge_clusters(z, 10.0 * tol, [0.0] * n)
    z = [(0 + w) / 1 for w in z]  # a singleton centroid: -0.0 turns +0.0
    z.sort(key=_root_key)
    return z


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
    """`_merge_clusters(points, radius, (0.0, 0.0))` of two points, for
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


def _merge_clusters(points, radius, discs):
    """Merge root clusters to repeated centroids: points i and j join when
    they lie within `radius`, or within discs[i] + discs[j] of each other
    (overlapping discs)."""
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
            gap = abs(zi - points[j])
            if gap <= radius or gap <= ri + discs[j]:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(points[i])
    out = []
    for members in groups.values():
        centroid = sum(members) / len(members)
        out.extend([centroid] * len(members))
    out.sort(key=_root_key)
    return out


def _modulus(z):
    """|z| elementwise, rounded as Python's abs(complex) rounds it."""
    import numpy as np

    return np.hypot(z.real, z.imag)


def aberth_rows(C, tol: float = 1e-12):
    """Roots of N polynomials of one degree n at once.

    C holds N ascending coefficient rows of length n + 1; the result is an
    (N, n) complex array, each row's roots in no fixed order.  Every row
    gets the steps of `aberth` on its coefficients scaled by their largest
    modulus: the closed forms for n <= 2, otherwise the same Gauss-Seidel
    Aberth sweep, tolerance and three Newton polish steps, without guards,
    each step applied to all unfinished rows at once.  The start differs:
    every row starts on one circle of radius 0.8 times its Fujiwara bound
    2 max |a_{n-k}/a_n|^(1/k), rotated by the same fixed angle, because a
    Newton polygon per row would cost more in Python than it saves on the
    low degrees solved here.

    A row is handed to `aberth` itself when its constant or leading
    coefficient is zero, when its corrections stop halving for 40 sweeps
    (a multiple root, or one not finite) or run out of _MAX_ITER sweeps,
    when two roots lie within the merge radius 10 tol, or when a root is
    not finite.  So exact zero roots, clusters within 10 tol, the guards
    and the failure rule stay those of `aberth`; a settled row is not
    merged by inclusion discs.  A degree drop leaves the missing roots at
    infinity, and a row on which `aberth` raises RootFindingError comes
    back as NaN.  (The batch can settle a row on which `aberth` would
    fail, as its rounding differs; such a row has converged to tol all
    the same.)

    numpy fuses multiply-adds in complex products and divides through a
    reciprocal, so simple roots agree with `aberth` to a few units in the
    last place rather than bit for bit.
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
            Z, settled = _aberth_sweeps(A, tol)
        for j in range(n):
            for k in range(j + 1, n):
                settled &= _modulus(Z[:, j] - Z[:, k]) > 10.0 * tol
        settled &= np.isfinite(Z).all(axis=1)
    out = np.empty((len(C), n), dtype=complex)
    out[batch[settled]] = Z[settled]
    rest = np.ones(len(C), dtype=bool)
    rest[batch[settled]] = False
    for i in np.flatnonzero(rest):
        try:
            roots = aberth(C[i], tol=tol)
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


def _aberth_sweeps(A, tol):
    """The iteration and polish of `aberth`, without guards, on scaled rows
    A (nonzero constant and leading coefficients, degree n >= 3) at once:
    (roots, settled), the roots of a row that is not settled undefined."""
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
        done = max_corr < tol
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
    rows = np.flatnonzero(settled)
    coeffs = [A[rows, k, None] for k in range(n + 1)]
    deriv = [k * coeffs[k] for k in range(1, n + 1)]
    moduli = [_modulus(c) for c in coeffs]
    max_eta = _BACKWARD_ERROR_UNITS * n * sys.float_info.epsilon
    z = Z[rows]
    p = horner(coeffs, z)
    for _ in range(3):
        step = z - p / horner(deriv, z)
        q = horner(coeffs, step)
        res = _modulus(q)
        keep = ((res <= _POLISH_GROWTH * _modulus(p))
                | (res <= max_eta * horner(moduli, _modulus(step))))
        z = np.where(keep, step, z)
        p = np.where(keep, q, p)
    Z[rows] = z
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
    out = []
    for z in zs:
        res = abs(horner(scaled, z))
        size = horner(moduli, abs(z)).real
        out.append(ComplexApprox(z.real, z.imag, res,
                                 reliable=res <= max_eta * size))
    return out
