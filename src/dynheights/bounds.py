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
exact agreement with the x^l closed form.  phi and psi are real, so the
preimages of the node at -theta are the conjugates of those at theta,
with the same |psi|: only the nodes of the upper half circle are solved,
each counted twice (the node at pi, for an odd node count, once).  Their
preimages are solved a block of 2048 nodes at a time by the batched
Aberth kernel `roots.aberth_rows`, not one solve per node.

The quadratic exception scan scores each candidate a x^2 + b x + c in
integer arithmetic and closed form: the image polynomial of psi(alpha)
comes from an integer Horner reduction modulo a x^2 + b x + c, and the
Mahler measure of a quadratic is max(|a|, |c|, |q|), with q = a times its
larger root when the roots are real, so no root finder or Fraction is
involved: it reads psi's integer coefficients and denominator.  Its box
holds only candidates with max(a, |c|) < T and |b| < T + ac/T for
T = e^(2 threshold / l), the others having M >= T.  Most of the
remaining candidates fail on h(psi(x)) and are dropped before their
image polynomial is built, by a float lower bound on h(psi(x)) from
psi at the two roots with a rounding allowance.
Only the reported exceptions are solved, for their approximate location.

A scan, a preimage run of `preimage_measure_stats` and a level-curve
energy first predict their work (candidates scored, deg psi units for a
quadratic one; degree-d solves; grid nodes) and refuse with
WorkBudgetError beyond `errors.WORK_BUDGET`.

Exact values become doubles by `polys.to_floats` (or `roots.prescale`),
beyond whose range they are a CoefficientRangeError (the scan's psi then
goes without its float floor).  numpy is imported by `energy_level_curve`
alone, so importing this module (and the CLI) does not load it.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .dynamics import (DynSystem, rational_box_bound,
                       rational_points_up_to_height)
from .errors import (WORK_BUDGET, CoefficientRangeError, RootFindingError,
                     WorkBudgetError, _require_budget)
from .mahler import log_mahler_plus
from .places import ARCH, log_abs_at, weil_height
from .polys import Poly, horner, int_poly, to_floats
from .roots import (aberth, aberth_rows, complex_roots, prescale,
                    solve_quadratic)

_CIRCLE_BAND = 1e-6  # |z| band for circle moments
_BLOCK_ROWS = 2048  # level-curve rows solved together; bounds peak memory


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted complex point cloud; weights sum to 1 (within 1e-12).

    The sum is taken with math.fsum: a naive float sum of many equal
    weights drifts past 1e-12 (78125 weights 5^-7 sum to 1 + 1.0e-12)."""

    points: tuple  # of (complex, weight)

    def __post_init__(self):
        total = math.fsum(w for _, w in self.points)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, not 1")


def pair_bound_power(ell: int, psi: Poly, nodes: int = 16384) -> float:
    """Lower bound for l h(x) + h(psi(x)) outside finitely many points:
    log M(psi(x) - y) / (l + m), where M(psi(x) - y) = M^+(psi)."""
    if ell < 1 or psi.degree() < 1:
        raise ValueError("degrees must be >= 1")
    m = psi.degree()
    return log_mahler_plus(psi, nodes).log_value / (ell + m)


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

    For each grid angle theta_k = (k + 1/2) 2 pi / nodes the l preimages
    are the roots of phi - e^{i theta_k}; each carries weight
    2 pi/(l*nodes).  phi and psi are real, so the preimages of node
    nodes - 1 - k are the conjugates of those of node k and give the same
    |psi|: only the rows k < nodes // 2 are solved, with weight 2, plus
    the middle row theta = pi with weight 1 when nodes is odd.  The rows
    of _BLOCK_ROWS consecutive nodes are solved together by
    `aberth_rows`, whose settled rows take no Newton polish: the value's
    error is the O(h^2) kink error of the trapezoid, far above that of
    the roots.  psi is evaluated on all their preimages at once.
    A row whose solve fails is retried at a half-step perturbation, then
    skipped together with its mirror (error if more than 1% of the nodes
    are skipped).
    """
    import numpy as np

    ell = phi.degree()
    m = psi.degree()
    if ell < 1 or m < 1:
        raise ValueError("degrees must be >= 1")
    if nodes < 64:
        raise ValueError("need at least 64 nodes")
    _require_budget(nodes, True, "energy", "nodes")
    phic = np.array(to_floats(phi.coeffs, phi.den), dtype=complex)
    if abs(phic[-1]) < sys.float_info.min:
        raise CoefficientRangeError(
            "the leading coefficient of phi is below the double range")
    # psi = scale * psi_s: |psi| > 1 and log|psi| are taken in log space (a
    # floor 1/scale beyond the doubles is inf: no double |psi_s| passes it)
    psi_s, scale = prescale(psi)
    psi_c = np.array(psi_s, dtype=complex)
    floor = float(1 / scale) if 1 / scale <= sys.float_info.max else math.inf
    log_scale = log_abs_at(scale, ARCH)
    total = 0.0
    skipped = 0
    step = 2 * math.pi / nodes
    half = nodes // 2
    rows_solved = half + nodes % 2  # the middle row theta = pi if odd
    for first in range(0, rows_solved, _BLOCK_ROWS):
        k = np.arange(first, min(first + _BLOCK_ROWS, rows_solved))
        theta = (k + 0.5) * step
        weight = np.where(k < half, 2.0, 1.0)
        rows = np.tile(phic, (theta.size, 1))
        rows[:, 0] -= np.exp(1j * theta)
        pre = aberth_rows(rows)
        failed = np.isnan(pre[:, 0])
        if failed.any():
            rows[failed, 0] = phic[0] - np.exp(1j * (theta[failed]
                                                     + 0.5 * step))
            pre[failed] = aberth_rows(rows[failed])
            failed = np.isnan(pre[:, 0])
            skipped += int(weight[failed].sum())
            pre, weight = pre[~failed], weight[~failed]
        vals = horner(psi_c, pre)
        mod = np.hypot(vals.real, vals.imag)  # rounded as abs(complex)
        above = mod > floor
        logs = np.log(mod, out=np.zeros_like(mod), where=above)
        total += float(weight @ (logs.sum(axis=1)
                                 + above.sum(axis=1) * log_scale))
    if skipped > max(1, nodes // 100):
        raise RootFindingError(
            f"{skipped} of {nodes} level-curve nodes failed to solve")
    good = nodes - skipped
    # weight 2 pi/(l*nodes) per preimage times the (l m / pi) prefactor
    return (2.0 * m / good) * total


def _log_mahler_quadratic(a: int, b: int, c: int) -> float:
    """log M(a x^2 + b x + c) for integers with a != 0, in closed form.

    If b^2 - 4ac <= 0 the roots are conjugate or equal, so both have
    |r|^2 = c/a and log M = log max(|a|, |c|).  Otherwise the roots are
    real, q/a and c/q with the cancellation-free
    q = -(b + sign(b) sqrt(b^2 - 4ac))/2 (as in `roots._quadratic_roots`),
    |q/a| >= |c/q|, and log|a| + sum log^+|r| = log max(|a|, |q|, |c|);
    c = 0 gives |q| = |b|.
    """
    disc = b * b - 4 * a * c
    if disc <= 0:
        return math.log(max(abs(a), abs(c)))
    if max(abs(b), disc).bit_length() <= 1000:
        q = (abs(b) + math.sqrt(disc)) / 2
    else:  # beyond double range; isqrt is off by under one part in 2^500
        q = (abs(b) + math.isqrt(disc)) // 2
    return math.log(max(abs(a), abs(c), q))


def _psi_image_coeffs(a: int, b: int, c: int, num, den: int):
    """Ascending coefficients of the primitive integer polynomial, with
    positive leading coefficient, vanishing at psi(alpha) for the roots
    alpha of a x^2 + b x + c (a != 0), where den * psi = sum num[k] x^k.

    Horner's rule on num modulo a x^2 + b x + c, in integers, keeps
    den * psi(x) = (U + V x)/e: each step multiplies by x, replaces x^2
    by -(b x + c)/a and adds the next coefficient.  Then w = U + V alpha
    = e den psi(alpha) satisfies a w^2 - (2aU - bV) w + aU^2 - bUV + cV^2
    = 0 (substitute alpha = (w - U)/V), and y = psi(alpha) satisfies
    the same with w = e den y."""
    U = V = 0
    e = 1
    for cf in reversed(num):
        U, V, e = a * cf * e - V * c, a * U - V * b, a * e
    ed = e * den
    coeffs = (a * U * U - b * U * V + c * V * V, -(2 * a * U - b * V) * ed,
              a * ed * ed)
    g = math.gcd(*coeffs)
    if coeffs[2] < 0:
        g = -g
    return tuple(k // g for k in coeffs)


def _psi_image_height_floor(cf, norm: float, a: int, b: int, c: int,
                            disc: int) -> float:
    """A lower bound on h(psi(alpha)) for the roots alpha of the
    irreducible a x^2 + b x + c (discriminant disc), in floats and without
    the image polynomial: h(y) >= (1/2) sum log^+|psi(alpha_i)| over the
    two conjugates, as h(y) is half the log M of y's minimal polynomial
    when y has degree 2, and h(p/q) = log max(|p|, |q|) >= log^+|p/q| when
    psi(alpha) is rational.  cf holds psi's ascending coefficients as
    floats, and norm the sum of their absolute values.

    Each |psi(alpha_i)| is lowered by 32 (m + 1) u norm max(1, |alpha_i|)^m
    (u = 2^-53, m = deg psi), at least 32 (m + 1) u sum |cf_k| |alpha_i|^k.
    That covers the rounding of the coefficients (u per term), of the
    root (a few u relative, so a few k u on alpha^k) and of Horner's rule
    in real or complex arithmetic (about 4 m u; Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 5).  A term whose value or
    allowance overflows counts 0, and the terms are summed as logs, so the
    floor is finite."""
    if disc < 0:
        # conjugate roots, at which the real psi has the same modulus
        roots = (complex(-b / (2 * a), math.sqrt(-disc) / (2 * a)),)
        weight = 1.0
    else:
        q = -(b + math.copysign(math.sqrt(disc), b)) / 2
        roots = (q / a, c / q)
        weight = 0.5
    m = len(cf) - 1
    slack = (m + 1) * 2.0 ** -48 * norm
    total = 0.0
    for x in roots:
        y = 0.0
        for k in reversed(cf):
            y = y * x + k
        # inf past the double range, where abs(complex) and ** raise
        size = abs(x)
        power = (1.0 if size <= 1.0 else size ** m
                 if m * math.log2(size) < 1023 else math.inf)
        low = math.hypot(y.real, y.imag) - slack * power
        if 1.0 < low < math.inf:
            total += math.log(low)
    return weight * total


def _quadratic_box(ell: int, threshold: float, H: float):
    """(a, c, bm) over the box of the quadratic scan, in scan order: the
    candidates a x^2 + b x + c with |b| <= bm.

    With T = e^(2 threshold / l), a candidate passes l h(x) < threshold
    only if M = max(|a|, |c|, |q|) < T, so a, |c| < T.  Real roots have
    q q' = ac with |q| >= |q'|, so |b| = |q + q'| < T + ac/T; complex
    roots have b^2 < 4ac and 2 sqrt(ac) <= T + ac/T.  The margins
    (1 + 1e-9 on T, + 1 on the b bound) absorb float rounding, and every
    coefficient stays within e^H."""
    bound = int(math.floor(math.exp(H) + 1e-12))
    T = math.exp(2.0 * threshold / ell)
    ac_max = min(bound, int(T * (1.0 + 1e-9)))
    b_max = min(bound, int(2.0 * T) + 1)
    for a in range(1, ac_max + 1):
        for c in range(-ac_max, ac_max + 1):
            yield a, c, min(b_max, math.floor(T + a * c / T) + 1)


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

    Neither box holds a point that cannot pass l h(x) < threshold: the
    rational one stops at height threshold / l, and the quadratic one
    (`_quadratic_box`) at a, |c| <= T and |b| <= T + ac/T for
    T = e^(2 threshold / l), so the records are an ordered subset of the
    full boxes' candidates.  The candidates of both boxes are counted
    first, a quadratic one as deg psi units (its image polynomial takes m
    Horner steps on integers that grow with each), and a scan of more than
    WORK_BUDGET units raises WorkBudgetError.

    A quadratic candidate is scored without root finding: h(x) is half
    the closed-form log M of its minimal polynomial
    (`_log_mahler_quadratic`; log max(a, |c|) for complex roots, taken
    once per (a, c)), and h(psi(x)) half that of the image polynomial,
    which `_psi_image_coeffs` builds in integer arithmetic.  Most
    candidates that pass l h(x) < threshold fail on h(psi(x)); the float
    floor `_psi_image_height_floor` drops those whose value reaches
    threshold + 1e-9 (1 + |threshold|) before the image polynomial is
    built, so the records are those of the exact test.  Only the minimal
    polynomials of reported exceptions are solved (`complex_roots`), to
    place each root in its record.
    """
    if threshold < 0 or H < 0:
        raise ValueError("threshold and H must be >= 0")
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    m = psi.degree()
    if ell < 1 or m < 1:
        raise ValueError("degrees must be >= 1")
    # the quadratic box below is 2 e^(2 threshold / ell) wide
    if (include_quadratic
            and 2.0 * threshold / ell >= math.log(sys.float_info.max / 2)):
        raise ValueError(f"threshold {threshold} is out of range for the "
                         f"quadratic scan: 2 e^(2 threshold / {ell}) must "
                         "be a finite float")
    # a finite point with l h(x) >= threshold is skipped below, so the
    # enumeration stops at height threshold / l
    side = rational_box_bound(H, threshold / ell)
    work, exact = side * (2 * side + 1) + 1, True
    if include_quadratic:
        for _, _, bm in _quadratic_box(ell, threshold, H):
            work += m * max(0, 2 * bm + 1)
            if work > WORK_BUDGET:
                exact = False
                break
    _require_budget(work, exact, "scan",
                    "units (1 a rational candidate, deg psi a quadratic one)")
    out = []
    for P in rational_points_up_to_height(H, threshold / ell):
        if P.is_infinity:
            value = 0.0  # h(inf) = 0 and psi(inf) = inf
        else:
            x = P.as_rational()
            hx = weil_height(P)
            if ell * hx >= threshold:
                continue
            img = psi(x)
            himg = (0.0 if img == 0 else
                    math.log(max(abs(img.numerator), img.denominator)))
            value = ell * hx + himg
        if value < threshold:
            out.append({"kind": "rational", "point": str(P), "value": value})
    if include_quadratic:
        # a candidate whose value provably reaches threshold is dropped
        # before its image polynomial is built
        cut = threshold + 1e-9 * (1.0 + abs(threshold))
        try:
            cf = to_floats(psi.coeffs, psi.den)
        except CoefficientRangeError:   # beyond doubles: no floor
            cf = None
        else:
            norm = sum(abs(k) for k in cf)
        for a, c, bm in _quadratic_box(ell, threshold, H):
            g = math.gcd(a, c)
            ac4 = 4 * a * c
            h_conj = math.log(max(a, abs(c))) / 2  # h(x) if disc < 0
            for b in range(-bm, bm + 1):
                if g != 1 and math.gcd(g, b) != 1:
                    continue
                disc = b * b - ac4
                if disc < 0:
                    hx = h_conj
                elif disc == 0 or _is_perfect_square(disc):
                    continue  # reducible over Q
                else:
                    hx = _log_mahler_quadratic(a, b, c) / 2
                if ell * hx >= threshold:
                    continue
                if cf is not None and ell * hx + _psi_image_height_floor(
                        cf, norm, a, b, c, disc) >= cut:
                    continue
                c2, b2, a2 = _psi_image_coeffs(a, b, c, psi.coeffs, psi.den)
                himg = _log_mahler_quadratic(a2, b2, c2) / 2
                value = ell * hx + himg
                if value < threshold:
                    minpoly = int_poly([c, b, a])
                    for r in complex_roots(minpoly):
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
    coeffs = to_floats(psi.coeffs, psi.den)
    total = 0.0
    count = 0
    for k in range(n):
        if math.gcd(k, n) != 1:
            continue
        acc = horner(coeffs, cmath.exp(2j * math.pi * k / n))
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
    reference is only meaningful for power maps.  A run of more than
    WORK_BUDGET solves (d + d^2 + ... + d^level) raises WorkBudgetError
    before the first solve, and moments of more than WORK_BUDGET terms
    (max_moment times the on-circle roots, at least 1) before the first
    moment.

    The preimages are pulled back one level at a time (each step a
    degree-d solve of p0(x) - w p1(x) = 0): backward steps contract
    toward the Julia set, whereas the expanded level-n polynomial has
    monomial coefficients too ill-conditioned for double precision.
    phi^n is never formed: its forms cannot be proportional, so
    phi^n(z) = a never holds identically, because Res(phi) != 0 and
    composition keeps the resultant nonzero (`HomogPair.compose`).

    At d = 2 each step is `solve_quadratic` on the coefficients of p0
    and p1, unpacked once: `aberth` at degree 2, bit for bit, without its
    setup.  Otherwise it is `aberth`, which solves the binomial steps
    x^d + (c - w) of x^d + c in closed form.  Solving each level as one
    `aberth_rows` batch is slower below level 9 at d = 2 (0.92 against
    0.53 ms to level 7 on x^2 - 1): numpy's overhead per call outweighs
    the few rows of a small level.
    """
    if level < 1 or max_moment < 1:
        raise ValueError("level and max_moment must be >= 1")
    a = Fraction(a)
    d = S.degree
    c0, c1 = to_floats(S.F.f0), to_floats(S.F.f1)  # p0, p1 at x^0 ... x^d
    current = [complex(w) for w in to_floats([a.numerator], a.denominator)]
    # past 64 levels the count is far over any budget; it is not formed
    solves = (d ** (min(level, 64) + 1) - d) // (d - 1)
    _require_budget(solves, level <= 64, f"equidist to level {level}",
                    f"degree-{d} solves")
    if d == 2:
        (a0, a1, a2), (b0, b1, b2) = c0, c1
    for _ in range(level):
        nxt = []
        if d == 2:
            for w in current:
                nxt += solve_quadratic(a0 - w * b0, a1 - w * b1, a2 - w * b2)
        else:
            for w in current:
                nxt += aberth([c0[k] - w * c1[k] for k in range(d + 1)])
        current = nxt
    roots = sorted(current, key=lambda z: (round(z.real, 12),
                                           round(z.imag, 12)))
    w = 1.0 / len(roots)
    measure = EmpiricalMeasure(tuple((z, w) for z in roots))
    on_circle = []
    for z in roots:
        mod = abs(z)
        if mod > 0 and abs(mod - 1.0) <= _CIRCLE_BAND:
            on_circle.append(z / mod)
    _require_budget(max_moment * max(1, len(on_circle)), True,
                    f"equidist with {max_moment} moments", "terms")
    moments = []
    for k in range(1, max_moment + 1):
        mk = 0j
        for u in on_circle:
            mk += w * u ** k
        moments.append(mk)
    # atan2, not cmath.phase: phase raises OverflowError when the angle
    # of a subnormal imaginary part underflows
    angles = [math.atan2(z.imag, z.real) for z in roots if z != 0]
    return measure, moments, star_discrepancy_angles(angles)
