"""Independent references for every item kind, computed with mpmath at 30
digits, exact integers and Fractions; none of it calls `dynheights`.

* canonical heights: the archimedean Green function by iteration with
  sup-norm renormalization, at a precision raised until it settles to
  1e-20 (an orbit on a repelling cycle loses digits at every step), and
  each finite Green function from the
  p-adic valuations of the gcds along the orbit, tracked modulo a high
  power of p (truncated once the tail is below 1e-20);
* log M: Jensen's formula over `mpmath.polyroots` on each squarefree
  factor (sympy), factor by factor
  (M is multiplicative, so each factor is solved at low degree);
* log M+: the circle average of log max(|psi|, 1), split at the exact
  crossings |psi| = 1 (unit-circle roots of psi(z) z^m psi(1/z) - z^m)
  and integrated arc by arc with `mpmath.quad`;
* level-curve energies of phi = +-(x - b)^l: 2 l m log M+(psi(x + b)),
  since |phi| = 1 is the circle |x - b| = 1 traversed l times;
* equidistribution: exact point counts d^N; the level-N preimages pulled
  back one level at a time at 30 digits by closed-form solves (the
  quadratic formula, or cube roots for x^3 + c), and from them the circle
  moments and the angular star discrepancy (for x^2 with target +-1 the
  preimages are 2^N-th roots of +-1, so the moments vanish and the
  discrepancy is 1/2^N or 1/2^(N+1));
* exception scans: the rational candidates exactly; the quadratic ones
  through the closed-form roots of a x^2 + b x + c and the minimal
  polynomial of psi(alpha) from psi mod (a x^2 + b x + c);
* metrized graphs: the Laplacian, curvature and energy in Fractions.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import mpmath
import sympy

mpmath.mp.dps = 30
mpf = mpmath.mpf

# Smyth (1981): m(1 + x + y) = (3 sqrt 3 / 4 pi) L(chi_-3, 2); it equals
# log M+(1 - x) because M+(psi) = M(psi(x) - y).
SMYTH = mpf("0.32306594721945051409")


# ---------------------------------------------------------------------------
# canonical heights

def _eval_pair(f0, f1, a, b):
    d = len(f0) - 1
    apow, bpow = [1] * (d + 1), [1] * (d + 1)
    for i in range(1, d + 1):
        apow[i], bpow[i] = apow[i - 1] * a, bpow[i - 1] * b
    return (sum(c * apow[i] * bpow[d - i] for i, c in enumerate(f0) if c),
            sum(c * apow[i] * bpow[d - i] for i, c in enumerate(f1) if c))


def green_arch(f0, f1, point):
    """Archimedean Green function of the coprime lift [a:b]; iterated until
    the tail (the distortion constant, below 10^2 here, times d^-N) is
    below 1e-13.  An orbit on a repelling cycle loses digits at every
    step, so the iteration is repeated at doubling precision until two
    results agree to 1e-20."""
    d = len(f0) - 1
    steps = math.ceil(15 / math.log10(d))
    prev, dps = None, 30 + steps
    while dps <= 4000:
        with mpmath.workdps(dps):
            value = _green_arch(f0, f1, point, d, steps)
        if prev is not None and abs(value - prev) < mpf(10) ** -20:
            return value
        prev, dps = value, 2 * dps
    raise ArithmeticError("archimedean Green function did not settle")


def _green_arch(f0, f1, point, d, steps):
    a, b = point
    acc = mpmath.log(max(abs(a), abs(b)))
    x, y = mpf(a), mpf(b)
    m = max(abs(x), abs(y))
    x, y = x / m, y / m
    w = mpf(1)
    for _ in range(steps):
        u, v = _eval_pair(f0, f1, x, y)
        m = max(abs(u), abs(v))
        w /= d
        acc += w * mpmath.log(m)
        x, y = u / m, v / m
    return +acc


def _vp(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def padic_orbit(f0, f1, res, p, point):
    """[(c_k, A_k, B_k, prec_k)] along the orbit: c_k is the p-valuation of
    the gcd extracted at step k (c_k <= v_p(Res)), and (A_k, B_k) the
    lift the step starts from, known modulo p^prec_k; steps go on until
    the tail of sum c_k d^-(k+1) is below 1e-20."""
    d = len(f0) - 1
    vres = _vp(abs(res), p)
    steps = math.ceil((20 + math.log10(max(vres * math.log(p), 1.0)))
                      / math.log10(d)) + 1
    prec = vres * (steps + 1) + 2
    A, B = point[0] % p ** prec, point[1] % p ** prec
    out = []
    for _ in range(steps):
        mod = p ** prec
        u, v = _eval_pair(f0, f1, A, B)
        u, v = u % mod, v % mod
        c = min(_vp(u, p) if u else prec, _vp(v, p) if v else prec)
        if c >= prec - vres:
            raise ArithmeticError("p-adic precision exhausted")
        out.append((c, A, B, prec))
        A, B = u // p ** c, v // p ** c
        prec -= c
    return out


def green_padic(f0, f1, res, p, point):
    """Finite Green function at p: -log p * sum_k c_k d^-(k+1)."""
    d = len(f0) - 1
    total = Fraction(0)
    for k, (c, _, _, _) in enumerate(padic_orbit(f0, f1, res, p, point)):
        total += Fraction(c, d ** (k + 1))
    return -mpmath.log(p) * mpf(total.numerator) / total.denominator


def ledger_mismatch(f0, f1, res, p, point):
    """How far the residue classes of the orbit in P^1(Z/p^(2v+4)),
    v = v_p(Res), fall short of determining its ledger.  At the first step
    j whose class
    repeats that of an earlier step i, a Green function that takes the
    ledger (c_k) to be periodic from i with period j - i and sums it as a
    geometric series is off by the returned amount; 0.0 when the ledger
    is periodic there, or no class repeats.  The workloads draw
    canonical-height points on which it is below eps / 10 (see
    workloads.py)."""
    d = len(f0) - 1
    digits = 2 * _vp(abs(res), p) + 4
    mod = p ** digits
    orbit = padic_orbit(f0, f1, res, p, point)
    ledger = [c for c, _, _, _ in orbit]
    first = {}
    for k, (_, A, B, prec) in enumerate(orbit):
        if prec < digits:
            break
        state = ((A * pow(B, -1, mod) % mod, 1) if B % p
                 else (1, B * pow(A, -1, mod) % mod))
        if state in first:
            i = first[state]
            off = sum(Fraction(ledger[i + (t - i) % (k - i)] - ledger[t],
                               d ** (t + 1)) for t in range(k, len(ledger)))
            return abs(float(off)) * math.log(p)
        first[state] = k
    return 0.0


def green_arch_double(f0, f1, point, eps):
    """The archimedean Green function by the same sup-normalized iteration
    as green_arch, in double precision, with steps until the tail (the
    distortion constant, below 10^2 here, times d^-N) is below eps."""
    d = len(f0) - 1
    steps = math.ceil(math.log(1e2 / ((d - 1) * eps)) / math.log(d))
    a, b = point
    m = max(abs(a), abs(b))
    acc = math.log(m)
    x, y = a / m, b / m
    w = 1.0
    for _ in range(steps):
        u, v = _eval_pair(f0, f1, x, y)
        m = max(abs(u), abs(v))
        w /= d
        acc += w * math.log(m)
        x, y = u / m, v / m
    return acc


def canheight_conditioning(spec, point, eps):
    """How far double precision and the residue classes modulo p^(2v+4)
    fall short for the canonical height of the point: (error of the
    double-precision iteration against green_arch, largest
    ledger_mismatch over the bad primes).  Both are within eps / 10 when
    they suffice."""
    f0, f1 = spec["f0"], spec["f1"]
    arch = abs(green_arch_double(f0, f1, point, eps)
               - float(green_arch(f0, f1, point)))
    padic = max([ledger_mismatch(f0, f1, spec["res"], p, point)
                 for p in spec["primes"]] + [0.0])
    return arch, padic


def green_ledger(spec, point=None):
    """{"inf": g_inf, "p": g_p, ...} for the map in spec at the point."""
    point = point or spec["point"]
    out = {"inf": green_arch(spec["f0"], spec["f1"], point)}
    for p in spec["primes"]:
        out[str(p)] = green_padic(spec["f0"], spec["f1"], spec["res"], p,
                                  point)
    return out


def hhat(spec, point):
    return sum(green_ledger(spec, point).values())


# ---------------------------------------------------------------------------
# Mahler measures

def _roots(coeffs):
    """[(root, multiplicity)] of the nonzero roots of an integer polynomial
    (ascending coefficients), solving each squarefree factor separately so
    that polyroots only meets simple roots."""
    x = sympy.Symbol("x")
    P = sympy.Poly(list(reversed(coeffs)), x)
    out = []
    for factor, mult in P.sqf_list()[1]:
        c = [int(a) for a in factor.all_coeffs()]      # descending
        while c and c[-1] == 0:
            c.pop()
        if len(c) > 1:
            out += [(r, mult) for r in mpmath.polyroots(
                c, maxsteps=400, extraprec=60)]
    return out


def log_mahler(coeffs):
    """Jensen: log|lead| + sum log max(1, |root|)."""
    out = mpmath.log(abs(coeffs[-1]))
    for r, mult in _roots(coeffs):
        if abs(r) > 1:
            out += mult * mpmath.log(abs(r))
    return out


def log_mahler_factors(factors):
    return sum(log_mahler(list(f)) for f in factors)


def _horner(coeffs, z):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def log_mahler_plus(psi):
    """Circle average of log max(|psi|, 1), split at the crossings."""
    m = len(psi) - 1
    rev = list(reversed(psi))
    cross = [0] * (2 * m + 1)
    for i, a in enumerate(psi):
        for j, b in enumerate(rev):
            cross[i + j] += a * b
    cross[m] -= 1
    if not any(cross):              # |psi| = 1 on the whole circle
        return mpf(0)
    two_pi = 2 * mpmath.pi
    angles = []
    for t in sorted(mpmath.arg(r) % two_pi for r, _ in _roots(cross)
                    if abs(abs(r) - 1) < mpf(10) ** -15):
        if not angles or t - angles[-1] > mpf(10) ** -20:
            angles.append(t)

    def f(t):
        return mpmath.log(abs(_horner(psi, mpmath.expj(t))))

    if not angles:
        if abs(_horner(psi, mpf(1))) <= 1:
            return mpf(0)
        return log_mahler(list(psi))
    # roots of psi near the circle make log|psi| nearly singular: split the
    # arcs at their arguments too, where tanh-sinh clusters its nodes
    near = sorted(mpmath.arg(r) % two_pi for r, _ in _roots(psi)
                  if abs(abs(r) - 1) < mpf("0.2"))
    total = mpf(0)
    for i, a in enumerate(angles):
        b = angles[(i + 1) % len(angles)]
        if b <= a:
            b += two_pi
        if f((a + b) / 2) <= 0:
            continue
        pts = [a] + sorted(t + k * two_pi for t in near for k in (0, 1)
                           if a < t + k * two_pi < b) + [b]
        value, err = mpmath.quad(f, pts, error=True, maxdegree=10)
        if err > mpf(10) ** -18:
            raise ArithmeticError(f"M+ quadrature error {err}")
        total += value
    return total / two_pi


def taylor_shift(coeffs, b):
    """Coefficients of psi(x + b)."""
    out = [0] * len(coeffs)
    for k, c in enumerate(coeffs):
        for j in range(k + 1):
            out[j] += c * math.comb(k, j) * b ** (k - j)
    return out


# ---------------------------------------------------------------------------
# equidistribution

CIRCLE_BAND = mpf(10) ** -6     # |z| band of the circle moments
CUT = mpf(10) ** -12            # an angle this close to 0 may come out as 1


def _preimages_once(p0, p1, w):
    """Roots of p0(x) - w p1(x) (ascending coefficients) by closed forms:
    the quadratic formula, or the cube roots of a pure cubic."""
    deg = max(len(p0), len(p1)) - 1
    c = [(p0[i] if i < len(p0) else 0) - w * (p1[i] if i < len(p1) else 0)
         for i in range(deg + 1)]
    if c[-1] == 0:
        raise ArithmeticError("degree drops at this target")
    if deg == 2:
        disc = mpmath.sqrt(c[1] * c[1] - 4 * c[2] * c[0])
        return [(-c[1] + disc) / (2 * c[2]), (-c[1] - disc) / (2 * c[2])]
    if deg == 3 and c[1] == c[2] == 0:
        r = mpmath.root(-c[0] / c[3], 3)
        return [r * mpmath.unitroots(3)[k] for k in range(3)]
    raise ValueError(f"no closed-form preimages for degree {deg}")


def star_discrepancy(ts):
    """Star discrepancy of points of [0, 1) against the uniform measure."""
    ts = sorted(ts)
    n = len(ts)
    if n == 0:
        return mpf(1)
    return max(max(mpf(i) / n - t, t - mpf(i - 1) / n)
               for i, t in enumerate(ts, start=1))


def equidist_reference(f0, f1, target, level, moments):
    """Point count, circle moments (over the preimages within 1e-6 of
    |z| = 1) and the possible star discrepancies of the nonzero
    preimages' angles: a preimage within 1e-12 of the positive real axis
    may land at angle 0 or at angle 1 in floating point, so one value is
    given for each count of such preimages placed at 1."""
    w0 = mpf(target[0]) / target[1]
    level_pts = [mpmath.mpc(w0)]
    for _ in range(level):
        level_pts = [z for w in level_pts for z in _preimages_once(f0, f1, w)]
    n = len(level_pts)
    for z in level_pts:
        if abs(abs(abs(z) - 1) - CIRCLE_BAND) < CUT:
            raise ArithmeticError("a preimage lies on the edge of the band")
    ring = [z / abs(z) for z in level_pts if abs(abs(z) - 1) <= CIRCLE_BAND]
    mom = [mpmath.fsum(u ** k for u in ring) / n
           for k in range(1, moments + 1)]
    two_pi = 2 * mpmath.pi
    ts = [(mpmath.arg(z) / two_pi) % 1 for z in level_pts
          if abs(z) > mpf(10) ** -20]
    firm = [t for t in ts if CUT <= t <= 1 - CUT]
    cut = len(ts) - len(firm)
    disc = sorted({float(star_discrepancy(firm + [mpf(0)] * (cut - j)
                                          + [mpf(1)] * j))
                   for j in range(cut + 1)})
    return {"point_count": n,
            "moments": [[float(m.real), float(m.imag)] for m in mom],
            "discrepancy": disc}


# ---------------------------------------------------------------------------
# exception scans

def _height_quadratic(a, b, c):
    """Height of a root of the primitive quadratic a x^2 + b x + c."""
    disc = mpmath.sqrt(mpf(b * b - 4 * a * c))
    r1, r2 = (-b + disc) / (2 * a), (-b - disc) / (2 * a)
    return (mpmath.log(abs(a)) + mpmath.log(max(1, abs(r1)))
            + mpmath.log(max(1, abs(r2)))) / 2


def _height_rational(x: Fraction):
    if x == 0:
        return mpf(0)
    return mpmath.log(max(abs(x.numerator), x.denominator))


def _primitive(seq):
    den = 1
    for c in seq:
        den = math.lcm(den, Fraction(c).denominator)
    ints = [int(Fraction(c) * den) for c in seq]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def _psi_image_height(psi, a, b, c):
    """h(psi(alpha)) for a root alpha of a x^2 + b x + c: reduce psi to
    u + v x modulo the quadratic; psi(alpha) is rational when v = 0, and
    otherwise has minimal polynomial y^2 - s y + p with s, p symmetric
    functions of the two conjugates."""
    rem = [Fraction(x) for x in psi]
    while len(rem) > 2:
        lead = rem.pop() / a
        k = len(rem) - 2
        rem[k] -= lead * c
        rem[k + 1] -= lead * b
    rem += [Fraction(0)] * (2 - len(rem))
    u, v = rem
    if v == 0:
        return _height_rational(u)
    s = 2 * u - v * Fraction(b, a)
    p = u * u - u * v * Fraction(b, a) + v * v * Fraction(c, a)
    q0, q1, q2 = _primitive([p, -s, 1])
    return _height_quadratic(q2, q1, q0)


def scan_reference(ell, psi, threshold, H):
    """Rational exceptions {point: value} and quadratic ones
    {(a, b, c): value} with ell h(x) + h(psi(x)) < threshold among the
    candidates the scan enumerates (height <= H; coefficients <= e^H)."""
    bound = int(math.floor(math.exp(H) + 1e-12))
    rational = {"inf": 0.0} if threshold > 0 else {}
    for q in range(1, bound + 1):
        for a in range(-bound, bound + 1):
            if math.gcd(a, q) != 1:
                continue
            x = Fraction(a, q)
            hx = _height_rational(x)
            if ell * hx >= threshold:
                continue
            img = sum(Fraction(cf) * x ** k for k, cf in enumerate(psi))
            value = ell * hx + _height_rational(img)
            if value < threshold:
                rational[str(x)] = float(value)
    # h(alpha) >= log max(|a|, |c|, |b|/2) / 2, so larger boxes cannot hit
    lim = math.exp(2 * threshold / ell)
    ac, bmax = min(bound, int(lim)), min(bound, int(2 * lim))
    quadratic = {}
    for a in range(1, ac + 1):
        for c in range(-ac, ac + 1):
            for b in range(-bmax, bmax + 1):
                if math.gcd(a, b, c) != 1:
                    continue
                disc = b * b - 4 * a * c
                if disc == 0 or (disc > 0 and math.isqrt(disc) ** 2 == disc):
                    continue
                hx = _height_quadratic(a, b, c)
                if ell * hx >= threshold:
                    continue
                value = ell * hx + _psi_image_height(psi, a, b, c)
                if value < threshold:
                    quadratic[(a, b, c)] = float(value)
    return rational, quadratic


# ---------------------------------------------------------------------------
# metrized graphs

def graph_reference(path, op):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    f = {v: Fraction(data.get("f", {}).get(v, 0)) for v in data["vertices"]}
    edges = [(e["u"], e["v"], Fraction(e["length"])) for e in data["edges"]]
    if op == "energy":
        return {"energy": str(sum((((f[v] - f[u]) / L) ** 2 * L
                                   for u, v, L in edges), Fraction(0)))}
    lap = {v: Fraction(0) for v in data["vertices"]}
    for u, v, L in edges:
        lap[u] += (f[u] - f[v]) / L
        lap[v] += (f[v] - f[u]) / L
    if op == "laplacian":
        masses = lap
    else:
        masses = {v: -lap[v] for v in lap}
        for d in data.get("divisor", []):
            masses[d["vertex"]] += d["coeff"]
    return {"vertex_masses": {v: str(m) for v, m in masses.items()},
            "total_mass": str(sum(masses.values(), Fraction(0)))}


# ---------------------------------------------------------------------------

def reference(item):
    """JSON-ready reference for one item."""
    kind, spec = item["kind"], item["spec"]
    if kind == "height":
        a, b = spec["point"]
        return {"height": float(mpmath.log(max(abs(a), abs(b))))}
    if kind == "canheight":
        ledger = green_ledger(spec)
        return {"height": float(sum(ledger.values())),
                "per_place": {k: float(v) for k, v in ledger.items()}}
    if kind == "preperiodic":
        return {"hhat": float(hhat(spec, spec["point"]))}
    if kind == "scan-pair":
        B = int(math.floor(math.exp(spec["max_height"]) + 1e-12))
        pts = [(a, q) for q in range(1, B + 1) for a in range(-B, B + 1)
               if math.gcd(a, q) == 1] + [(1, 0)]
        both = [P for P in pts
                if hhat(spec["phi"], P) < 1e-12 and hhat(spec["psi"], P) < 1e-12]
        return {"points": ["inf" if q == 0 else str(Fraction(a, q))
                           for a, q in both]}
    if kind == "graph":
        return graph_reference(spec["file"], spec["op"])
    if kind == "mahler":
        return {"log_value": float(log_mahler_factors(spec["factors"]))}
    if kind == "bound":
        return {"log_mplus": float(log_mahler_plus(spec["psi"]))}
    if kind == "energy":
        m = len(spec["psi"]) - 1
        shifted = taylor_shift(spec["psi"], spec["shift"])
        return {"energy": float(2 * spec["ell"] * m
                                * log_mahler_plus(shifted))}
    if kind == "equidist":
        return equidist_reference(spec["f0"], spec["f1"], spec["target"],
                                  spec["level"], spec["moments"])
    if kind == "scan":
        rational, quadratic = scan_reference(spec["ell"], spec["psi"],
                                             spec["threshold"],
                                             spec["max_height"])
        return {"rational": rational,
                "quadratic": [[list(k), v] for k, v in quadratic.items()]}
    raise ValueError(f"unknown item kind {kind!r}")
