"""Seeded item lists for the three benchmark workloads.

An item is one `dynheights` CLI invocation: a dict with the item `kind`,
the `argv` handed to `dynheights.cli.dispatch`, a per-item `deadline_s`
and a `spec` holding the exact inputs the reference and the check need.

Items come in rounds.  Every round of a workload has the same number of
items of each kind and tier; the seed only chooses coefficients, points,
targets and the order inside the round.  The runner measures whole
rounds, so the cost mix of a run does not depend on the seed.

This module runs in the oracle process only: it uses sympy's primality
test to place maps in tiers by the work trial division needs on their
resultant, and the references to draw canonical-height points on which
the package's known defects do not act.

No item of a round fails on the package as it stands.  Items that fail
through a known defect (README.md, "Known gaps") go to the workload's
`probe` instead, which the runner runs once a run, untimed and not
counted, so that those defects still show in its output.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

import sympy

import references

EXACT_DEADLINE_S = 1.0
POTENTIAL_DEADLINE_S = 20.0
ORBITS_DEADLINE_S = 30.0

# Trial division on n stops once q*q exceeds what is left of n; the last
# candidate divisor it tries is about max(second largest prime factor,
# sqrt(largest)).  About 15 million candidates are tried per second on a
# 2-vCPU x86 VM.
# The medium band is narrow, so that every medium item costs about the
# same and the exact workload's tail percentile, which lands among them,
# does not depend on which maps a seed draws.
SMALL_TD_MAX = 2 * 10 ** 4          # at most ~1.3 ms per factorization
MEDIUM_TD = (1.2 * 10 ** 5, 1.5 * 10 ** 5)  # ~8-10 ms per factorization
MEDIUM_PRIMES = (4,)                # bad primes, so factorize runs 5 times
CANHEIGHT_EPS = 1e-9
POINTS_PER_MAP = 6

LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)


# ---------------------------------------------------------------------------
# integer polynomials (ascending coefficient lists)

def pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def pdivexact(a, b):
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = a[k + len(b) - 1] // b[-1]
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] -= c * y
    if any(a):
        raise ValueError("inexact division")
    return q


def cyclotomic(n: int, _memo={}):
    """Phi_n by exact division of x^n - 1 by Phi_d for the proper d | n."""
    if n not in _memo:
        p = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                p = pdivexact(p, cyclotomic(d))
        _memo[n] = p
    return _memo[n]


def poly_str(coeffs) -> str:
    """Expression for an ascending coefficient list of ints/Fractions in
    the CLI grammar, e.g. "3*x^2 - 5/2*x + 1"."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[k])
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        c = abs(c)
        mono = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        if not mono:
            body = str(c)
        elif c == 1:
            body = mono
        else:
            body = f"{c}*{mono}"
        parts.append((sign, body))
    if not parts:
        return "0"
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def map_str(num, den) -> str:
    if len(den) == 1 and den[0] == 1:
        return poly_str(num)
    return f"({poly_str(num)})/({poly_str(den)})"


def forms_of(num, den):
    """Primitive integer binary forms (f0, f1) of degree d for num/den, with
    f[i] the coefficient of X^i Y^(d-i): the pair the package builds."""
    d = max(len(num), len(den)) - 1
    lcm = 1
    for c in list(num) + list(den):
        lcm = math.lcm(lcm, Fraction(c).denominator)
    f0 = [int(Fraction(num[i]) * lcm) if i < len(num) else 0
          for i in range(d + 1)]
    f1 = [int(Fraction(den[i]) * lcm) if i < len(den) else 0
          for i in range(d + 1)]
    g = math.gcd(*(f0 + f1))
    return [c // g for c in f0], [c // g for c in f1]


def form_resultant(f0, f1) -> int:
    """Resultant of two binary forms of degree d: the determinant of the
    padded Sylvester matrix (F0 rows first, descending coefficients), by
    Gaussian elimination over Q."""
    d = len(f0) - 1
    a, b = list(reversed(f0)), list(reversed(f1))
    rows = [[0] * i + a + [0] * (d - 1 - i) for i in range(d)]
    rows += [[0] * i + b + [0] * (d - 1 - i) for i in range(d)]
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return int(det)


def _primes_upto(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return [p for p in range(n + 1) if sieve[p]]


_PRIMES = _primes_upto(2 * 10 ** 5)
# the primes in blocks of 256 with their products: a block whose product
# is coprime to n holds no factor of it, so most blocks are skipped
_BLOCKS = [(_PRIMES[i:i + 256], math.prod(_PRIMES[i:i + 256]))
           for i in range(0, len(_PRIMES), 256)]


def split_small(n: int, bound: int):
    """(prime factors <= bound with multiplicity, remaining cofactor)."""
    n = abs(n)
    found = []
    for primes, prod in _BLOCKS:
        if primes[0] > bound:
            break
        if math.gcd(n, prod) == 1:
            continue
        for p in primes:
            if p > bound:
                break
            while n % p == 0:
                found.append(p)
                n //= p
    return found, n


def factor_with_reach(n: int, bound: int):
    """({prime: exponent}, reach) when trial division on n finishes by the
    candidate divisor `bound`; reach is the last candidate it tries, about
    max(second largest prime factor, sqrt(largest)).  None otherwise."""
    small, m = split_small(n, bound)
    if m > 1:
        if m > bound * bound or not sympy.isprime(m):
            return None
        small.append(m)
    big = sorted(p for p in small if p > 3)
    reach = 0
    if big:
        reach = max(big[-2] if len(big) > 1 else 0, math.isqrt(big[-1]))
    fac = {}
    for p in small:
        fac[p] = fac.get(p, 0) + 1
    return fac, reach


def factor_out_of_reach(n: int):
    """{prime: exponent} when n is a product of primes below 10^5 and one
    prime above 10^22, so trial division must try ~10^11 candidates; None
    otherwise."""
    small, m = split_small(n, 10 ** 5)
    if m < 10 ** 22 or not sympy.isprime(m):
        return None
    fac = {m: 1}
    for p in small:
        fac[p] = fac.get(p, 0) + 1
    return fac


# ---------------------------------------------------------------------------
# maps of the exact workload

def _rand_point(rng, hmax=30):
    while True:
        a, b = rng.randint(-hmax, hmax), rng.randint(1, hmax)
        if math.gcd(a, b) == 1:
            return [a, b]


def _point_str(P):
    a, b = P
    if b == 0:
        return "inf"
    return str(a) if b == 1 else f"{a}/{b}"


def _make_map(num, den, tier="small"):
    """Map record, or None when the resultant vanishes or trial division on
    it does not fall in the tier's band of work."""
    f0, f1 = forms_of(num, den)
    res = form_resultant(f0, f1)
    if res == 0:
        return None
    if tier == "large":
        fac = factor_out_of_reach(res)
    else:
        got = factor_with_reach(
            res, SMALL_TD_MAX if tier == "small" else int(MEDIUM_TD[1]))
        fac = None
        if got is not None and (tier == "small" or (
                got[1] >= MEDIUM_TD[0] and len(got[0]) in MEDIUM_PRIMES)):
            fac = got[0]
    if fac is None:
        return None
    return {"expr": map_str(num, den), "f0": f0, "f1": f1, "res": res,
            "primes": sorted(fac), "tier": tier}


def _poly_map(rng, d):
    """x^d + lower terms with small rational coefficients."""
    num = [Fraction(rng.randint(-40, 40), rng.choice((1, 1, 2, 3, 4)))
           for _ in range(d)] + [Fraction(1)]
    return _make_map(num, [1])


def _rational_map(rng, d, lo, hi, tier):
    """P/Q of degree d with integer coefficients of size in [lo, hi]."""
    def coeff():
        return rng.choice((-1, 1)) * rng.randint(lo, hi)
    num = [coeff() for _ in range(d + 1)]
    den = [coeff() for _ in range(rng.randint(1, d) + 1)]
    return _make_map(num, den, tier)


def _draw(make):
    while True:
        m = make()
        if m is not None:
            return m


def _with_points(rng, m, rejected):
    """m with POINTS_PER_MAP canonical-height points on which double
    precision and the residue classes modulo p^(2v+4) suffice
    (references.canheight_conditioning), drawn from at most three times
    as many; None when too few are.  `rejected` keeps, for "arch" and
    "padic", the rejected (shortfall, map, point) with the largest
    shortfall."""
    if m is None:
        return None
    points = []
    for _ in range(3 * POINTS_PER_MAP):
        P = _rand_point(rng)
        short = references.canheight_conditioning(m, P, CANHEIGHT_EPS)
        if max(short) <= CANHEIGHT_EPS / 10:
            points.append(P)
            if len(points) == POINTS_PER_MAP:
                return dict(m, points=points)
        for kind, x in zip(("arch", "padic"), short):
            if x > CANHEIGHT_EPS / 10 and x > rejected.get(kind, (0.0,))[0]:
                rejected[kind] = (x, m, P)
    return None


def exact_pool(rng):
    """Map pool of one seed: small polynomial and rational maps (degree
    2-6, coefficients <= 10^2) and a medium tier (degree 2-3,
    coefficients 10^3-10^4), each with its canonical-height points; maps
    for the preperiodic and scan-pair items; and, for the probe, one
    large-tier map (coefficients 10^9-10^11) whose resultant trial
    division cannot factor, and the worst rejected point of each kind."""
    rejected = {}
    small = [_draw(lambda: _with_points(
        rng, _poly_map(rng, rng.randint(2, 6)), rejected)) for _ in range(12)]
    small += [_draw(lambda: _with_points(
        rng, _rational_map(rng, rng.randint(2, 6), 1, 99, "small"),
        rejected)) for _ in range(12)]
    medium = [_draw(lambda: _with_points(
        rng, _rational_map(rng, rng.randint(2, 3), 1000, 9999, "medium"),
        rejected)) for _ in range(24)]
    large = _draw(lambda: _rational_map(rng, rng.randint(2, 3), 10 ** 9,
                                        10 ** 11, "large"))
    pre = [_preperiodic_map(rng) for _ in range(16)]
    scan = [_scan_pair(rng) for _ in range(8)]
    return {"small": small, "medium": medium, "large": large,
            "rejected": rejected, "pre": pre, "scan": scan}


def _preperiodic_map(rng):
    """A degree 2-4 map with a fixed point r and a second point s with
    phi(s) = r: P = r Q + (x - r)(x - s) R, so both are preperiodic."""
    while True:
        d = rng.randint(2, 4)
        r = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        s = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if s == r:
            continue
        Q = [rng.randint(-6, 6) for _ in range(rng.randint(1, d))] + [
            rng.randint(1, 6)]
        R = [rng.randint(-4, 4) for _ in range(d - 1)]
        if not any(R):
            continue
        lin = [Fraction(r * s), -(r + s), Fraction(1)]       # (x-r)(x-s)
        lower = pmul(lin, R)
        P = [Fraction(0)] * (d + 1)
        for i, c in enumerate(Q):
            P[i] += r * c
        for i, c in enumerate(lower):
            P[i] += c
        while len(P) > 1 and P[-1] == 0:
            P.pop()
        if max(len(P), len(Q)) - 1 != d:
            continue
        m = _make_map(P, Q)
        if m is None:
            continue
        m["points"] = [[x.numerator, x.denominator] for x in (r, s)]
        return m


def _scan_pair(rng):
    """Two distinct polynomial maps x^d + c, x^e + c' with small integer c."""
    while True:
        maps = [(rng.randint(2, 3), rng.randint(-2, 1)) for _ in range(2)]
        if maps[0] != maps[1]:
            return [_make_map([c] + [0] * (d - 1) + [1], [1]) for d, c in maps]


def _graph(rng):
    """8 vertices, 11 edges (a spanning tree plus 4), random lengths,
    divisor and vertex values."""
    nv = 8
    names = [f"v{i}" for i in range(nv)]
    edges = []
    for i in range(1, nv):           # spanning tree, then extra edges
        edges.append((names[rng.randrange(i)], names[i]))
    for _ in range(4):
        u, v = rng.sample(names, 2)
        edges.append((u, v))

    def frac():
        return str(Fraction(rng.randint(1, 24), rng.randint(1, 12)))
    data = {
        "vertices": names,
        "edges": [{"u": u, "v": v, "length": frac()} for u, v in edges],
        "divisor": [{"coeff": rng.randint(-3, 3), "vertex": rng.choice(names)}
                    for _ in range(3)],
        "f": {v: str(Fraction(rng.randint(-12, 12), rng.randint(1, 6)))
              for v in names},
    }
    return data


def _item(kind, argv, deadline, spec):
    return {"kind": kind, "argv": argv, "deadline_s": deadline, "spec": spec}


def _map_spec(m):
    return {"map": m["expr"], "f0": m["f0"], "f1": m["f1"], "res": m["res"],
            "primes": m["primes"]}


def _canheight(m, P, tier):
    return _item("canheight",
                 ["canheight", "--map=" + m["expr"],
                  "--point=" + _point_str(P), "--per-place"],
                 EXACT_DEADLINE_S,
                 dict(_map_spec(m), point=P, eps=CANHEIGHT_EPS, tier=tier))


def exact_round(rng, pool, graph_files):
    """190 items: 34 height, 70 canheight (30 small polynomial maps, 30
    small rational maps, 10 medium; each on one of its map's points), 40
    preperiodic (20 constructed preperiodic points, 20 random points), 10
    scan-pair and 36 graph (12 per operation)."""
    items = []
    for _ in range(34):
        P = _rand_point(rng, 10 ** rng.randint(1, 12))
        items.append(_item("height", ["height", "--point=" + _point_str(P)],
                           EXACT_DEADLINE_S, {"point": P}))

    def canheight(m, tier):
        return _canheight(m, rng.choice(m["points"]), tier)

    def preperiodic(m, P, tier):
        return _item("preperiodic",
                     ["preperiodic", "--map=" + m["expr"],
                      "--point=" + _point_str(P)],
                     EXACT_DEADLINE_S, dict(_map_spec(m), point=P, tier=tier))

    def scan_pair(pair, tier):
        return _item("scan-pair",
                     ["scan-pair", "--phi=" + pair[0]["expr"],
                      "--psi=" + pair[1]["expr"], "--max-height=2"],
                     EXACT_DEADLINE_S,
                     {"phi": _map_spec(pair[0]), "psi": _map_spec(pair[1]),
                      "max_height": 2.0, "tier": tier})

    small_poly, small_rat = pool["small"][:12], pool["small"][12:]
    for _ in range(30):
        items.append(canheight(rng.choice(small_poly), "small"))
        items.append(canheight(rng.choice(small_rat), "small"))
    for _ in range(10):
        items.append(canheight(rng.choice(pool["medium"]), "medium"))
    for _ in range(20):
        m = rng.choice(pool["pre"])
        items.append(preperiodic(m, rng.choice(m["points"]), "small"))
        items.append(preperiodic(rng.choice(pool["small"]), _rand_point(rng),
                                 "small"))
    for _ in range(10):
        items.append(scan_pair(rng.choice(pool["scan"]), "small"))
    for op in ("curvature", "laplacian", "energy"):
        for _ in range(12):
            path = rng.choice(graph_files)
            items.append(_item("graph", ["graph", op, "--file=" + path],
                               EXACT_DEADLINE_S, {"op": op, "file": path}))
    rng.shuffle(items)
    return items


def exact_probe(rng, pool):
    """Known-defect items: canheight on the large-tier map (trial division
    runs into the deadline), and on the point rejected with the largest
    shortfall of double precision ("arch") and of the p-adic residue
    classes ("padic"), when the pool met one."""
    items = [_canheight(pool["large"], _rand_point(rng), "large")]
    for kind in ("arch", "padic"):
        if kind in pool["rejected"]:
            _, m, P = pool["rejected"][kind]
            items.append(_canheight(m, P, "rejected-" + kind))
    return items


# ---------------------------------------------------------------------------
# potential workload

def _rand_int_poly(rng, deg, cmax):
    """Random integer polynomial of exact degree deg with nonzero constant
    term and small coefficients."""
    c = [rng.randint(-cmax, cmax) for _ in range(deg + 1)]
    c[0] = c[0] or 1
    c[-1] = c[-1] or 1
    return c


def squarefree(poly) -> bool:
    x = sympy.Symbol("x")
    P = sympy.Poly(list(reversed(poly)), x)
    return sympy.degree(sympy.gcd(P, P.diff(x)), x) == 0


def _mahler_poly(rng, stratum):
    """Integer polynomial as a product of factors: cyclotomic polynomials
    (roots on |z| = 1), Lehmer's polynomial (roots on and near |z| = 1)
    and a random factor.  The product is squarefree, except in the
    "double" stratum, which squares one cyclotomic factor (a repeated root
    on |z| = 1).  The factors go to the reference."""
    while True:
        factors = _mahler_factors(rng, stratum)
        poly = [1]
        for f in factors:
            poly = pmul(poly, f)
        if stratum == "double" or squarefree(poly):
            return poly, factors


def _mahler_factors(rng, stratum):
    if stratum == "small":
        return [_rand_int_poly(rng, rng.randint(2, 5), 9)]
    if stratum == "double":
        phi = cyclotomic(rng.randint(1, 12))
        return [_rand_int_poly(rng, rng.randint(2, 5), 9), phi, phi]
    lo, hi = {"cyclo": (14, 16), "lehmer": (26, 28), "large": (36, 38)}[stratum]
    factors = [_rand_int_poly(rng, rng.randint(1, 4), 6)]
    if stratum != "cyclo":
        factors.append(list(LEHMER))
    deg = sum(len(f) - 1 for f in factors)
    goal = rng.randint(lo, hi)
    for n in rng.sample(range(1, 31), 30):
        phi = cyclotomic(n)
        if deg + len(phi) - 1 <= goal:
            factors.append(phi)
            deg += len(phi) - 1
        if deg >= lo and deg >= goal - 1:
            break
    return factors


def potential_pool(rng):
    """Per-seed pools: polynomials for each mahler stratum and two psi per
    bound degree band, so refs are computed once per seed and rounds share
    inputs the way repeated queries would."""
    mahler = {st: [_mahler_poly(rng, st) for _ in range(2 * n)]
              for st, n in MAHLER_PER_ROUND}
    bound = {lo: [(rng.randint(1, 3),
                   _rand_int_poly(rng, rng.randint(lo, lo + 2), 4))
                  for _ in range(2)] for lo in (1, 4, 7, 10)}
    return {"mahler": mahler, "bound": bound,
            "double": _mahler_poly(rng, "double")}


MAHLER_PER_ROUND = (("small", 8), ("cyclo", 17), ("lehmer", 2),
                    ("large", 2))


def _mahler_item(poly, factors, stratum):
    return _item("mahler", ["mahler", "--poly=" + poly_str(poly),
                            "--method=both"],
                 POTENTIAL_DEADLINE_S,
                 {"poly": poly, "factors": factors, "stratum": stratum})


def potential_probe(pool):
    """Known-defect item: mahler on a polynomial with a squared cyclotomic
    factor (a repeated root on |z| = 1)."""
    return [_mahler_item(*pool["double"], "double")]


def potential_round(rng, pool):
    """36 items: 29 mahler --method both (8 of degree 2-5; 17 cyclotomic
    products of degree 14-16; 2 with Lehmer's polynomial, degree 26-28; 2
    of degree 36-38), 4 bound (psi of
    degree 1-3, 4-6, 7-9, 10-12; ell 1-3), and 3 energy with
    phi = +-(x - b)^l: l = 2, b = -1 at the default 16384 nodes, and at
    2048 nodes the power map l = 3, b = 0 and l = 4, b = 1.  b is fixed
    per slot because it sets the cost (b = 0 is about 20% cheaper), and
    the tail percentile lands among the l = 4 items."""
    items = []
    for stratum, n in MAHLER_PER_ROUND:
        for poly, factors in rng.sample(pool["mahler"][stratum], n):
            items.append(_mahler_item(poly, factors, stratum))
    for choices in pool["bound"].values():
        ell, psi = rng.choice(choices)
        items.append(_item("bound", ["bound", "--ell=" + str(ell),
                                     "--psi=" + poly_str(psi)],
                           POTENTIAL_DEADLINE_S, {"ell": ell, "psi": psi}))
    for ell, nodes, b in ((2, 16384, -1), (3, 2048, 0), (4, 2048, 1)):
        sign = rng.choice((-1, 1))
        phi = [sign * c for c in pmul_power([-b, 1], ell)]
        psi = _rand_int_poly(rng, rng.randint(1, 4), 3)
        items.append(_item(
            "energy", ["energy", "--phi=" + poly_str(phi),
                       "--psi=" + poly_str(psi), "--nodes=" + str(nodes)],
            POTENTIAL_DEADLINE_S,
            {"phi": phi, "psi": psi, "ell": ell, "shift": b,
             "nodes": nodes}))
    rng.shuffle(items)
    return items


def pmul_power(p, n):
    out = [1]
    for _ in range(n):
        out = pmul(out, p)
    return out


# ---------------------------------------------------------------------------
# orbits workload

NONPOLY_MAPS = (([1, 0, 1], [0, 1]),        # (x^2 + 1)/x
                ([-2, 0, 1], [0, 2]),       # Newton map of x^2 - 2
                ([3, 0, 1], [0, 2]),        # Newton map of x^2 + 3
                ([1, 0, -1], [0, 2]))       # (1 - x^2)/(2x)


ORBIT_CS = (-1, 2, 1, -2)


def orbits_round(rng):
    """39 items: equidist on x^2 + c (levels 4 x9, 5 x8, 6 x8, 7 x3; the
    first of each level is c = 0 with target +-1), on x^3 + c (level 4 x2)
    and on a non-polynomial map (levels 4 x5, 5 x1), plus 3 scan
    --quadratic (ell 1 and psi of degree 1 and 2, ell 2 and degree 2;
    threshold/ell in [0.98, 1.0], where the scan searches the same box
    a <= 8, |c| <= 8, |b| <= 15 for every threshold).  Level 8 (about 10 s
    an item on a 2-vCPU x86 VM) is left out to keep a run within its time
    budget.

    The cost of an equidist item is nearly all in composing phi^n, which
    depends on the map and not on the target, so every round has the same
    maps: c runs through ORBIT_CS at each level, and the non-polynomial
    items through NONPOLY_MAPS.  The seed picks the targets, the scans'
    psi and thresholds, and the order."""
    items = []

    def equidist(num, den, level, target, family):
        f0, f1 = forms_of(num, den)
        return _item("equidist",
                     ["equidist", "--map=" + map_str(num, den),
                      "--target=" + str(target), "--level=" + str(level)],
                     ORBITS_DEADLINE_S,
                     {"f0": f0, "f1": f1, "degree": len(f0) - 1,
                      "target": [target.numerator, target.denominator],
                      "level": level, "family": family, "moments": 8})

    for level, count in ((4, 9), (5, 8), (6, 8), (7, 3)):
        for k in range(count):
            if k == 0:
                items.append(equidist([0, 0, 1], [1], level,
                                      Fraction(rng.choice((1, -1))), "x^2"))
            else:
                c = ORBIT_CS[(k - 1) % len(ORBIT_CS)]
                t = Fraction(rng.randint(-3, 3))
                items.append(equidist([c, 0, 1], [1], level, t, "x^2+c"))
    for c in ORBIT_CS[:2]:
        items.append(equidist([c, 0, 0, 1], [1], 4,
                              Fraction(rng.randint(-3, 3)), "x^3+c"))
    for k, level in enumerate((4, 4, 4, 4, 4, 5)):
        num, den = NONPOLY_MAPS[k % len(NONPOLY_MAPS)]
        items.append(equidist(num, den, level, Fraction(rng.randint(1, 4)),
                              "rational"))
    for ell, deg in ((1, 1), (1, 2), (2, 2)):
        psi = _rand_int_poly(rng, deg, 3)
        threshold = round(ell * rng.uniform(0.98, 1.0), 4)
        items.append(_item("scan", ["scan", "--ell=" + str(ell),
                                    "--psi=" + poly_str(psi),
                                    "--threshold=" + repr(threshold),
                                    "--quadratic"],
                           ORBITS_DEADLINE_S,
                           {"ell": ell, "psi": psi, "threshold": threshold,
                            "max_height": 3.0}))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------

WORKLOADS = ("exact", "potential", "orbits")


def make_items(workload: str, seed: int, rounds: int, graph_dir: str):
    """{"rounds": rounds of items, "probe": known-defect items} for one
    seed; graph files go under graph_dir (a path relative to the checkout
    root, which is the working directory)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    out, probe = [], []
    if workload == "potential":
        pool = potential_pool(rng)
        probe = potential_probe(pool)
    if workload == "exact":
        pool = exact_pool(rng)
        probe = exact_probe(rng, pool)
        os.makedirs(graph_dir, exist_ok=True)
        graph_files = []
        for i in range(12):
            path = os.path.join(graph_dir, f"g{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_graph(rng), fh)
            graph_files.append(path)
    for r in range(rounds):
        rr = random.Random(f"{workload}:{seed}:round:{r}")
        if workload == "exact":
            out.append(exact_round(rr, pool, graph_files))
        elif workload == "potential":
            out.append(potential_round(rr, pool))
        else:
            out.append(orbits_round(rr))
    return {"rounds": out, "probe": probe}
