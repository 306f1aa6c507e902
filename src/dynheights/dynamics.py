"""Canonical heights and local Green functions for rational self-maps of
P^1 over Q of degree d >= 2.

The canonical height is assembled place by place from the homogeneous
Green function g_v = lim d^{-k} log ||F^(k)(a,b)||_v on a coprime integer
lift (a,b):

* archimedean place: floating iteration with sup-norm renormalization,
  the tail after N steps is bounded by C_arch * d^{-N} / (d-1), where
  C_arch is a certified distortion constant |log||F(x)|| - d log||x|||
  <= C_arch for x != 0;
* finite place p (necessarily dividing Res F): each step extracts
  c_k = v_p(gcd) <= v_p(Res), and g_p = -(sum_k d^{-(k+1)} c_k) log p.
  The ledger (c_k) is detected to cycle modulo p^(2 v_p(Res) + 2), in
  which case the tail is summed in closed form; otherwise the truncation
  after enough steps is below the requested tolerance.  The orbit is
  tracked modulo the power of p that the steps consume, not the worst
  case of every step extracting v_p(Res) digits: it starts at a few
  times v_p(Res) digits and is run again at twice the precision when a
  state would be known to fewer digits than the cycle test reads.  Each
  c_k and each cycle key depends only on the orbit modulo a fixed power
  of p, so the ledger, and the float summed from it, are those of the
  worst-case precision (see green_finite).

With this normalization sum_v g_v equals the canonical height exactly
(finite places contribute non-positive amounts; good primes contribute 0).
Sums of floats run left to right in explicit loops, since sum() of
floats is compensated from Python 3.12 on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import DegenerateMapError
from .places import (ARCH, Place, ProjPointQ, valuation, weil_height,
                     weil_height_exact)
from .polys import HomogPair, factorize, homog_step, sylvester_matrix


def _cofactor_max(F: HomogPair) -> int:
    """Max |coefficient| among the Nullstellensatz cofactors G_i, H_i with
    G0 F0 + G1 F1 = Res * Y^(2d-1) and H0 F0 + H1 F1 = Res * X^(2d-1).

    With M the Sylvester matrix of the forms (descending coefficients),
    the coefficient rows w of (G0, G1) and of (H0, H1) up to sign solve
    w M = Res e_last and w M = Res e_first: H comes from the Sylvester
    matrix of the reversed coefficients, which is M with its columns and
    the rows of each block reversed, so its e_last solution is the e_first
    solution of M reordered, up to sign.  Both are the columns
    adj(M^T) e_last and adj(M^T) e_first, read off one fraction-free
    (Bareiss) Gauss-Jordan elimination of M^T augmented with e_last and
    e_first, in O(d^3) integer operations.
    """
    rows = sylvester_matrix(list(reversed(F.f0)), list(reversed(F.f1)))
    n = len(rows)
    # augmented transpose [M^T | e_last e_first]
    m = [[rows[j][i] for j in range(n)] + [int(i == n - 1), int(i == 0)]
         for i in range(n)]
    prev = 1
    for k in range(n):
        if m[k][k] == 0:  # Res != 0, so some row below has a pivot
            i = next(i for i in range(k + 1, n) if m[i][k] != 0)
            m[k], m[i] = m[i], m[k]
        pivot_row = m[k]
        pivot = pivot_row[k]
        for i in range(n):
            if i == k:
                continue
            row = m[i]
            a = row[k]
            for j in range(k + 1, n + 2):
                row[j] = (pivot * row[j] - a * pivot_row[j]) // prev
            row[k] = 0
        prev = pivot
    return max(max(abs(r[n]), abs(r[n + 1])) for r in m)


@dataclass(frozen=True)
class DynSystem:
    """A degree d >= 2 rational self-map of P^1 with its archimedean
    distortion constant.

    C_arch satisfies |log||F(x)|| - d log||x||| <= C_arch for all real
    x != 0 (sup norm); it controls how many archimedean iterations are
    needed for a requested height accuracy.  Only the finite places sum
    the primes of Res F, so bad_primes factors Res on its first read and
    keeps the primes; deciding preperiodicity or pulling orbits back never
    reads them.
    """

    F: HomogPair
    c_arch: float
    c_formula: dict = field(compare=False)

    @staticmethod
    def of(F: HomogPair) -> "DynSystem":
        d = F.degree
        if d < 2:
            raise DegenerateMapError("dynamical degree must be >= 2")
        maxcoef = max(max(abs(c) for c in F.f0), max(abs(c) for c in F.f1))
        upper = math.log((d + 1) * maxcoef)
        maxcof = _cofactor_max(F)
        lower = math.log(2 * d * maxcof) + math.log(abs(F.res))
        formula = {"upper": upper, "lower": lower,
                   "max_coeff": maxcoef, "max_cofactor": maxcof}
        return DynSystem(F, max(upper, lower), formula)

    @staticmethod
    def from_expr(text: str) -> "DynSystem":
        from .polys import parse_map
        return DynSystem.of(parse_map(text))

    @property
    def degree(self) -> int:
        return self.F.degree

    @cached_property
    def bad_primes(self) -> tuple:
        """The primes dividing Res F, in ascending order."""
        return tuple(factorize(self.F.res))


def green_archimedean(S: DynSystem, P: ProjPointQ, eps: float):
    """(value, tail_bound) for the archimedean homogeneous Green function
    of the coprime lift of P."""
    d = S.degree
    n_steps = max(1, math.ceil(
        math.log(max(S.c_arch, 1e-300) / ((d - 1) * eps)) / math.log(d)))
    acc = weil_height(P)
    scale = float(weil_height_exact(P))
    a, b = P.a / scale, P.b / scale
    w = 1.0
    for _ in range(n_steps):
        v0, v1 = S.F.evaluate(a, b)
        m = max(abs(v0), abs(v1))
        w /= d
        acc += w * math.log(m)
        a, b = v0 / m, v1 / m
    tail = S.c_arch * d ** (-n_steps) / (d - 1)
    return acc, tail


def _canonical_padic_state(A: int, B: int, p: int, mod: int):
    """Canonical representative of [A:B] in P^1(Z/mod), mod a power of p:
    the unit coordinate is scaled to 1."""
    if B % p != 0:
        return (A * pow(B, -1, mod) % mod, 1)
    return (1, B * pow(A, -1, mod) % mod)


def _padic_orbit(F: HomogPair, P: ProjPointQ, p: int, m: int, K: int,
                 digits: int, W: int):
    """(ledger, cycle) of the orbit of P tracked modulo p^W, or None as
    soon as p^W no longer carries what the next step reads.

    prec = digits - sum(c) is the precision of the orbit tracked modulo
    p^digits; it alone decides when states are compared and when the
    orbit stops.  The integers are known modulo p^w, w = W - sum(c).
    cycle is the first repeat (i, j) of the state modulo p^(2m+2), or
    None.  A state is reduced modulo p^(2m+2) only once a second state
    falls into its residue class modulo p.
    """
    state_digits = 2 * m + 2
    state_mod = p ** state_digits
    mod = p ** W
    A, B = P.a % mod, P.b % mod
    prec = digits
    w = W
    ledger = []
    first = {}  # class mod p -> (k, A, B) of its only state; None once shared
    seen = {}   # state mod p^(2m+2) -> k, for the states of shared classes
    for k in range(K):
        if w < min(prec, state_digits + m):
            return None
        if prec - (m - 1) >= state_digits:
            r = A * pow(B % p, -1, p) % p if B % p else p
            if r not in first:
                first[r] = (k, A, B)
            else:
                if first[r] is not None:
                    i, Ai, Bi = first[r]
                    seen[_canonical_padic_state(Ai, Bi, p, state_mod)] = i
                    first[r] = None
                s = _canonical_padic_state(A, B, p, state_mod)
                if s in seen:
                    return ledger, (seen[s], k)
                seen[s] = k
        v0, v1 = F.evaluate(A, B)
        v0 %= mod
        v1 %= mod
        c = 0
        while c < m - 1 and v0 % p == 0 and v1 % p == 0:
            v0 //= p
            v1 //= p
            c += 1
        # one of the coordinates now has valuation 0 (c <= v_p(Res))
        ledger.append(c)
        A, B = v0, v1
        prec -= c
        w -= c
        if prec <= state_digits:
            break  # precision exhausted; fall back to truncation
    return ledger, None


def green_finite(S: DynSystem, P: ProjPointQ, p: int, eps: float) -> float:
    """Finite-place homogeneous Green function of the coprime lift.

    Returns an exact geometric-series value when the p-adic ledger cycles,
    otherwise a truncation within eps, and 0.0 at a prime of good
    reduction.  It reads v_p(Res) for the given prime alone, so it never
    factors Res.

    With m = v_p(Res) + 1, K steps bound the truncation tail, and
    digits = K m + 2m + 8 covers K steps that each extract m - 1 digits.
    The orbit is tracked modulo p^W instead, starting from
    W = min(digits, 2 (3m + 2)); a step whose state is known to fewer
    than min(prec, 3m + 2) digits restarts the orbit with W doubled
    (capped at digits).  Why the ledger is the one of W = digits: each
    run's integers agree with those of W = digits modulo p^w.  Each
    c_k = min(m - 1, v_p F0, v_p F1) depends only on the state modulo
    p^(m-1), and each cycle key only on the state modulo p^(2m+2), and
    every step runs with w >= 3m + 2 or w = prec (that is, W = digits).
    So c_k, the keys and the first repeat (i, j) are the same, and
    so is the float, which is summed left to right in a fixed order.
    """
    m = valuation(S.F.res, p) + 1  # extracted valuations are < m
    if m == 1:
        return 0.0
    d = S.degree
    logp = math.log(p)
    # steps needed for the truncation tail (m-1) logp d^{-K} / (d-1) <= eps
    K = max(8, math.ceil(
        math.log(max((m - 1) * logp, 1e-300) / ((d - 1) * eps)) / math.log(d)) + 1)
    digits = K * m + 2 * m + 8
    W = min(digits, 2 * (3 * m + 2))
    while (run := _padic_orbit(S.F, P, p, m, K, digits, W)) is None:
        W = min(digits, 2 * W)
    ledger, cycle = run
    dinv = 1.0 / d
    total = 0.0
    if cycle is not None:
        i, j = cycle
        for k in range(i):
            total += ledger[k] * dinv ** (k + 1)
        block = 0.0
        for t in range(j - i):
            block += ledger[i + t] * dinv ** (t + 1)
        total += dinv ** i * block / (1.0 - dinv ** (j - i))
    else:
        for k, c in enumerate(ledger):
            total += c * dinv ** (k + 1)
    return -total * logp


@dataclass(frozen=True)
class GreenLedger:
    """Per-place Green values; their sum is the canonical height within
    tail_bound."""

    per_place: dict
    tail_bound: float

    def total(self) -> float:
        total = 0.0
        for g in self.per_place.values():  # sum() is compensated from 3.12
            total += g
        return total


def green_ledger(S: DynSystem, P: ProjPointQ, eps: float) -> GreenLedger:
    n_fin = len(S.bad_primes)
    eps_arch = eps / 2 if n_fin else eps
    eps_fin = eps / (2 * n_fin) if n_fin else eps
    per = {}
    arch, tail = green_archimedean(S, P, eps_arch)
    per[ARCH] = arch
    for p in S.bad_primes:
        per[Place(p)] = green_finite(S, P, p, eps_fin)
    return GreenLedger(per, tail + n_fin * eps_fin)


def local_green(S: DynSystem, P: ProjPointQ, v: Place, eps: float) -> float:
    """Local Green value at one place (archimedean requires eps > 0)."""
    if v.is_archimedean:
        if eps <= 0:
            raise ValueError("eps must be positive at the archimedean place")
        return green_archimedean(S, P, eps)[0]
    return green_finite(S, P, v.prime, eps)


def canonical_height(S: DynSystem, P: ProjPointQ, eps: float = 1e-9) -> float:
    """Canonical height with |result - h_phi(P)| <= eps.

    Internally aims a factor below eps so that downstream identities
    (functional equation, local-global sum) hold at their tolerances.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    return green_ledger(S, P, eps / 4).total()


def escape_threshold(S: DynSystem) -> float:
    """Weil height beyond which the canonical height is provably positive:
    h_W > (C_arch + log|Res|) / (d-1) forces hhat > 0, since the
    archimedean Green deviates from h_W by at most C_arch/(d-1) and each
    finite Green is bounded below by -v_p(Res) log p/(d-1)."""
    d = S.degree
    return (S.c_arch + math.log(abs(S.F.res))) / (d - 1)


def is_preperiodic(S: DynSystem, P: ProjPointQ):
    """Exact orbit iteration with cycle detection.

    Returns (True, {"tail": [...], "cycle": [...]}) on a repeat, or
    (False, escape certificate) once the orbit's Weil height passes the
    certified escape threshold (then hhat > 0, so the orbit is infinite).
    """
    thresh = escape_threshold(S)
    orbit = []
    index = {}
    Q = P
    while True:
        if Q in index:
            i = index[Q]
            return True, {"tail": [str(x) for x in orbit[:i]],
                          "cycle": [str(x) for x in orbit[i:]]}
        if weil_height(Q) > thresh:
            return False, {"escaped_at": str(Q),
                           "weil_height": weil_height(Q),
                           "threshold": thresh}
        index[Q] = len(orbit)
        orbit.append(Q)
        Q, _ = homog_step(S.F, Q)


def rational_points_up_to_height(H: float):
    """All normalized points of P^1(Q) with Weil height <= H, in a fixed
    deterministic order (finite points by (b, a), then infinity)."""
    bound = int(math.floor(math.exp(H) + 1e-12))
    out = []
    for b in range(1, bound + 1):
        for a in range(-bound, bound + 1):
            if math.gcd(abs(a), b) == 1:
                out.append(ProjPointQ(a, b))
    out.append(ProjPointQ(1, 0))
    return out


def common_preperiodic_scan(S1: DynSystem, S2: DynSystem, H: float):
    """Rational points of height <= H preperiodic under both maps."""
    out = []
    for P in rational_points_up_to_height(H):
        ok1, _ = is_preperiodic(S1, P)
        if not ok1:
            continue
        ok2, _ = is_preperiodic(S2, P)
        if ok2:
            out.append(P)
    return out
