"""Canonical heights and local Green functions for rational self-maps of
P^1 over Q of degree d >= 2.

The canonical height is assembled place by place from the homogeneous
Green function g_v = lim d^{-k} log ||F^(k)(a,b)||_v on a coprime integer
lift (a,b):

* archimedean place: floating iteration with sup-norm renormalization,
  the tail after N steps is bounded by C_arch * d^{-N} / (d-1), where
  C_arch is a certified distortion constant |log||F(x)|| - d log||x|||
  <= C_arch for x != 0;
* finite place p (necessarily dividing Res F): the orbit is tracked
  modulo a high power of p, each step extracts c_k = v_p(gcd) <= v_p(Res),
  and g_p = -(sum_k d^{-(k+1)} c_k) log p.  The ledger sequence is
  detected to cycle modulo p^(2 v_p(Res) + 2), in which case the tail is
  summed in closed form; otherwise the truncation after enough steps is
  below the requested tolerance.

With this normalization sum_v g_v equals the canonical height exactly
(finite places contribute non-positive amounts; good primes contribute 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DegenerateMapError, DistortionBoundError
from .places import ARCH, Place, ProjPointQ, weil_height, weil_height_exact
from .polys import (HomogPair, Poly, bareiss_det, factorize, homog_step,
                    sylvester_matrix)

_GREEN_MAX_STEPS = 4000


def _adjugate_last_row(rows):
    """Last row of the adjugate of an integer matrix, via Cramer: entries
    are signed minors, computed with the fraction-free determinant."""
    n = len(rows)
    out = []
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[:-1]]
        det = bareiss_det(minor) if minor else 1
        out.append((-1) ** (j + n - 1) * det)
    return out


def _cofactor_max(F: HomogPair) -> int:
    """Max |coefficient| among the Nullstellensatz cofactors G_i, H_i with
    G0 F0 + G1 F1 = Res * Y^(2d-1) and H0 F0 + H1 F1 = Res * X^(2d-1),
    read off the Sylvester adjugate (one row per side)."""
    best = 0
    for side in (0, 1):
        if side == 0:
            f_desc = list(reversed(F.f0))
            g_desc = list(reversed(F.f1))
        else:
            f_desc = list(F.f0)
            g_desc = list(F.f1)
        rows = sylvester_matrix(f_desc, g_desc)
        # u f + v g = det: coefficient row w solves w M = det * e_last
        last = _adjugate_last_row([list(map(int, r)) for r in
                                   [list(x) for x in zip(*rows)]])
        best = max(best, max(abs(c) for c in last))
    return best


@dataclass(frozen=True)
class DynSystem:
    """A degree d >= 2 rational self-map of P^1 with cached reduction data.

    C_arch satisfies |log||F(x)|| - d log||x||| <= C_arch for all real
    x != 0 (sup norm); it controls how many archimedean iterations are
    needed for a requested height accuracy.  res_valuations maps each
    bad prime p to v_p(Res F).
    """

    F: HomogPair
    res: int
    bad_primes: tuple
    c_arch: float
    c_formula: dict = field(compare=False)
    res_valuations: dict = field(compare=False)

    @staticmethod
    def of(F: HomogPair) -> "DynSystem":
        d = F.degree
        if d < 2:
            raise DegenerateMapError("dynamical degree must be >= 2")
        res = F.res
        valuations = factorize(res)
        bad = tuple(sorted(valuations))
        maxcoef = max(max(abs(c) for c in F.f0), max(abs(c) for c in F.f1))
        upper = math.log((d + 1) * maxcoef)
        maxcof = _cofactor_max(F)
        lower = math.log(2 * d * maxcof) + math.log(abs(res))
        c_arch = max(upper, lower)
        formula = {"upper": upper, "lower": lower,
                   "max_coeff": maxcoef, "max_cofactor": maxcof}
        sys = DynSystem(F, res, bad, c_arch, formula, valuations)
        sys._check_distortion()
        return sys

    @staticmethod
    def from_expr(text: str) -> "DynSystem":
        from .polys import parse_map
        return DynSystem.of(parse_map(text))

    @property
    def degree(self) -> int:
        return self.F.degree

    def _check_distortion(self, samples: int = 24):
        """Spot-check the certified bound on deterministic samples."""
        d = self.degree
        vals = [(math.cos(0.7 * k) * 1.0, math.sin(1.3 * k + 0.2))
                for k in range(samples)]
        for a, b in vals:
            n = max(abs(a), abs(b))
            if n == 0:
                continue
            v0, v1 = self.F.evaluate_float(a / n, b / n)
            m = max(abs(v0), abs(v1))
            if m > 0 and abs(math.log(m)) > self.c_arch + 1e-9:
                raise DistortionBoundError(
                    f"distortion constant violated: |log||F(x)||| = "
                    f"{abs(math.log(m))!r} > C_arch = {self.c_arch!r} at "
                    f"x = ({a / n!r}, {b / n!r})")


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
        v0, v1 = S.F.evaluate_float(a, b)
        m = max(abs(v0), abs(v1))
        w /= d
        acc += w * math.log(m)
        a, b = v0 / m, v1 / m
    tail = S.c_arch * d ** (-n_steps) / (d - 1)
    return acc, tail


def _canonical_padic_state(A: int, B: int, p: int, digits: int, mod: int):
    """Canonical representative of [A:B] in P^1(Z/p^digits): the unit
    coordinate is scaled to 1."""
    if B % p != 0:
        return (A * pow(B, -1, mod) % mod, 1)
    return (1, B * pow(A, -1, mod) % mod)


def green_finite(S: DynSystem, P: ProjPointQ, p: int, eps: float) -> float:
    """Finite-place homogeneous Green function of the coprime lift.

    Returns an exact geometric-series value when the p-adic ledger cycles,
    otherwise a truncation within eps.  Zero at primes of good reduction.
    """
    if p not in S.bad_primes:
        return 0.0
    d = S.degree
    m = S.res_valuations[p] + 1  # extracted valuations are < m
    logp = math.log(p)
    # steps needed for the truncation tail (m-1) logp d^{-K} / (d-1) <= eps
    K = max(8, math.ceil(
        math.log(max((m - 1) * logp, 1e-300) / ((d - 1) * eps)) / math.log(d)) + 1)
    digits = K * m + 2 * m + 8
    mod = p ** digits
    state_digits = 2 * m + 2
    state_mod = p ** state_digits
    A, B = P.a % mod, P.b % mod
    prec = digits
    ledger = []
    seen = {}
    cycle = None
    for k in range(K):
        if prec - (m - 1) >= state_digits:
            s = _canonical_padic_state(A, B, p, state_digits, state_mod)
            if s in seen:
                cycle = (seen[s], k)
                break
            seen[s] = k
        v0, v1 = S.F.evaluate(A, B)
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
        if prec <= state_digits:
            break  # precision exhausted; fall back to truncation
    dinv = 1.0 / d
    if cycle is not None:
        i, j = cycle
        head = sum(ledger[k] * dinv ** (k + 1) for k in range(i))
        L = j - i
        block = sum(ledger[i + t] * dinv ** (t + 1) for t in range(L))
        total = head + dinv ** i * block / (1.0 - dinv ** L)
    else:
        total = sum(c * dinv ** (k + 1) for k, c in enumerate(ledger))
    return -total * logp


def finite_ledger_exact(S: DynSystem, P: ProjPointQ, p: int, eps: float):
    """The sequence (c_k) of extracted p-valuations until cycling or until
    the truncation tail drops below eps; diagnostic helper."""
    if p not in S.bad_primes:
        return []
    d = S.degree
    m = S.res_valuations[p] + 1
    K = max(8, math.ceil(math.log(max((m - 1) * math.log(p), 1e-300)
                                  / ((d - 1) * eps)) / math.log(d)) + 1)
    out = []
    Q = P
    for _ in range(min(K, 64)):
        Q, led = homog_step(S.F, Q)
        out.append(led.get(p, 0))
        if weil_height_exact(Q) > 10 ** 40:
            break
    return out


@dataclass(frozen=True)
class GreenLedger:
    """Per-place Green values; their sum is the canonical height within
    tail_bound."""

    per_place: dict
    tail_bound: float

    def total(self) -> float:
        return sum(self.per_place.values())


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


_ESCAPE_SAFETY = 1.0  # strict inequality margin is not needed; kept explicit


def escape_threshold(S: DynSystem) -> float:
    """Weil height beyond which the canonical height is provably positive:
    h_W > (C_arch + log|Res|) / (d-1) forces hhat > 0, since the
    archimedean Green deviates from h_W by at most C_arch/(d-1) and each
    finite Green is bounded below by -v_p(Res) log p/(d-1)."""
    d = S.degree
    return (S.c_arch + math.log(abs(S.res))) / (d - 1)


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
