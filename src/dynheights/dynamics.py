"""Canonical heights and local Green functions for rational self-maps of
P^1 over Q of degree d >= 2.

The canonical height is assembled place by place from the homogeneous
Green function g_v = lim d^{-k} log ||F^(k)(a,b)||_v on a coprime integer
lift (a,b):

* archimedean place: the exact walk of the orbit over Q (see below)
  gives F(x_k) = g_k x_(k+1) on coprime lifts, so
  g_inf(x_0) = sum_(k<n) d^{-(k+1)} log g_k + d^{-n} g_inf(x_n).  A
  preperiodic point sums log g_k as a geometric series over the exact
  cycle, with no float iteration and no tail.  Any other point iterates
  in doubles, with sup-norm renormalization, only from the walk's last
  point x_n, to d^n times the tolerance; the tail after N such steps is
  bounded by C_arch * d^{-n-N} / (d-1), where C_arch is a certified
  distortion constant |log||F(x)|| - d log||x||| <= C_arch for x != 0;
* finite place p (necessarily dividing Res F): each step extracts
  c_k = v_p(gcd) <= v_p(Res), and g_p = -(sum_k d^{-(k+1)} c_k) log p.
  Every bad prime reads its ledger off the same exact walk of the orbit
  over Q: a preperiodic point sums it as a geometric series over the exact
  cycle, and any other point truncates it after enough steps for the
  requested tolerance, going on p-adically past the walk (green_finite).
  That p-adic part stops early where the reduction of the map proves
  the rest of the ledger is 0.  Let B_p be the points of P^1(F_p) where
  F0 and F1 both vanish mod p, and Sigma_p those whose orbit under F
  mod p never meets B_p.  A primitive state reducing into Sigma_p
  extracts nothing (F0, F1 are not both 0 mod p there), and its image
  is primitive again and reduces to the image under F mod p, which is
  again in Sigma_p; so every later c_k is 0 and no further digit is
  read (Silverman, The Arithmetic of Dynamical Systems, GTM 241,
  sections 2.3-2.5 and 3.5; Call & Goldstine, J. Number Theory 63
  (1997)).  Unlike a closure on a repeated state modulo a power of p,
  this stop never repeats a block that extracts digits.  Sigma_p costs
  p + 1 evaluations mod p, so it is built, once per map and prime and
  kept on the system, only for a ledger of at least p + 1 steps.

With this normalization sum_v g_v equals the canonical height exactly
(finite places contribute non-positive amounts; good primes contribute 0).
Sums of floats run left to right in explicit loops, since sum() of
floats is compensated from Python 3.12 on.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType

from .errors import DegenerateMapError, WorkBudgetError
from .places import (ARCH, Place, ProjPointQ, valuation, weil_height,
                     weil_height_exact)
from .polys import HomogPair, factorize, homog_step, to_floats

# the most map expressions whose systems `DynSystem.from_expr` keeps
_MAPS_KEPT = 256
# The most units of work one scan, preimage run or quadrature may do,
# predicted before it starts: candidate points of `common_preperiodic_scan`,
# candidates a `bounds.scan_exceptions` scores (each of its rational box,
# and deg psi for each of its quadratic box, whose image polynomials grow
# with deg psi), degree-d solves of `bounds.preimage_measure_stats`, or
# grid nodes of `bounds.energy_level_curve` and of the `mahler`
# quadratures.  A unit costs 1-10 us (a reported quadratic exception adds a
# root solve, a scan-pair candidate two orbit walks); level 18 on x^2 + 1,
# 524 286 solves, takes about 2.5 s from the shell on a 2-vCPU x86 VM.
# Every golden, test, demo script and benchmark item needs at most about
# 16 384 (the largest node count).
WORK_BUDGET = 10 ** 6


@dataclass(frozen=True)
class DynSystem:
    """A degree d >= 2 rational self-map of P^1 with its archimedean
    distortion constant.

    C_arch satisfies |log||F(x)|| - d log||x||| <= C_arch for all real
    x != 0 (sup norm); it controls how many archimedean iterations are
    needed for a requested height accuracy; its lower part reads Res and
    the cofactor bound off the pair's one elimination
    (`HomogPair.elimination`).  Only the finite places sum
    the primes of Res F, so bad_primes factors Res on its first read and
    keeps the primes; deciding preperiodicity or pulling orbits back never
    reads them.  good_orbits keeps Sigma_p the same way, for each prime a
    ledger asks for, and float_forms keeps F in doubles.

    A system holds invariants of the map only, and none of them can be
    changed (c_formula is a read-only mapping; the Sigma_p kept are
    added, never replaced), so one system may serve every caller of the
    same map: `from_expr` hands out one per expression text.
    """

    F: HomogPair
    c_arch: float
    c_formula: Mapping = field(compare=False)
    # Sigma_p of each prime asked for, built on first use (good_orbits)
    _good_orbits: dict = field(default_factory=dict, compare=False,
                               repr=False)

    @staticmethod
    def of(F: HomogPair) -> "DynSystem":
        d = F.degree
        if d < 2:
            raise DegenerateMapError("dynamical degree must be >= 2")
        maxcoef = max(max(abs(c) for c in F.f0), max(abs(c) for c in F.f1))
        upper = math.log((d + 1) * maxcoef)
        maxcof = F.elimination[1]
        lower = math.log(2 * d * maxcof) + math.log(abs(F.res))
        formula = MappingProxyType({"upper": upper, "lower": lower,
                                    "max_coeff": maxcoef,
                                    "max_cofactor": maxcof})
        return DynSystem(F, max(upper, lower), formula)

    @staticmethod
    @lru_cache(maxsize=_MAPS_KEPT)
    def from_expr(text: str) -> "DynSystem":
        """The system of a map expression, built once per text: the parse,
        the resultant, the cofactor bound and (on first read) the bad
        primes are paid once per process for the last _MAPS_KEPT texts.
        A text that fails to parse or is degenerate raises anew on every
        call, since raised errors are not kept."""
        from .polys import parse_map
        return DynSystem.of(parse_map(text))

    @property
    def degree(self) -> int:
        return self.F.degree

    @cached_property
    def float_forms(self) -> HomogPair:
        """F in doubles (`polys.to_floats`), built on first use."""
        F = self.F
        return HomogPair(tuple(to_floats(F.f0)), tuple(to_floats(F.f1)))

    @cached_property
    def bad_primes(self) -> tuple:
        """The primes dividing Res F, in ascending order."""
        return tuple(factorize(self.F.res))

    def good_orbits(self, p: int) -> frozenset:
        """Sigma_p (`_good_orbit_set`), built on the first call for p and
        kept with the map."""
        kept = self._good_orbits
        if p not in kept:
            kept[p] = _good_orbit_set(self.F, p)
        return kept[p]


def green_archimedean(S: DynSystem, walk: Walk, eps: float):
    """(value, tail_bound) for the archimedean homogeneous Green function
    of the coprime lift of walk.points[0], read off its exact walk
    (`_exact_orbit`), g_k = walk.gcds[k]: the series of log g_k over the
    cycle of a preperiodic point, with a tail of 0, or else the walk's
    exact prefix plus d^-n times a double iteration
    (`DynSystem.float_forms`) from its last point x_n, to eps d^n."""
    d = S.degree
    logs = [math.log(g) for g in walk.gcds]
    if walk.cycle_start is not None:
        return _ledger_sum(logs, d, walk.cycle_start), 0.0
    dn = d ** len(logs)
    n_steps = max(1, _tail_steps(S.c_arch, d, eps * dn))
    P = walk.points[-1]
    acc = weil_height(P)
    M = weil_height_exact(P)
    a, b = P.a / M, P.b / M
    w = 1.0
    for _ in range(n_steps):
        v0, v1 = S.float_forms.evaluate(a, b)
        m = max(abs(v0), abs(v1))
        w /= d
        acc += w * math.log(m)
        a, b = v0 / m, v1 / m
    tail = S.c_arch * d ** (-n_steps) / (d - 1)
    return _ledger_sum(logs, d) + acc / dn, tail / dn


def _ledger_sum(terms, d: int, cycle_start: int | None = None) -> float:
    """sum_k terms[k] d^-(k+1), summed left to right.  With cycle_start i,
    terms[i:] is one period of an infinite periodic ledger, and its tail
    from i on is the geometric series d^-i block / (1 - d^-len), block the
    period's own sum."""
    dinv = 1.0 / d
    total = 0.0
    i = len(terms) if cycle_start is None else cycle_start
    for k in range(i):
        total += terms[k] * dinv ** (k + 1)
    if i < len(terms):
        block = 0.0
        for t in range(len(terms) - i):
            block += terms[i + t] * dinv ** (t + 1)
        total += dinv ** i * block / (1.0 - dinv ** (len(terms) - i))
    return total


def _tail_steps(c: float, d: int, eps: float) -> int:
    """ceil(log_d(c / ((d - 1) eps))): the steps N after which a tail
    c d^-N / (d - 1) is at most eps (c floored at 1e-300)."""
    ratio = max(c, 1e-300) / ((d - 1) * eps) if eps else math.inf
    if ratio == math.inf:
        raise ValueError("eps is too small: its step count overflows a float")
    return math.ceil(math.log(ratio) / math.log(d))


def _reduction(a: int, b: int, p: int):
    """The point [a:b] of P^1(F_p) as an index: a/b mod p, or p for
    infinity; None when p divides both."""
    b %= p
    if b:
        return a * pow(b, -1, p) % p
    return p if a % p else None


def _good_orbit_set(F: HomogPair, p: int) -> frozenset:
    """Sigma_p, as `_reduction` indices: the points of P^1(F_p) whose
    orbit under F mod p never meets B_p, the points where F0 and F1 both
    vanish mod p.  Off B_p, F mod p is a map of P^1(F_p), built here with
    p + 1 evaluations; each point then follows it until it meets B_p, a
    point already decided, or its own path again (a cycle that avoids
    B_p)."""
    image = [_reduction(*F.evaluate(x, 1), p) for x in range(p)]
    image.append(_reduction(F.f0[-1], F.f1[-1], p))  # the image of [1:0]
    good = {}
    for x in range(p + 1):
        path = []
        y = x
        while y is not None and y not in good and y not in path:
            path.append(y)
            y = image[y]
        ok = y is not None and good.get(y, True)
        for z in path:
            good[z] = ok
    return frozenset(x for x, ok in good.items() if ok)


def _padic_orbit(F: HomogPair, P: ProjPointQ, p: int, m: int, K: int,
                 W: int, good: frozenset | None):
    """The ledger c_0, ..., c_(K-1) of the orbit of P tracked modulo p^W,
    or None as soon as p^W no longer carries what the next step reads.

    The integers of step k are known modulo p^w, w = W - sum(c), and
    c_k = min(m - 1, v_p F0, v_p F1) reads them modulo p^(m-1) only.

    good, when given, is Sigma_p (`_good_orbit_set`).  A primitive state
    whose reduction lies in it extracts c = 0, since F0 and F1 do not
    both vanish there; its image is again primitive and reduces to the
    image of its reduction under F mod p, again in Sigma_p.  So every
    later c is 0, and the ledger is filled with zeros without reading a
    digit more.
    The reduction is tested at the start and after each step with c > 0
    only: after a step with c = 0 the reduction moved along F mod p, and
    a point outside Sigma_p maps outside it.  A state known to no digit
    (w = 0) is not tested.
    """
    mod = p ** W
    A, B = P.a % mod, P.b % mod
    w = W
    ledger = []
    c = 1  # the starting state is tested
    for k in range(K):
        if c and good is not None and w and _reduction(A, B, p) in good:
            return ledger + [0] * (K - k)
        if w < m - 1:
            return None
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
        w -= c
    return ledger


def green_finite(S: DynSystem, walk: Walk, p: int, eps: float) -> float:
    """Finite-place Green function of the coprime lift of walk.points[0],
    read off its exact walk (`_exact_orbit`) at a prime p dividing Res: an
    exact geometric series when the point is preperiodic, otherwise a
    truncation within eps.  It never factors Res.

    With m = v_p(Res) + 1, the ledger starts with c_k = v_p(walk.gcds[k]):
    every gcd divides Res, so this is the c_k = min(m - 1, v_p F0, v_p F1)
    a p-adic step extracts.  It is periodic from cycle_start on, if any.
    Otherwise K steps bound the tail; when the walk escapes after n < K
    steps, `_padic_orbit` goes on from its last point (the p-adic state up
    to a unit) modulo p^W.  W starts at min(digits, 6m + 4), where
    digits = (K - n) m + 2m + 8, and doubles (up to digits, where no step
    runs short) when a state is known to fewer than the m - 1 digits a
    step reads.  When p + 1 <= K it also stops, with zeros, at a state
    that reduces into Sigma_p (`DynSystem.good_orbits`).  So the ledger,
    and its float summed left to right, are those of W = digits."""
    m = valuation(S.F.res, p) + 1  # extracted valuations are < m
    d = S.degree
    logp = math.log(p)
    ledger = [valuation(g, p) for g in walk.gcds]
    if walk.cycle_start is not None:
        return -_ledger_sum(ledger, d, walk.cycle_start) * logp
    K = max(8, _tail_steps((m - 1) * logp, d, eps) + 1)
    if (n := len(ledger)) < K:
        digits = (K - n) * m + 2 * m + 8
        W = min(digits, 6 * m + 4)
        # Sigma_p costs p + 1 evaluations, once per map and prime: never
        # more than this ledger's K steps
        good = S.good_orbits(p) if p + 1 <= K else None
        while (rest := _padic_orbit(S.F, walk.points[-1], p, m, K - n,
                                    W, good)) is None:
            W = min(digits, 2 * W)
        ledger += rest
    return -_ledger_sum(ledger[:K], d) * logp


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
    """Every place's Green value, each read off one exact walk of the
    orbit of P (`_exact_orbit`).  On a preperiodic point every value is an
    exact series, and the tail bound is 0."""
    if not 0 < eps < math.inf:
        raise ValueError("eps must be a positive finite number")
    n_fin = len(S.bad_primes)
    eps_arch = eps / 2 if n_fin else eps
    eps_fin = eps / (2 * n_fin) if n_fin else eps
    walk = _exact_orbit(S, P)
    arch, tail = green_archimedean(S, walk, eps_arch)
    per = {ARCH: arch}
    for p in S.bad_primes:
        per[Place(p)] = green_finite(S, walk, p, eps_fin)
    if walk.cycle_start is None:
        tail += n_fin * eps_fin
    return GreenLedger(per, tail)


def local_green(S: DynSystem, P: ProjPointQ, v: Place, eps: float) -> float:
    """Local Green value at one place (archimedean requires eps > 0); 0.0
    at a prime of good reduction, where no orbit is walked."""
    if v.is_archimedean:
        if not 0 < eps < math.inf:
            raise ValueError("archimedean eps must be positive and finite")
        return green_archimedean(S, _exact_orbit(S, P), eps)[0]
    if S.F.res % v.prime:
        return 0.0
    return green_finite(S, _exact_orbit(S, P), v.prime, eps)


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


Walk = namedtuple("Walk", "points gcds cycle_start")


def _exact_orbit(S: DynSystem, P: ProjPointQ) -> Walk:
    """The exact orbit of P over Q; gcds[k] is the gcd extracted by the
    step from points[k].  When P is preperiodic, points[cycle_start:] is
    the cycle and the last step returns to points[cycle_start].  Otherwise
    cycle_start is None and points[-1] is the first point whose Weil
    height passes the escape threshold."""
    thresh = escape_threshold(S)
    orbit, gcds, index = [], [], {}
    Q = P
    while Q not in index:
        orbit.append(Q)
        if weil_height(Q) > thresh:
            return Walk(orbit, gcds, None)
        index[Q] = len(index)
        Q, g = homog_step(S.F, Q)
        gcds.append(g)
    return Walk(orbit, gcds, index[Q])


def is_preperiodic(S: DynSystem, P: ProjPointQ):
    """Exact orbit iteration with cycle detection.

    Returns (True, {"tail": [...], "cycle": [...]}) on a repeat, or
    (False, escape certificate) once the orbit's Weil height passes the
    certified escape threshold (then hhat > 0, so the orbit is infinite).
    """
    orbit, _, i = _exact_orbit(S, P)
    if i is None:
        Q = orbit[-1]
        return False, {"escaped_at": str(Q),
                       "weil_height": weil_height(Q),
                       "threshold": escape_threshold(S)}
    return True, {"tail": [str(x) for x in orbit[:i]],
                  "cycle": [str(x) for x in orbit[i:]]}


def rational_box_bound(H: float, clamp: float = math.inf) -> int:
    """The box |a| <= B, 1 <= b <= B that `rational_points_up_to_height`
    walks: B = floor(e^H), cut to the first integer past e^min(H, clamp),
    so that float rounding at that boundary drops no point.  It holds
    B (2 B + 1) candidate pairs."""
    if not H <= math.log(sys.float_info.max):
        raise ValueError(f"height bound {H} is out of range: e^H must be "
                         "a finite float")
    return min(int(math.floor(math.exp(H) + 1e-12)),
               int(math.exp(min(H, clamp))) + 1)


def rational_points_up_to_height(H: float, clamp: float = math.inf):
    """All normalized points of P^1(Q) with Weil height <= H, in a fixed
    deterministic order (finite points by (b, a), then infinity), as a
    generator: no point is built before it is asked for.

    A scan that can use no finite point of Weil height above clamp passes
    it: the box then stops at `rational_box_bound(H, clamp)`, and the
    points are an ordered subset of the unclamped ones.  H is checked
    when the function is called, not on the first point."""
    return _points_in_box(rational_box_bound(H, clamp))


def _points_in_box(bound: int):
    for b in range(1, bound + 1):
        for a in range(-bound, bound + 1):
            if math.gcd(abs(a), b) == 1:
                yield ProjPointQ(a, b)
    yield ProjPointQ(1, 0)


def _require_budget(work: int, exact: bool, what: str, unit: str):
    """Raise WorkBudgetError when the predicted work is over WORK_BUDGET;
    a prediction that stopped counting early (exact false) is a lower
    bound."""
    if work > WORK_BUDGET:
        raise WorkBudgetError(
            f"{what} needs {'' if exact else 'more than '}{work} {unit}, "
            f"beyond the work budget of {WORK_BUDGET}")


def common_preperiodic_scan(S1: DynSystem, S2: DynSystem, H: float):
    """Rational points of height <= H preperiodic under both maps.  A
    point above either escape threshold is not preperiodic under that map
    (`is_preperiodic` certifies it escaped at once), so the enumeration
    stops at the lower threshold.  The box of B (2B + 1) + 1 candidates
    is counted first, and one of more than WORK_BUDGET raises
    WorkBudgetError."""
    clamp = min(escape_threshold(S1), escape_threshold(S2))
    side = rational_box_bound(H, clamp)
    _require_budget(side * (2 * side + 1) + 1, True, "scan-pair",
                    "candidates")
    return [P for P in _points_in_box(side)
            if is_preperiodic(S1, P)[0] and is_preperiodic(S2, P)[0]]
