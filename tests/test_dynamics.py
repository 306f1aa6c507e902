"""Canonical heights: local Green functions, functional equation,
preperiodicity certificates."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dynheights.bounds import preimage_measure_stats
from dynheights.dynamics import (DynSystem, canonical_height,
                                 common_preperiodic_scan, escape_threshold,
                                 green_ledger, is_preperiodic, local_green,
                                 rational_points_up_to_height)
from dynheights import dynamics, polys
from dynheights.errors import DegenerateMapError
from dynheights.places import ARCH, Place, ProjPointQ, valuation, weil_height
from dynheights.polys import (HomogPair, Poly, bareiss_det, factorize,
                              homog_step, parse_map, sylvester_matrix)

# canonical height of 0 under z^2 + 1, frozen from the exact recursion
# a_{n+1} = a_n^2 + 1 evaluated in 40-digit log arithmetic to n = 221
HHAT_ZSQ_PLUS_1_AT_0 = 0.2036772613697400

points = st.builds(
    ProjPointQ.of,
    st.integers(-300, 300),
    st.integers(-300, 300)).filter(lambda P: True)


def _pt(x):
    return ProjPointQ.from_rational(Fraction(x))


def test_degree_one_rejected():
    with pytest.raises(DegenerateMapError):
        DynSystem.from_expr("x + 1")


def test_bad_primes():
    assert DynSystem.from_expr("x^2 - 29/16").bad_primes == (2,)
    assert DynSystem.from_expr("x^2").bad_primes == ()


def test_resultant_valuations_read_not_refactored(monkeypatch):
    # only the finite-place Green functions read the primes of Res: map
    # entry, orbits and preimages never factor it, and a system factors
    # it once however many ledgers it sums
    calls = []

    def spy(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(dynamics, "factorize", spy)
    monkeypatch.setattr(polys, "factorize", spy)
    S = DynSystem.from_expr("(x^2 - 29/16)/(3*x)")
    is_preperiodic(S, _pt(Fraction(1, 4)))
    preimage_measure_stats(S, Fraction(1, 2), 2, 2)
    assert calls == []
    P = _pt(Fraction(1, 4))
    first = green_ledger(S, P, 1e-10).per_place
    assert green_ledger(S, P, 1e-10).per_place == first
    assert calls == [S.F.res]
    assert S.bad_primes == tuple(factorize(S.F.res)) == (2, 3, 29)


def test_from_expr_builds_each_map_once():
    text = "(x^2 - 29/16)/(3*x)"
    S = DynSystem.from_expr(text)
    assert DynSystem.from_expr(text) is S
    assert DynSystem.from_expr.cache_info().misses == 1
    # a shared system cannot be changed by one caller for the next
    with pytest.raises(TypeError):
        S.c_formula["upper"] = 0.0


def _cofactor_max_by_minors(F):
    """The Cramer route: each side's cofactor row as 2d signed minors of
    the transposed Sylvester matrix, one Bareiss determinant each."""
    best = 0
    for f_desc, g_desc in ((F.f0[::-1], F.f1[::-1]), (F.f0, F.f1)):
        rows = [list(col) for col in zip(*sylvester_matrix(list(f_desc),
                                                           list(g_desc)))]
        n = len(rows)
        for j in range(n):
            minor = [r[:j] + r[j + 1:] for r in rows[:-1]]
            best = max(best, abs(bareiss_det(minor) if minor else 1))
    return best


@st.composite
def nondegenerate_pairs(draw):
    """Pairs of degree 2-7 with coefficients up to 10^8, some with
    vanishing leading or trailing terms."""
    d = draw(st.integers(2, 7))
    bound = draw(st.sampled_from([3, 1000, 10 ** 8]))
    coeffs = st.lists(st.integers(-bound, bound), min_size=d + 1,
                      max_size=d + 1)
    f0, f1 = draw(coeffs), draw(coeffs)
    if draw(st.booleans()):
        f0[-1] = 0
    if draw(st.booleans()):
        f1[0] = 0
    if draw(st.booleans()):
        f1[-1] = 0
    try:
        return HomogPair.of(f0, f1)
    except DegenerateMapError:
        return HomogPair.of([1] + [0] * d, [0] * d + [1])


@settings(max_examples=80, deadline=None)
@given(nondegenerate_pairs())
def test_cofactor_max_matches_minors(F):
    assert dynamics._cofactor_max(F) == _cofactor_max_by_minors(F)


@pytest.mark.parametrize("text, formula", [
    ("x^2 - 29/16", (4.465908118654584, 21.38912252454505, 29, 7424)),
    ("(3*x^4 - 7*x + 11)/(5*x^3 + 2*x^2 - 13)",
     (4.174387269895637, 29.937706162243753, 13, 1467557)),
    ("(x^3 + 1234567*x + 89)/(x^2 + 98765*x + 4321)",
     (15.412525220399552, 97.63349138605369, 1234567,
      8088944692380716611622)),
    ("(2*x^2 - 3)/(3*x^2 - 2*x - 2)",
     (2.1972245773362196, 4.477336814478207, 3, 22)),
    ("(x^2 - 1)/(4*x)", (2.4849066497880004, 6.931471805599452, 4, 16)),
    ("x^5 - 3*x^4 + 2/7", (4.836281906951478, 44.76676289766162, 21,
                           9794396899)),
    ("(x^7 - 3*x^2 + 5)/(2*x^6 + x^5 - 7*x)",
     (4.02535169073515, 34.256102711620954, 7, 11523505)),
    ("(4*x^6 - x^3 + 9)/(x^6 + 3*x^5 - 2)",
     (4.143134726391533, 40.05934127071416, 9, 117934785)),
])
def test_c_formula_pinned(text, formula):
    """C_arch's ingredients, frozen from the Cramer-route implementation."""
    S = DynSystem.from_expr(text)
    upper, lower, max_coeff, max_cofactor = formula
    assert S.c_formula == {"upper": upper, "lower": lower,
                           "max_coeff": max_coeff,
                           "max_cofactor": max_cofactor}


@settings(max_examples=80, deadline=None)
@given(nondegenerate_pairs(),
       st.lists(st.floats(0.0, 2 * math.pi), max_size=24))
# (x^2 - x + 1)/(-x) reaches 0.79 C_arch at a fixed sample, the tightest
# case of 1 000 draws, so a C_arch below 0.79 of the proven one fails here
@example(HomogPair.of([1, -1, 1], [0, -1, 0]), [])
def test_distortion_bound_on_unit_circle(F, angles):
    """|log||F(x)||| <= C_arch on the sup-norm unit circle, at 24 fixed
    samples and at random angles."""
    S = DynSystem.of(F)
    xs = [(math.cos(0.7 * k), math.sin(1.3 * k + 0.2)) for k in range(24)]
    xs += [(math.cos(t), math.sin(t)) for t in angles]
    for a, b in xs:
        n = max(abs(a), abs(b))
        v0, v1 = F.evaluate(a / n, b / n)
        assert abs(math.log(max(abs(v0), abs(v1)))) <= S.c_arch + 1e-9


def test_power_map_height_is_weil():
    S = DynSystem.from_expr("x^2")
    assert abs(canonical_height(S, _pt(2)) - math.log(2)) <= 1e-9
    assert abs(canonical_height(S, _pt(Fraction(-3, 5))) - math.log(5)) <= 1e-9
    assert abs(canonical_height(S, ProjPointQ.of(1, 0))) <= 1e-9


def test_preperiodic_points_have_height_zero():
    S = DynSystem.from_expr("x^2 - 1")
    for x in (0, -1):  # 2-cycle 0 <-> -1
        assert abs(canonical_height(S, _pt(x))) <= 1e-9
    S29 = DynSystem.from_expr("x^2 - 29/16")
    assert abs(canonical_height(S29, _pt(Fraction(1, 4)))) <= 1e-9


def test_frozen_height_oracle():
    S = DynSystem.from_expr("x^2 + 1")
    assert abs(canonical_height(S, _pt(0), eps=1e-10)
               - HHAT_ZSQ_PLUS_1_AT_0) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(-40, 40), st.integers(1, 40))
def test_functional_equation(a, b):
    g = math.gcd(abs(a), b)
    P = ProjPointQ.of(a // g, b // g)
    for expr in ("x^2 - 1", "x^2 - 29/16", "(x^2 + 1)/x"):
        S = DynSystem.from_expr(expr)
        img, _ = homog_step(S.F, P)
        h = canonical_height(S, P)
        h_img = canonical_height(S, img)
        assert abs(h_img - S.degree * h) <= 2e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(-40, 40), st.integers(1, 40))
def test_local_global_sum(a, b):
    g = math.gcd(abs(a), b)
    P = ProjPointQ.of(a // g, b // g)
    S = DynSystem.from_expr("x^2 - 29/16")
    total = local_green(S, P, ARCH, 1e-10)
    for p in S.bad_primes:
        total += local_green(S, P, Place(p), 1e-10)
    assert abs(total - canonical_height(S, P)) <= 1e-8


@pytest.mark.parametrize("eps", [0.0, -1.0, math.inf, math.nan])
def test_eps_out_of_range_is_a_value_error(eps):
    S = DynSystem.from_expr("x^2 - 29/16")
    P = _pt(Fraction(1, 3))
    with pytest.raises(ValueError, match="positive and finite"):
        local_green(S, P, ARCH, eps)
    with pytest.raises(ValueError, match="positive finite"):
        green_ledger(S, P, eps)


def test_finite_green_nonpositive_and_good_reduction():
    S = DynSystem.from_expr("x^2 - 29/16")
    for x in (Fraction(1, 4), Fraction(3, 2), 5):
        P = _pt(x)
        assert local_green(S, P, Place(2), 1e-9) <= 0.0
        assert local_green(S, P, Place(3), 1e-9) == 0.0  # good reduction


def test_finite_ledger_on_cycle():
    # the orbit of 1/4 extracts 2^6 at every step (the cycle has
    # denominator 4, squared by the map, cleared by 16)
    S = DynSystem.from_expr("x^2 - 29/16")
    P = _pt(Fraction(1, 4))
    for _ in range(8):
        P, g = homog_step(S.F, P)
        assert valuation(g, 2) == 6
    # geometric series: g_2 = -sum 6 * 2^-(k+1) log 2 = -6 log 2
    g2 = local_green(S, _pt(Fraction(1, 4)), Place(2), 1e-12)
    assert abs(g2 + 6 * math.log(2)) <= 1e-10


def test_green_ledger_total_and_tail():
    S = DynSystem.from_expr("x^2 - 29/16")
    led = green_ledger(S, _pt(Fraction(1, 4)), 1e-9)
    assert set(led.per_place) == {ARCH, Place(2)}
    assert led.tail_bound <= 1e-9
    assert abs(led.total() - sum(led.per_place.values())) == 0.0


def test_escape_threshold_positive():
    S = DynSystem.from_expr("x^2 - 1")
    t = escape_threshold(S)
    assert t > 0
    # any point above the threshold must wander
    ok, cert = is_preperiodic(S, _pt(10 ** 6))
    assert not ok and cert["weil_height"] > cert["threshold"]


def test_preperiodic_certificates():
    S = DynSystem.from_expr("x^2 - 29/16")
    ok, cert = is_preperiodic(S, _pt(Fraction(1, 4)))
    assert ok
    assert cert["tail"] == ["1/4"]
    assert cert["cycle"] == ["-7/4", "5/4", "-1/4"]
    ok, cert = is_preperiodic(S, _pt(Fraction(1, 2)))
    assert not ok
    assert "escaped_at" in cert


def test_point_enumeration():
    pts = list(rational_points_up_to_height(math.log(2) + 1e-12))
    as_str = {str(P) for P in pts}
    assert as_str == {"-2", "-1", "0", "1", "2", "-1/2", "1/2", "inf"}
    assert all(weil_height(P) <= math.log(2) + 1e-9 for P in pts)


def test_common_preperiodic_scan():
    S1 = DynSystem.from_expr("x^2")
    S2 = DynSystem.from_expr("x^2 - 1")
    got = {str(P) for P in common_preperiodic_scan(S1, S2, 2.0)}
    assert got == {"0", "1", "-1", "inf"}


def test_rational_map_with_pole():
    S = DynSystem.from_expr("(x^2 + 1)/x")
    # 0 -> inf -> inf: preperiodic
    ok, cert = is_preperiodic(S, _pt(0))
    assert ok and cert["cycle"] == ["inf"]
    assert abs(canonical_height(S, _pt(0))) <= 1e-9


def _ledger_steps(S, p, eps):
    """(m, K, digits) of green_finite: m = v_p(Res) + 1, K steps bound the
    truncation tail, and digits covers K steps of m - 1 digits each."""
    m = valuation(S.F.res, p) + 1
    d = S.degree
    logp = math.log(p)
    K = max(8, math.ceil(
        math.log(max((m - 1) * logp, 1e-300) / ((d - 1) * eps)) / math.log(d)) + 1)
    return m, K, K * m + 2 * m + 8


def _green_finite_full(S, P, p, eps):
    """The ledger loop at the worst-case precision p^(K m + 2m + 8) with
    no closure: the reference for green_finite on points that are not
    preperiodic."""
    m, K, digits = _ledger_steps(S, p, eps)
    if m == 1:
        return 0.0
    mod = p ** digits
    A, B = P.a % mod, P.b % mod
    ledger = []
    for _ in range(K):
        v0, v1 = S.F.evaluate(A, B)
        v0 %= mod
        v1 %= mod
        c = 0
        while c < m - 1 and v0 % p == 0 and v1 % p == 0:
            v0 //= p
            v1 //= p
            c += 1
        ledger.append(c)
        A, B = v0, v1
    dinv = 1.0 / S.degree
    total = 0.0
    for k, c in enumerate(ledger):
        total += c * dinv ** (k + 1)
    return -total * math.log(p)


def _green_finite_reference(S, P, p):
    """-log p sum_k c_k d^-(k+1) summed exactly over the N steps that put
    the tail v log p d^-N / (d - 1), v = v_p(Res), below 1e-20, on the
    orbit modulo p^((N + 1) v + 1): every state is known to more than the
    v digits its c_k reads.  No closure."""
    v = valuation(S.F.res, p)
    if v == 0:
        return 0.0
    d = S.degree
    N = 1
    while v * math.log(p) / ((d - 1) * d ** N) >= 1e-20:
        N += 1
    mod = p ** ((N + 1) * v + 1)
    A, B = P.a % mod, P.b % mod
    total = Fraction(0)
    for k in range(N):
        v0, v1 = S.F.evaluate(A, B)
        v0 %= mod
        v1 %= mod
        c = 0
        while c < v and v0 % p == 0 and v1 % p == 0:
            v0 //= p
            v1 //= p
            c += 1
        total += Fraction(c, d ** (k + 1))
        A, B = v0, v1
    return -float(total) * math.log(p)


def _assert_same_green(S, P, eps):
    """green_finite is the float of the no-closure loop bit for bit on a
    point that is not preperiodic, and within eps of it on one that is
    (where it sums the exact ledger in closed form)."""
    preperiodic, _ = is_preperiodic(S, P)
    for p in S.bad_primes:
        got = local_green(S, P, Place(p), eps)
        want = _green_finite_full(S, P, p, eps)
        if preperiodic:
            assert abs(got - want) <= eps, (p, got, want)
        else:
            assert got == want and repr(got) == repr(want), (p, got, want)


@st.composite
def maps_of_degree_2_to_4(draw):
    """Polynomial and rational maps of degree 2-4 with small rational
    coefficients, and a resultant below 10^24: factorize proves its
    primes only below about 3.3e24 and trial-divides a larger probable
    prime, which can take hours (about 6% of these maps exceed it)."""
    d = draw(st.integers(2, 4))
    coeff = st.fractions(-9, 9, max_denominator=12)
    num = draw(st.lists(coeff, min_size=d + 1, max_size=d + 1))
    den = draw(st.one_of(st.just([1]),
                         st.lists(coeff, min_size=1, max_size=d + 1)))
    assume(num[-1] != 0)
    try:
        F = HomogPair.from_polys(Poly.of(num), Poly.of(den))
    except DegenerateMapError:
        assume(False)
    assume(abs(F.res) < 10 ** 24)
    return DynSystem.of(F)


@settings(max_examples=60, deadline=None)
@given(maps_of_degree_2_to_4(),
       st.tuples(st.integers(-300, 300), st.integers(0, 300)).filter(any),
       st.sampled_from([1e-6, 1e-9, 1e-12]))
def test_green_finite_matches_full_precision(S, ab, eps):
    """The same float as the loop at the worst-case precision, at every
    bad prime, on points that are not preperiodic (within eps on those
    that are)."""
    _assert_same_green(S, ProjPointQ.of(*ab), eps)


@settings(max_examples=60, deadline=None)
@given(maps_of_degree_2_to_4(),
       st.tuples(st.integers(-60, 60), st.integers(0, 60)).filter(any),
       st.sampled_from([1e-6, 1e-9, 1e-12]))
# the 2-adic term is -log 2 * 127/256; the first repeat of the state
# modulo 2^(2m+2) comes before the ledger is periodic
@example(DynSystem.from_expr("(-43*x^2 + 90*x + 39)/(10*x^2 - 27*x + 21)"),
         (-16, 21), 1e-9)
def test_green_finite_within_eps_of_exact_reference(S, ab, eps):
    P = ProjPointQ.of(*ab)
    for p in S.bad_primes:
        got = local_green(S, P, Place(p), eps)
        want = _green_finite_reference(S, P, p)
        assert abs(got - want) <= eps, (p, got, want)


@st.composite
def maps_with_rational_cycle(draw):
    """(S, t, cycle): a polynomial map of degree n + 1 through the pairs
    t -> x_0 -> x_1 -> ... -> x_(n-1) -> x_0, for distinct rationals t,
    x_0, ..., x_(n-1) and 1 <= n <= 3 (Lagrange interpolation plus a
    multiple of the product of x - node, so that the degree is n + 1)."""
    n = draw(st.integers(1, 3))
    q = draw(st.integers(1, 6))
    nodes = [Fraction(a, q) for a in draw(st.lists(
        st.integers(-12, 12), min_size=n + 1, max_size=n + 1, unique=True))]
    t, cycle = nodes[0], nodes[1:]
    images = cycle + [cycle[0]]
    f = Poly.of([draw(st.sampled_from([1, -1, 2, Fraction(1, 2), 3,
                                        Fraction(-1, 3)]))])
    for x in nodes:
        f = f * Poly.of([-x, 1])
    for x, y in zip(nodes, images):
        basis = Poly.of([y])
        for z in nodes:
            if z != x:
                basis = basis * Poly.of([-z / (x - z), 1 / (x - z)])
        f = f + basis
    F = HomogPair.from_polys(f, Poly.of([1]))
    assume(abs(F.res) < 10 ** 24)
    return DynSystem.of(F), t, cycle


@settings(max_examples=40, deadline=None)
@given(maps_with_rational_cycle())
def test_green_finite_preperiodic_oracle(case):
    """On a constructed rational cycle, and on a point mapped onto it,
    each finite term is the exact geometric sum times log p: the c_k are
    read off the coprime lifts of the known cycle points, not off an
    iteration."""
    S, t, cycle = case
    d, n = S.degree, len(cycle)

    def c(x, p):
        P = _pt(x)
        v0, v1 = S.F.evaluate(P.a, P.b)
        return valuation(math.gcd(v0, v1), p)

    for p in S.bad_primes:
        block = sum(Fraction(c(x, p), d ** (k + 1))
                    for k, x in enumerate(cycle))
        on_cycle = block / (1 - Fraction(1, d ** n))
        for x, exact in ((cycle[0], on_cycle),
                         (t, Fraction(c(t, p), d) + on_cycle / d)):
            got = local_green(S, _pt(x), Place(p), 1e-9)
            want = -float(exact) * math.log(p)
            assert abs(got - want) <= 8 * math.ulp(want) + 1e-300, (p, x)


def _orbit_runs(monkeypatch):
    """(W, outcome) of each p-adic orbit run: "short" when the run ran
    out of working precision and restarted, else the number of ledger
    steps it returned."""
    runs = []
    orbit = dynamics._padic_orbit

    def spy(F, P, p, m, K, W, good):
        out = orbit(F, P, p, m, K, W, good)
        runs.append((W, "short" if out is None else len(out)))
        return out

    monkeypatch.setattr(dynamics, "_padic_orbit", spy)
    return runs


def test_green_finite_cycle_at_constant_extraction(monkeypatch):
    # 1/4 extracts 2^6 at every step of its 3-cycle: the preperiodic
    # point sums its exact ledger and runs no p-adic orbit
    S = DynSystem.from_expr("x^2 - 29/16")
    runs = _orbit_runs(monkeypatch)
    g2 = local_green(S, _pt(Fraction(1, 4)), Place(2), 1e-12)
    assert runs == []
    assert abs(g2 + 6 * math.log(2)) <= 4 * math.ulp(6 * math.log(2))
    _assert_same_green(S, _pt(Fraction(1, 4)), 1e-12)


def test_green_finite_restarts_until_precision_suffices(monkeypatch):
    # a/4 with a odd maps to an odd numerator over 4: 9/4 extracts 2^6 at
    # every step and its walk escapes after 6 steps.  The K - 6 steps that
    # follow run short of the 16 digits a step reads at W = 106, and at
    # W = 212 too when eps = 1e-12
    S = DynSystem.from_expr("x^2 - 29/16")
    runs = _orbit_runs(monkeypatch)
    for eps, want in ((1e-9, [(106, "short"), (212, 29)]),
                      (1e-12, [(106, "short"), (212, "short"), (424, 39)])):
        runs.clear()
        _assert_same_green(S, _pt(Fraction(9, 4)), eps)
        assert runs == want
        assert want[-1][1] == _ledger_steps(S, 2, eps)[1] - 6


@pytest.mark.parametrize("f0, f1, x, p, runs_at_p", [
    # the walk escapes after 2 of the K = 32 steps; 17 of the other 30
    # extract a digit, so W = 16 runs short of the m - 1 = 1 digit a step
    # reads
    ((4, 3, 2), (5, 7, 5), Fraction(19, 14), 3, [(16, "short"), (32, 30)]),
    # the state of step 0 comes back modulo 3^6 at step 30, where a keyed
    # closure would stop; the walk escapes after 3 steps, and 12 of the
    # other 29 extract, so W = 16 suffices
    ((2, -1, 5), (1, 9, -1), Fraction(7, 16), 3, [(16, 29)]),
    # W = 16 runs short here too (17 of the 29 steps after the walk
    # extract); a run that went on to a step known to no digit would read
    # the wrong c there, and a float 1.5e-9 off
    ((-19, -11, -3), (4, -20, -27), Fraction(41, 43), 3,
     [(16, "short"), (32, 29)]),
])
def test_green_finite_paths(monkeypatch, f0, f1, x, p, runs_at_p):
    S = DynSystem.of(HomogPair.of(f0, f1))
    runs = _orbit_runs(monkeypatch)
    local_green(S, _pt(x), Place(p), 1e-9)
    assert runs == runs_at_p
    _assert_same_green(S, _pt(x), 1e-9)


def test_green_finite_large_resultant_valuation():
    S = DynSystem.from_expr("x^2 + 1/2^20")
    assert factorize(S.F.res) == {2: 80}
    for x in (Fraction(1, 3), Fraction(5, 2), Fraction(7, 1024), 3):
        _assert_same_green(S, _pt(x), 1e-9)


def test_green_finite_walk_longer_than_ledger(monkeypatch):
    # x -> 2^40 x conjugates x^2 - 29/16 to this map and raises the escape
    # threshold to 196: the image 9 * 2^38 of 9/4 walks 9 steps before it
    # escapes, more than the K = 8 an eps of 1 needs, so the ledger is the
    # walk's first 8 entries and no p-adic orbit runs
    S = DynSystem.from_expr("x^2/2^40 - 29*2^36")
    P = _pt(9 * 2 ** 38)
    assert len(dynamics._exact_orbit(S, P).gcds) == 9
    assert _ledger_steps(S, 2, 1.0)[1] == 8
    runs = _orbit_runs(monkeypatch)
    _assert_same_green(S, P, 1.0)
    assert runs == []


def test_local_green_walks_no_orbit_at_good_primes(monkeypatch):
    S = DynSystem.from_expr("(x^2 - 29/16)/(3*x)")
    steps = []
    step = dynamics.homog_step
    monkeypatch.setattr(dynamics, "homog_step",
                        lambda F, P: steps.append(P) or step(F, P))
    for x in (Fraction(1, 4), Fraction(9, 4), 0, 5):
        for p in (5, 7, 31):
            assert local_green(S, _pt(x), Place(p), 1e-9) == 0.0
    assert steps == []
    assert local_green(S, _pt(Fraction(9, 4)), Place(3), 1e-9) <= 0.0
    assert steps  # a bad prime walks the orbit


def test_green_ledger_walks_the_orbit_once(monkeypatch):
    # every bad prime reads its ledger off the same exact walk
    S = DynSystem.from_expr("(x^2 - 29/16)/(3*x)")
    assert S.bad_primes == (2, 3, 29)
    walks, steps = [], []
    walk, step = dynamics._exact_orbit, dynamics.homog_step

    def walk_spy(S, P):
        walks.append(walk(S, P))
        return walks[-1]

    def step_spy(F, P):
        steps.append(P)
        return step(F, P)

    monkeypatch.setattr(dynamics, "_exact_orbit", walk_spy)
    monkeypatch.setattr(dynamics, "homog_step", step_spy)
    for x in (Fraction(1, 4), Fraction(9, 4), 0, 5):
        walks.clear()
        steps.clear()
        green_ledger(S, _pt(x), 1e-9)
        assert len(walks) == 1
        assert len(steps) == len(walks[0].gcds) > 0


def _good_orbits_brute(f0, f1, p):
    """Sigma_p by brute force: the points [x:1] (index x) and [1:0]
    (index p) of P^1(F_p) whose first p + 2 iterates under (F0, F1) mod p
    all avoid the common zeros of F0 and F1 mod p; an orbit in P^1(F_p)
    repeats within p + 1 steps, so that decides it."""
    d = len(f0) - 1

    def step(a, b):
        v = [sum(c * a ** i * b ** (d - i) for i, c in enumerate(f)) % p
             for f in (f0, f1)]
        if v == [0, 0]:
            return None
        return (v[0] * pow(v[1], -1, p) % p, 1) if v[1] else (1, 0)

    good = set()
    for start in [(x, 1) for x in range(p)] + [(1, 0)]:
        pt = start
        for _ in range(p + 2):
            pt = step(*pt)
            if pt is None:
                break
        else:
            good.add(start[0] if start[1] else p)
    return good


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
           st.lists(st.integers(-30, 30), min_size=d + 1, max_size=d + 1),
           st.lists(st.integers(-30, 30), min_size=d + 1, max_size=d + 1))),
       st.sampled_from([2, 3, 5, 7, 11, 13]))
def test_good_orbit_set_matches_brute_force(forms, p):
    f0, f1 = forms
    assert dynamics._good_orbit_set(HomogPair(tuple(f0), tuple(f1)), p) \
        == _good_orbits_brute(f0, f1, p)


def test_good_orbit_set_examples():
    # (x^2 + 2)/(2x) mod 2 is [X^2 : 0]: B_2 = {0}, and 1 and inf map to
    # inf; x^2 - 29/16 mod 2 is [Y^2 : 0], which sends 0 and 1 to inf,
    # a common zero
    F = DynSystem.from_expr("(x^2 + 2)/(2*x)").F
    assert dynamics._good_orbit_set(F, 2) == {1, 2}
    F = DynSystem.from_expr("x^2 - 29/16").F
    assert dynamics._good_orbit_set(F, 2) == frozenset()


def _count_evaluations(monkeypatch):
    calls = []
    evaluate = HomogPair.evaluate
    monkeypatch.setattr(HomogPair, "evaluate",
                        lambda F, a, b: calls.append((a, b)) or
                        evaluate(F, a, b))
    return calls


def test_padic_orbit_stops_on_good_reduction(monkeypatch):
    # Newton's map for sqrt 2 has Res 8.  From 2 the first step extracts
    # one digit and lands on 3/2, which reduces to inf, in Sigma_2: the
    # stop reads no further step, and the ledger is that of the full run
    S = DynSystem.from_expr("(x^2 + 2)/(2*x)")
    good = S.good_orbits(2)
    calls = _count_evaluations(monkeypatch)
    stopped = dynamics._padic_orbit(S.F, _pt(2), 2, 4, 30, 40, good)
    assert len(calls) == 1
    full = dynamics._padic_orbit(S.F, _pt(2), 2, 4, 30, 40, None)
    assert len(calls) == 31
    assert stopped == full == [1] + [0] * 29
    # through green_finite: the walk 2, 3/2, 17/12, 577/408, 665857/470832
    # escapes, and the p-adic run from its last point (reducing to inf)
    # stops at once
    runs = _orbit_runs(monkeypatch)
    calls.clear()
    g2 = local_green(S, _pt(2), Place(2), 1e-9)
    assert g2 == -math.log(2) / 2
    assert len(calls) == 4 and runs == [(28, _ledger_steps(S, 2, 1e-9)[1] - 4)]
    _assert_same_green(S, _pt(2), 1e-9)


def test_good_orbits_built_only_for_ledgers_of_p_plus_1_steps(monkeypatch):
    # a ledger of K steps builds Sigma_p (p + 1 evaluations) only when
    # p + 1 <= K: at eps 1e-3, K is 15, 13 and 13 at the bad primes 2, 3
    # and 29 of this map, so 29 gets none; at 1e-9, K is 34, 33 and 33,
    # and it does.  Each is built once, for both points.
    built = []
    build = dynamics._good_orbit_set
    monkeypatch.setattr(dynamics, "_good_orbit_set",
                        lambda F, p: built.append(p) or build(F, p))
    F = parse_map("(x^2 - 29/16)/(3*x)")
    for eps, K, want in ((1e-3, [15, 13, 13], [2, 3]),
                         (1e-9, [34, 33, 33], [2, 3, 29])):
        S = DynSystem.of(F)  # a system with no Sigma_p kept yet
        assert S.bad_primes == (2, 3, 29)
        assert [_ledger_steps(S, p, eps)[1] for p in S.bad_primes] == K
        built.clear()
        for x in (Fraction(9, 4), 5):
            for p in S.bad_primes:
                local_green(S, _pt(x), Place(p), eps)
                _assert_same_green(S, _pt(x), eps)
        assert built == want


LARGE_PRIME_MAP = "(x^3 + 1234567*x + 89)/(x^2 + 98765*x + 4321)"


def test_green_finite_large_prime(monkeypatch):
    S = DynSystem.from_expr(LARGE_PRIME_MAP)
    p = 5719905713
    assert p in S.bad_primes
    runs = _orbit_runs(monkeypatch)
    _assert_same_green(S, _pt(Fraction(2, 9)), 1e-9)
    assert "short" not in [out for _, out in runs]
    # 5242926998 is the common root of both forms modulo p
    P = _pt(5242926998)
    assert local_green(S, P, Place(p), 1e-9) < 0.0
    _assert_same_green(S, P, 1e-9)
