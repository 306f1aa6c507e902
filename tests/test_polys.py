"""Exact polynomial arithmetic, resultants and homogeneous map pairs."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dynheights.errors import DegenerateMapError, ParseError
from dynheights import polys
from dynheights.places import ProjPointQ
from dynheights.polys import (HomogPair, Poly, bareiss_det, factorize,
                              homog_step, int_poly, parse_expr, parse_map,
                              parse_poly, poly_gcd, resultant,
                              resultant_univ, sylvester_matrix)

small_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(int_poly)


def _lu_det(rows):
    """Fraction Gaussian elimination; independent of the Bareiss code path."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


def test_poly_basic_arithmetic():
    f = int_poly([1, 2])       # 1 + 2x
    g = int_poly([-1, 0, 3])   # -1 + 3x^2
    assert (f + g).coeffs == (0, 2, 3)
    assert (f * g).coeffs == (-1, -2, 3, 6)
    assert (f ** 2).coeffs == (1, 4, 4)
    assert f(Fraction(1, 2)) == 2


def test_poly_trim_and_zero():
    assert int_poly([0, 0]).is_zero
    assert int_poly([1, 0, 0]).degree() == 0
    assert int_poly([3, 0]).coeffs == (3,)


rational_lists = st.lists(st.one_of(st.integers(-10 ** 6, 10 ** 6),
                                    st.fractions(-50, 50, max_denominator=60)),
                          max_size=8)


def _trimmed(seq):
    """The entries as Fractions, trailing zeros dropped."""
    out = [Fraction(c) for c in seq]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _assert_normal(P):
    assert all(type(c) is int for c in P.coeffs) and type(P.den) is int
    assert not P.coeffs or P.coeffs[-1] != 0
    assert P.den >= 1 and math.gcd(P.den, *P.coeffs) == 1


@settings(max_examples=200, deadline=None)
@given(rational_lists, st.integers(-10 ** 6, 10 ** 6).filter(bool))
def test_poly_of_normal_form(seq, k):
    P = Poly.of(seq)
    _assert_normal(P)
    assert Poly.of([k * c for c in seq], k) == P
    assert P.to_fraction_coeffs() == _trimmed(seq)


@settings(max_examples=200, deadline=None)
@given(rational_lists, rational_lists)
def test_poly_ring_matches_fraction_lists(a, b):
    fa, fb = _trimmed(a), _trimmed(b)
    n = max(len(fa), len(fb))
    pa = list(fa) + [Fraction(0)] * (n - len(fa))
    pb = list(fb) + [Fraction(0)] * (n - len(fb))
    prod = [Fraction(0)] * max(len(fa) + len(fb) - 1, 0)
    for i, x in enumerate(fa):
        for j, y in enumerate(fb):
            prod[i + j] += x * y
    P, Q = Poly.of(a), Poly.of(b)
    for got, want in ((P + Q, [x + y for x, y in zip(pa, pb)]),
                      (P - Q, [x - y for x, y in zip(pa, pb)]),
                      (P * Q, prod)):
        _assert_normal(got)
        assert got.to_fraction_coeffs() == _trimmed(want)


@settings(max_examples=100, deadline=None)
@given(rational_lists, rational_lists)
def test_divmod_over_q(a, b):
    """Pseudo-division on the integer coefficients gives the quotient and
    remainder over Q: a = q b + r with deg r < deg b."""
    A, B = Poly.of(a), Poly.of(b)
    assume(not B.is_zero)
    q, r = polys._poly_divmod(A, B)
    _assert_normal(q)
    _assert_normal(r)
    assert q * B + r == A and r.degree() < B.degree()


def test_poly_gcd():
    f = int_poly([-1, 0, 1])   # (x-1)(x+1)
    g = int_poly([1, 1])
    d = poly_gcd(f, g)
    assert d.degree() == 1 and d(Fraction(-1)) == 0
    assert poly_gcd(f, int_poly([1])).degree() == 0


@settings(max_examples=60)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
                min_size=4, max_size=4))
def test_bareiss_determinant_matches_lu(rows):
    assert bareiss_det(rows) == _lu_det(rows)


def test_resultant_conventions():
    # frozen orientation: F0 rows first, descending coefficients
    assert resultant(HomogPair.of([0, 0, 1], [2, 0, 0])) == 4   # X^2, 2Y^2
    assert resultant(HomogPair.of([-1, 0, 1], [1, 0, 0])) == 1  # X^2-Y^2, Y^2
    assert resultant_univ(int_poly([-1, 0, 1]), int_poly([1, 1])) == 0


@settings(max_examples=40)
@given(small_polys, small_polys)
def test_resultant_vanishes_iff_common_root(f, g):
    if f.is_zero or g.is_zero or f.degree() < 1 or g.degree() < 1:
        return
    r = resultant_univ(f, g)
    assert (r == 0) == (poly_gcd(f, g).degree() >= 1)


def test_sylvester_oracle():
    f = int_poly([2, 0, 1])  # x^2 + 2
    g = int_poly([-3, 1])    # x - 3
    mat = sylvester_matrix(list(reversed(f.coeffs)),
                           list(reversed(g.coeffs)))
    assert _lu_det(mat) == resultant_univ(f, g) == 11  # f(3)


def test_homog_pair_validation():
    with pytest.raises(DegenerateMapError):
        HomogPair.of([0, 0, 1], [0, 0, 2])  # common factor X^2
    F = HomogPair.of([2, 0, 2], [0, 2, 0])  # non-primitive, reduced by .of
    assert F.f0 == (1, 0, 1) and F.f1 == (0, 1, 0)


def test_evaluate_and_dehomog():
    F = parse_map("(x^2 + 1)/x")
    assert F.evaluate(2, 1) == (5, 2)
    num, den = F.dehomog()
    assert num.coeffs == (1, 0, 1) and den.coeffs == (0, 1)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=7),
       st.lists(st.integers(-10**6, 10**6), min_size=7, max_size=7),
       st.floats(-2, 2), st.floats(-2, 2))
def test_evaluate_floats_within_horner_bound(f0, f1, a, b):
    # Horner's forward error against exact rational evaluation: each term
    # is rounded at most 2d times, so |error| <= gamma_2d sum |f_i| |a^i
    # b^(d-i)|; an underflow adds at most 2^-1074 at each of the 3d
    # products, carried by at most 4^d (|a|, |b| <= 2) and max |f_i|
    F = HomogPair(tuple(f0), tuple(f1[:len(f0)]))
    d = F.degree
    fa, fb = Fraction(a), Fraction(b)
    u = Fraction(1, 2 ** 53)
    gamma = 2 * d * u / (1 - 2 * d * u)
    got = F.evaluate(a, b)
    for f, v in zip((F.f0, F.f1), got):
        exact = sum(c * fa ** i * fb ** (d - i) for i, c in enumerate(f))
        bound = gamma * sum(abs(c * fa ** i * fb ** (d - i))
                            for i, c in enumerate(f))
        tiny = 3 * d * 4 ** d * (max(map(abs, f)) + 1) * Fraction(2) ** -1074
        assert type(v) is float
        assert abs(Fraction(v) - exact) <= bound + tiny


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-10**30, 10**30), min_size=2, max_size=7),
       st.lists(st.integers(-10**30, 10**30), min_size=7, max_size=7),
       st.integers(-10**40, 10**40), st.integers(-10**40, 10**40))
def test_evaluate_exact_on_large_ints(f0, f1, a, b):
    F = HomogPair(tuple(f0), tuple(f1[:len(f0)]))
    d = F.degree
    got = F.evaluate(a, b)
    if b == 0:
        want = (F.f0[d] * a ** d, F.f1[d] * a ** d)
    else:
        want = tuple(Poly.of(f)(Fraction(a, b)) * b ** d
                     for f in (F.f0, F.f1))
    assert got == want and all(type(v) is int for v in got)


def test_horner_matches_polyval_bitwise():
    rng = np.random.default_rng(5)
    z = rng.normal(size=(40, 7)) + 1j * rng.normal(size=(40, 7))
    for n in range(1, 9):
        c = rng.normal(size=n + 1) * 10.0 ** rng.integers(-3, 4, n + 1)
        for coeffs in (c, c + 1j * rng.normal(size=n + 1)):
            for x in (z, z[:, 0]):
                want = np.polyval(coeffs[::-1], x)
                got = polys.horner(coeffs, x)
                assert got.shape == x.shape
                assert np.array_equal(got.view(float), want.view(float))


@given(st.lists(st.fractions(max_denominator=50), min_size=1, max_size=8),
       st.fractions(max_denominator=50))
def test_horner_exact_on_fractions(coeffs, x):
    assert polys.horner(coeffs, x) == sum(c * x ** k
                                          for k, c in enumerate(coeffs))


def test_compose_and_iterate():
    F = parse_map("x^2")
    G = F.compose(F).compose(F)
    assert G.evaluate(3, 1) == (3 ** 8, 1)
    H = parse_map("x^2 - 1")
    K = H.compose(H)
    a, b = K.evaluate(3, 1)
    assert Fraction(a, b) == Fraction((3 ** 2 - 1) ** 2 - 1)


def _full_resultant(f0, f1):
    """Resultant of two forms by the Fraction determinant above."""
    return _lu_det(sylvester_matrix(list(reversed(f0)), list(reversed(f1))))


form_pairs = st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.lists(st.integers(-4, 4), min_size=d + 1, max_size=d + 1),
    st.lists(st.integers(-4, 4), min_size=d + 1, max_size=d + 1)))


def _pair_or_none(forms):
    try:
        return HomogPair.of(*forms)
    except DegenerateMapError:
        return None


@settings(max_examples=60, deadline=None)
@given(form_pairs, form_pairs)
def test_compose_resultant_identity(fs, gs):
    # |Res(F o G)| g^(2de) = |Res F|^e |Res G|^(d^2), g the removed content
    F, G = _pair_or_none(fs), _pair_or_none(gs)
    assume(F is not None and G is not None)
    d, e = F.degree, G.degree
    g0, g1 = Poly.of(G.f0), Poly.of(G.f1)
    raw0 = raw1 = Poly(())
    for i in range(d + 1):
        term = g0 ** i * g1 ** (d - i)
        raw0 = raw0 + term.scale(F.f0[i])
        raw1 = raw1 + term.scale(F.f1[i])
    raw0 = list(raw0.coeffs) + [0] * (d * e + 1 - len(raw0.coeffs))
    raw1 = list(raw1.coeffs) + [0] * (d * e + 1 - len(raw1.coeffs))
    g = math.gcd(*raw0, *raw1)
    H = F.compose(G)
    assert H.f0 == tuple(c // g for c in raw0)
    assert H.f1 == tuple(c // g for c in raw1)
    lhs = abs(_full_resultant(H.f0, H.f1)) * g ** (2 * d * e)
    rhs = (abs(_full_resultant(F.f0, F.f1)) ** e
           * abs(_full_resultant(G.f0, G.f1)) ** (d * d))
    assert lhs == rhs != 0
    assert H.res == resultant(H)


@settings(max_examples=40)
@given(st.integers(-50, 50), st.integers(1, 50))
def test_extracted_gcd_divides_resultant(a, b):
    g = math.gcd(abs(a), b)
    if g != 1:
        a, b = a // g, b // g
    F = parse_map("(x^2 - 29/16)")
    v0, v1 = F.evaluate(a, b)
    common = math.gcd(abs(v0), abs(v1))
    assert resultant(F) % common == 0


def test_homog_step_ledger():
    F = parse_map("x^2 - 29/16")
    Q, g = homog_step(F, ProjPointQ.of(1, 4))
    assert str(Q) == "-7/4"
    assert g == 64  # gcd(16 - 29*16, 16^2)


def test_factorize():
    assert factorize(65536) == {2: 16}
    assert factorize(-60) == {2: 2, 3: 1, 5: 1}
    assert factorize(1) == {}


def test_parse_poly_and_round_trip():
    f = parse_poly("x^3 - 29/16*x + 1")
    assert f.to_fraction_coeffs() == (1, Fraction(-29, 16), 0, 1)
    assert (parse_poly(f.to_str()).to_fraction_coeffs()
            == f.to_fraction_coeffs())
    g = parse_poly("(1 - x)*(1 + x)")
    assert g.to_fraction_coeffs() == (1, 0, -1)


def test_parse_expr_dispatch():
    assert isinstance(parse_expr("x^2 + 1"), Poly)
    assert isinstance(parse_expr("(x^2 + 1)/x"), HomogPair)
    assert isinstance(parse_expr("(x^2 - 1)/(x - 1)"), Poly)  # reduces
    assert parse_expr("((x + 1/2)^3 - 1/8)/x") == Poly.of(
        [Fraction(3, 4), Fraction(3, 2), 1])


def test_coprime_maps_parse_without_gcd(monkeypatch):
    """A nonzero resultant of the unreduced pair proves it coprime; only a
    zero resultant runs the Euclidean gcd."""
    calls = []
    gcd = polys.poly_gcd
    monkeypatch.setattr(polys, "poly_gcd",
                        lambda f, g: calls.append(1) or gcd(f, g))
    assert parse_expr("(x^2 + 1)/(1 - x)") == HomogPair((-1, 0, -1),
                                                        (-1, 1, 0))
    assert parse_expr("(3*x^4 - 7*x + 11)/(5*x^3 + 2*x^2 - 13)/2") == \
        HomogPair((11, -7, 0, 0, 3), (-26, 0, 4, 10, 0))
    assert calls == []
    assert parse_expr("(x^2 - 1)/(1 - x)") == Poly.of([-1, -1])
    assert parse_expr("(x^3 - x)/(x^3 - x^2)") == HomogPair((1, 1), (0, 1))
    assert len(calls) == 2


def test_parse_errors():
    for bad in ("x +", "x^y", "2x", "x**2", "(x", "x^2 + y"):
        with pytest.raises(ParseError):
            parse_expr(bad)


def test_negative_exponent():
    F = parse_expr("x^-1")
    assert isinstance(F, HomogPair)
    assert F.evaluate(2, 1) == (1, 2)


def test_resultant_univ_clears_denominators():
    f = int_poly([-3, -4, 1])                             # x^2 - 4x - 3
    psi = Poly.of([Fraction(-1, 3), Fraction(1, 2)])     # x/2 - 1/3
    # psi(2 + sqrt 7) psi(2 - sqrt 7) = 4/9 - 7/4
    assert resultant_univ(f, psi) == Fraction(-47, 36)


small_rat_polys = st.lists(st.fractions(-9, 9, max_denominator=12),
                           min_size=2, max_size=5).map(Poly.of)


@settings(max_examples=40, deadline=None)
@given(small_rat_polys, small_rat_polys)
def test_resultant_univ_fractions_match_lu(f, g):
    assume(f.degree() >= 1 and g.degree() >= 1)
    mat = sylvester_matrix(list(reversed(f.to_fraction_coeffs())),
                           list(reversed(g.to_fraction_coeffs())))
    assert resultant_univ(f, g) == _lu_det(mat)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(-50, 50, max_denominator=30), max_size=40))
def test_parse_round_trip_random_coefficients(coeffs):
    f = Poly.of(coeffs)
    assert parse_poly(f.to_str()) == f


@pytest.mark.parametrize("text, f0, f1", [
    ("(x^2 + 1)/x", (1, 0, 1), (0, 1, 0)),
    ("1/(x - 1) + 1/(x + 1)", (0, 2, 0), (-1, 0, 1)),
    ("(x^3 - 2*x)/(3*x^2 - 2) - x/3", (0, -4, 0), (-6, 0, 9)),
    ("x - (x^2 - 2)/(2*x)", (2, 0, 1), (0, 2, 0)),
    ("x^-2 + 1/2", (2, 0, 1), (0, 0, 2)),
    ("-(x^2 - 1)/(x^2 + 1) + 2/(x - 1)/(x + 1)",
     (1, 0, 4, 0, -1), (-1, 0, 0, 0, 1))])
def test_rational_maps_parse(text, f0, f1):
    assert parse_expr(text) == HomogPair(f0, f1)


class _DenseRatFunc:
    """The dense parser value: num/den as Fraction-coefficient Polys,
    reduced at the end by the Euclidean gcd; the reference for the sparse
    `polys._RatFunc` and its resultant test for coprimality."""

    def __init__(self, num, den):
        self.num = num
        self.den = den

    @staticmethod
    def const(c):
        return _DenseRatFunc(Poly.const(Fraction(c)), Poly.const(Fraction(1)))

    @staticmethod
    def var():
        return _DenseRatFunc(Poly.of([Fraction(0), Fraction(1)]),
                             Poly.const(Fraction(1)))

    def __add__(self, o):
        if self.den == o.den:
            return _DenseRatFunc(self.num + o.num, self.den)
        return _DenseRatFunc(self.num * o.den + o.num * self.den,
                             self.den * o.den)

    def __sub__(self, o):
        if self.den == o.den:
            return _DenseRatFunc(self.num - o.num, self.den)
        return _DenseRatFunc(self.num * o.den - o.num * self.den,
                             self.den * o.den)

    def __mul__(self, o):
        return _DenseRatFunc(self.num * o.num, self.den * o.den)

    def __truediv__(self, o):
        return _DenseRatFunc(self.num * o.den, self.den * o.num)

    def pow(self, n):
        if n >= 0:
            return _DenseRatFunc(self.num ** n, self.den ** n)
        return _DenseRatFunc(self.den ** (-n), self.num ** (-n))

    def reduced(self):
        """The value by the Euclidean route: the gcd is removed before
        the pair is built, whatever the resultant."""
        if self.den.is_zero:
            raise DegenerateMapError("division by the zero polynomial")
        if self.num.is_zero:
            return Poly(())
        g = poly_gcd(self.num, self.den)
        num = polys._poly_div_exact(self.num, g)
        den = polys._poly_div_exact(self.den, g)
        if den.leading() < 0:
            num, den = num.scale(Fraction(-1)), den.scale(Fraction(-1))
        if den.degree() <= 0:
            c = den.to_fraction_coeffs()[0]
            return Poly.of([a / c for a in num.to_fraction_coeffs()])
        return HomogPair.from_polys(num, den)


def _outcome(text):
    """What parse_expr makes of text: the value with the type of each
    coefficient, or the error with its message."""
    try:
        v = parse_expr(text)
    except (ParseError, DegenerateMapError) as exc:
        return type(exc).__name__, str(exc)
    coeffs = v.coeffs if isinstance(v, Poly) else v.f0 + v.f1
    return v, [type(c) for c in coeffs]


_leaves = st.one_of(st.integers(1, 12).map(str),
                    st.sampled_from(["x", "x", "x", "0", "x/3", "2*x"]))


def _combine(children):
    pair = st.tuples(children, children)
    return st.one_of(
        pair.map(lambda t: f"{t[0]} + {t[1]}"),
        pair.map(lambda t: f"{t[0]} - {t[1]}"),
        pair.map(lambda t: f"{t[0]}*{t[1]}"),
        pair.map(lambda t: f"({t[0]})/({t[1]})"),
        pair.map(lambda t: f"{t[0]}/{t[1]}"),
        children.map(lambda a: f"-({a})"),
        st.tuples(children, st.integers(-3, 3)).map(
            lambda t: f"({t[0]})^{t[1]}"))


expressions = st.recursive(_leaves, _combine, max_leaves=10)


@settings(max_examples=300, deadline=None)
@given(expressions, st.integers(0, 10 ** 6), st.sampled_from(
    ["", "", "+", "-", "*", "/", "^", "(", ")", "x", "2", "y", " "]))
def test_sparse_parser_matches_dense_route(text, where, edit):
    """Same Poly or HomogPair, coefficient types and errors (with their
    positions) as the dense route, on expressions and on one-character
    edits of them."""
    i = where % (len(text) + 1)
    for t in (text, text[:i] + edit + text[i + 1:]):
        sparse = _outcome(t)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polys, "_RatFunc", _DenseRatFunc)
            dense = _outcome(t)
        assert sparse == dense, t
