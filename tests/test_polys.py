"""Exact polynomial arithmetic, resultants and homogeneous map pairs."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from dynheights.errors import DegenerateMapError, ParseError
from dynheights.places import ProjPointQ
from dynheights.polys import (HomogPair, Poly, bareiss_det, factorize,
                              homog_step, int_poly, parse_expr, parse_map,
                              parse_poly, poly_gcd, rat_poly, resultant,
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
    assert g.derivative().coeffs == (0, 6)


def test_poly_trim_and_zero():
    assert int_poly([0, 0]).is_zero
    assert int_poly([1, 0, 0]).degree() == 0
    assert int_poly([3, 0]).coeffs == (3,)


def test_content_and_primitive():
    f = int_poly([-6, 0, 9])
    assert f.content() == 3
    assert f.primitive_int().coeffs == (-2, 0, 3)
    assert int_poly([0, -4]).primitive_int().coeffs == (0, -1)  # sign kept


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


def test_compose_and_iterate():
    F = parse_map("x^2")
    G = F.iterate(3)
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
    Q, extracted = homog_step(F, ProjPointQ.of(1, 4))
    assert str(Q) == "-7/4"
    assert extracted == {2: 6}  # gcd(16 - 29*16, 16^2) = 64


def test_factorize():
    assert factorize(65536) == {2: 16}
    assert factorize(-60) == {2: 2, 3: 1, 5: 1}
    assert factorize(1) == {}


def test_parse_poly_and_round_trip():
    f = parse_poly("x^3 - 29/16*x + 1")
    assert f.coeffs == (1, Fraction(-29, 16), 0, 1)
    assert parse_poly(f.to_str()).coeffs == f.coeffs
    g = parse_poly("(1 - x)*(1 + x)")
    assert g.coeffs == (1, 0, -1)


def test_parse_expr_dispatch():
    assert isinstance(parse_expr("x^2 + 1"), Poly)
    assert isinstance(parse_expr("(x^2 + 1)/x"), HomogPair)
    assert isinstance(parse_expr("(x^2 - 1)/(x - 1)"), Poly)  # reduces


def test_parse_errors():
    for bad in ("x +", "x^y", "2x", "x**2", "(x", "x^2 + y"):
        with pytest.raises(ParseError):
            parse_expr(bad)


def test_negative_exponent():
    F = parse_expr("x^-1")
    assert isinstance(F, HomogPair)
    assert F.evaluate(2, 1) == (1, 2)
