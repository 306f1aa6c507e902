"""Places of Q, projective points, Weil heights and the product formula."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dynheights.errors import InvalidPointError, ParseError, UndefinedLogError
from dynheights.places import (ARCH, Place, ProjPointQ, is_prime, log_abs_at,
                               normalize_proj, parse_point, parse_rational,
                               valuation, weil_height, weil_height_exact)
from dynheights.polys import factorize

nonzero_rationals = st.fractions(
    min_value=-10**6, max_value=10**6,
    max_denominator=10**6).filter(lambda x: x != 0)


def test_place_construction():
    assert ARCH.is_archimedean
    assert Place(7).prime == 7
    with pytest.raises(ValueError):
        Place(6)
    with pytest.raises(ValueError):
        Place(1)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
    assert {n for n in range(2, 40) if is_prime(n)} == primes
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)  # 641 * 6700417


def test_is_prime_agrees_with_factorize():
    assert not is_prime(0) and not is_prime(1)
    assert all(is_prime(n) == (factorize(n) == {n: 1})
               for n in range(2, 10**5 + 1))


def test_is_prime_rejects_strong_pseudoprimes():
    # 151 * 751 * 28351 is a strong pseudoprime to the bases 2, 3, 5, 7;
    # 399165290221 * 798330580441 the least one to all bases 2, ..., 37
    for n in (3215031751, 318665857834031151167461):
        assert not is_prime(n)
    with pytest.raises(ValueError):
        Place(318665857834031151167461)


def test_valuation_examples():
    assert valuation(12, 2) == 2
    assert valuation(12, 3) == 1
    assert valuation(Fraction(5, 8), 2) == -3
    # ints, negative and beyond a double, are read with no Fraction
    assert valuation(-48, 2) == 4
    assert valuation(-7 * 3 ** 200, 3) == 200
    with pytest.raises(UndefinedLogError):
        valuation(0, 2)


@given(nonzero_rationals)
def test_product_formula(x):
    from dynheights.polys import factorize
    primes = set(factorize(abs(x.numerator))) | set(factorize(x.denominator))
    places = [ARCH] + [Place(p) for p in sorted(primes)]
    total = sum(log_abs_at(x, v) for v in places)
    assert abs(total) <= 1e-9 * (1 + abs(math.log(abs(x))))


@pytest.mark.parametrize("x", [Fraction(199999999, 100000000),
                               Fraction(10 ** 300 + 1, 10 ** 299),
                               Fraction(3, 7 ** 400), Fraction(7 ** 400, 3)])
def test_log_abs_at_archimedean_rounding(x):
    # one log of the correctly rounded quotient where it is a normal
    # double (log p - log q erred by 3.6e-15 at the first); the last two
    # lie outside the double range and keep log p - log q
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = mpmath.log(mpmath.mpf(x.numerator) / x.denominator)
        err = abs(log_abs_at(x, ARCH) - ref)
    assert err <= 2 * math.ulp(float(ref))


def test_normalization_sign_and_coprimality():
    assert normalize_proj(2, -4) == ProjPointQ(-1, 2)
    assert normalize_proj(-3, 0) == ProjPointQ(1, 0)
    assert normalize_proj(0, 5) == ProjPointQ(0, 1)
    with pytest.raises(InvalidPointError):
        normalize_proj(0, 0)


@given(st.integers(-10**4, 10**4), st.integers(-10**4, 10**4))
def test_normalization_scaling_invariance(a, b):
    if a == 0 and b == 0:
        return
    P = normalize_proj(a, b)
    for c in (2, -3, 7):
        assert normalize_proj(c * a, c * b) == P
    assert math.gcd(abs(P.a), abs(P.b)) == 1
    assert P.b > 0 or (P.b == 0 and P.a == 1)


def test_parse_point_formats():
    assert parse_point("2/3") == ProjPointQ(2, 3)
    assert parse_point("-5") == ProjPointQ(-5, 1)
    assert parse_point("inf") == ProjPointQ(1, 0)
    assert parse_point("[4:-6]") == ProjPointQ(-2, 3)
    with pytest.raises(ParseError):
        parse_point("2/0/1")
    with pytest.raises(InvalidPointError):
        parse_point("[0:0]")
    for text in ("[1/2:3]", "[x:1]", "[1:]", "[1.5:2]"):  # not integers
        with pytest.raises(ParseError, match=r"\[a:b\] takes integers"):
            parse_point(text)


def test_parse_rational():
    assert parse_rational("-29/16") == Fraction(-29, 16)
    with pytest.raises(ParseError):
        parse_rational("1.5")


def test_weil_height_examples():
    assert weil_height(ProjPointQ.from_rational(Fraction(2, 3))) == math.log(3)
    assert weil_height(parse_point("inf")) == 0.0
    assert weil_height(ProjPointQ.of(0, 1)) == 0.0
    assert weil_height_exact(ProjPointQ.of(-7, 4)) == 7


@given(nonzero_rationals)
def test_weil_height_is_max_coordinate(x):
    P = ProjPointQ.from_rational(x)
    assert weil_height_exact(P) == max(abs(x.numerator), x.denominator)
    assert weil_height(P) >= 0.0


@given(nonzero_rationals)
def test_weil_height_inversion_symmetry(x):
    # h(x) = h(1/x): swapping coordinates permutes the max
    P = ProjPointQ.from_rational(x)
    Q = ProjPointQ.from_rational(1 / x)
    assert weil_height_exact(P) == weil_height_exact(Q)


def test_point_string_round_trip():
    for s in ("0", "inf", "-7/4", "22026"):
        assert str(parse_point(s)) == s
