"""Mahler measures: Jensen route vs quadrature, M^+, two-variable oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dynheights.mahler import (height_from_minpoly, log_mahler_plus,
                               mahler_via_quadrature, mahler_via_roots,
                               two_variable_grid_oracle)
from dynheights.polys import int_poly, parse_poly

# independently computed (40-digit quadrature of log(2 sin(t/2)) over the
# arc where |1 - e^{it}| >= 1):
LOG_M_PLUS_ONE_MINUS_X = 0.3230659472194505

small_polys = st.lists(st.integers(-20, 20), min_size=2, max_size=7).map(
    int_poly).filter(lambda P: not P.is_zero and P.degree() >= 1)


def test_golden_ratio_polynomial():
    P = parse_poly("x^2 - x - 1")
    phi = (1 + math.sqrt(5)) / 2
    expected = math.log(phi)
    assert abs(mahler_via_roots(P).log_value - expected) < 1e-12
    assert abs(mahler_via_quadrature(P).log_value - expected) < 1e-9
    assert abs(height_from_minpoly(P) - expected / 2) < 1e-12


def test_cyclotomic_measure_zero():
    for coeffs in ([1, 1], [1, 0, 1], [1, 1, 1], [1, -1, 1], [1, 0, 0, 0, 1]):
        P = int_poly(coeffs)
        assert abs(mahler_via_roots(P).log_value) < 1e-12


def test_lehmer_polynomial():
    P = int_poly([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
    expected = 0.1623576120230572  # log of Lehmer's number
    assert abs(mahler_via_roots(P).log_value - expected) < 1e-10
    assert abs(mahler_via_quadrature(P).log_value - expected) < 1e-7


def test_double_root_quadratic_exact():
    # 3 (x - 1)^2: the closed form gives the double root 1 exactly
    assert mahler_via_roots(int_poly([3, -6, 3])).log_value == math.log(3)


def test_monomial_and_constant():
    assert mahler_via_roots(int_poly([0, 0, 7])).log_value == math.log(7)
    assert mahler_via_roots(int_poly([5])).log_value == math.log(5)


@settings(max_examples=30, deadline=None)
@given(small_polys, small_polys)
def test_multiplicativity(P, Q):
    lhs = mahler_via_roots(P * Q).log_value
    rhs = mahler_via_roots(P).log_value + mahler_via_roots(Q).log_value
    assert abs(lhs - rhs) <= 1e-7 * max(1.0, abs(rhs))


@settings(max_examples=30, deadline=None)
@given(small_polys)
def test_reciprocal_invariance(P):
    # M(x^d P(1/x)) = M(P) when P(0) != 0
    if P.coeffs[0] == 0:
        return
    lhs = mahler_via_roots(P.reversed_coeffs()).log_value
    assert abs(lhs - mahler_via_roots(P).log_value) <= 1e-8


@settings(max_examples=25, deadline=None)
@given(small_polys)
def test_cross_method(P):
    a = mahler_via_roots(P).log_value
    b = mahler_via_quadrature(P, nodes=2 ** 13).log_value
    assert abs(a - b) <= 1e-6


def test_quadrature_node_validation():
    with pytest.raises(ValueError):
        mahler_via_quadrature(int_poly([1, 1]), nodes=1000)
    with pytest.raises(ValueError):
        mahler_via_roots(int_poly([0]))


def test_log_mahler_plus_golden_value():
    res = log_mahler_plus(parse_poly("1 - x"))
    assert abs(res.log_value - LOG_M_PLUS_ONE_MINUS_X) < 1e-8
    assert res.error_estimate < 1e-6


def test_log_mahler_plus_unit_modulus():
    # |x| = 1 on the whole circle, so log max(|x|, 1) vanishes identically
    assert log_mahler_plus(parse_poly("x")).log_value == 0.0


def test_log_mahler_plus_large_polynomial():
    # |psi| > 1 everywhere on the circle: M^+ = M
    P = int_poly([3, 0, 0, 5])
    assert abs(log_mahler_plus(P).log_value
               - mahler_via_roots(P).log_value) < 1e-9


def test_log_mahler_plus_dominated():
    # |x/3| < 1 on the whole circle (rational coefficients allowed)
    from dynheights.polys import rat_poly
    P = rat_poly([0, Fraction(1, 3)])
    assert log_mahler_plus(P).log_value == 0.0


def test_two_variable_identity_and_oracle():
    psi = parse_poly("1 - x")
    res = log_mahler_plus(psi)
    oracle = two_variable_grid_oracle(psi, 1024, 1024)
    assert abs(res.log_value - oracle) < 1e-3


def test_two_variable_oracle_power_map():
    # M(x^2 - y) = 1, i.e. log = 0
    assert abs(two_variable_grid_oracle(int_poly([0, 0, 1]))) < 5e-3


def test_height_from_minpoly_degree_normalization():
    P = parse_poly("x^2 - 2")
    assert abs(height_from_minpoly(P) - 0.5 * math.log(2)) < 1e-12


def _spy_complex_roots(monkeypatch):
    from dynheights import mahler
    calls = []
    real = mahler.complex_roots

    def spy(P):
        calls.append(P)
        return real(P)

    monkeypatch.setattr(mahler, "complex_roots", spy)
    return calls


def test_quadrature_finds_roots_once(monkeypatch):
    calls = _spy_complex_roots(monkeypatch)
    mahler_via_quadrature(parse_poly("x^4 - x - 1"), nodes=1024)
    assert len(calls) == 1


def test_log_mahler_plus_finds_roots_once(monkeypatch):
    # |psi| > 1 on the whole circle: both grids use psi's roots
    calls = _spy_complex_roots(monkeypatch)
    res = log_mahler_plus(parse_poly("3*x^2 + 2*x + 5"), nodes=1024)
    assert len(calls) == 1
    assert abs(res.log_value - math.log(5)) < 1e-12


def test_mahler_both_matches_separate_calls(monkeypatch):
    from dynheights.mahler import mahler_both
    for text in ("x^4 - x - 1", "3*x^2 + 2*x + 5", "7", "x^5 - 55*x^6 + x^7"):
        P = parse_poly(text)
        separate = (mahler_via_roots(P), mahler_via_quadrature(P, nodes=1024))
        calls = _spy_complex_roots(monkeypatch)
        assert mahler_both(P, nodes=1024) == separate
        assert len(calls) == (P.degree() > 0)
        monkeypatch.undo()
    with pytest.raises(ValueError):
        mahler_both(parse_poly("x - 2"), nodes=1000)
