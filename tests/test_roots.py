"""Simultaneous complex root finding: accuracy, Vieta identities, scaling."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dynheights.errors import RootFindingError
from dynheights.polys import int_poly, rat_poly
from dynheights.roots import (aberth, aberth_rows, complex_roots,
                              fujiwara_bound)


def test_fujiwara_bound_contains_roots():
    coeffs = [(-6 + 0j), (11 + 0j), (-6 + 0j), (1 + 0j)]  # roots 1, 2, 3
    assert fujiwara_bound(coeffs) >= 3.0


def test_known_real_roots():
    roots = complex_roots(int_poly([-6, 11, -6, 1]))
    vals = sorted(r.value.real for r in roots)
    assert all(abs(r.value.imag) < 1e-10 for r in roots)
    assert max(abs(v - e) for v, e in zip(vals, (1, 2, 3))) < 1e-10


def test_roots_of_unity():
    roots = complex_roots(int_poly([-1] + [0] * 7 + [1]))  # x^8 - 1
    assert len(roots) == 8
    assert max(abs(abs(r.value) - 1.0) for r in roots) < 1e-12


def test_zero_roots_stripped_exactly():
    roots = complex_roots(int_poly([0, 0, 0, -1, 1]))  # x^3 (x - 1)
    zeros = [r for r in roots if r.value == 0]
    assert len(zeros) == 3
    assert all(r.residual == 0.0 for r in zeros)


def test_multiple_root_cluster():
    roots = complex_roots(int_poly([1, -2, 1]))  # (x-1)^2
    assert len(roots) == 2
    assert all(abs(r.value - 1.0) < 1e-5 for r in roots)


def test_polish_keeps_triple_root_cluster():
    # (3x - 1)^3 (3x + 2): Newton polish at the cluster used to throw one
    # member 3.3e-3 away from 1/3
    roots = complex_roots(int_poly([-2, 15, -27, -27, 81]))
    near = sorted(min((abs(r.value - c), c) for c in (1 / 3, -2 / 3))
                  for r in roots)
    assert [c for _, c in near].count(1 / 3) == 3
    assert all(d <= 1e-6 for d, _ in near)
    assert all(r.reliable for r in roots)


def test_huge_coefficients_prescaled():
    # far beyond float range before rescaling
    f = rat_poly([Fraction(10) ** 400, 0, -(Fraction(10) ** 400)])
    roots = complex_roots(f)
    assert sorted(round(r.value.real, 9) for r in roots) == [-1.0, 1.0]


def test_tiny_rational_coefficients():
    f = rat_poly([Fraction(-1, 10 ** 200), 0, Fraction(1, 10 ** 200)])
    vals = sorted(r.value.real for r in complex_roots(f))
    assert max(abs(v - e) for v, e in zip(vals, (-1, 1))) < 1e-10


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-100, 100), min_size=3, max_size=9))
def test_vieta_sum_and_product(coeffs):
    if coeffs[-1] == 0 or coeffs[0] == 0:
        return
    P = int_poly(coeffs)
    n = P.degree()
    if n < 2:
        return
    roots = [r.value for r in complex_roots(P)]
    assert len(roots) == n
    s = sum(roots)
    p = 1.0 + 0j
    for z in roots:
        p *= z
    scale = max(1.0, max(abs(z) for z in roots)) ** n
    assert abs(s + coeffs[-2] / coeffs[-1]) <= 1e-6 * max(1.0, abs(s))
    assert abs(p - (-1) ** n * coeffs[0] / coeffs[-1]) <= 1e-6 * scale


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-100, 100), min_size=2, max_size=9))
# accurate roots of large modulus: 55.018... of x^5 (x^2 - 55x - 1) has
# residual 5.8e-6 but backward error 1e-16
@example(coeffs=[0, 0, 0, 0, 0, -1, -55, 1])
@example(coeffs=[0, 0, 0, 0, 0, 2, 49, 1])
def test_residuals_small(coeffs):
    if coeffs[-1] == 0 or all(c == 0 for c in coeffs):
        return
    P = int_poly(coeffs)
    if P.degree() < 1:
        return
    for r in complex_roots(P):
        if r.value != 0:
            assert r.reliable


def test_deterministic_output():
    P = int_poly([3, -7, 0, 2, 5])
    a = [(r.re, r.im) for r in complex_roots(P)]
    b = [(r.re, r.im) for r in complex_roots(P)]
    assert a == b


def test_constant_rejected():
    with pytest.raises(ValueError):
        aberth([2 + 0j])


# moduli in [1e-3, 1e3] or 0, so the products below stay normal floats
nonzero = st.floats(-1e3, 1e3).filter(lambda x: abs(x) >= 1e-3)
coef = st.one_of(st.just(0.0), nonzero)
cplx = st.builds(complex, coef, coef)
quadratics = st.one_of(
    st.tuples(nonzero, coef, nonzero),                          # real
    st.tuples(cplx, cplx, cplx).filter(                         # complex
        lambda cba: cba[0] != 0 and cba[2] != 0),
    st.tuples(nonzero, cplx.filter(lambda r: r != 0)).map(      # double root
        lambda ar: (ar[0] * ar[1] ** 2, -2 * ar[0] * ar[1], ar[0])),
    st.tuples(st.just(0.0), coef, nonzero))                     # zero constant


@settings(max_examples=200, deadline=None)
@given(quadratics)
@example((3.0, -6.0, 3.0))
@example((1.0, 0.0, 1.0))
@example((0.0, 0.0, 1.0))
def test_quadratic_closed_form(cba):
    coeffs = list(cba)  # ascending: c, b, a
    roots = aberth(coeffs)
    assert len(roots) == 2
    max_eta = 8 * 2 * sys.float_info.epsilon
    moduli = [abs(c) for c in coeffs]
    for z in roots:
        size = sum(m * abs(z) ** k for k, m in enumerate(moduli))
        res = abs(sum(c * z ** k for k, c in enumerate(coeffs)))
        assert res <= max_eta * size
    ref = np.roots(coeffs[::-1])
    ref = list(ref) + [0j] * (2 - len(ref))
    best = min(max(abs(roots[0] - ref[i]), abs(roots[1] - ref[1 - i]))
               for i in (0, 1))
    # a double root moves by about sqrt(eps) under rounding of the input
    assert best <= 1e-6 * max(1.0, max(abs(r) for r in ref))


def _backward_error(coeffs, z):
    res = abs(sum(c * z ** k for k, c in enumerate(coeffs)))
    if res == 0:  # also an exact zero root
        return 0.0
    return res / sum(abs(c) * abs(z) ** k for k, c in enumerate(coeffs))


def _condition(coeffs, r):
    """sum |a_k| |r|^k / |P'(r)|: the first-order change of the root r
    per unit of backward error, infinite where P'(r) vanishes."""
    deriv = abs(sum(k * c * r ** (k - 1) for k, c in enumerate(coeffs) if k))
    scale = sum(abs(c) * abs(r) ** k for k, c in enumerate(coeffs))
    return scale / deriv if deriv else math.inf


@st.composite
def row_batches(draw):
    """(n, rows): rows of degree n drawn from generic, zero-constant,
    degree-drop and double-root polynomials."""
    n = draw(st.integers(1, 6))
    nz_cplx = cplx.filter(lambda c: c != 0)

    def row(kind):
        if kind == "double":
            r = draw(nz_cplx)
            others = [draw(nz_cplx) for _ in range(n - 2)]
            return list(np.polynomial.polynomial.polyfromroots(
                [r, r] + others))
        mid = [draw(cplx) for _ in range(n - 1)]
        const = 0j if kind == "zero constant" else draw(nz_cplx)
        lead = draw(nz_cplx)
        if kind == "degree drop":  # to degree n - 1 >= 1
            mid[-1], lead = lead, 0j
        return [const] + mid + [lead]

    kinds = ["generic", "zero constant"] + (["degree drop", "double"]
                                            if n >= 2 else [])
    rows = [row(draw(st.sampled_from(kinds)))
            for _ in range(draw(st.integers(1, 6)))]
    return n, rows


@settings(max_examples=150, deadline=None)
@given(row_batches())
@example((3, [[-1, 3, -3, 1], [6, -11, 6, -1], [0, 2, 0, 1]]))
# a polish step once threw a member of the close pair near 416.48 off
@example((3, [[-114818515.68030545, 724831.8456566129, -1494.9084955447324,
               1]]))
# (x - 486)^2 (x - 486 - 1.09375i): the simple root, 1.09 from the double
# root, is fixed only to about 1e-7 by coefficients near 1e8
@example((3, [[-114791256 - 258339.375j, 708588 + 1063.125j,
               -1458 - 1.09375j, 1]]))
def test_aberth_rows_matches_aberth(batch):
    n, rows = batch
    Z = aberth_rows(np.array(rows, dtype=complex))
    assert Z.shape == (len(rows), n)
    max_eta = 8 * n * sys.float_info.epsilon
    for coeffs, zs in zip(rows, Z):
        try:
            ref = aberth(coeffs)
        except RootFindingError:
            # rounding differs, so the batch may settle a row that the
            # scalar iteration does not; its roots must then be accurate
            assert np.isnan(zs).all() or all(
                _backward_error(coeffs, z) <= max_eta for z in zs)
            continue
        got = [complex(z) for z in zs if np.isfinite(z)]
        assert len(got) == len(ref) and len(zs) - len(got) == n - len(ref)
        # to first order, a backward error of max_eta moves a simple root
        # r by at most max_eta * sum |a_k| |r|^k / |P'(r)|, so the two
        # solvers agree within twice that; a root whose bound exceeds
        # 1e-6 * scale (a double root, or one near a cluster) is held to
        # the backward error alone
        for r in ref:
            scale = max(1.0, abs(r))
            bound = 2 * max_eta * _condition(coeffs, r)
            if bound <= 1e-6 * scale:
                assert min(abs(r - z) for z in got) <= bound
        if all(_backward_error(coeffs, r) <= max_eta for r in ref):
            assert all(_backward_error(coeffs, z) <= max_eta for z in got)


def test_aberth_rows_rejects_bad_shapes():
    with pytest.raises(ValueError):
        aberth_rows(np.ones((3, 1)))
    with pytest.raises(ValueError):
        aberth_rows(np.ones(4))
