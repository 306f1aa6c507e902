"""Simultaneous complex root finding: accuracy, Vieta identities, scaling."""

import cmath
import functools
import importlib.util
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dynheights.errors import CoefficientRangeError, RootFindingError
from dynheights.polys import Poly, horner, int_poly
from dynheights import roots
from dynheights.roots import aberth, aberth_rows, complex_roots, prescale


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


def test_close_simple_roots_stay_apart():
    # (x - 1)(x - 1 - 1e-7)(x + 2): the inclusion discs of the pair near 1
    # (radius about 4e-8 each) do not overlap, so the pair is not merged
    d = Fraction(1, 10 ** 7)
    roots = sorted(r.value.real for r in complex_roots(
        Poly.of([2 + 2 * d, -3 - d, -d, 1])))
    assert roots[1] != roots[2]
    assert abs(roots[1] - 1) <= 1e-8 and abs(roots[2] - 1 - 1e-7) <= 1e-8


def test_huge_coefficients_prescaled():
    # far beyond float range before rescaling
    f = Poly.of([Fraction(10) ** 400, 0, -(Fraction(10) ** 400)])
    roots = complex_roots(f)
    assert sorted(round(r.value.real, 9) for r in roots) == [-1.0, 1.0]


def test_tiny_rational_coefficients():
    f = Poly.of([Fraction(-1, 10 ** 200), 0, Fraction(1, 10 ** 200)])
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


def _prescale_by_fractions(coeffs):
    """The Fraction route: m = max |c|, then float(c / m) for each c."""
    m = max(abs(Fraction(c)) for c in coeffs)
    return [float(Fraction(c) / m) for c in coeffs], m


# exact coefficients from 10^-400 to 10^400, ints among them, so the
# quotients run from 1 down through the subnormals to 0
exact_coefficient = st.one_of(
    st.integers(-10 ** 400, 10 ** 400),
    st.builds(lambda p, q, e: Fraction(p, q) * Fraction(10) ** e,
              st.integers(-10 ** 20, 10 ** 20), st.integers(1, 10 ** 20),
              st.integers(-400, 400)))


@settings(max_examples=300, deadline=None)
@given(st.lists(exact_coefficient, min_size=2, max_size=12).filter(
    lambda c: c[-1] != 0))
def test_prescale_matches_fraction_route(coeffs):
    ref, m = _prescale_by_fractions(coeffs)
    if abs(ref[-1]) < sys.float_info.min:
        with pytest.raises(CoefficientRangeError):
            prescale(Poly.of(coeffs))
        return
    scaled, scale = prescale(Poly.of(coeffs))
    assert [x.hex() for x in scaled] == [x.hex() for x in ref]
    assert scale == m


@pytest.mark.parametrize("coeffs", [
    [1e200, 0, 1e-200],        # the leading coefficient underflows
    [1e200, 0, 0, 1e-200],     # and the Newton polygon would lose a root
    [1e200, 0, 5e-324],        # a subnormal leading coefficient
])
def test_aberth_rejects_underflowing_leading_coefficient(coeffs):
    with pytest.raises(CoefficientRangeError, match="beyond the double"):
        aberth(coeffs)


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



def _hex(roots):
    return [(z.real.hex(), z.imag.hex()) for z in roots]


# pairs of roots r and r + delta: exact double roots at delta = 0, and
# pairs the merge radius 10 tol takes in or leaves apart as tol varies
near_double = st.tuples(nonzero, cplx, st.sampled_from(
    (0.0, 1e-13, 1e-11, 1e-9, 1e-7))).map(
    lambda ard: (ard[0] * ard[1] * (ard[1] + ard[2]),
                 -ard[0] * (2 * ard[1] + ard[2]), ard[0]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(quadratics, near_double).filter(
    lambda cba: cba[0] != 0 and cba[2] != 0),
    st.sampled_from((1e-12, 1e-10, 1e-8, 1e-6)))
@example((1.0, 0.0, 1.0), 1e-12)     # roots +-i, with a -0.0 real part
@example((1.0, -0.0, 1.0), 1e-12)
@example((3.0, -6.0, 3.0), 1e-12)    # exact double root 1
@example((1.0, -2.0, 1.0 + 1e-15), 1e-8)
def test_quadratic_merge_matches_cluster_merge(cba, tol):
    # the two-root merge of `aberth` returns, bit for bit and with the sign
    # of each zero part, what the general cluster merge returned
    coeffs = [complex(c) for c in cba]
    scale = max(abs(c) for c in coeffs)
    scaled = [c / scale for c in coeffs]
    ref = roots._merge_clusters(roots._quadratic_roots(*scaled),
                                10.0 * tol, (0.0, 0.0), None)
    assert _hex(aberth(list(cba), tol=tol)) == _hex(ref)

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


def test_aberth_rows_hands_a_non_finite_correction_to_aberth():
    """A start on a root of P' makes the first correction of the batch
    kernel divide by a zero derivative.  The kernel has no guard for it:
    the row is not settled, and `aberth_rows` returns `aberth`'s roots."""
    n = 8
    # every row starts on the circle of radius 0.8 * 2 * max |a_k/a_n|^...
    # = 1.6 (a_0 = a_n = 1, the others smaller), the first point at angle
    # _START_ANGLE; the middle terms of P'(z0) oppose n z0^(n-1), and a_1
    # cancels the rest exactly
    u = cmath.exp(1j * roots._START_ANGLE)
    z0 = 0.8 * (2.0 * np.ones(1)) * u
    c = n * 1.6 ** (n - 1) / sum(k * 1.6 ** (k - 1) for k in range(2, n))
    A = np.zeros((1, n + 1), dtype=complex)
    A[:, 0] = A[:, n] = 1
    for k in range(2, n):
        A[:, k] = -c * u ** (n - k)
    acc = n * A[:, n]
    for k in range(n - 1, 1, -1):
        acc = acc * z0 + k * A[:, k]
    A[:, 1] = -(acc * z0)
    assert roots._modulus(A).max() == 1.0  # A is its own scaled row
    assert horner([k * A[:, k] for k in range(1, n + 1)], z0)[0] == 0
    with np.errstate(divide="raise", invalid="ignore", over="ignore"):
        with pytest.raises(FloatingPointError):
            roots._aberth_sweeps(A, 1e-12)
    with np.errstate(all="ignore"):
        _, settled = roots._aberth_sweeps(A, 1e-12)
    assert not settled[0]
    assert _hex(aberth_rows(A)[0].tolist()) == _hex(aberth(A[0]))


def test_aberth_rows_rejects_bad_shapes():
    with pytest.raises(ValueError):
        aberth_rows(np.ones((3, 1)))
    with pytest.raises(ValueError):
        aberth_rows(np.ones(4))


# Phi_1, Phi_2, Phi_3, Phi_4, Phi_6, Phi_5, Phi_12 and Phi_7, ascending
CYCLOTOMIC = ([-1, 1], [1, 1], [1, 1, 1], [1, 0, 1], [1, -1, 1],
              [1, 1, 1, 1, 1], [1, 0, -1, 0, 1], [1] * 7)


def _root_factors(moduli):
    """Linear and quadratic factors whose roots have modulus in `moduli`."""
    return st.one_of(
        # x - s rho
        st.builds(lambda rho, s: [-s * rho, 1], moduli,
                  st.sampled_from([1, -1])),
        # (x - rho e^{i theta})(x - rho e^{-i theta}) with cos theta = c
        st.builds(lambda rho, c: [rho * rho, -2 * rho * c, 1], moduli,
                  st.fractions(-1, 1, max_denominator=64).filter(
                      lambda c: abs(c) < 1)))


# moduli m 10^e from 1e-6 to 9e6, so the Newton polygon has several
# edges; not 1, so that no root repeats a root of the cyclotomic factor
root_moduli = st.builds(lambda m, e: m * Fraction(10) ** e,
                        st.integers(1, 9), st.integers(-6, 6)).filter(
                            lambda rho: rho != 1)
root_factors = _root_factors(root_moduli)


def _assert_matches_mpmath(factors):
    """Every root of `complex_roots(P)`, P the product of `factors` (with
    simple roots), is reliable and lies within the first-order bound of
    the nearest mpmath root of a factor (as in
    test_aberth_rows_matches_aberth), and the other way round, so no merge
    swallows a distinct root."""
    import mpmath

    P = Poly.of([1])
    ref = []
    for f in factors:
        f = Poly.of(f)
        P = P * f
        with mpmath.workdps(40):
            exact = [mpmath.mpf(c.numerator) / c.denominator
                     for c in f.to_fraction_coeffs()]
            ref += [complex(r) for r in mpmath.polyroots(
                exact[::-1], maxsteps=500, extraprec=400)]
    roots = complex_roots(P)
    assert all(r.reliable for r in roots)
    got = [r.value for r in roots]
    scaled, _ = prescale(P)
    max_eta = 8 * P.degree() * sys.float_info.epsilon
    for z in got:
        r = min(ref, key=lambda r: abs(r - z))
        assert abs(r - z) <= 2 * max_eta * _condition(scaled, r)
    for r in ref:
        assert (min(abs(r - z) for z in got)
                <= 2 * max_eta * _condition(scaled, r))


@pytest.mark.skipif(importlib.util.find_spec("mpmath") is None,
                    reason="needs mpmath")
@settings(max_examples=60, deadline=None)
@given(st.lists(root_factors, min_size=1, max_size=5, unique_by=tuple),
       st.sampled_from(CYCLOTOMIC))
# roots of modulus 7e6, whose corrections level off at 0.9-2e-7, the
# rounding level there: an absolute stall floor of 1e-7 never stopped
@example([[49 * 10 ** 12, Fraction(196000000, 37), 1],
          [49 * 10 ** 12, Fraction(252000000, 47), 1]], [-1, 1])
def test_complex_roots_against_mpmath(factors, cyclotomic):
    # distinct factors, so every root is simple: repeated roots are the
    # known defect of `aberth` that this test does not cover
    _assert_matches_mpmath([cyclotomic] + factors)


@functools.lru_cache(maxsize=None)
def _cyclotomic(n):
    """Phi_n, ascending: x^n - 1 divided by every Phi_d with d | n, d < n."""
    q = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            b = _cyclotomic(d)  # monic: divide from the top down
            out = [0] * (len(q) - len(b) + 1)
            for k in range(len(out) - 1, -1, -1):
                out[k] = q[k + len(b) - 1]
                for i, c in enumerate(b):
                    q[k + i] -= out[k] * c
            q = out
    return tuple(q)


LEHMER = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]
# moduli m 10^e from 1/100 to 100, so the root moduli span at most 10^4
near_moduli = st.builds(lambda m, e: m * Fraction(10) ** e,
                        st.integers(1, 10), st.integers(-2, 1)).filter(
                            lambda rho: rho != 1)


def _degree(ns, factors):
    return sum(len(_cyclotomic(n)) - 1 for n in ns) + sum(
        len(f) - 1 for f in factors)


@pytest.mark.skipif(importlib.util.find_spec("mpmath") is None,
                    reason="needs mpmath")
@settings(max_examples=30, deadline=None)
@given(st.tuples(
    st.sets(st.integers(1, 30), min_size=1, max_size=4),
    st.lists(_root_factors(near_moduli), min_size=1, max_size=3,
             unique_by=tuple)).filter(lambda t: 8 <= _degree(*t) <= 40))
@example(({16, 24}, [LEHMER]))  # degree 26
# degree 38, a `mahler` item of the benchmark's large stratum
@example(({15, 16, 24}, [[2, 0, 5, 0, 1], LEHMER]))
# degree 76, above _EIGEN_MAX_DEGREE: the circles, though the radii are close
@example(({25, 27, 29}, [LEHMER]))
def test_eigenvalue_start_against_mpmath(case):
    """Products of distinct Phi_n (n <= 30) and factors with root moduli
    in [1/100, 100], degree 8-40: `aberth` starts from the companion
    eigenvalues wherever its Newton-polygon radii span at most 10^4 and
    the degree is at most _EIGEN_MAX_DEGREE, and the roots it returns pass
    the test of the circle start."""
    ns, factors = case
    factors = [list(_cyclotomic(n)) for n in sorted(ns)] + factors
    P = Poly.of([1])
    for f in factors:
        P = P * Poly.of(f)
    radii = [r for _, _, r in roots._newton_polygon(prescale(P)[0])]
    calls = []
    start = roots._companion_start
    roots._companion_start = lambda c: calls.append(c) or start(c)
    try:
        _assert_matches_mpmath(factors)
    finally:
        roots._companion_start = start
    assert len(calls) == (P.degree() <= roots._EIGEN_MAX_DEGREE
                          and max(radii) <= roots._EIGEN_MAX_SPAN * min(radii))


def test_wide_newton_polygon_keeps_circle_start():
    # Newton-polygon radii 1 and 10^20: companion eigenvalues are accurate
    # only to about eps 10^20, and started from them the iteration divided
    # by zero; the circles give log M = 20 log 10
    P = Poly.of([-(10 ** 20), 1]) * int_poly([1] + [0] * 7 + [1])
    log_m = sum(math.log(max(1.0, abs(r.value))) for r in complex_roots(P))
    assert abs(log_m - 20 * math.log(10)) <= 1e-14


def test_collinear_newton_polygon_vertex_is_one_edge():
    # log|a_2| = log 270 lies on the chord from log 324 to log 225 but
    # rounds just above it; two edges of radius sqrt(6/5) put the start
    # points on top of each other, and all four iterates met at one
    # point with residual 1.03 (log M 5.416 against 2 log 18 = 5.781)
    P = int_poly([-18, 15, -15]) * int_poly([-18, -18, -15])
    assert roots._newton_polygon(prescale(P)[0]) == [
        (0, 4, pytest.approx(math.sqrt(1.2)))]
    found = complex_roots(P)
    assert all(r.reliable for r in found)
    assert sorted((r.value for r in found),
                  key=lambda z: (z.real, z.imag)) == [
        pytest.approx(z, abs=1e-14) for z in sorted(
            [complex(-0.6, s * math.sqrt(0.84)) for s in (-1, 1)]
            + [complex(0.5, s * math.sqrt(0.95)) for s in (-1, 1)],
            key=lambda z: (z.real, z.imag))]


# complex parts of either sign, zero among them, at moduli from the
# subnormal range to near overflow, so some triples underflow once scaled
_part = st.one_of(st.just(0.0), st.just(-0.0),
                  st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3),
                  st.sampled_from((5e-324, 1e-300, 1e-150, 1e150, 1e300,
                                   -1e-300, -1e300)))
_wide_cplx = st.builds(complex, _part, _part)


def _solve_outcome(solve):
    """The roots in hex, or the error raised: a leading coefficient that
    underflows once scaled is refused, in `aberth` as in
    `solve_quadratic`."""
    try:
        return _hex(solve())
    except CoefficientRangeError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=400, deadline=None)
@given(st.tuples(_wide_cplx, _wide_cplx, _wide_cplx),
       st.sampled_from((1e-12, 1e-8)))
@example((1 + 0j, 0j, 0j), 1e-12)                       # a = 0: degree 0
@example((0j, 1 + 0j, 2 + 0j), 1e-12)                   # c = 0: a zero root
@example((1e300 + 0j, 0j, 1e-300 + 0j), 1e-12)         # a underflows
@example((5e-324j, 0j, 2j), 1e-12)                      # c underflows
@example((complex(1, -0.0), complex(-0.0, 0), 1 + 0j), 1e-12)  # -0.0 parts
@example((3 + 0j, -6 + 0j, 3 + 0j), 1e-12)              # a double root
def test_solve_quadratic_is_aberth_bit_for_bit(cba, tol):
    c, b, a = cba
    if a == 0 and b == 0 and c == 0:
        return
    if a == 0 and b == 0:  # a constant: both refuse it
        with pytest.raises(ValueError):
            roots.solve_quadratic(c, b, a, tol)
        return
    assert (_solve_outcome(lambda: roots.solve_quadratic(c, b, a, tol))
            == _solve_outcome(lambda: aberth([c, b, a], tol)))


@settings(max_examples=300, deadline=None)
@given(st.lists(_wide_cplx, min_size=2, max_size=6))
@example([5e-324, 0, 0, 2.0])    # the constant is zero once scaled
@example([1e-300, 1e-300j, 5e-324, 1e300])
def test_aberth_splits_zero_roots_after_scaling(coeffs):
    """The constant-side coefficients that are zero once divided by the
    largest modulus are zero roots, split off exactly, as `prescale`
    makes them: no division by zero, and no Newton polygon short of
    points."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        return
    scale = max(map(abs, coeffs))
    scaled = [complex(c) / scale for c in coeffs]
    if abs(scaled[-1]) < sys.float_info.min:
        with pytest.raises(CoefficientRangeError):
            aberth(coeffs)
        return
    try:
        found = aberth(coeffs)
    except RootFindingError:  # P or P' overflowed at an iterate
        return
    zeros = next(k for k, c in enumerate(scaled) if c != 0)
    assert len(found) == len(coeffs) - 1
    assert found[:zeros] == [0j] * zeros
    assert all(cmath.isfinite(z) for z in found)


@pytest.mark.parametrize("r0, r1", [
    (1.0 + 2j, 1.0 + 1j),                       # equal real parts
    (1.0 + 2j, 1.0000000000000002 + 1j),        # rounding to 12 decimals
    (1 + 5e-13 + 1j, 1.0 + 2j),                 # ties them on the real part
    (0.3 + 4e-12 + 1j, 0.3 + 2j),               # just at _KEY_GAP
    (0.3 + 4.1e-12 + 1j, 0.3 + 2j),             # just past it
    (12345.678 + 1j, 12345.678 - 3e-12 + 2j),   # doubles spaced 1.8e-12
    (-0.0 - 1j, 0.0 + 1j),
])
def test_merge_pair_orders_as_cluster_merge(r0, r1):
    for p, q in ((r0, r1), (r1, r0)):
        assert _hex(roots._merge_pair(p, q, 0.0)) == _hex(
            roots._merge_clusters([p, q], 0.0, (0.0, 0.0), None))


# parts that round to 12 decimals alike or apart: a few bases, -0.0
# among them, each moved by nothing, a few units in the last place, or
# amounts around 1e-12 and _KEY_GAP
_key_parts = st.builds(
    float.__add__,
    st.sampled_from([0.0, -0.0, 0.3, 1.0, -1.0, 12345.678]),
    st.sampled_from([0.0, -0.0, 2.2e-16, 5e-13, -5e-13, 1e-12, 3.9e-12,
                     4e-12, -4e-12, 4.1e-12, 1e-11]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_key_parts, _key_parts, st.booleans()),
                max_size=12))
@example([(1.0 - 1e-13, 5.0, False), (1.0, 0.0, False), (1.0, 1.0, False),
          (1.0 + 1e-13, -5.0, False)])
@example([(-0.0, 1.0, True), (0.0, 2.0, False), (0.0, 1.0, False)])
def test_key_sorted_orders_as_rounded_key(parts):
    """`_key_sorted` rounds only where neighbours in the exact order lie
    within _KEY_GAP; its order is sorted(key=_root_key)'s, equal keys in
    their input order included.  Each drawn point comes alone or with its
    conjugate.  In the first example neighbours with equal real parts
    and far imaginary parts sit between two real parts 2e-13 apart,
    which round alike, so their imaginary parts decide."""
    z = []
    for re, im, pair in parts:
        z.append(complex(re, im))
        if pair:
            z.append(complex(re, -im))
    want = sorted(z, key=roots._root_key)
    assert list(map(id, roots._key_sorted(z))) == list(map(id, want))


def _binomial_reference(a, b, n):
    """The n roots of a x^n + b to 40 digits: the n-th roots of -b/a."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        w = -mpmath.mpmathify(b) / mpmath.mpmathify(a)
        r = abs(w) ** (mpmath.mpf(1) / n)
        phase = mpmath.arg(w)
        return [r * mpmath.expjpi((phase / mpmath.pi + 2 * k) / n)
                for k in range(n)]


_big = st.integers(-10 ** 12, 10 ** 12).filter(bool)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 64),
       st.one_of(st.tuples(_big, _big),
                 st.tuples(st.fractions(max_denominator=10 ** 6),
                           st.fractions(max_denominator=10 ** 6)).filter(
                     lambda ab: ab[0] != 0 and ab[1] != 0)),
       st.integers(0, 2))
@example(3, (1, -8), 0)
@example(64, (1, 1), 1)
@example(7, (10 ** 12, -1), 0)
def test_binomial_roots_match_mpmath(n, ab, zeros):
    """a x^n + b (times x^zeros) against its roots to 40 digits: each root
    within 8 eps of the radius (the worst of 400 draws was 3.2 eps), the
    moduli within 2 eps (0.7), sorted, and no Aberth iteration."""
    mpmath = pytest.importorskip("mpmath")
    a, b = (Fraction(v) for v in ab)
    P = Poly.of([0] * zeros + [b] + [0] * (n - 1) + [a])
    calls = []
    newton = roots._newton_polygon
    roots._newton_polygon = lambda c: calls.append(c) or newton(c)
    try:
        found = complex_roots(P)
    finally:
        roots._newton_polygon = newton
    assert calls == []
    assert [r.value for r in found[:zeros]] == [0j] * zeros
    got = [r.value for r in found[zeros:]]
    assert got == sorted(got, key=roots._root_key)
    assert all(r.reliable for r in found)
    ref = _binomial_reference(float(a), float(b), n)
    radius = float(abs(ref[0]))
    eps = sys.float_info.epsilon
    for z in got:
        near = min(ref, key=lambda w: abs(mpmath.mpc(z) - w))
        assert float(abs(mpmath.mpc(z) - near)) <= 8 * eps * radius
        assert abs(abs(z) - radius) <= 2 * eps * radius


def test_binomial_roots_within_merge_radius_merge():
    # x^3 + 1e-40: roots of modulus 4.6e-14, all within 10 tol of each
    # other, merge to one centroid as the iteration's clusters do
    found = aberth([1e-40, 0, 0, 1])
    assert len(set(found)) == 1 and abs(found[0]) < 1e-25
    # x^3 - 8: three roots 2 sqrt(3) apart stay apart
    assert len(set(aberth([-8, 0, 0, 1]))) == 3


@st.composite
def squared_products(draw):
    """(factors, square): Phi_n (n <= 30), maybe Lehmer's polynomial, and
    a random integer factor of degree 1-5, of total degree 8-40 counting
    factors[square] twice when square is not None."""
    ns = draw(st.sets(st.integers(1, 30), max_size=3))
    factors = [list(_cyclotomic(n)) for n in sorted(ns)]
    if draw(st.booleans()):
        factors.append(LEHMER)
    factors.append(draw(st.lists(st.integers(-9, 9), min_size=2,
                                 max_size=6).filter(
                                     lambda c: c[0] != 0 and c[-1] != 0)))
    square = draw(st.none() | st.integers(0, len(factors) - 1))
    degree = sum(len(f) - 1 for f in factors) + (
        0 if square is None else len(factors[square]) - 1)
    assume(8 <= degree <= 40)
    return factors, square


@pytest.mark.skipif(importlib.util.find_spec("mpmath") is None,
                    reason="needs mpmath")
@settings(max_examples=60, deadline=None)
@given(squared_products())
@example(([list(_cyclotomic(15)), list(_cyclotomic(16)), LEHMER], None))
@example(([list(_cyclotomic(12)), LEHMER, [3, -1, 2]], 0))
# the Gauss-Seidel loop, which ran at these degrees before the numpy
# kernel, did not reach tol in _MAX_ITER sweeps on these two
@example(([list(_cyclotomic(5)), list(_cyclotomic(30)), LEHMER, [2, 7, 4]],
          1))
@example(([list(_cyclotomic(2)), list(_cyclotomic(5)), list(_cyclotomic(17)),
           [-3, -4, -3]], 1))
@example(([list(_cyclotomic(5)), list(_cyclotomic(7)), list(_cyclotomic(29)),
           [7, 9]], 3))
# the two members of the double root landed 1e-15 apart, and their discs,
# of radius about 20, merged all roots into one
@example(([list(_cyclotomic(3)), list(_cyclotomic(12)), [-5, 5, -5]], 0))
@example(([LEHMER, [2, -2, 2]], 1))
# the discs of the double root took in a simple root 0.14, 0.011 and
# 1.3e-4 away (Lehmer's 1.17628, so that three roots merged)
@example(([list(_cyclotomic(23)), LEHMER, [2, 9, 7]], 2))
@example(([list(_cyclotomic(5)), list(_cyclotomic(9)), list(_cyclotomic(18)),
           LEHMER, [-6, 0, -3, -8, -5]], 3))
@example(([LEHMER, [5, 4, -3, 6, -8]], 1))
# the polish left one member of the double root -0.5257761 outside the
# backward error, 2.5e-7 from its twin, with discs of 1.1e-5 and 1.1e-7
@example(([list(_cyclotomic(10)), list(_cyclotomic(12)),
           list(_cyclotomic(17)), LEHMER, [-5, -5, 7, -3]], 4))
def test_vector_kernel_against_mpmath(case):
    """Degree 8-40, the iteration of `_aberth_vector`: against 30-digit
    mpmath roots of the factors, each simple root is found once within
    1e-9 and reliable, and each root r of a squared factor twice, as one
    merged value.  That value is held to first order only: a member is
    kept where its backward error is at most max_eta, which at a double
    root allows an error up to sqrt(max_eta S / |c|), S = sum |a_k| |r|^k
    and c = P''(r) / 2 (2.5e-6 of a bound of 5.9e-6 at -7/9, for Phi_5
    Phi_7 Phi_29 (7 + 9x)^2)."""
    import mpmath

    factors, square = case
    refs = []
    for f in factors:
        with mpmath.workdps(30):
            refs.append([complex(r) for r in mpmath.polyroots(
                f[::-1], maxsteps=200, extraprec=200)])
    # a random factor may repeat a root or share one with another factor
    for i, ref in enumerate(refs):
        for j, other in enumerate(refs[i:], i):
            assume(all(abs(a - b) > 1e-6 for k, a in enumerate(ref)
                       for b in (ref[k + 1:] if i == j else other)))
    P = Poly.of([1])
    for f in factors + ([] if square is None else [factors[square]]):
        P = P * Poly.of(f)
    found = complex_roots(P)
    assert len(found) == P.degree()
    scaled, _ = prescale(P)
    max_eta = 8 * P.degree() * sys.float_info.epsilon
    claimed = 0
    for i, ref in enumerate(refs):
        double = i == square
        for r in ref:
            if double:
                size = sum(abs(c) * abs(r) ** k for k, c in enumerate(scaled))
                c = sum(k * (k - 1) / 2 * a * r ** (k - 2)
                        for k, a in enumerate(scaled) if k > 1)
                radius = math.sqrt(2 * max_eta * size / abs(c))
            else:
                radius = 1e-9
            near = [z for z in found if abs(z.value - r) <= radius]
            assert len(near) == 1 + double, (r, near)
            if double:
                assert near[0].value == near[1].value
            else:
                assert near[0].reliable
            claimed += len(near)
    assert claimed == len(found)


def test_vector_kernel_rows_do_not_depend_on_the_block(monkeypatch):
    """Degree 38 from the eigenvalues and degree 76 from the circles,
    solved with the default row block and with blocks of 3 rows: the
    roots agree bit for bit."""
    for factors in ([_cyclotomic(15), _cyclotomic(16), _cyclotomic(24),
                     [2, 0, 5, 0, 1], LEHMER],
                    [_cyclotomic(25), _cyclotomic(27), _cyclotomic(29),
                     LEHMER]):
        P = Poly.of([1])
        for f in factors:
            P = P * Poly.of(list(f))
        scaled, _ = prescale(P)
        n = P.degree()
        assert n // 3 + 1 < roots._BLOCK_ENTRIES // (n + 1)  # one block
        whole = aberth(scaled)
        with monkeypatch.context() as m:
            m.setattr(roots, "_BLOCK_ENTRIES", 3 * (n + 1))
            assert roots._row_blocks(n, n + 1)[0] == slice(0, 3)
            assert roots._row_blocks(n, n)[0] == slice(0, 3)
            assert _hex(aberth(scaled)) == _hex(whole)


def test_vector_kernel_guards_converge():
    """P = x^8 / 2 - x^4 + 1/8, whose P' vanishes at 1: started with an
    iterate at 1 and two iterates equal, the kernel nudges them apart and
    finds the eight roots, x^4 = 1 +- sqrt(3/4)."""
    coeffs = [0.125, 0, 0, 0, -1.0, 0, 0, 0, 0.5]
    assert horner([k * c for k, c in enumerate(coeffs)][1:], 1.0) == 0
    start = [1.0, 0.5 + 0.2j, 0.5 + 0.2j] + [
        cmath.rect(1.5, k) for k in range(5)]
    found = roots._aberth_vector([complex(c) for c in coeffs], start, 1e-12)
    ref = [cmath.rect(abs(w) ** 0.25, (cmath.phase(w) + 2 * math.pi * k) / 4)
           for w in (1 + math.sqrt(0.75), 1 - math.sqrt(0.75))
           for k in range(4)]
    assert len(found) == 8
    for r in ref:
        assert min(abs(z - r) for z in found) <= 1e-14


def test_vector_kernel_evaluates_past_an_overflowing_power():
    """x^8 + 10^300 x^4 + 10^300: at the roots of modulus 10^75, z^8
    overflows while P does not, so those iterates are evaluated by
    Horner, and the roots are found."""
    found = complex_roots(int_poly([10 ** 300, 0, 0, 0, 10 ** 300,
                                    0, 0, 0, 1]))
    assert all(r.reliable for r in found)
    moduli = sorted(abs(r.value) for r in found)
    assert moduli[:4] == [pytest.approx(1.0, abs=1e-15)] * 4
    assert moduli[4:] == [pytest.approx(1e75, rel=1e-15)] * 4


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=9, max_size=31).filter(
           lambda c: c[-1] != 0),
       st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8),
                          st.sampled_from([0.0, 0.125, 0.3])),
                min_size=8, max_size=30),
       st.sampled_from([0.0, 0.1, 0.25]))
def test_vector_helpers_match_the_scalar_references(coeffs, points, radius):
    """The numpy helpers of `_aberth_vector` on points of a quarter grid
    (coincident points, and gaps equal to the merge radius or to twice a
    disc, included) against the loops they replace: the
    merge exactly as `_merge_clusters`, the inclusion radii as
    `_inclusion_radii` up to the order of the distance product, and P, P'
    and the sums of 1/(z_j - z_k) within their rounding bounds."""
    eps = sys.float_info.epsilon
    coeffs = [complex(c) for c in coeffs]
    z = [complex(a / 4, b / 4) for a, b, _ in points]
    discs = [r for _, _, r in points]
    n = len(coeffs) - 1
    zv = np.array(z)
    assert (roots._merge_vector(zv, radius, np.array(discs), coeffs)
            == roots._merge_clusters(z, radius, discs, coeffs))
    radii = roots._inclusion_radii(coeffs, z, horner(coeffs, zv).tolist(),
                                   radius)
    for got, want in zip(roots._inclusion_radii_vector(coeffs, zv, radius),
                         radii):
        assert got == pytest.approx(want, rel=1e-13, abs=0)
    ad = np.zeros((n + 1, 2), dtype=complex)
    ad[:, 0] = coeffs
    ad[:-1, 1] = ad[1:, 0] * np.arange(1, n + 1)
    p, dp = roots._values(ad, zv)
    deriv = [k * c for k, c in enumerate(coeffs)][1:]
    for w, pw, dpw in zip(z, p, dp):
        for got, cs in ((pw, coeffs), (dpw, deriv)):
            size = horner([abs(c) for c in cs], abs(w))
            assert abs(got - horner(cs, w)) <= 8 * (n + 1) * eps * size
    sums = roots._reciprocal_sums(zv)
    for j, w in enumerate(z):
        terms = [1 / (w - v) if w != v else 1 / ((1 if k > j else -1)
                                                   * (1e-14 + 1e-14j))
                 for k, v in enumerate(z) if k != j]
        assert abs(sums[j] - sum(terms)) <= (2 * len(z) * eps
                                             * sum(map(abs, terms)))
