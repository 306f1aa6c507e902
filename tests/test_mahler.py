"""Mahler measures: Jensen route vs quadrature, M^+, two-variable oracle."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dynheights import mahler
from dynheights.errors import RootFindingError
from dynheights.mahler import (height_from_minpoly, log_mahler_plus,
                               mahler_via_quadrature, mahler_via_roots,
                               two_variable_grid_oracle)
from dynheights.polys import Poly, horner, int_poly, parse_poly
from dynheights.roots import complex_roots

# log M^+(1 - x) = m(1 - x - y) = m(1 + x + y) (substitute -x, -y), and
# Smyth (Bull. Austral. Math. Soc. 23, 1981) gives
# m(1 + x + y) = (3 sqrt(3) / (4 pi)) L(chi_-3, 2) with
# L(chi_-3, 2) = sum chi_-3(n) / n^2 = (zeta(2, 1/3) - zeta(2, 2/3)) / 9
#              = 0.78130241289648629686...
SMYTH = 0.32306594721945051409

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
    lhs = mahler_via_roots(int_poly(P.coeffs[::-1])).log_value
    assert abs(lhs - mahler_via_roots(P).log_value) <= 1e-8


@settings(max_examples=25, deadline=None)
@given(small_polys)
def test_cross_method(P):
    a = mahler_via_roots(P).log_value
    b = mahler_via_quadrature(P, nodes=2 ** 13).log_value
    assert abs(a - b) <= 1e-6


def test_quadrature_divides_out_near_circle_roots():
    # Lehmer's and cyclotomic factors put roots on and near |z| = 1; the
    # quadrature divides out their product and adds their Jensen values
    lehmer = int_poly([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
    for P in (lehmer * int_poly([1] * 5),
              lehmer * int_poly([1] * 7) * int_poly([-2, 1, 3]),
              int_poly([1] * 5) * int_poly([1, 0, -1, 0, 1])):
        assert abs(mahler_via_quadrature(P).log_value
                   - mahler_via_roots(P).log_value) <= 1e-13


def test_circle_grid_built_once_and_read_only():
    from dynheights.mahler import (_circle_average_log_abs, _float_coeffs,
                                   _offset_circle)
    P = int_poly([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]) * int_poly([-2, 1, 3])
    roots = [r.value for r in complex_roots(P)]
    coeffs, scale = _float_coeffs(P)
    first = _circle_average_log_abs(coeffs, math.log(scale), 4096, roots)
    grid = _offset_circle(4096)
    assert (_circle_average_log_abs(coeffs, math.log(scale), 4096,
                                    roots).hex() == first.hex())
    assert _offset_circle(4096) is grid
    assert grid.shape == (2048,)  # the upper half
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0] = 0.0


def test_quadrature_node_validation():
    with pytest.raises(ValueError):
        mahler_via_quadrature(int_poly([1, 1]), nodes=1000)
    with pytest.raises(ValueError):
        mahler_via_roots(int_poly([0]))


def test_log_mahler_plus_golden_value():
    for nodes in (16384, 4096):
        res = log_mahler_plus(parse_poly("1 - x"), nodes)
        err = abs(res.log_value - SMYTH)
        assert err <= 4e-16
        assert err <= res.error_estimate < 1e-14


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
    P = Poly.of([0, Fraction(1, 3)])
    assert log_mahler_plus(P).log_value == 0.0


def test_two_variable_identity_and_oracle():
    psi = parse_poly("1 - x")
    res = log_mahler_plus(psi)
    oracle = two_variable_grid_oracle(psi, 1024, 1024)
    assert abs(res.log_value - oracle) < 1e-3


def test_two_variable_oracle_huge_coefficients():
    # the oracle works in log space, so 10^400 does not overflow
    value = two_variable_grid_oracle(parse_poly("10^400*x^2 + 1"))
    assert math.isfinite(value)
    assert abs(value - 400 * math.log(10)) < 1e-3


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


def _mp_log_mahler_plus(coeffs):
    """Test-local reference for log M^+ at 30 digits: tanh-sinh quadrature
    of log|psi(e^{it})| over the arcs where |psi| > 1, split at the
    crossings, which are the unit-circle roots of z^m psi(z) psi(1/z) - z^m
    (real coefficients); log M(psi) from psi's roots when none cross."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        c = [mpmath.mpf(Fraction(a).numerator) / Fraction(a).denominator
             for a in coeffs]
        m = len(c) - 1
        q = [mpmath.mpf(0)] * (2 * m + 1)
        for i, a in enumerate(c):
            for j, b in enumerate(c):
                q[i - j + m] += a * b
        q[m] -= 1
        two_pi = 2 * mpmath.pi
        angles = sorted(mpmath.arg(r) % two_pi
                        for r in mpmath.polyroots(q[::-1], maxsteps=1000,
                                                  extraprec=100)
                        if abs(abs(r) - 1) < 1e-12)

        def f(t):
            return mpmath.log(abs(mpmath.polyval(c[::-1], mpmath.expj(t))))

        if not angles:
            if f(0) <= 0:
                return 0.0
            roots = mpmath.polyroots(c[::-1], maxsteps=1000, extraprec=100)
            return float(mpmath.log(abs(c[-1]))
                         + sum(mpmath.log(abs(r)) for r in roots
                               if abs(r) > 1))
        ends = angles + [angles[0] + two_pi]
        return float(sum(mpmath.quad(f, [a, b]) for a, b in zip(ends, ends[1:])
                         if f((a + b) / 2) > 0) / two_pi)


def _random_psi(rng):
    deg = rng.randint(1, 8)
    c = [rng.randint(-9, 9) for _ in range(deg + 1)]
    c[0], c[-1] = c[0] or 1, c[-1] or 1
    return c


@pytest.mark.parametrize("coeffs", [_random_psi(random.Random(seed))
                                    for seed in range(12)]
                         + [[Fraction(5, 4), Fraction(-7, 3), Fraction(1, 2)],
                            [Fraction(-1, 3), 2, Fraction(3, 7), -1]])
def test_log_mahler_plus_against_mpmath(coeffs):
    ref = _mp_log_mahler_plus(coeffs)
    res = log_mahler_plus(Poly.of(coeffs))
    err = abs(res.log_value - ref)
    assert err <= 1e-13
    assert err <= res.error_estimate


@pytest.mark.parametrize("text, expected", [
    ("2 - x", math.log(2)),  # |psi| = 1 only at the grid node 1
    ("x^2 + 2", math.log(2)),  # |psi| = 1 only at the grid nodes +-i
    ("3/2 - x/2", math.log(1.5)),  # rational, tangent at the node 1
    # crossing at the grid nodes +-i and tangent from below at -1:
    # (1/pi) integral_0^{pi/2} log(1 + 2 cos t) dt (mpmath, 40 digits)
    ("x^2 + x + 1", 0.38874787204109170685),
])
def test_log_mahler_plus_at_grid_nodes(text, expected):
    for nodes in (16384, 4096, 64, 16):
        res = log_mahler_plus(parse_poly(text), nodes)
        err = abs(res.log_value - expected)
        assert err <= res.error_estimate
        if nodes >= 4096:
            assert err <= 4e-16 * max(1.0, expected)


def test_gauss_legendre_constants():
    import numpy as np
    from dynheights.mahler import _GL_ORDER, _GL_W, _GL_X
    x, w = np.polynomial.legendre.leggauss(_GL_ORDER)
    half = _GL_ORDER // 2
    assert np.max(np.abs(np.array(_GL_X) - x[half:])) <= 4e-16
    assert np.max(np.abs(np.array(_GL_W) - w[half:])) <= 4e-16
    assert np.max(np.abs(x[:half] + x[half:][::-1])) <= 4e-16


def test_no_numpy_polynomial_import():
    # numpy.polynomial costs peak memory; the pinned constants avoid it
    code = ("import sys; from dynheights.mahler import log_mahler_plus; "
            "from dynheights.polys import parse_poly; "
            "log_mahler_plus(parse_poly('1 - x')); "
            "assert 'numpy.polynomial' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


# ---------------------------------------------------------------------------
# the upper-half grids against the whole circle

EPS = sys.float_info.epsilon
LEHMER = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]
CYCLOTOMIC = ([-1, 1], [1, 1], [1, 1, 1], [1, 0, 1], [1, 1, 1, 1, 1],
              [1, -1, 1], [1, 1, 1, 1, 1, 1, 1], [1, 0, 0, 0, 1],
              [1, -1, 1, -1, 1], [1, 0, -1, 0, 1])

real_polys = st.lists(st.integers(-20, 20), min_size=2, max_size=31).map(
    int_poly).filter(lambda P: P.degree() >= 1)
# distinct cyclotomic factors, Lehmer's polynomial or not, and a small
# random factor: roots on and near |z| = 1
circle_products = st.builds(
    lambda cyclo, lehmer, rest: math.prod(
        map(int_poly, cyclo + [LEHMER] * lehmer), start=int_poly(rest)),
    st.lists(st.sampled_from(CYCLOTOMIC), min_size=1, max_size=4,
             unique_by=tuple),
    st.booleans(),
    st.lists(st.integers(-6, 6), min_size=1, max_size=4).filter(
        lambda c: c[-1] != 0))


def _full_circle_average_log_abs(coeffs, log_scale, nodes, roots):
    """The circle average on the whole offset grid of `nodes` angles:
    log|P(z) / prod (z - a)| at every node z over the near roots a.
    Returns (average, near roots, grid)."""
    import numpy as np

    window = min(0.05, 64.0 / nodes)
    near = [a for a in roots if abs(abs(a) - 1.0) < window]
    z = np.exp(1j * ((np.arange(nodes) + 0.5) * (2 * math.pi / nodes)))
    vals = horner(coeffs, z)
    for a in near:
        vals = vals / (z - a)
    vals = np.log(np.maximum(np.abs(vals), 1e-300))
    exact = sum(max(0.0, math.log(abs(a))) for a in near)
    return float(np.mean(vals)) + exact + log_scale, near, z


@settings(max_examples=60, deadline=None)
@given(real_polys | circle_products,
       st.sampled_from([16, 64, 1024, 16384]))
@example(int_poly(LEHMER) * int_poly([1, 1, 1, 1, 1]), 16384)
def test_circle_average_matches_full_grid(P, nodes):
    import numpy as np

    try:
        roots = [r.value for r in complex_roots(P)]
    except RootFindingError:
        assume(False)  # a repeated root beyond the solver; not this test's
    coeffs, scale = mahler._float_coeffs(P)
    log_scale = math.log(scale)
    half = mahler._circle_average_log_abs(coeffs, log_scale, nodes, roots)
    full, near, z = _full_circle_average_log_abs(coeffs, log_scale, nodes,
                                                 roots)
    # first-order rounding of either route at a node: Horner's
    # (2n + 1) eps sum|a_k| relative to |P(z)|, eps for each near factor
    # and a few for the logarithm and the mean
    cond = np.mean(horner(np.abs(coeffs), 1.0) / np.abs(horner(coeffs, z)))
    n = P.degree()
    assert abs(half - full) <= 2 * EPS * ((2 * n + 1) * cond
                                          + 2 * len(near) + 4)


def _full_log_mahler_plus_value(g, log_abs, log_m):
    """log M^+ from g = log|psi| on the whole grid of len(g) angles from
    0: crossings bracketed on every cell (the last wraps round to 0),
    arcs between consecutive crossings, 2-split panels of about
    _GL_ORDER cells each."""
    import numpy as np

    h = 2 * math.pi / g.size
    theta = np.arange(g.size) * h
    after = np.roll(g, -1)
    cells = np.flatnonzero(g * after < 0.0)
    lo, hi, glo, ghi = theta[cells], theta[cells] + h, g[cells], after[cells]
    for _ in range(mahler._HALVINGS):
        mid = 0.5 * (lo + hi)
        gm = log_abs(mid)
        left = glo * gm > 0.0
        lo, glo = np.where(left, mid, lo), np.where(left, gm, glo)
        hi, ghi = np.where(left, hi, mid), np.where(left, ghi, gm)
    cross = np.sort(np.concatenate((lo + (hi - lo) * glo / (glo - ghi),
                                    theta[g == 0.0])))
    if not cross.size:
        return log_m(g.size) if g[0] > 0 else 0.0
    a, b = cross, np.append(cross[1:], cross[0] + 2 * math.pi)
    keep = log_abs(0.5 * (a + b)) > 0.0
    a, b = a[keep], b[keep]
    n = 2 * np.ceil((b - a) / (2 * mahler._GL_ORDER * h)).astype(int)
    width = np.repeat((b - a) / n, n)
    left = np.repeat(a, n) + width * (np.arange(n.sum())
                                      - np.repeat(np.cumsum(n) - n, n))
    x = np.array(mahler._GL_X + tuple(-t for t in mahler._GL_X))
    vals = np.maximum(log_abs(left[:, None] + width[:, None] * (1 + x) / 2),
                      0.0)
    w = np.array(mahler._GL_W + mahler._GL_W)
    return float(((vals @ w) * width).sum()) / 2 / (2 * math.pi)


def _full_log_mahler_plus(psi, nodes):
    """log M^+(psi) on the whole grid of `nodes` angles 2 pi k / nodes,
    with the fine panel rule of `log_mahler_plus`."""
    import numpy as np

    coeffs, scale = mahler._float_coeffs(psi)
    log_scale = math.log(scale)

    def log_abs(theta):
        vals = np.abs(horner(coeffs, np.exp(1j * theta)))
        return np.log(np.maximum(vals, 1e-300)) + log_scale

    g = log_abs(np.arange(nodes) * (2 * math.pi / nodes))
    if np.max(np.abs(g)) < 1e-14:
        return 0.0
    return _full_log_mahler_plus_value(g, log_abs, lambda n: (
        _full_circle_average_log_abs(
            coeffs, log_scale, n, [r.value for r in complex_roots(psi)])[0]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=2, max_size=9).map(int_poly)
       .filter(lambda P: P.degree() >= 1) | circle_products)
@example(parse_poly("1 - x"))
@example(parse_poly("x^2 + x + 1"))  # tangent at pi, crossings at +-i
@example(int_poly([3, 0, 0, 5]))     # no crossing
def test_log_mahler_plus_matches_full_grid(psi):
    # where the grid resolves every arc the two differ by rounding: of the
    # Gauss-Legendre sums (a few eps of the value) and of Horner where
    # |psi| >= 1 (2 m eps sum|a_k| at most).  Where it does not (crossings
    # closer than a cell, as on some circle products), each is off by up
    # to the node-doubling difference in its error estimate.
    try:
        res = log_mahler_plus(psi, 16384)
    except RootFindingError:
        assume(False)  # a repeated root beyond the solver; not this test's
    full = _full_log_mahler_plus(psi, 16384)
    norm = sum(abs(c) for c in mahler._float_coeffs(psi)[0])
    bound = 8 * EPS * (max(1.0, abs(full)) + psi.degree() * norm)
    assert abs(res.log_value - full) <= bound + res.error_estimate


def _spy_grids(monkeypatch):
    """Sizes of the arrays that mahler evaluates its polynomials on."""
    sizes = []
    real = mahler.horner

    def spy(coeffs, x):
        sizes.append(getattr(x, "size", 1))
        return real(coeffs, x)

    monkeypatch.setattr(mahler, "horner", spy)
    return sizes


@pytest.mark.parametrize("nodes", [16, 1024, 16384])
def test_quadratures_evaluate_upper_half(monkeypatch, nodes):
    lehmer = int_poly(LEHMER)
    sizes = _spy_grids(monkeypatch)
    mahler_via_quadrature(lehmer, nodes)
    assert sizes == [nodes // 2, nodes // 4]  # the fine and coarse grids
    sizes.clear()
    # no crossing: the grid, then log M on the fine and coarse grids
    log_mahler_plus(int_poly([3, 0, 0, 5]), nodes)
    assert sizes == [nodes // 2 + 1, nodes // 2, nodes // 4]
    sizes.clear()
    log_mahler_plus(parse_poly("1 - x"), nodes)
    assert sizes[0] == nodes // 2 + 1  # 0 ... pi, both ends included


def test_log_mahler_plus_crossings_next_to_pi():
    # |psi| = 1 at pi +- 1.0000000000417e-4, within one cell on either
    # side of pi even at 16384 nodes; the arc between them, where
    # |psi| < 1, moves log M^+ by 2.1e-13 (mpmath), so missing the two
    # crossings would cost that much.  The log of the prescale
    # 199999999/10^8 taken as log p - log q put the value 2.1e-15 from
    # mpmath, above the 1.5e-15 estimated at 16384 and 4096 nodes
    coeffs = [Fraction(199999999, 100000000), 1]
    ref = _mp_log_mahler_plus(coeffs)
    for nodes in (16384, 4096, 16):
        res = log_mahler_plus(Poly.of(coeffs), nodes)
        assert abs(res.log_value - ref) <= min(1e-14, res.error_estimate)
