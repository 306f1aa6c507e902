"""Height lower bounds, Dirichlet energies, scans and equidistribution."""

import cmath
import functools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dynheights import bounds, polys, roots
from dynheights.bounds import (EmpiricalMeasure, _log_mahler_quadratic,
                               _psi_image_coeffs, _psi_image_height_floor,
                               energy_arch_power,
                               energy_level_curve, pair_bound_power,
                               preimage_measure_stats,
                               roots_of_unity_height_sequence,
                               scan_exceptions, star_discrepancy_angles)
from dynheights.dynamics import DynSystem
from dynheights.errors import RootFindingError
from dynheights.mahler import (height_from_minpoly, log_mahler_plus,
                               mahler_via_roots)
from dynheights.polys import (HomogPair, Poly, horner, int_poly,
                              parse_poly, resultant_univ)
from dynheights.roots import aberth

PSI = parse_poly("1 - x")


def test_empirical_measure_weights():
    EmpiricalMeasure(((1 + 0j, 0.5), (-1 + 0j, 0.5)))
    with pytest.raises(ValueError):
        EmpiricalMeasure(((1 + 0j, 0.7), (-1 + 0j, 0.5)))


@pytest.mark.parametrize("n", [5 ** 7, 3 ** 12])
def test_empirical_measure_many_equal_weights(n):
    # a naive float sum of 5^7 weights 5^-7 is 1 + 1.0e-12
    EmpiricalMeasure(((0j, 1.0 / n),) * n)


def test_pair_bound_examples():
    assert abs(pair_bound_power(1, PSI) - 0.3230659472 / 2) < 1e-7
    assert pair_bound_power(1, parse_poly("x")) == 0.0
    assert abs(pair_bound_power(2, PSI) - 0.3230659472 / 3) < 1e-7


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 4),
       st.lists(st.integers(-9, 9), min_size=2, max_size=5).map(int_poly)
       .filter(lambda P: P.degree() >= 1))
def test_pair_bound_identity(ell, psi):
    m = psi.degree()
    lhs = pair_bound_power(ell, psi, nodes=4096) * (ell + m)
    rhs = log_mahler_plus(psi, nodes=4096).log_value
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
    # and the energy form: E = 2 l m M^+, bound = E / (2 (l+m) l m)
    E = energy_arch_power(ell, psi, nodes=4096)
    assert abs(E - 2 * ell * m * rhs) <= 1e-12 * max(1.0, E)


def test_energy_trivial_cases():
    assert energy_arch_power(3, parse_poly("x")) == 0.0
    assert energy_level_curve(parse_poly("x"), parse_poly("x"),
                              nodes=256) == 0.0


def test_level_curve_matches_closed_form():
    for ell in (1, 2, 3):
        phi = int_poly([0] * ell + [1])
        ref = energy_arch_power(ell, PSI)
        lc = energy_level_curve(phi, PSI, nodes=4096)
        assert abs(lc - ref) <= 1e-3 * ref


def test_level_curve_non_power_map():
    # phi = x^2 - 2: finite positive energy, no closed form asserted
    val = energy_level_curve(parse_poly("x^2 - 2"), PSI, nodes=1024)
    assert val > 0.0 and math.isfinite(val)


def _energy_node_by_node(phi, psi, nodes):
    """The level-curve sum with one scalar `aberth` solve per node."""
    total = 0.0
    for k in range(nodes):
        coeffs = [complex(c) for c in phi.to_fraction_coeffs()]
        coeffs[0] -= cmath.exp(1j * (k + 0.5) * 2 * math.pi / nodes)
        for z in aberth(coeffs, tol=1e-11):
            total += math.log(max(abs(psi(z)), 1.0))
    return 2.0 * psi.degree() * total / nodes


@pytest.mark.parametrize("phi, psi", [
    ("x - 1/2", "3*x^2 - 1"), ("x^2 - 2", "1 - x"), ("-(x + 1)^2", "x^3 + 2"),
    ("x^3 - 2*x + 1", "2*x - 1"), ("(x - 1)^4", "x^2 - x - 1"),
    ("x^5 + 3*x^2 - x + 7", "x + 1")])
def test_level_curve_matches_node_by_node(phi, psi):
    phi, psi = parse_poly(phi), parse_poly(psi)
    ref = _energy_node_by_node(phi, psi, 600)
    assert abs(energy_level_curve(phi, psi, nodes=600) - ref) <= 1e-13 * ref


LEHMER = int_poly([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
CYCLO_PRODUCT = int_poly([1, 1, 1, 1, 1]) * int_poly([1, 0, -1, 0, 1])


def _energy_full_grid(phi, psi, nodes):
    """(energy, rounding) of the level-curve sum with every node theta_k =
    (k + 1/2) 2 pi / nodes, k < nodes, solved, mirror rows included, all
    in one `aberth_rows` call.

    rounding bounds the error of each log max(|psi(z)|, 1), summed with
    the quadrature weights 2 m / nodes.  That log moves by at most the
    error in |psi(z)| over max(|psi(z)|, 1).  Horner's rounding adds at
    most 2 m eps sum_k |b_k| |z|^k to |psi(z)| (Higham, Accuracy and
    Stability of Numerical Algorithms, 5.1).  The preimage z itself is a
    root of phi - e^(i theta) to a backward error of the same form,
    2 l eps sum_k |a_k| |z|^k, and moves psi by |psi'(z) / phi'(z)| times
    that: a mirror row's roots are those of its own, independently
    rounded e^(i theta), not the conjugates of the upper row's."""
    l, m = phi.degree(), psi.degree()
    phic = np.array([complex(c) for c in phi.to_fraction_coeffs()])
    psi_s, scale = roots.prescale(psi)
    theta = (np.arange(nodes) + 0.5) * (2 * math.pi / nodes)
    rows = np.tile(phic, (nodes, 1))
    rows[:, 0] -= np.exp(1j * theta)
    pre = roots.aberth_rows(rows, tol=1e-11)
    assert not np.isnan(pre).any()
    mod = np.abs(polys.horner(np.array(psi_s, dtype=complex), pre))
    mod *= float(scale)
    total = float(np.log(np.maximum(mod, 1.0)).sum())
    psic = np.array([complex(c) for c in psi.to_fraction_coeffs()])
    size = np.abs(pre)
    d_psi = np.abs(polys.horner(psic[1:] * np.arange(1, m + 1), pre))
    d_phi = np.abs(polys.horner(phic[1:] * np.arange(1, l + 1), pre))
    moved = (2 * m * EPS * polys.horner(np.abs(psic), size)
             + d_psi / d_phi * 2 * l * EPS * polys.horner(np.abs(phic), size))
    rounding = float((moved / np.maximum(mod, 1.0)).sum())
    return 2.0 * m * total / nodes, 2.0 * m * rounding / nodes


def _critical_values_off_circle(phi):
    """True when no critical value phi(c), phi'(c) = 0, lies within 0.01
    of |w| = 1: then every phi - e^{i theta} has well separated roots."""
    deriv = [k * float(c) for k, c in enumerate(phi.to_fraction_coeffs())][1:]
    crit = np.roots(deriv[::-1]) if len(deriv) > 1 else []
    return all(abs(abs(phi(complex(c))) - 1.0) > 0.01 for c in crit)


small_int_poly = st.lists(st.integers(-9, 9), min_size=2, max_size=5).map(
    int_poly).filter(lambda P: P.degree() >= 1)


@settings(max_examples=40, deadline=None)
@given(small_int_poly.filter(_critical_values_off_circle),
       small_int_poly | st.sampled_from([LEHMER, CYCLO_PRODUCT]),
       st.sampled_from([64, 65, 600, 601]))
@example(parse_poly("x^2"), LEHMER, 65)
@example(parse_poly("-(x + 1)^4"), CYCLO_PRODUCT, 601)
# psi = phi: every log|psi| on |phi| = 1 is rounding noise, 2.0e-14 in all
@example(parse_poly("x^4 - 5*x^3 + x^2"), parse_poly("x^4 - 5*x^3 + x^2"), 64)
def test_level_curve_matches_full_grid(phi, psi, nodes):
    # the errors of the logs add in absolute terms: each side is off by at
    # most the full grid's rounding bound (the upper rows count twice on
    # the level-curve side), and each sum of up to l nodes nonnegative
    # terms by l nodes eps of the total
    ref, rounding = _energy_full_grid(phi, psi, nodes)
    got = energy_level_curve(phi, psi, nodes=nodes)
    summing = phi.degree() * nodes * EPS * abs(ref)
    assert abs(got - ref) <= 2 * (rounding + summing)


@pytest.mark.parametrize("nodes", [64, 65, 600, 601, 4096, 4097])
def test_level_curve_solves_upper_rows(monkeypatch, nodes):
    blocks = []
    solve = bounds.aberth_rows

    def spy(rows, tol):
        blocks.append(len(rows))
        return solve(rows, tol)

    monkeypatch.setattr(bounds, "aberth_rows", spy)
    energy_level_curve(parse_poly("x^3 - 2*x + 1"), PSI, nodes=nodes)
    assert sum(blocks) == (nodes + 1) // 2  # k < nodes // 2, and pi if odd
    assert max(blocks) <= bounds._BLOCK_ROWS


def test_level_curve_solves_in_blocks(monkeypatch):
    calls = []
    scalar = roots.aberth

    def spy(*args, **kwargs):
        calls.append(args)
        return scalar(*args, **kwargs)

    monkeypatch.setattr(roots, "aberth", spy)
    monkeypatch.setattr(bounds, "aberth", spy)
    for phi in ("x^2 - 2", "x^3 - 2*x + 1", "3*x^4 + x - 5"):
        energy_level_curve(parse_poly(phi), PSI, nodes=2048)
    assert len(calls) <= 3


def test_level_curve_retries_then_skips(monkeypatch):
    phi, nodes = parse_poly("x^2 - 2"), 1024
    ref = energy_level_curve(phi, PSI, nodes=nodes)
    solve = bounds.aberth_rows

    def failing(rows_to_fail):
        def solve_some(rows, tol):
            out = solve(rows, tol)
            out[rows_to_fail(len(rows))] = np.nan
            return out
        return solve_some

    # the 512 upper rows are one block (n == 512), and a retry solves only
    # the rows that failed.  Row 0 fails, then solves at the half step
    # (skipping it and its mirror instead would move the value by 4.8e-4)
    monkeypatch.setattr(bounds, "aberth_rows", failing(
        lambda n: slice(0, 1) if n == 512 else slice(0, 0)))
    assert abs(energy_level_curve(phi, PSI, nodes=nodes) - ref) <= 1e-6 * ref
    # rows 256-260 fail at the half step too: they and their mirrors are
    # 10 of 1024 nodes, exactly 1%
    monkeypatch.setattr(bounds, "aberth_rows", failing(
        lambda n: slice(256, 261) if n == 512 else slice(None)))
    assert abs(energy_level_curve(phi, PSI, nodes=nodes) - ref) <= 1e-3 * ref
    # rows 256-261: 12 nodes skipped, more than 1%
    monkeypatch.setattr(bounds, "aberth_rows", failing(
        lambda n: slice(256, 262) if n == 512 else slice(None)))
    with pytest.raises(RootFindingError, match="12 of 1024"):
        energy_level_curve(phi, PSI, nodes=nodes)


def test_scan_threshold_zero_empty():
    assert scan_exceptions(1, PSI, 0.0, 2.0) == []


def test_scan_rational_points():
    recs = scan_exceptions(1, PSI, 0.16, 2.0)
    assert {r["point"] for r in recs} == {"0", "1", "inf"}
    assert all(0.0 <= r["value"] < 0.16 for r in recs)


def test_scan_with_quadratics_is_zagier_set():
    recs = scan_exceptions(1, PSI, 0.2406, 3.0, include_quadratic=True)
    assert len(recs) == 5
    quads = [r for r in recs if r["kind"] == "quadratic"]
    assert len(quads) == 2
    assert all(r["minpoly"] == "x^2 - x + 1" for r in quads)


def test_scan_stable_in_height():
    small = scan_exceptions(1, PSI, 0.16, 3.0)
    large = scan_exceptions(1, PSI, 0.16, 4.0)
    assert [r["point"] for r in small] == [r["point"] for r in large]


def test_roots_of_unity_heights():
    assert roots_of_unity_height_sequence(parse_poly("x"), 37) == 0.0
    # |1 - e^{i theta}| = 2 sin(theta/2); primitive 12th roots
    expected = sum(max(0.0, math.log(2 * math.sin(math.pi * k / 12)))
                   for k in (1, 5, 7, 11)) / 4
    assert abs(roots_of_unity_height_sequence(PSI, 12) - expected) < 1e-12


def test_roots_of_unity_convergence_envelope():
    target = log_mahler_plus(PSI).log_value
    for n, tol in ((101, 0.05), (211, 0.03), (401, 0.02), (499, 0.02)):
        h = roots_of_unity_height_sequence(PSI, n)
        assert abs(h - target) <= tol


def test_star_discrepancy_equally_spaced():
    for n in (4, 8, 16):
        angles = [2 * math.pi * k / n for k in range(n)]
        assert abs(star_discrepancy_angles(angles) - 1.0 / n) < 1e-12
        # shifting off the endpoints halves the discrepancy
        offset = [a + math.pi / n for a in angles]
        assert abs(star_discrepancy_angles(offset) - 0.5 / n) < 1e-12
    assert star_discrepancy_angles([0.0]) == 1.0


def test_preimage_stats_power_map():
    S = DynSystem.from_expr("x^2")
    mu, moments, disc = preimage_measure_stats(S, Fraction(1), 3, 8)
    assert len(mu.points) == 8
    assert max(abs(m) for m in moments[:7]) <= 1e-12
    assert abs(moments[7] - 1.0) <= 1e-12
    assert abs(disc - 1.0 / 8) <= 1e-12
    # all preimages of a unit-modulus target stay on the circle
    assert max(abs(abs(z) - 1.0) for z, _ in mu.points) <= 1e-10


def test_preimage_stats_chebyshev_like():
    S = DynSystem.from_expr("x^2 - 2")
    mu, moments, disc = preimage_measure_stats(S, Fraction(0), 6, 4)
    assert len(mu.points) == 64
    vals = [z for z, _ in mu.points]
    assert all(abs(z.imag) < 1e-6 for z in vals)
    assert all(-2.0 - 1e-6 <= z.real <= 2.0 + 1e-6 for z in vals)
    assert 0.0 <= disc <= 1.0


def test_preimage_stats_validation():
    S = DynSystem.from_expr("x^2")
    with pytest.raises(ValueError):
        preimage_measure_stats(S, Fraction(1), 0, 4)


def test_preimage_stats_builds_no_iterate(monkeypatch):
    S = DynSystem.from_expr("x^2 - 1")
    calls = []

    def spy(name):
        def fail(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return fail

    monkeypatch.setattr(HomogPair, "compose", spy("compose"))
    monkeypatch.setattr(polys, "resultant", spy("resultant"))
    mu, _, _ = preimage_measure_stats(S, Fraction(1, 2), 6, 4)
    assert len(mu.points) == 64
    assert calls == []


def _minpoly_of_psi_image(a, b, c, psi):
    """The image polynomial of the scan (`_psi_image_coeffs`) as a Poly."""
    return Poly.of(_psi_image_coeffs(a, b, c, psi.coeffs, psi.den))


def _primitive(P):
    """P's integer coefficients divided by their gcd, sign kept."""
    g = math.gcd(*P.coeffs)
    return Poly.of([k // g for k in P.coeffs])


def _minpoly_by_resultant(a, b, c, psi):
    """Res_x(a x^2 + b x + c, psi(x) - y) interpolated in y at 0, 1, 2."""
    P = int_poly([c, b, a])
    vals = []
    for y0 in (0, 1, 2):
        shifted = list(psi.to_fraction_coeffs())
        shifted[0] -= y0
        vals.append(Fraction(resultant_univ(P, Poly.of(shifted))))
    v0, v1, v2 = vals
    c2 = (v0 - 2 * v1 + v2) / 2
    return _primitive(Poly.of([v0, v1 - v0 - c2, c2]))


def test_psi_image_minpoly_matches_resultant_route():
    psis = [parse_poly(t) for t in ("1 - x", "x^2 + 2*x + 1", "3*x^2 - x + 2",
                                     "x^3 - 2", "x^4 + x - 1", "-5*x^5 + x^2",
                                     "x/2 - 1/3", "2*x^3/5 + x^2 - 7")]
    for psi in psis:
        for a in range(1, 4):
            for b in range(-4, 5):
                for c in range(-3, 4):
                    if c == 0:
                        continue
                    Q = _minpoly_of_psi_image(a, b, c, psi)
                    assert math.gcd(*Q.coeffs) == 1 and Q.leading() > 0
                    assert Q == _minpoly_by_resultant(a, b, c, psi), (
                        a, b, c, psi)
    # Bareiss floor-divided Fractions and gave y^2 - 1 here
    assert (_minpoly_by_resultant(1, -4, -3, parse_poly("x/2 - 1/3"))
            == int_poly([-47, -48, 36]))


EPS = 2.0 ** -52


def _log_mahler_quadratic_decimal(a, b, c):
    """log M(a x^2 + b x + c) to 40 digits from its roots, in decimal."""
    with localcontext() as ctx:
        ctx.prec = 40
        A = Decimal(a)
        disc = b * b - 4 * a * c
        if disc < 0:
            moduli = [(Decimal(c) / A).sqrt()] * 2  # conjugate roots
        else:
            s = Decimal(disc).sqrt()
            moduli = [abs((-b + s) / (2 * A)), abs((-b - s) / (2 * A))]
        return float(abs(A).ln() + sum(r.ln() for r in moduli if r > 1))


coefficient = st.integers(-10 ** 4, 10 ** 4)


@settings(max_examples=300, deadline=None)
@given(coefficient.filter(bool), coefficient, coefficient)
@example(9999, -20001, 10002)   # real roots 1.0003 and 1, next to a double
@example(10000, -20001, 10001)  # roots 1.0001 and 1: roots route off 1.7e-12
@example(1, 0, -7)
def test_log_mahler_quadratic_closed_form(a, b, c):
    closed = _log_mahler_quadratic(a, b, c)
    ref = _log_mahler_quadratic_decimal(a, b, c)
    assert abs(closed - ref) <= 4 * EPS * max(1.0, abs(ref))  # a few ulps
    via_roots = mahler_via_roots(int_poly([c, b, a])).log_value
    # mahler_via_roots rounds the coefficients when it scales them; near a
    # double real root that moves the larger root by up to
    # eps (b^2 + 4|ac|) / (sqrt(disc) (|b| + sqrt(disc))) relative
    disc = b * b - 4 * a * c
    slack = 0.0
    if disc > 0:
        s = math.sqrt(disc)
        slack = EPS * (b * b + 4 * abs(a * c)) / (s * (abs(b) + s))
    assert abs(closed - via_roots) <= 1e-14 + slack


def test_log_mahler_quadratic_exact_cases():
    # conjugate pairs: log max(|a|, |c|)
    assert _log_mahler_quadratic(1, 1, 1) == 0.0
    assert _log_mahler_quadratic(3, 2, 5) == math.log(5)
    assert _log_mahler_quadratic(-7, 1, -2) == math.log(7)
    # a zero root: log max(|a|, |b|)
    assert _log_mahler_quadratic(2, -7, 0) == math.log(7)
    assert _log_mahler_quadratic(5, 3, 0) == math.log(5)
    # double roots: (3x - 2)^2, (2x + 3)^2, (x - 1)^2
    assert _log_mahler_quadratic(9, -12, 4) == math.log(9)
    assert _log_mahler_quadratic(4, 12, 9) == math.log(9)
    assert _log_mahler_quadratic(1, -2, 1) == 0.0
    # x^2 - x - 1: the golden ratio
    assert abs(_log_mahler_quadratic(1, -1, -1)
               - math.log((1 + math.sqrt(5)) / 2)) <= 1e-16
    # beyond double range: (10^400 x - 1)(x - 10^400) has log M = 800 log 10
    big = 10 ** 400
    assert abs(_log_mahler_quadratic(big, -(big * big + 1), big)
               - 800 * math.log(10)) <= 1e-12


def _minpoly_by_trace_norm(a, b, c, psi):
    """The image polynomial in Fraction arithmetic: psi = u + v x modulo
    a x^2 + b x + c, trace T = 2u + v s and norm N = u^2 + u v s + v^2 p
    (s, p the sum and product of the roots), and y^2 - T y + N made
    primitive."""
    s, p = Fraction(-b, a), Fraction(c, a)
    u = v = Fraction(0)
    for cf in reversed(psi.to_fraction_coeffs()):
        u, v = cf - v * p, u + v * s
    trace = 2 * u + v * s
    norm = u * u + u * v * s + v * v * p
    return _primitive(Poly.of([norm, -trace, 1]))


fractional_psi = st.lists(st.fractions(-50, 50, max_denominator=12),
                          min_size=2, max_size=7).map(Poly.of).filter(
                              lambda P: P.degree() >= 1)
small = st.integers(-20, 20)


@settings(max_examples=300, deadline=None)
@given(small.filter(bool), small, small, fractional_psi)
def test_psi_image_integer_route_matches_fractions(a, b, c, psi):
    Q = _minpoly_of_psi_image(a, b, c, psi)
    assert Q == _minpoly_by_trace_norm(a, b, c, psi)
    assert math.gcd(*Q.coeffs) == 1 and Q.leading() > 0


@st.composite
def quadratics_and_psis(draw):
    """(a, b, c, psi): a x^2 + b x + c irreducible, psi with coefficients
    up to 10^6 over denominators up to 1000; half the time psi is the
    minimal polynomial times such a psi plus a constant, often a small
    integer, so psi(x) is rational of small height and its float value
    cancels."""
    a, b, c = draw(st.integers(1, 60)), draw(st.integers(-60, 60)), \
        draw(st.integers(-60, 60).filter(bool))
    disc = b * b - 4 * a * c
    assume(disc < 0 or math.isqrt(disc) ** 2 != disc)
    coeff = st.fractions(-10 ** 6, 10 ** 6, max_denominator=1000)
    psi = Poly.of(draw(st.lists(coeff, min_size=2, max_size=6)))
    if draw(st.booleans()):
        psi = int_poly([c, b, a]) * psi + Poly.of(
            [draw(st.integers(-3, 3) | coeff)])
    assume(psi.degree() >= 1)
    return a, b, c, psi


@settings(max_examples=500, deadline=None)
@given(quadratics_and_psis())
def test_psi_image_height_floor_below_exact_height(case):
    """The float floor never exceeds h(psi(x)) from the exact image
    polynomial (up to the closed form's own rounding)."""
    a, b, c, psi = case
    cf = [k / psi.den for k in psi.coeffs]
    floor = _psi_image_height_floor(cf, sum(abs(k) for k in cf), a, b, c,
                                    b * b - 4 * a * c)
    c2, b2, a2 = _psi_image_coeffs(a, b, c, psi.coeffs, psi.den)
    exact = _log_mahler_quadratic(a2, b2, c2) / 2
    assert 0.0 <= floor <= exact * (1 + 1e-13) + 1e-13


def test_psi_image_height_floor_skips_image_polynomials(monkeypatch):
    """The floor drops most candidates before their image polynomial is
    built, and the records stay those of the exact test alone."""
    psi = parse_poly("x^2/2 - 3*x + 1/3")
    calls = []
    image = bounds._psi_image_coeffs
    monkeypatch.setattr(bounds, "_psi_image_coeffs",
                        lambda *args: calls.append(1) or image(*args))
    with_floor = scan_exceptions(2, psi, 3.0, 3.0, include_quadratic=True)
    n_floor = len(calls)
    monkeypatch.setattr(bounds, "_psi_image_height_floor",
                        lambda *args: 0.0)
    calls.clear()
    exact_only = scan_exceptions(2, psi, 3.0, 3.0, include_quadratic=True)
    assert with_floor == exact_only
    assert any(r["kind"] == "quadratic" for r in with_floor)
    assert n_floor < len(calls) / 2


def test_quadratic_scan_of_psi_beyond_doubles():
    """psi's coefficients overflow a float, so no floor is taken and
    every candidate gets the exact test; only 0 and inf have psi(x) of
    small height."""
    out = scan_exceptions(1, parse_poly("10^400*x^2 + 1"), 3.0, 2.0,
                          include_quadratic=True)
    assert out == [{"kind": "rational", "point": "0", "value": 0.0},
                   {"kind": "rational", "point": "inf", "value": 0.0}]


@pytest.mark.parametrize("ell, psi, threshold, H, abc", [
    # |x|^400 at a root of x^2 - 7 x + 1 is beyond doubles
    (1, "x^400", 1.0, 3.0, (1, -7, 1)),
    # psi(x) itself overflows at the golden ratio, but its h is 709
    (10000, "10^308*x^2", 4000.0, 3.0, (1, -1, -1)),
])
def test_psi_image_height_floor_past_float_range(monkeypatch, ell, psi,
                                                 threshold, H, abc):
    """A value or allowance that overflows a float gives the floor no
    term, never an exception or an infinite floor, so the records stay
    those of the exact test."""
    psi = parse_poly(psi)
    a, b, c = abc
    cf = [k / psi.den for k in psi.coeffs]
    floor = _psi_image_height_floor(cf, sum(abs(k) for k in cf), a, b, c,
                                    b * b - 4 * a * c)
    c2, b2, a2 = _psi_image_coeffs(a, b, c, psi.coeffs, psi.den)
    assert 0.0 <= floor <= _log_mahler_quadratic(a2, b2, c2) / 2
    with_floor = scan_exceptions(ell, psi, threshold, H,
                                 include_quadratic=True)
    monkeypatch.setattr(bounds, "_psi_image_height_floor",
                        lambda *args: 0.0)
    assert with_floor == scan_exceptions(ell, psi, threshold, H,
                                         include_quadratic=True)
    assert any(r["kind"] == "quadratic" for r in with_floor)


@functools.lru_cache(maxsize=None)
def _reference_height(a, b, c):
    """h(x) by root finding, and by the closed form."""
    return (height_from_minpoly(int_poly([c, b, a])),
            _log_mahler_quadratic(a, b, c) / 2)


@functools.lru_cache(maxsize=None)
def _reference_image_height(a, b, c, psi):
    """h(psi(x)) of the Fraction image polynomial by root finding, and by
    the closed form."""
    image = _minpoly_by_trace_norm(a, b, c, psi)
    c2, b2, a2 = (int(k) for k in image.coeffs)
    return (height_from_minpoly(image),
            _log_mahler_quadratic(a2, b2, c2) / 2)


def _below(value, closed, threshold):
    """value < threshold, where value comes by root finding.  Within
    1e-13 of the threshold, where the two routes can round a tie (such as
    h(x) = log(3)/2 against threshold log(3)/2) to opposite sides, the
    closed-form value decides."""
    if abs(value - threshold) <= 1e-13:
        return closed < threshold
    return value < threshold


def _quadratic_scan_reference(ell, psi, threshold, H):
    """The quadratic records of `scan_exceptions` as the root-finding
    route computed them: `height_from_minpoly` of the minimal polynomial
    and of the Fraction image polynomial for every point of the full box
    (not cut to the Mahler bound), memoized across thresholds; ties are
    settled by `_below`."""
    bound = int(math.floor(math.exp(H) + 1e-12))
    ac_max = min(bound, int(math.exp(2.0 * threshold / ell)) + 1)
    b_max = min(bound, int(2.0 * math.exp(2.0 * threshold / ell)) + 1)
    out = []
    for a in range(1, ac_max + 1):
        for c in range(-ac_max, ac_max + 1):
            for b in range(-b_max, b_max + 1):
                if math.gcd(math.gcd(a, abs(b)), abs(c)) != 1:
                    continue
                disc = b * b - 4 * a * c
                if disc == 0 or math.isqrt(max(disc, 0)) ** 2 == disc:
                    continue
                minpoly = int_poly([c, b, a])
                hx, hx_closed = _reference_height(a, b, c)
                if not _below(ell * hx, ell * hx_closed, threshold):
                    continue
                himg, himg_closed = _reference_image_height(a, b, c, psi)
                value = ell * hx + himg
                if _below(value, ell * hx_closed + himg_closed, threshold):
                    for r in roots.complex_roots(minpoly):
                        out.append({
                            "kind": "quadratic",
                            "point": f"root of {minpoly.to_str()} "
                                     f"near {r.re:.6f}{r.im:+.6f}i",
                            "minpoly": minpoly.to_str(),
                            "value": value,
                        })
    return out


def _box_edge(k, step):
    """threshold(l) = l log(k) / 2, moved `step` floats: T = e^(2 threshold
    / l) is then the integer k, where the cut box's bounds a, |c| <= T and
    |b| <= T + ac/T fall on integers."""
    def threshold(ell):
        t = ell * math.log(k) / 2
        return math.nextafter(t, step * math.inf) if step else t
    return threshold


# (psi, threshold(l)): each threshold lets some quadratic points in
SCAN_CASES = [pytest.param(text, lambda ell, level=level: level * ell,
                           id=f"{text}-{level}")
              for text, level in (("1 - x", 0.8), ("3*x + 2", 0.8),
                                  ("x^2 + 2*x + 1", 0.8), ("x/2 - 1/3", 0.8),
                                  ("3*x^3 - x/5 + 7/4", 1.2))]
SCAN_CASES += [pytest.param(text, _box_edge(k, step),
                            id=f"{text}-T={k}{step:+d}")
               for text in ("x/2 + 1/2", "x^2 + x - 1") for k in (3, 7, 8)
               for step in (-1, 0, 1)]


@pytest.mark.parametrize("text, threshold_of", SCAN_CASES)
def test_quadratic_scan_matches_root_finding_route(text, threshold_of):
    psi = parse_poly(text)
    found = 0
    for ell in (1, 2, 3):
        for H in (2.0, 3.0):
            threshold = threshold_of(ell)
            got = [r for r in scan_exceptions(ell, psi, threshold, H,
                                              include_quadratic=True)
                   if r["kind"] == "quadratic"]
            ref = _quadratic_scan_reference(ell, psi, threshold, H)
            assert len(got) == len(ref), (ell, H)
            for g, r in zip(got, ref):
                assert ({k: v for k, v in g.items() if k != "value"}
                        == {k: v for k, v in r.items() if k != "value"})
                assert abs(g["value"] - r["value"]) <= 1e-13
            found += len(got)
    assert found > 0


@pytest.mark.parametrize("k", [3, 7, 8])
@pytest.mark.parametrize("step", [-1, 0, 1])
def test_quadratic_box_holds_every_candidate_below_threshold(k, step):
    # every candidate of the uncut box (a, |c| <= T + 1, |b| <= 2 T + 1)
    # with l h(x) < threshold has |b| <= bm of its (a, c) in the cut box
    for ell in (1, 2, 3):
        threshold = _box_edge(k, step)(ell)
        T = math.exp(2.0 * threshold / ell)
        for H in (2.0, 3.0):
            bound = int(math.floor(math.exp(H) + 1e-12))
            ac_max = min(bound, int(T) + 1)
            b_max = min(bound, int(2.0 * T) + 1)
            box = {(a, c): bm
                   for a, c, bm in bounds._quadratic_box(ell, threshold, H)}
            kept = 0
            for a in range(1, ac_max + 1):
                for c in range(-ac_max, ac_max + 1):
                    for b in range(-b_max, b_max + 1):
                        if b * b == 4 * a * c:
                            continue
                        hx = _log_mahler_quadratic(a, b, c) / 2
                        if ell * hx < threshold:
                            assert abs(b) <= box.get((a, c), -1), (a, b, c)
                            kept += 1
            assert kept > 0


def test_quadratic_scan_solves_only_reported_exceptions(monkeypatch):
    calls = {"complex_roots": 0, "aberth": 0}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(bounds, "complex_roots",
                        spy("complex_roots", roots.complex_roots))
    monkeypatch.setattr(roots, "aberth", spy("aberth", roots.aberth))
    recs = scan_exceptions(1, parse_poly("x^2 + x - 1"), 0.99, 3.0,
                           include_quadratic=True)
    quads = [r for r in recs if r["kind"] == "quadratic"]
    assert quads and len(quads) % 2 == 0
    assert calls["complex_roots"] == len({r["minpoly"] for r in quads})
    assert calls["complex_roots"] == len(quads) // 2
    assert calls["aberth"] == calls["complex_roots"]
