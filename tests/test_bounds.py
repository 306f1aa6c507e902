"""Height lower bounds, Dirichlet energies, scans and equidistribution."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dynheights import polys
from dynheights.bounds import (DynPair, EmpiricalMeasure,
                               _minpoly_of_psi_image, energy_arch_power,
                               energy_level_curve, pair_bound_power,
                               preimage_measure_stats,
                               roots_of_unity_height_sequence,
                               scan_exceptions, star_discrepancy_angles)
from dynheights.dynamics import DynSystem
from dynheights.mahler import log_mahler_plus
from dynheights.polys import (HomogPair, Poly, int_poly, parse_poly,
                              resultant_univ)

PSI = parse_poly("1 - x")


def test_dyn_pair_validation():
    DynPair(2, PSI)
    with pytest.raises(ValueError):
        DynPair(0, PSI)
    with pytest.raises(ValueError):
        DynPair(1, int_poly([5]))


def test_empirical_measure_weights():
    EmpiricalMeasure(((1 + 0j, 0.5), (-1 + 0j, 0.5)))
    with pytest.raises(ValueError):
        EmpiricalMeasure(((1 + 0j, 0.7), (-1 + 0j, 0.5)))


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


def _minpoly_by_resultant(a, b, c, psi):
    """Res_x(a x^2 + b x + c, psi(x) - y) interpolated in y at 0, 1, 2."""
    P = int_poly([c, b, a])
    vals = []
    for y0 in (0, 1, 2):
        shifted = list(psi.coeffs)
        shifted[0] -= y0
        vals.append(Fraction(resultant_univ(P, Poly.of(shifted))))
    v0, v1, v2 = vals
    c2 = (v0 - 2 * v1 + v2) / 2
    return Poly.of([v0, v1 - v0 - c2, c2]).primitive_int()


def test_psi_image_minpoly_matches_resultant_route():
    # the resultant route is exact for integer psi only (Bareiss divides
    # with //); fractional psi is checked at the two image points instead
    psis = [parse_poly(t) for t in ("1 - x", "x^2 + 2*x + 1", "3*x^2 - x + 2",
                                     "x^3 - 2", "x^4 + x - 1", "-5*x^5 + x^2",
                                     "x/2 - 1/3", "2*x^3/5 + x^2 - 7")]
    for psi in psis:
        integral = all(Fraction(c).denominator == 1 for c in psi.coeffs)
        for a in range(1, 4):
            for b in range(-4, 5):
                for c in range(-3, 4):
                    if c == 0:
                        continue
                    Q = _minpoly_of_psi_image(a, b, c, psi)
                    assert Q.content() == 1 and Q.leading() > 0
                    if integral:
                        assert Q == _minpoly_by_resultant(a, b, c, psi), (
                            a, b, c, psi)
                        continue
                    disc = cmath.sqrt(b * b - 4 * a * c)
                    for alpha in ((-b + disc) / (2 * a), (-b - disc) / (2 * a)):
                        y = psi(alpha)
                        scale = sum(abs(q) * abs(y) ** k
                                    for k, q in enumerate(Q.coeffs))
                        assert abs(Q(y)) <= 1e-12 * scale, (a, b, c, psi)
