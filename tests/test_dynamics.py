"""Canonical heights: local Green functions, functional equation,
preperiodicity certificates."""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dynheights.dynamics import (DynSystem, canonical_height,
                                 common_preperiodic_scan, escape_threshold,
                                 finite_ledger_exact, green_finite,
                                 green_ledger, is_preperiodic, local_green,
                                 rational_points_up_to_height)
from dynheights import dynamics
from dynheights.errors import (DegenerateMapError, DistortionBoundError,
                               DynheightsError)
from dynheights.places import ARCH, Place, ProjPointQ, weil_height
from dynheights.polys import factorize, homog_step, parse_map

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
    S = DynSystem.from_expr("(x^2 - 29/16)/(3*x)")
    assert S.res_valuations == factorize(S.res)
    assert S.bad_primes == tuple(sorted(S.res_valuations))
    P = _pt(Fraction(1, 4))
    before = green_ledger(S, P, 1e-10).per_place
    ledgers = [finite_ledger_exact(S, P, p, 1e-10) for p in S.bad_primes]

    def fail(n):
        raise AssertionError("factorize called again")

    monkeypatch.setattr(dynamics, "factorize", fail)
    assert green_ledger(S, P, 1e-10).per_place == before
    assert [finite_ledger_exact(S, P, p, 1e-10)
            for p in S.bad_primes] == ledgers


def test_distortion_violation_is_typed():
    S = DynSystem.from_expr("x^2 - 2")
    S._check_distortion()
    low = dataclasses.replace(S, c_arch=0.0)
    with pytest.raises(DistortionBoundError) as info:
        low._check_distortion()
    assert isinstance(info.value, DynheightsError)


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


def test_finite_green_nonpositive_and_good_reduction():
    S = DynSystem.from_expr("x^2 - 29/16")
    for x in (Fraction(1, 4), Fraction(3, 2), 5):
        P = _pt(x)
        assert green_finite(S, P, 2, 1e-9) <= 0.0
        assert green_finite(S, P, 3, 1e-9) == 0.0  # good reduction
        assert finite_ledger_exact(S, P, 3, 1e-9) == []


def test_finite_ledger_on_cycle():
    # the orbit of 1/4 extracts 2^6 at every step (the cycle has
    # denominator 4, squared by the map, cleared by 16)
    S = DynSystem.from_expr("x^2 - 29/16")
    ledger = finite_ledger_exact(S, _pt(Fraction(1, 4)), 2, 1e-9)
    assert ledger and all(c == 6 for c in ledger)
    # geometric series: g_2 = -sum 6 * 2^-(k+1) log 2 = -6 log 2
    g2 = green_finite(S, _pt(Fraction(1, 4)), 2, 1e-12)
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
    pts = rational_points_up_to_height(math.log(2) + 1e-12)
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
