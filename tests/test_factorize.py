"""Integer factorization: trial division, strong Miller-Rabin and
Pollard-Brent rho, each reported prime proven."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from dynheights import polys
from dynheights.errors import DynheightsError, FactorizationError
from dynheights.polys import factorize


def _trial_oracle(n):
    """Plain trial division by every integer; independent of `factorize`."""
    n = abs(n)
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _merge(*parts):
    out = {}
    for part in parts:
        for p, e in part.items():
            out[p] = out.get(p, 0) + e
    return dict(sorted(out.items()))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=4),
       st.sampled_from([1, -1]))
def test_factorize_matches_trial_division(pieces, sign):
    """|n| <= 10^24 built from pieces up to 10^6, which the oracle
    factors one by one (1 and negatives included)."""
    n = sign * math.prod(pieces)
    assert abs(n) <= 10 ** 24
    assert factorize(n) == _merge(*map(_trial_oracle, pieces))


@settings(max_examples=150, deadline=None)
@given(st.integers(-10 ** 10, 10 ** 10).filter(bool))
def test_factorize_matches_trial_division_uniform(n):
    assert factorize(n) == _trial_oracle(n)


@settings(max_examples=60, deadline=None)
@given(st.integers(-10 ** 24, 10 ** 24).filter(bool))
def test_factorize_uniform_up_to_1e24(n):
    sympy = pytest.importorskip("sympy")
    fact = factorize(n)
    assert list(fact) == sorted(fact)
    assert fact == sympy.factorint(abs(n))


def test_factorize_small_cases():
    assert factorize(1) == {}
    assert factorize(-1) == {}
    assert factorize(65536) == {2: 16}
    assert factorize(-60) == {2: 2, 3: 1, 5: 1}


@pytest.mark.parametrize("n, fact", [
    (3215031751, {151: 1, 751: 1, 28351: 1}),
    (3825123056546413051, {149491: 1, 747451: 1, 34233211: 1}),
    (561, {3: 1, 11: 1, 17: 1}),
    (41041, {7: 1, 11: 1, 13: 1, 41: 1}),
    (1171 * 2341 * 3511, {1171: 1, 2341: 1, 3511: 1}),   # Carmichael
    (1000003 ** 2, {1000003: 2}),
    (-7 * 1000003 ** 3, {7: 1, 1000003: 3}),
    (12 * (2 ** 31 - 1) ** 3, {2: 2, 3: 1, 2 ** 31 - 1: 3}),
    (3 ** 40, {3: 40}),
    (2 ** 61 - 1, {2 ** 61 - 1: 1}),
    (17 * 31 * 137 * 19068404591, {17: 1, 31: 1, 137: 1, 19068404591: 1}),
])
def test_factorize_hard_cases(n, fact):
    assert factorize(n) == fact


def test_strong_pseudoprimes_are_composite():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2, ..., 23
    for n in (3215031751, 3825123056546413051, 9624742921):
        assert not polys._strong_probable_prime(n)
    # the least strong pseudoprime to all 13 bases bounds the proof
    assert polys._strong_probable_prime(polys._MR_PROVEN)
    assert polys._MR_PROVEN == 1287836182261 * 2575672364521


def test_rho_splits_above_the_proven_bound():
    p, q = 2000000000003, 2100000000011
    assert p * q > polys._MR_PROVEN
    assert factorize(p * q) == {p: 1, q: 1}


def test_unproven_probable_prime_falls_back_to_trial_division(monkeypatch):
    """A probable prime at or above the proven bound is trial-divided."""
    calls = []
    real = polys._trial_divide

    def spy(n, out, limit):
        calls.append((n, limit))
        return real(n, out, limit)

    monkeypatch.setattr(polys, "_trial_divide", spy)
    monkeypatch.setattr(polys, "_MR_PROVEN", polys._TRIAL_BOUND ** 2)
    p, q = 1048583, 2000003  # primes above _TRIAL_BOUND^2
    assert factorize(4 * p * q) == {2: 2, p: 1, q: 1}
    assert sorted(calls) == [(p, math.inf), (q, math.inf),
                             (4 * p * q, polys._TRIAL_BOUND)]
    calls.clear()
    # a pseudoprime taken for prime is still split by the fallback
    monkeypatch.setattr(polys, "_strong_probable_prime", lambda n: True)
    assert factorize(p * q) == {p: 1, q: 1}
    assert calls[-1] == (p * q, math.inf)


def test_factorize_zero_raises_typed_error():
    with pytest.raises(FactorizationError):
        factorize(0)
    assert issubclass(FactorizationError, DynheightsError)
