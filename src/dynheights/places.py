"""Places of Q, normalized absolute values and Weil heights on P^1(Q).

Conventions: |p|_p = 1/p at the finite place p and the usual absolute
value at the archimedean place, so that the product formula
sum_v log|x|_v = 0 holds for nonzero rational x with no extension-degree
weights.  Finite-place computations are carried as integer valuations;
log p enters only at output boundaries.

The package's one Miller-Rabin test (`_strong_probable_prime`, bases 2,
..., 41) is a proof below _MR_PROVEN, about 3.3e24, and a probable-prime
test at and above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidPointError, ParseError, UndefinedLogError

# _MR_PROVEN is the least strong pseudoprime to all 13 bases (Sorenson and
# Webster, Math. Comp. 86 (2017))
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN = 3317044064679887385961981


def _strong_probable_prime(n: int) -> bool:
    """Strong Miller-Rabin test of an odd n > 41 to the bases _MR_BASES."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Trial division by the bases 2, ..., 41, then strong Miller-Rabin to
    them: proven below _MR_PROVEN (about 3.3e24), a probable-prime test at
    and above it."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    return _strong_probable_prime(n)


@dataclass(frozen=True)
class Place:
    """A place of Q: archimedean, or the p-adic place for a prime p."""

    prime: int | None = None  # None marks the archimedean place

    def __post_init__(self):
        if self.prime is not None and not is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")

    @property
    def is_archimedean(self) -> bool:
        return self.prime is None

    def __str__(self):
        return "inf" if self.prime is None else str(self.prime)


ARCH = Place()


def valuation(x: Fraction | int, p: int) -> int:
    """p-adic valuation v_p(x) of a nonzero rational, as an exact integer."""
    if x == 0:
        raise UndefinedLogError("valuation of zero is undefined")
    x = Fraction(x)
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def log_abs_at(x: Fraction | int, v: Place) -> float:
    """log|x|_v for nonzero rational x."""
    if x == 0:
        raise UndefinedLogError("log|0|_v is undefined")
    x = Fraction(x)
    if v.is_archimedean:
        return math.log(abs(x.numerator)) - math.log(x.denominator)
    return -valuation(x, v.prime) * math.log(v.prime)


@dataclass(frozen=True)
class ProjPointQ:
    """A point of P^1(Q) in normalized coprime integer coordinates [a:b].

    Normalization: gcd(|a|,|b|) = 1 and b > 0, or b = 0 and a = 1; each
    projective point has a unique representative, so points hash and
    compare by value (used for cycle detection).
    """

    a: int
    b: int

    @staticmethod
    def of(a: int, b: int) -> "ProjPointQ":
        return normalize_proj(a, b)

    @staticmethod
    def from_rational(x: Fraction | int) -> "ProjPointQ":
        x = Fraction(x)
        return normalize_proj(x.numerator, x.denominator)

    @property
    def is_infinity(self) -> bool:
        return self.b == 0

    def as_rational(self) -> Fraction:
        if self.b == 0:
            raise InvalidPointError("the point at infinity is not rational")
        return Fraction(self.a, self.b)

    def __str__(self):
        if self.b == 0:
            return "inf"
        if self.b == 1:
            return str(self.a)
        return f"{self.a}/{self.b}"


def normalize_proj(a: int, b: int) -> ProjPointQ:
    """Reduce (a, b) to the unique normalized representative of [a:b]."""
    if a == 0 and b == 0:
        raise InvalidPointError("(0, 0) does not define a projective point")
    g = math.gcd(abs(a), abs(b))
    a, b = a // g, b // g
    if b < 0 or (b == 0 and a < 0):
        a, b = -a, -b
    return ProjPointQ(a, b)


def parse_point(text: str) -> ProjPointQ:
    """Parse "a/b", "a", "inf" or "[a:b]"."""
    s = text.strip()
    if s in ("inf", "oo", "infinity"):
        return ProjPointQ(1, 0)
    if s.startswith("[") and s.endswith("]"):
        parts = s[1:-1].split(":")
        if len(parts) != 2:
            raise InvalidPointError(f"cannot parse point {text!r}")
        return normalize_proj(int(parts[0]), int(parts[1]))
    try:
        x = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot parse point {text!r}") from exc
    return ProjPointQ.from_rational(x)


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or "a" (decimal-free)."""
    s = text.strip()
    if "." in s:
        raise ParseError(f"decimal notation not accepted: {text!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot parse rational {text!r}") from exc


def weil_height_exact(P: ProjPointQ) -> int:
    """max(|a|,|b|) for the normalized representative; exp of the height."""
    return max(abs(P.a), abs(P.b))


def weil_height(P: ProjPointQ) -> float:
    """Weil height h([a:b]) = log max(|a|,|b|) on coprime coordinates."""
    return math.log(weil_height_exact(P))
