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
import re
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
    """p-adic valuation v_p(x) of a nonzero rational, as an exact integer;
    an int is read as it is, with no Fraction built."""
    if x == 0:
        raise UndefinedLogError("valuation of zero is undefined")
    n, d = (x, 1) if isinstance(x, int) else Fraction(x).as_integer_ratio()
    v = 0
    while n % p == 0:
        n //= p
        v += 1
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
        n, d = abs(x.numerator), x.denominator
        # n / d lies in [2^(e-1), 2^(e+1)) for e the difference of the bit
        # lengths: a normal double for these e, and correctly rounded, so
        # one log of it is off by about one ulp of the result, where
        # log n - log d is off by about one ulp of log n
        if -1021 <= n.bit_length() - d.bit_length() <= 1022:
            return math.log(n / d)
        return math.log(n) - math.log(d)
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
    """Parse "inf", "[a:b]" with integers a, b, or a rational in the
    grammar of `parse_rational`."""
    s = text.strip()
    if s in ("inf", "oo", "infinity"):
        return ProjPointQ(1, 0)
    if s.startswith("[") and s.endswith("]"):
        parts = s[1:-1].split(":")
        if len(parts) != 2:
            raise InvalidPointError(f"cannot parse point {text!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"cannot parse point {text!r}: [a:b] takes "
                             "integers") from exc
        return normalize_proj(a, b)
    return ProjPointQ.from_rational(parse_rational(s))


# [+-]digits[/digits] in ASCII: Fraction's own string grammar grows with
# the Python version (1_000 from 3.11, "2 / 3" from 3.12)
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or "a": an optionally signed integer over an optional
    positive one, with no decimals, exponents, underscores or inner
    spaces, the same on every Python version."""
    s = text.strip()
    if not _RATIONAL.fullmatch(s):
        raise ParseError(f"cannot parse rational {text!r}: expected a or "
                         "a/b with integers a, b")
    num, _, den = s.partition("/")
    try:
        return Fraction(int(num), int(den or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot parse rational {text!r}") from exc


def weil_height_exact(P: ProjPointQ) -> int:
    """max(|a|,|b|) for the normalized representative; exp of the height."""
    return max(abs(P.a), abs(P.b))


def weil_height(P: ProjPointQ) -> float:
    """Weil height h([a:b]) = log max(|a|,|b|) on coprime coordinates."""
    return math.log(weil_height_exact(P))
