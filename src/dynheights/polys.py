"""Exact univariate polynomials, binary forms, resultants and a small
expression parser.

A polynomial over Q is a `Poly`: integer coefficients in ascending
degree over one positive denominator, in a normal form that `Poly.of`
builds, the one place that clears denominators.  All arithmetic here is
exact and runs on ints (fraction-free, as in Geddes, Czapor & Labahn,
Algorithms for Computer Algebra, ch. 2).  A degree-d rational self-map of
P^1 is stored as a primitive pair of integer binary forms (F0, F1) of
common degree d with nonzero resultant, F0 the numerator.  The resultant
is computed once, when a pair enters through `HomogPair.of`, and kept on
the pair; composites need no second check, because composition cannot
make a map degenerate (see `HomogPair.compose`).

Resultant sign convention: Sylvester matrix with the F0-rows first,
coefficients in descending degree; for binary forms both coefficient
vectors are padded to full length d+1.  With this convention
Res(X^2, 2 Y^2) = +4 and Res(X^2 - Y^2, Y^2) = +1.

`horner` and `HomogPair.evaluate` are the package's one polynomial and
one binary-form evaluator, both Horner schemes.  On ints they are exact.
On floats, `HomogPair.evaluate` rounds each term f_i a^i b^(d-i) at most
2d times: f_d passes d products and d sums, and a term i < d is rounded
d + i + 1 times (d - i - 1 for the carried power of b, a product with
f_i and a sum where it enters, a product and a sum at each of the i
steps after that).  So its error is at most
gamma_2d sum |f_i| |a|^i |b|^(d-i), gamma_n = n u / (1 - n u) with
u = 2^-53, when no intermediate underflows and every f_i is a double.

`factorize` reports only proven primes: the Miller-Rabin test of
`places` is a proof below places._MR_PROVEN (about 3.3e24) and a
probable-prime test above, so larger ones are trial-divided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (CoefficientRangeError, DegenerateMapError,
                     FactorizationError, ParseError)
from .places import (_MR_PROVEN, ProjPointQ, _strong_probable_prime,
                     normalize_proj)


def horner(coeffs, x):
    """Horner evaluation of nonempty ascending coefficients at x: exact
    for int and Fraction input, elementwise for a numpy array x of any
    shape, one polynomial per row for one numpy array per coefficient.
    Its rounding bound is Higham's (Accuracy and Stability of Numerical
    Algorithms, ch. 5)."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def to_floats(ints, den: int = 1) -> list:
    """ints[k] / den as doubles, by int true division (c / 1 is float(c));
    CoefficientRangeError where one is beyond the double range."""
    try:
        return [c / den for c in ints]
    except OverflowError:
        raise CoefficientRangeError(
            "a value is beyond the double range") from None


@dataclass(frozen=True)
class Poly:
    """sum coeffs[k] x^k / den over Q, in one normal form, so equal
    polynomials compare equal: int coefficients with no trailing zero,
    den >= 1 and gcd(coeffs, den) = 1.  `of` builds it, the one place that
    clears denominators; `to_fraction_coeffs` gives the rational values."""

    coeffs: tuple
    den: int = 1

    @staticmethod
    def of(seq, den: int = 1) -> "Poly":
        """Normal form of sum seq[k] x^k / den, for int or Fraction entries
        and a nonzero int den.  An int's denominator is 1, so int input
        builds no Fraction."""
        lcm = math.lcm(*(c.denominator for c in seq))
        ints = [c.numerator * (lcm // c.denominator) for c in seq]
        while ints and ints[-1] == 0:
            ints.pop()
        if not ints:
            return Poly(())
        den *= lcm
        g = math.gcd(den, *ints)
        if den < 0:
            g = -g
        if g != 1:
            ints = [c // g for c in ints]
            den //= g
        return Poly(tuple(ints), den)

    @staticmethod
    def const(c) -> "Poly":
        return Poly.of([c])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with deg 0 = -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading(self) -> int:
        """The leading int coefficient, of the sign of the rational one."""
        return self.coeffs[-1] if self.coeffs else 0

    def __add__(self, other):
        a, b, den = self.coeffs, other.coeffs, self.den
        if other.den != den:
            den = math.lcm(den, other.den)
            a = [c * (den // self.den) for c in a]
            b = [c * (den // other.den) for c in b]
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] += c
        return Poly.of(out, den)

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return Poly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b != 0]
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in terms:
                out[i + j] += a * b
        return Poly.of(out, self.den * other.den)

    def scale(self, c) -> "Poly":
        """c times the polynomial, for an int or Fraction c."""
        return Poly.of([c.numerator * a for a in self.coeffs],
                       c.denominator * self.den)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __call__(self, x):
        """Horner evaluation: exact for int and Fraction x, and on the
        rounded rational coefficients for float and complex x."""
        if self.is_zero:
            return 0 * x
        return horner(self.coeffs if self.den == 1
                      else self.to_fraction_coeffs(), x)

    def to_fraction_coeffs(self):
        """The rational coefficients coeffs[k] / den."""
        return tuple(Fraction(c, self.den) for c in self.coeffs)

    def to_str(self, var: str = "x") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree(), -1, -1):
            c = Fraction(self.coeffs[k], self.den)
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            c = abs(c)
            if k == 0:
                body = str(c)
            else:
                mono = var if k == 1 else f"{var}^{k}"
                body = mono if c == 1 else f"{c}*{mono}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out


def int_poly(seq) -> Poly:
    return Poly.of([int(c) for c in seq])


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd over Q by the Euclidean algorithm."""
    while not g.is_zero:
        f, g = g, _poly_divmod(f, g)[1]
    if f.is_zero:
        return f
    return Poly.of(f.coeffs, f.leading())


def _poly_divmod(a: Poly, b: Poly):
    """(q, r) with a = q b + r and deg r < deg b, over Q (b nonzero).

    Pseudo-division on the integer coefficients A = a.den a and
    B = b.den b: with l the leading coefficient of B, each step keeps
    l^k A = Q B + R, so q = Q b.den / (l^k a.den) and r = R / (l^k a.den)
    (Knuth, The Art of Computer Programming, vol. 2, 4.6.1, Algorithm R)."""
    r = list(a.coeffs)
    bc = b.coeffs
    db = len(bc) - 1
    lead = bc[-1]
    q = [0] * (len(r) - db)
    lk = 1
    while len(r) - 1 >= db:
        c, j = r[-1], len(r) - 1 - db
        if lead != 1:
            r = [lead * x for x in r]
            q = [lead * x for x in q]
            lk *= lead
        q[j] = c
        for i in range(db):
            r[j + i] -= c * bc[i]
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    den = lk * a.den
    return Poly.of([c * b.den for c in q], den), Poly.of(r, den)


def _poly_div_exact(a: Poly, b: Poly) -> Poly:
    """Exact quotient a/b over Q (b must divide a)."""
    q, r = _poly_divmod(a, b)
    if not r.is_zero:
        raise ValueError("inexact polynomial division")
    return q


# ---------------------------------------------------------------------------
# determinants and resultants

def bareiss_det(rows):
    """Fraction-free determinant of an integer matrix (Bareiss)."""
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def sylvester_matrix(f_desc, g_desc):
    """Sylvester matrix from descending coefficient vectors, f-rows first.

    Rows are built from the formal degrees len-1 of each vector; callers
    pad with zeros to encode binary forms with vanishing leading terms.
    """
    n = len(f_desc) - 1
    m = len(g_desc) - 1
    size = n + m
    rows = []
    for i in range(m):
        rows.append([0] * i + list(f_desc) + [0] * (size - n - 1 - i))
    for i in range(n):
        rows.append([0] * i + list(g_desc) + [0] * (size - m - 1 - i))
    return rows


def resultant_univ(f: Poly, g: Poly) -> int | Fraction:
    """Resultant of two polynomials at their true degrees (an int when
    both dens are 1, else a Fraction).

    Bareiss divides exactly only in the integers, so it runs on the
    integer coefficients: with a = f.den and b = g.den,
    Res(f, g) = Res(a f, b g) / (a^deg g * b^deg f).
    """
    if f.is_zero or g.is_zero:
        return 0
    a, b = f.den, g.den
    fd = f.coeffs[::-1]
    gd = g.coeffs[::-1]
    if len(fd) == 1:
        res = fd[0] ** (len(gd) - 1)
    elif len(gd) == 1:
        res = gd[0] ** (len(fd) - 1)
    else:
        res = bareiss_det(sylvester_matrix(fd, gd))
    den = a ** (len(gd) - 1) * b ** (len(fd) - 1)
    return res if den == 1 else Fraction(res, den)


# ---------------------------------------------------------------------------
# binary forms

def _primitive(f0, f1):
    """The two coefficient lists divided by the gcd of all of them."""
    g = 0
    for c in f0 + f1:
        g = math.gcd(g, abs(c))
    return tuple(c // g for c in f0), tuple(c // g for c in f1)


@dataclass(frozen=True)
class HomogPair:
    """Primitive pair of integer binary forms of common degree d.

    f0[i] (resp. f1[i]) is the coefficient of X^i Y^(d-i).  The map on
    P^1 is [a:b] -> [F0(a,b) : F1(a,b)], i.e. z -> P(z)/Q(z) after
    dehomogenizing with z = X/Y.

    Build pairs with `of` (or `from_polys`), which rejects a zero
    resultant; `compose` returns pairs that are nondegenerate by
    construction.  `res` is computed on first use and kept, so `of` and
    `DynSystem.of` share one determinant.
    """

    f0: tuple
    f1: tuple

    @property
    def degree(self) -> int:
        return len(self.f0) - 1

    @cached_property
    def res(self) -> int:
        """Res(F0, F1) as binary forms of degree d."""
        return resultant(self)

    @staticmethod
    def of(f0_seq, f1_seq) -> "HomogPair":
        """Primitive pair from integer coefficient lists; raises
        DegenerateMapError unless the resultant is nonzero."""
        f0 = [int(c) for c in f0_seq]
        f1 = [int(c) for c in f1_seq]
        if len(f0) != len(f1):
            raise DegenerateMapError("forms must have equal degree")
        if not any(f0 + f1):
            raise DegenerateMapError("zero pair of forms")
        F = HomogPair(*_primitive(f0, f1))
        if F.res == 0:
            raise DegenerateMapError("resultant is zero: the forms share a root")
        return F

    @staticmethod
    def from_polys(num: Poly, den: Poly) -> "HomogPair":
        """Homogenize a reduced rational map P(z)/Q(z) to a primitive pair:
        with P = A / a and Q = B / b, the forms of P/Q = A b / (B a)."""
        if den.is_zero:
            raise DegenerateMapError("zero denominator")
        d = max(num.degree(), den.degree())
        if d < 1:
            raise DegenerateMapError("constant map has degree 0")
        f0 = [c * den.den for c in num.coeffs] + [0] * (d - num.degree())
        f1 = [c * num.den for c in den.coeffs] + [0] * (d - den.degree())
        return HomogPair.of(f0, f1)

    def evaluate(self, a, b):
        """(F0(a,b), F1(a,b)) by homogeneous Horner, v <- v a + f_i b^(d-i)
        for i = d-1, ..., 0 from v = f_d, with the power of b carried
        along: exact for ints, and within the module docstring's bound
        gamma_2d sum |f_i| |a|^i |b|^(d-i) for floats (Higham, Accuracy
        and Stability of Numerical Algorithms, ch. 5)."""
        f0, f1 = self.f0, self.f1
        v0, v1 = f0[-1], f1[-1]
        bi = 1
        for c0, c1 in zip(f0[-2::-1], f1[-2::-1]):
            bi *= b
            v0 = v0 * a + c0 * bi
            v1 = v1 * a + c1 * bi
        return v0, v1

    def dehomog(self):
        """(F0(x,1), F1(x,1)) as integer polynomials."""
        return Poly.of(self.f0), Poly.of(self.f1)

    def compose(self, other: "HomogPair") -> "HomogPair":
        """self after other: forms of degree d*e, re-primitivized.

        No resultant check: for F of degree d, G of degree e and g the
        content removed from F o G,
        |Res(F o G)| * g^(2de) = |Res F|^e * |Res G|^(d^2)
        (Silverman, The Arithmetic of Dynamical Systems, Ex. 2.12), so the
        composite of two nondegenerate pairs is nondegenerate.
        """
        g0 = Poly.of(other.f0)
        g1 = Poly.of(other.f1)
        d = self.degree
        e = other.degree
        out0 = Poly(())
        out1 = Poly(())
        # form product via the dehomogenized convolution: a form of degree k
        # is a coefficient vector of length k+1, multiplication is poly mul
        pow0 = [Poly.const(1)]
        pow1 = [Poly.const(1)]
        for _ in range(d):
            pow0.append(pow0[-1] * g0)
            pow1.append(pow1[-1] * g1)
        for i in range(d + 1):
            term = (pow0[i] * pow1[d - i])
            out0 = out0 + term.scale(self.f0[i])
            out1 = out1 + term.scale(self.f1[i])
        size = d * e + 1

        def pad(p):
            return list(p.coeffs) + [0] * (size - len(p.coeffs))

        return HomogPair(*_primitive(pad(out0), pad(out1)))


def resultant(F: HomogPair) -> int:
    """Resultant of the pair as binary forms of degree d (full padded
    Sylvester determinant, F0-rows first).  `HomogPair.res` keeps the
    value, so prefer it on a pair built by `of`."""
    f_desc = list(reversed(F.f0))
    g_desc = list(reversed(F.f1))
    return bareiss_det(sylvester_matrix(f_desc, g_desc))


# Primes up to this bound are found by trial division, larger ones by
# Pollard-Brent rho; a cofactor with no prime factor up to the bound and
# below its square is therefore prime.
_TRIAL_BOUND = 1024
_RHO_BATCH = 128  # rho steps whose differences share one gcd


def factorize(n: int) -> dict:
    """Prime factorization of a nonzero integer's absolute value, as
    {prime: exponent} in ascending order of the primes.

    Trial division takes out the primes up to _TRIAL_BOUND; Pollard-Brent
    rho (Brent, BIT 20 (1980)) splits what is left into factors, and strong
    Miller-Rabin to the bases 2, ..., 41 proves each one prime below
    _MR_PROVEN.  A probable prime at or above that bound is trial-divided
    to its square root, so every prime reported is proven; that is the only
    route on which the cost grows like sqrt(n), as it did for every input
    under plain trial division.  Raises FactorizationError for 0.
    """
    if n == 0:
        raise FactorizationError("0 has no prime factorization")
    out = {}
    rest, done = _trial_divide(abs(n), out, _TRIAL_BOUND)
    stack = [] if done else [rest]
    while stack:
        m = stack.pop()
        if m >= _TRIAL_BOUND ** 2 and not _strong_probable_prime(m):
            d = _pollard_brent(m)
            stack += [d, m // d]
        elif m < _MR_PROVEN:
            out[m] = out.get(m, 0) + 1
        else:
            _trial_divide(m, out, math.inf)
    return dict(sorted(out.items()))


def _trial_divide(n: int, out: dict, limit):
    """Divide out of n >= 1 the primes p <= limit with p^2 <= n, counting
    them in `out`; returns the cofactor and whether it is 1 or prime."""
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    q = 5
    while q * q <= n:
        if q > limit:
            return n, False
        for p in (q, q + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        q += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return n, True


def _pollard_brent(n: int) -> int:
    """A proper divisor of an odd composite n, by Brent's variant of
    Pollard's rho on x -> x^2 + c, for c = 1, 2, ... until one splits n."""
    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:  # the batch overshot: step back one difference at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
        c += 1


def homog_step(F: HomogPair, P: ProjPointQ):
    """One application of the map with exact gcd renormalization.

    Returns the normalized image point and the extracted gcd g of the two
    coordinates; g divides Res(F).
    """
    v0, v1 = F.evaluate(P.a, P.b)
    g = math.gcd(abs(v0), abs(v1))
    return normalize_proj(v0 // g, v1 // g), g


# ---------------------------------------------------------------------------
# expression parser

_OPS = set("+-*/^()")


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            tokens.append(("var", ch, i))
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


def _sparse_add(a: dict, b: dict, sign: int = 1) -> dict:
    """a + sign * b for sparse polynomials {exponent: nonzero int}."""
    out = dict(a)
    for k, c in b.items():
        v = out.get(k, 0) + (c if sign > 0 else -c)
        if v:
            out[k] = v
        else:
            del out[k]
    return out


def _sparse_mul(a: dict, b: dict) -> dict:
    """Product of sparse polynomials; touches only the nonzero terms."""
    if len(a) == 1 and len(b) == 1:
        (i, x), = a.items()
        (j, y), = b.items()
        return {i + j: x * y}
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: c for k, c in out.items() if c}


def _sparse_pow(a: dict, n: int) -> dict:
    """a^n for n >= 0; a monomial stays one term."""
    if len(a) == 1:
        (k, c), = a.items()
        return {k * n: c ** n}
    out = {0: 1}
    while n:
        if n & 1:
            out = _sparse_mul(out, a)
        n >>= 1
        if n:
            a = _sparse_mul(a, a)
    return out


def _dense(a: dict) -> Poly:
    """The dense Poly of a sparse integer polynomial, already in normal
    form: its top exponent holds a nonzero int, and den is 1."""
    return Poly(tuple(a.get(k, 0) for k in range(max(a, default=-1) + 1)))


class _RatFunc:
    """num/den as sparse integer polynomials {exponent: nonzero int}, so a
    rational constant p/q is {0: p} over {0: q}; reduced once, at the end
    of a parse."""

    __slots__ = ("num", "den")

    def __init__(self, num: dict, den: dict):
        self.num = num
        self.den = den

    @staticmethod
    def const(c):
        return _RatFunc({0: c} if c else {}, {0: 1})

    @staticmethod
    def var():
        return _RatFunc({1: 1}, {0: 1})

    def __add__(self, o):
        if self.den == o.den:  # every term of a polynomial has den 1
            return _RatFunc(_sparse_add(self.num, o.num), self.den)
        return _RatFunc(_sparse_add(_sparse_mul(self.num, o.den),
                                    _sparse_mul(o.num, self.den)),
                        _sparse_mul(self.den, o.den))

    def __sub__(self, o):
        if self.den == o.den:
            return _RatFunc(_sparse_add(self.num, o.num, -1), self.den)
        return _RatFunc(_sparse_add(_sparse_mul(self.num, o.den),
                                    _sparse_mul(o.num, self.den), -1),
                        _sparse_mul(self.den, o.den))

    def __mul__(self, o):
        return _RatFunc(_sparse_mul(self.num, o.num),
                        _sparse_mul(self.den, o.den))

    def __truediv__(self, o):
        return _RatFunc(_sparse_mul(self.num, o.den),
                        _sparse_mul(self.den, o.num))

    def pow(self, n):
        if n >= 0:
            return _RatFunc(_sparse_pow(self.num, n), _sparse_pow(self.den, n))
        return _RatFunc(_sparse_pow(self.den, -n), _sparse_pow(self.num, -n))

    def reduced(self):
        """The value of the parse: a Poly when the reduced denominator is
        constant, otherwise the HomogPair of num/den.

        The pair is built from the unreduced num and den, with the
        denominator made positive in its leading coefficient: a nonzero
        resultant proves the two coprime.  Only a zero resultant runs the
        Euclidean gcd, by a monic gcd that keeps that sign."""
        if not self.den:
            raise DegenerateMapError("division by the zero polynomial")
        num, den = _dense(self.num), _dense(self.den)
        if num.is_zero:
            return Poly(())
        if den.degree() > 0:
            if den.leading() < 0:
                num, den = -num, -den
            try:
                return HomogPair.from_polys(num, den)
            except DegenerateMapError:  # Res = 0: num and den share a root
                g = poly_gcd(num, den)
                num, den = _poly_div_exact(num, g), _poly_div_exact(den, g)
            if den.degree() > 0:
                return HomogPair.from_polys(num, den)
        return num.scale(Fraction(den.den, den.coeffs[0]))


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.var = None

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        v = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return v

    def expr(self):
        tok = self.peek()
        if tok[0] in ("+", "-"):
            self.next()
            v = self.term()
            if tok[0] == "-":
                v = _RatFunc.const(0) - v
        else:
            v = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            v = v + rhs if op == "+" else v - rhs
        return v

    def term(self):
        v = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            rhs = self.factor()
            v = v * rhs if op == "*" else v / rhs
        return v

    def factor(self):
        v = self.base()
        if self.peek()[0] == "^":
            self.next()
            sign = 1
            if self.peek()[0] == "-":
                self.next()
                sign = -1
            tok = self.expect("int")
            v = v.pow(sign * tok[1])
        return v

    def base(self):
        tok = self.next()
        if tok[0] == "int":
            return _RatFunc.const(tok[1])
        if tok[0] == "var":
            if self.var is None:
                self.var = tok[1]
            elif self.var != tok[1]:
                raise ParseError(
                    f"two distinct variables {self.var!r} and {tok[1]!r}", tok[2])
            return _RatFunc.var()
        if tok[0] == "(":
            v = self.expr()
            self.expect(")")
            return v
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])


def parse_expr(text: str):
    """Parse an expression; returns a Poly when the reduced denominator is
    constant, otherwise a HomogPair for the rational map."""
    return _Parser(text).parse().reduced()


def parse_poly(text: str) -> Poly:
    """Parse a polynomial over Q; rejects true ratios."""
    out = parse_expr(text)
    if isinstance(out, HomogPair):
        raise ParseError("expected a polynomial, found a rational map", 0)
    return out


def parse_map(text: str) -> HomogPair:
    """Parse a rational self-map of P^1 as a primitive homogeneous pair."""
    out = parse_expr(text)
    if isinstance(out, HomogPair):
        return out
    return HomogPair.from_polys(out, Poly.const(1))
