"""Exact univariate polynomials, binary forms, resultants and a small
expression parser.

Polynomials are dense coefficient tuples in ascending degree, with int or
Fraction entries; all arithmetic here is exact.  A degree-d rational
self-map of P^1 is stored as a primitive pair of integer binary forms
(F0, F1) of common degree d with nonzero resultant, F0 the numerator.
The resultant is computed once, when a pair enters through
`HomogPair.of`, and kept on the pair; composites need no second check,
because composition cannot make a map degenerate (see
`HomogPair.compose`).

Resultant sign convention: Sylvester matrix with the F0-rows first,
coefficients in descending degree; for binary forms both coefficient
vectors are padded to full length d+1.  With this convention
Res(X^2, 2 Y^2) = +4 and Res(X^2 - Y^2, Y^2) = +1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DegenerateMapError, ParseError
from .places import ProjPointQ, normalize_proj


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial; coeffs[k] multiplies x^k."""

    coeffs: tuple

    @staticmethod
    def of(seq) -> "Poly":
        return Poly(_trim(seq))

    @staticmethod
    def const(c) -> "Poly":
        return Poly.of([c])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with deg 0 = -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return Poly.of(a)

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return Poly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly.of(out)

    def scale(self, c) -> "Poly":
        if c == 0:
            return Poly(())
        return Poly(tuple(c * a for a in self.coeffs))

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
        """Horner evaluation; works for int, Fraction, float and complex."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        return Poly.of([k * c for k, c in enumerate(self.coeffs)][1:])

    def content(self) -> int:
        """gcd of integer coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, abs(int(c)))
        return g

    def primitive_int(self) -> "Poly":
        """Clear denominators and divide by the content; sign of the
        leading coefficient is preserved."""
        if self.is_zero:
            return self
        den = 1
        for c in self.coeffs:
            den = den * Fraction(c).denominator // math.gcd(den, Fraction(c).denominator)
        ints = [int(Fraction(c) * den) for c in self.coeffs]
        g = 0
        for c in ints:
            g = math.gcd(g, abs(c))
        return Poly(tuple(c // g for c in ints))

    def to_fraction_coeffs(self):
        return tuple(Fraction(c) for c in self.coeffs)

    def reversed_coeffs(self) -> "Poly":
        """x^d * P(1/x)."""
        return Poly.of(tuple(reversed(self.coeffs)))

    def to_str(self, var: str = "x") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree(), -1, -1):
            c = Fraction(self.coeffs[k])
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


def rat_poly(seq) -> Poly:
    return Poly.of([Fraction(c) for c in seq])


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd over Q by the Euclidean algorithm."""
    a, b = rat_poly(f.coeffs), rat_poly(g.coeffs)
    while not b.is_zero:
        a, b = b, _poly_mod(a, b)
    if a.is_zero:
        return a
    lead = a.leading()
    return Poly(tuple(c / lead for c in a.coeffs))


def _poly_mod(a: Poly, b: Poly) -> Poly:
    r = list(a.to_fraction_coeffs())
    bc = b.to_fraction_coeffs()
    db = len(bc) - 1
    while len(r) - 1 >= db and r:
        q = r[-1] / bc[-1]
        for i in range(db + 1):
            r[len(r) - 1 - db + i] -= q * bc[i]
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return Poly(tuple(r))


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


def resultant_univ(f: Poly, g: Poly) -> int:
    """Resultant of two integer polynomials at their true degrees."""
    if f.is_zero or g.is_zero:
        return 0
    fd = list(reversed(f.coeffs))
    gd = list(reversed(g.coeffs))
    if len(fd) == 1:
        return int(fd[0]) ** (len(gd) - 1)
    if len(gd) == 1:
        return int(gd[0]) ** (len(fd) - 1)
    return bareiss_det(sylvester_matrix(fd, gd))


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
    resultant; `compose` and `iterate` return pairs that are
    nondegenerate by construction.  `res` is computed on first use and
    kept, so `of` and `DynSystem.of` share one determinant.
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
        """Homogenize a reduced rational map P(z)/Q(z) to a primitive pair."""
        if den.is_zero:
            raise DegenerateMapError("zero denominator")
        d = max(num.degree(), den.degree())
        if d < 1:
            raise DegenerateMapError("constant map has degree 0")
        lcm = 1
        for c in list(num.coeffs) + list(den.coeffs):
            q = Fraction(c).denominator
            lcm = lcm * q // math.gcd(lcm, q)
        f0 = [int(Fraction(num.coeffs[i]) * lcm) if i <= num.degree() else 0
              for i in range(d + 1)]
        f1 = [int(Fraction(den.coeffs[i]) * lcm) if i <= den.degree() else 0
              for i in range(d + 1)]
        return HomogPair.of(f0, f1)

    def evaluate(self, a: int, b: int):
        """(F0(a,b), F1(a,b)) by exact integer arithmetic."""
        d = self.degree
        # powers of a and b up to d
        pa = [1] * (d + 1)
        pb = [1] * (d + 1)
        for i in range(1, d + 1):
            pa[i] = pa[i - 1] * a
            pb[i] = pb[i - 1] * b
        v0 = sum(self.f0[i] * pa[i] * pb[d - i] for i in range(d + 1))
        v1 = sum(self.f1[i] * pa[i] * pb[d - i] for i in range(d + 1))
        return v0, v1

    def evaluate_float(self, a: float, b: float):
        d = self.degree
        v0 = 0.0
        v1 = 0.0
        for i in range(d + 1):
            mono = a ** i * b ** (d - i)
            v0 += self.f0[i] * mono
            v1 += self.f1[i] * mono
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

    def iterate(self, n: int) -> "HomogPair":
        """n-fold composition with itself (n >= 1)."""
        out = self
        for _ in range(n - 1):
            out = out.compose(self)
        return out

    def to_str(self, var: str = "z") -> str:
        p, q = self.dehomog()
        return f"({p.to_str(var)})/({q.to_str(var)})"


def resultant(F: HomogPair) -> int:
    """Resultant of the pair as binary forms of degree d (full padded
    Sylvester determinant, F0-rows first).  `HomogPair.res` keeps the
    value, so prefer it on a pair built by `of`."""
    f_desc = list(reversed(F.f0))
    g_desc = list(reversed(F.f1))
    return bareiss_det(sylvester_matrix(f_desc, g_desc))


def factorize(n: int) -> dict:
    """Prime factorization by trial division (desk-scale inputs)."""
    n = abs(n)
    out = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    q = 5
    while q * q <= n:
        for p in (q, q + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        q += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def homog_step(F: HomogPair, P: ProjPointQ):
    """One application of the map with exact gcd renormalization.

    Returns the normalized image point and the factorization ledger of the
    extracted gcd (prime -> exponent).  Only primes dividing Res(F) can
    occur in the ledger.
    """
    v0, v1 = F.evaluate(P.a, P.b)
    g = math.gcd(abs(v0), abs(v1))
    ledger = factorize(g) if g > 1 else {}
    return normalize_proj(v0 // g, v1 // g), ledger


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


class _RatFunc:
    """num/den as Fraction-coefficient polynomials; reduced lazily."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        self.num = num
        self.den = den

    @staticmethod
    def const(c):
        return _RatFunc(Poly.const(Fraction(c)), Poly.const(Fraction(1)))

    def __add__(self, o):
        return _RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    def __sub__(self, o):
        return _RatFunc(self.num * o.den - o.num * self.den, self.den * o.den)

    def __mul__(self, o):
        return _RatFunc(self.num * o.num, self.den * o.den)

    def __truediv__(self, o):
        return _RatFunc(self.num * o.den, self.den * o.num)

    def pow(self, n):
        if n >= 0:
            return _RatFunc(self.num ** n, self.den ** n)
        return _RatFunc(self.den ** (-n), self.num ** (-n))

    def reduced(self):
        """(num, den) with gcd removed and denominator made primitive in
        sign (positive leading coefficient)."""
        if self.den.is_zero:
            raise DegenerateMapError("division by the zero polynomial")
        if self.num.is_zero:
            return Poly(()), Poly.const(Fraction(1))
        g = poly_gcd(self.num, self.den)
        num = _poly_div_exact(self.num, g)
        den = _poly_div_exact(self.den, g)
        if den.leading() < 0:
            num, den = num.scale(Fraction(-1)), den.scale(Fraction(-1))
        return num, den


def _poly_div_exact(a: Poly, b: Poly) -> Poly:
    """Exact quotient a/b over Q (b must divide a)."""
    r = list(a.to_fraction_coeffs())
    bc = b.to_fraction_coeffs()
    db = len(bc) - 1
    q = [Fraction(0)] * (len(r) - db)
    while len(r) - 1 >= db and r:
        c = r[-1] / bc[-1]
        q[len(r) - 1 - db] = c
        for i in range(db + 1):
            r[len(r) - 1 - db + i] -= c * bc[i]
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    if r:
        raise ValueError("inexact polynomial division")
    return Poly.of(q)


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
            return _RatFunc(Poly.of([Fraction(0), Fraction(1)]),
                            Poly.const(Fraction(1)))
        if tok[0] == "(":
            v = self.expr()
            self.expect(")")
            return v
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])


def parse_expr(text: str):
    """Parse an expression; returns a Poly when the reduced denominator is
    constant, otherwise a HomogPair for the rational map."""
    num, den = _Parser(text).parse().reduced()
    if den.degree() <= 0:
        c = den.coeffs[0]
        return Poly(tuple(Fraction(a) / c for a in num.coeffs))
    return HomogPair.from_polys(num, den)


def parse_poly(text: str) -> Poly:
    """Parse a polynomial (Fraction coefficients); rejects true ratios."""
    out = parse_expr(text)
    if isinstance(out, HomogPair):
        raise ParseError("expected a polynomial, found a rational map", 0)
    return out


def parse_int_poly(text: str) -> Poly:
    """Parse and clear denominators to a primitive integer polynomial."""
    p = parse_poly(text)
    if p.is_zero:
        return p
    return p.primitive_int()


def parse_map(text: str) -> HomogPair:
    """Parse a rational self-map of P^1 as a primitive homogeneous pair."""
    out = parse_expr(text)
    if isinstance(out, HomogPair):
        return out
    return HomogPair.from_polys(out, Poly.const(Fraction(1)))
