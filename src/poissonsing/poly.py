"""Exact polynomial arithmetic in the three variables x, y, z over the rationals.

A polynomial is a finite map from exponent triples (a, b, c), meaning
x^a y^b z^c, to nonzero exact rational coefficients.  Every polynomial, built
or computed, stores an integral coefficient as a plain ``int`` and only a
non-integral one as a ``Fraction``; the two mix exactly, so a polynomial with
integer coefficients computes in integers throughout.  No floating point is
used anywhere in this package.

The identity families multiply mostly zero and single-term operands, so the
ring operations take fast paths for them: a product with a zero operand is
that operand, a product with a single term shifts the other operand's
exponents (nothing can merge or cancel), and a sum, difference or partial
derivative with a zero operand does no work.  Each path gives the same terms,
in the same order, as the general loop.

A :class:`WeightSystem` assigns positive coprime weights to x, y, z and turns
the polynomial ring into a graded algebra: the weighted degree of a monomial
is a*w1 + b*w2 + c*w3.  The fixed global monomial order is graded-lex with
x > y > z (grade by weighted degree, break ties by descending exponent-tuple
comparison); every basis enumeration and printed polynomial in this package
uses it, so downstream computations are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Union

Monomial = tuple[int, int, int]
Scalar = Union[int, Fraction]

VARIABLES = ("x", "y", "z")


class NotHomogeneous(ValueError):
    """A polynomial mixes several weighted degrees where one was required."""

    def __init__(self, degrees: set[int]):
        self.degrees = set(degrees)
        super().__init__(
            "polynomial is not weight homogeneous; degrees found: %s"
            % sorted(self.degrees)
        )


@dataclass(frozen=True)
class WeightSystem:
    """Positive coprime weights (w1, w2, w3) for the variables x, y, z."""

    weights: tuple[int, int, int]

    def __post_init__(self):
        if len(self.weights) != 3:
            raise ValueError("exactly three weights required")
        if any(not isinstance(w, int) or w < 1 for w in self.weights):
            raise ValueError("weights must be positive integers")
        if math.gcd(*self.weights) != 1:
            raise ValueError("weights must not have a common divisor")

    @classmethod
    def from_string(cls, text: str) -> "WeightSystem":
        try:
            weights = tuple(int(p) for p in text.split(","))
        except ValueError:
            weights = ()
        if len(weights) != 3:
            raise ValueError("weights must be given as three comma-separated integers")
        return cls(weights)  # type: ignore[arg-type]

    @property
    def weight_sum(self) -> int:
        return sum(self.weights)

    @property
    def max_weight(self) -> int:
        return max(self.weights)

    def monomial_degree(self, m: Monomial) -> int:
        return m[0] * self.weights[0] + m[1] * self.weights[1] + m[2] * self.weights[2]

    def __str__(self) -> str:
        return "(%d,%d,%d)" % self.weights


#: Default grading (ordinary total degree).
UNIT_WEIGHTS = WeightSystem((1, 1, 1))


def monomial_sort_key(m: Monomial, w: WeightSystem = UNIT_WEIGHTS):
    """Key for the fixed monomial order; sort with reverse=True for descending."""
    return (w.monomial_degree(m), m)


class Poly:
    """An exact polynomial in x, y, z with rational coefficients.

    Immutable; supports +, -, *, ** and scalar multiplication.  Zero
    coefficients are never stored.  Each records whether it holds a Fraction,
    so arithmetic on integer polynomials never looks for an integral one.
    """

    __slots__ = ("_terms", "_hash", "_fractions")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Scalar] = {}
        if terms:
            for m, c in terms.items():
                if type(c) is not int:
                    c = Fraction(c)
                    if c.denominator == 1:
                        c = c.numerator
                if c:
                    clean[m] = c
        self._terms = clean
        self._hash: int | None = None
        self._fractions = Fraction in map(type, clean.values())

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def one(cls) -> "Poly":
        return cls({(0, 0, 0): 1})

    @classmethod
    def constant(cls, c: Scalar) -> "Poly":
        return cls({(0, 0, 0): c})

    @classmethod
    def monomial(cls, m: Monomial, c: Scalar = 1) -> "Poly":
        if any(e < 0 for e in m):
            raise ValueError("monomial exponents must be non-negative")
        return cls({m: c})

    @classmethod
    def variable(cls, index: int) -> "Poly":
        exps = [0, 0, 0]
        exps[index] = 1
        return cls({tuple(exps): 1})  # type: ignore[dict-item]

    # -- introspection -----------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Scalar]:
        """The term map; treat as read-only."""
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def __iter__(self) -> Iterator[tuple[Monomial, Scalar]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for m, c in other._terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Poly._raw(out, self._fractions or other._fractions)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return -other
        out = dict(self._terms)
        for m, c in other._terms.items():
            s = out.get(m, 0) - c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Poly._raw(out, self._fractions or other._fractions)

    def __neg__(self) -> "Poly":
        return Poly._raw({m: -c for m, c in self._terms.items()}, self._fractions)

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if type(other) is Poly or isinstance(other, Poly):
            if not self._terms:
                return self
            if not other._terms:
                return other
            if len(other._terms) == 1:
                return self._times_term(other)
            if len(self._terms) == 1:
                return other._times_term(self)
            out: dict[Monomial, Scalar] = {}
            for (a1, b1, c1), ca in self._terms.items():
                for (a2, b2, c2), cb in other._terms.items():
                    m = (a1 + a2, b1 + b2, c1 + c2)
                    s = out.get(m, 0) + ca * cb
                    if s:
                        out[m] = s
                    else:
                        out.pop(m, None)
            return Poly._raw(out, self._fractions or other._fractions)
        if type(other) is int or isinstance(other, (int, Fraction)):
            if not other:
                return Poly.zero()
            products = {m: c * other for m, c in self._terms.items()}
            return Poly._raw(products, self._fractions or type(other) is not int)
        return NotImplemented

    def _times_term(self, term: "Poly") -> "Poly":
        """self times a single-term polynomial.  Shifting every exponent by
        one monomial is injective and a product of nonzero rationals is
        nonzero, so nothing merges or cancels, and the terms keep their
        order."""
        ((a2, b2, c2), cb), = term._terms.items()
        terms = self._terms.items()
        if type(cb) is int and cb == 1:
            if not (a2 or b2 or c2):
                return self
            out = {(a1 + a2, b1 + b2, c1 + c2): ca for (a1, b1, c1), ca in terms}
        else:
            out = {(a1 + a2, b1 + b2, c1 + c2): ca * cb for (a1, b1, c1), ca in terms}
        return Poly._raw(out, self._fractions or term._fractions)

    def __rmul__(self, other: Scalar) -> "Poly":
        if type(other) is int or isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = Poly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def partial(self, index: int) -> "Poly":
        """Formal partial derivative with respect to x, y, or z (index 0,1,2)."""
        terms = self._terms
        if not terms:
            return self
        if index == 0:
            out = {(a - 1, b, c): k * a for (a, b, c), k in terms.items() if a}
        elif index == 1:
            out = {(a, b - 1, c): k * b for (a, b, c), k in terms.items() if b}
        elif index == 2:
            out = {(a, b, c - 1): k * c for (a, b, c), k in terms.items() if c}
        else:
            raise IndexError("partial derivatives are taken along index 0, 1 or 2")
        return Poly._raw(out, self._fractions)

    @classmethod
    def _raw(cls, terms: dict[Monomial, Scalar], fractions: bool) -> "Poly":
        """The polynomial of a fresh map of nonzero terms, which it takes over;
        if an operand held a Fraction, each integral term is stored as an int."""
        if fractions:
            for m, c in terms.items():
                if type(c) is not int and c.denominator == 1:
                    terms[m] = c.numerator
            fractions = Fraction in map(type, terms.values())
        p = cls.__new__(cls)
        p._terms = terms
        p._hash = None
        p._fractions = fractions
        return p

    # -- equality / hashing --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- printing -------------------------------------------------------------

    def __str__(self) -> str:
        return poly_to_string(self)

    def __repr__(self) -> str:
        return "Poly(%s)" % poly_to_string(self)


# ---------------------------------------------------------------------------
# Gradings
# ---------------------------------------------------------------------------


def weighted_degree(f: Poly, w: WeightSystem) -> int | None:
    """Weighted degree of a weight-homogeneous polynomial.

    Returns None (degree minus infinity) for the zero polynomial; raises
    NotHomogeneous (carrying the set of degrees found) when monomials of
    several weighted degrees occur.
    """
    if f.is_zero():
        return None
    degrees = {w.monomial_degree(m) for m in f.terms}
    if len(degrees) > 1:
        raise NotHomogeneous(degrees)
    return degrees.pop()


def monomials_of_degree(i: int, w: WeightSystem) -> list[Monomial]:
    """All monomials of weighted degree i, in the fixed (descending) order."""
    if i < 0:
        return []
    w1, w2, w3 = w.weights
    out: list[Monomial] = []
    for a in range(i // w1 + 1):
        rest1 = i - a * w1
        for b in range(rest1 // w2 + 1):
            rest2 = rest1 - b * w2
            if rest2 % w3 == 0:
                out.append((a, b, rest2 // w3))
    out.sort(reverse=True)
    return out


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------


class PolyParseError(ValueError):
    """Syntax error in the polynomial grammar, with a character position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__("%s (at position %d)" % (message, position))


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._skip_ws()

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        self._skip_ws()
        return ch

    def read_integer(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise PolyParseError("expected an integer", start)
        value = int(self.text[start : self.pos])
        self._skip_ws()
        return value

    def done(self) -> bool:
        return self.pos >= len(self.text)


def parse_poly(text: str) -> Poly:
    """Parse the polynomial grammar.

    Terms are joined by + and binary -; a term is an optional rational
    coefficient (integer or p/q), an optional *, and variable powers x^a, y^b,
    z^c joined by * (with ^1 optional).  Whitespace is ignored.  A leading -
    negates the first term.
    """
    sc = _Scanner(text)
    if sc.done():
        raise PolyParseError("empty input", 0)
    result = Poly.zero()
    sign = 1
    if sc.peek() == "-":
        sc.advance()
        sign = -1
    while True:
        result = result + _parse_term(sc) * sign
        if sc.done():
            return result
        op = sc.peek()
        if op == "+":
            sign = 1
        elif op == "-":
            sign = -1
        else:
            raise PolyParseError("expected '+' or '-'", sc.pos)
        sc.advance()
        if sc.done():
            raise PolyParseError("dangling operator", sc.pos)


def _parse_var_power(sc: _Scanner) -> tuple[int, int]:
    ch = sc.peek()
    if not ch.isalpha():
        raise PolyParseError("expected a variable", sc.pos)
    if ch not in VARIABLES:
        raise PolyParseError("unknown variable %r (only x, y, z)" % ch, sc.pos)
    sc.advance()
    exponent = 1
    if sc.peek() == "^":
        sc.advance()
        exponent = sc.read_integer()
    return VARIABLES.index(ch), exponent


def _parse_term(sc: _Scanner) -> Poly:
    """An optional coefficient, then variable powers joined by * (the * after
    the coefficient may be dropped); a coefficient alone is a constant."""
    coeff: Scalar = 1
    if sc.peek().isdigit():
        num = sc.read_integer()
        if sc.peek() == "/":
            sc.advance()
            den = sc.read_integer()
            if den == 0:
                raise PolyParseError("zero denominator", sc.pos)
            coeff = Fraction(num, den)
        else:
            coeff = num
        if sc.peek() == "*":
            sc.advance()
        elif not sc.peek().isalpha():
            return Poly.constant(coeff)
    elif not sc.peek().isalpha():
        raise PolyParseError("expected a term", sc.pos)
    exps = [0, 0, 0]
    while True:
        idx, e = _parse_var_power(sc)
        exps[idx] += e
        if sc.peek() != "*":
            return Poly.monomial((exps[0], exps[1], exps[2]), coeff)
        sc.advance()


def _format_monomial(m: Monomial) -> str:
    parts = []
    for name, e in zip(VARIABLES, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append("%s^%d" % (name, e))
    return "*".join(parts)


def poly_to_string(p: Poly) -> str:
    """Print in the same grammar parse_poly reads, terms in descending order."""
    if p.is_zero():
        return "0"
    items = sorted(p.terms.items(), key=lambda t: monomial_sort_key(t[0]), reverse=True)
    pieces: list[str] = []
    for n, (m, c) in enumerate(items):
        mono = _format_monomial(m)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = "%s*%s" % (mag, mono)
        if n == 0:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append(("+" if c > 0 else "-") + body)
    return "".join(pieces)
