"""Exact multivariate polynomials over the rationals.

A polynomial holds nonzero int numerators ``num`` on exponent tuples over
one denominator ``den`` > 0 in lowest terms, so equal polynomials have
identical canonical form, and its arithmetic runs on ints with one gcd
pass per result; ``terms`` is a read-only Fraction view, built on request.
The constructor checks and sums outside terms; results derived from valid
polynomials are built by ``Polynomial._of``, which checks nothing.
Monomial orders (grevlex and lex) are key functions on exponent tuples;
lex with the eliminated variables first serves as the elimination order.
Exact quotients run on term maps whose exponents ``Packing`` packs, as do
``resultant`` and ``groebner``.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod
from operator import add, mul
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import (DegreeError, InvalidInput, VariableMismatch,
                     ZeroPolynomial)

Exponents = tuple[int, ...]


class MonomialOrder(Enum):
    """Total order on monomials, exposed as a sort key on exponent tuples.

    The variable list carries the precedence (for elimination, put the
    eliminated variables first and use LEX).
    """

    GREVLEX = "grevlex"
    LEX = "lex"

    def key(self, exps: Exponents):
        if self is GREVLEX:
            return (sum(exps), tuple(-e for e in reversed(exps)))
        return exps


GREVLEX, LEX = MonomialOrder.GREVLEX, MonomialOrder.LEX


class Packing:
    """Monomials of one order in n variables, packed into one int each
    (Bachmann & Schoenemann, ISSAC 1998): a field of width + 1 bits per
    variable with a guard bit on top; for lex the first variable highest;
    for grevlex the degree above the fields, which hold 2^width - 1 - e in
    reversed variable order.  So int order is the monomial order, a
    product a * b is a + b - one, and a valid monomial sets no guard bit.
    A product that outgrows its field sets a guard bit, yet packs exactly
    and in order; a | b iff sign * (b - a) borrows into no guard bit."""

    def __init__(self, order: MonomialOrder, n: int, width: int):
        self.width, self.lex, self.cap = width, order is LEX, (1 << width) - 1
        self.sign = 1 if self.lex else -1
        self.shifts = [(n - 1 - i if self.lex else i) * (width + 1)
                       for i in range(n)]
        self.guard = sum(1 << (s + width) for s in self.shifts)
        self.top = n * (width + 1)  # the grevlex degree field
        self.weights = [1 << s if self.lex else (1 << self.top) - (1 << s)
                        for s in self.shifts]  # pack(e) - one, per e_i
        self.one = 0 if self.lex else sum(self.cap << s for s in self.shifts)

    def pack(self, exps: Exponents) -> int:
        return self.one + sum(map(mul, exps, self.weights))

    def pack_terms(self, terms: Mapping) -> dict:
        one, weights = self.one, self.weights  # pack, inlined: hot in Bareiss
        return {one + sum(map(mul, e, weights)): c for e, c in terms.items()}

    def unpack(self, m: int) -> Exponents:
        cap = self.cap
        fields = ((m >> s) & cap for s in self.shifts)
        return tuple(fields if self.lex else (cap - f for f in fields))

    def degree(self, m: int) -> int:
        return sum(self.unpack(m)) if self.lex else m >> self.top

    def divides(self, a: int, b: int) -> bool:
        return not (self.sign * (b - a)) & self.guard

    def lcm(self, a: int, b: int) -> int:
        ge = ((a | self.guard) - b) & self.guard  # guards of fields a >= b
        pick = (a ^ b) & (ge - (ge >> self.width))
        # lex: max exponents; grevlex: min complements, degree recomputed
        return b ^ pick if self.lex else self.pack(self.unpack(a ^ pick))


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError("expected an exact rational (int or Fraction), "
                    f"got {type(c).__name__}")


def lowest_terms(terms: Mapping) -> tuple[dict, int]:
    """A term map of nonzero ints and Fractions as integer numerators over
    their least common denominator, which shares no factor with them all."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (den // c.denominator)
            for e, c in terms.items()}, den


class Polynomial:
    """Immutable exact polynomial over a declared variable tuple."""

    __slots__ = ("variables", "num", "den", "_hash")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponents, Fraction]):
        variables, clean = tuple(variables), {}
        n = len(variables)
        for exps, c in terms.items():
            if c := _as_fraction(c):
                ints = tuple(int(e) for e in exps)
                if (len(ints) != n or ints != tuple(exps)
                        or any(e < 0 for e in ints)):
                    raise ValueError(
                        f"bad exponent vector {tuple(exps)} for {n} variables")
                clean[ints] = clean.get(ints, 0) + c
        self.variables, self._hash = variables, None
        self.num, self.den = lowest_terms(
            {e: c for e, c in clean.items() if c})

    @classmethod
    def _of(cls, variables: tuple[str, ...], num: dict,
            den: int = 1) -> "Polynomial":
        """num / den, unchecked, for nonzero int numerators on int tuples of
        the ring's length and an int den != 0: one gcd pass, none for 1."""
        if den != 1:
            g = gcd(den, *num.values()) * (1 if den > 0 else -1)
            if g != 1:
                num, den = {e: c // g for e, c in num.items()}, den // g
        p = object.__new__(cls)
        p.variables, p.num, p.den, p._hash = variables, num, den, None
        return p

    @property
    def terms(self) -> Mapping[Exponents, Fraction]:
        """The coefficients as a read-only Fraction view, built per call."""
        return MappingProxyType({e: Fraction(c, self.den)
                                 for e, c in self.num.items()})

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "Polynomial":
        return cls._of(tuple(variables), {})

    @classmethod
    def constant(cls, c, variables: Iterable[str]) -> "Polynomial":
        variables, c = tuple(variables), _as_fraction(c)
        return cls._of(variables, {(0,) * len(variables): c.numerator}
                       if c else {}, c.denominator)

    @classmethod
    def variable(cls, name: str, variables: Iterable[str]) -> "Polynomial":
        variables = tuple(variables)
        i = variables.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls._of(variables, {exps: 1})

    @classmethod
    def monomial(cls, exps: Exponents, c, variables: Iterable[str]) -> "Polynomial":
        return cls(variables, {tuple(exps): _as_fraction(c)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return not any(map(any, self.num))

    def constant_term(self) -> Fraction:
        return Fraction(self.num.get((0,) * len(self.variables), 0), self.den)

    def order(self) -> int:
        """Order of vanishing at the origin (min total degree of support)."""
        if not self.num:
            raise ZeroPolynomial("order of the zero polynomial")
        return min(map(sum, self.num))

    def degree_in(self, var: str) -> int:
        i = self.variables.index(var)
        return max((e[i] for e in self.num), default=-1)

    def degrees(self) -> Exponents:
        """The degree in each variable, 0 throughout for 0."""
        return tuple(map(max, zip(*self.num))) if self.num else \
            (0,) * len(self.variables)

    def leading(self, order: MonomialOrder) -> tuple[Exponents, Fraction]:
        if not self.num:
            raise ZeroPolynomial("leading term of zero")
        e = max(self.num, key=order.key)
        return e, Fraction(self.num[e], self.den)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.variables != other.variables:
            raise VariableMismatch(
                f"{self.variables} vs {other.variables}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.variables)
        self._check(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        num = {e: c * a for e, c in self.num.items()}
        for e, c in other.num.items():
            num[e] = num.get(e, 0) + c * b
        return self._of(self.variables,
                        {e: c for e, c in num.items() if c}, den)

    __radd__ = __add__

    def __neg__(self):
        return self._of(self.variables,
                        {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = _as_fraction(other)
            a = c.numerator
            return self._of(self.variables, {
                e: v * a for e, v in self.num.items()} if a else {},
                self.den * c.denominator)
        self._check(other)
        num: dict[Exponents, int] = {}
        for e1, c1 in self.num.items():
            for e2, c2 in other.num.items():
                e = tuple(map(add, e1, e2))
                num[e] = num.get(e, 0) + c1 * c2
        return self._of(self.variables, {e: c for e, c in num.items() if c},
                        self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(1, self.variables)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.variables)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.variables == other.variables and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.variables, self.den,
                               tuple(sorted(self.num.items()))))
        return self._hash

    # -- calculus and evaluation ------------------------------------------

    def diff(self, var: str) -> "Polynomial":
        i = self.variables.index(var)
        # e -> e - unit_i is one-to-one, so no two terms meet
        return self._of(self.variables, {
            e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
            for e, c in self.num.items() if e[i]}, self.den)

    def evaluate(self, values: Mapping[str, Fraction]) -> Fraction:
        """Evaluate at a full assignment of exact rationals (ints or
        Fractions), on integers: for x_v = p_v / q_v and d_v the degree in
        v, the sum of num_e prod p_v^e_v q_v^(d_v - e_v) over den prod
        q_v^d_v."""
        missing = [v for v in self.variables if v not in values]
        if missing:
            raise VariableMismatch(f"missing values for {missing}")
        den, tables = self.den, []
        for v, d in zip(self.variables, self.degrees()):
            x = _as_fraction(values[v])
            tables.append([x.numerator ** k * x.denominator ** (d - k)
                           for k in range(d + 1)])
            den *= x.denominator ** d
        return Fraction(sum(c * prod(map(list.__getitem__, tables, e))
                            for e, c in self.num.items()), den)

    def restrict(self) -> "Polynomial":
        """Drop variables that do not occur."""
        used = tuple(v for v, d in zip(self.variables, self.degrees()) if d)
        return self if used == self.variables else self.project(used)

    def project(self, variables: Iterable[str]) -> "Polynomial":
        """Reinterpret over another variable tuple, in any order, that may
        add variables or leave some out; fails if one left out occurs."""
        variables = tuple(variables)
        pos = [variables.index(v) if v in variables else None
               for v in self.variables]
        num: dict[Exponents, int] = {}
        for e, c in self.num.items():
            ne = [0] * len(variables)
            for i, k in zip(pos, e):
                if k:
                    if i is None:
                        raise VariableMismatch(
                            "polynomial uses a dropped variable")
                    ne[i] = k
            num[tuple(ne)] = c
        return self._of(variables, num, self.den)

    # -- univariate views --------------------------------------------------

    def coeffs_in(self, var: str) -> list["Polynomial"]:
        """Dense ascending coefficient list w.r.t. var, over the other vars."""
        i = self.variables.index(var)
        rest = self.variables[:i] + self.variables[i + 1:]
        coeffs: list[dict] = [{} for _ in range(self.degree_in(var) + 1)]
        for e, c in self.num.items():
            coeffs[e[i]][e[:i] + e[i + 1:]] = c
        return [self._of(rest, t, self.den) for t in coeffs]

    def univariate_coeffs(self) -> list[int]:
        """Dense ascending coefficients of den * self, which are ints;
        requires <= 1 active variable."""
        if sum(map(bool, degrees := self.degrees())) > 1:
            raise DegreeError("polynomial is not univariate")
        out = [0] * (sum(degrees) + 1) if self.num else []
        for e, c in self.num.items():
            out[sum(e)] = c  # e's one nonzero entry, if any
        return out

    # -- normalization -----------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self/c integral and primitive; 0 for 0."""
        return Fraction(gcd(*self.num.values()), self.den)

    def primitive(self) -> "Polynomial":
        g = gcd(*self.num.values()) or 1
        return self._of(self.variables,
                        {e: c // g for e, c in self.num.items()})

    def exact_div(self, divisor: "Polynomial") -> "Polynomial":
        """Exact quotient self/divisor; raises if division is not exact."""
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        # self/divisor = (a/b) (den_b/den_a), and by Gauss's lemma a/(b/g)
        # is integral when it exists, b/g being primitive
        a, b = self.num, divisor.num
        g = gcd(*b.values())
        big = max((x for e in (*a, *b) for x in e), default=0)
        pk = Packing(LEX, len(self.variables), big.bit_length())
        q = div_terms(pk.pack_terms(a),
                      pk.pack_terms({e: c // g for e, c in b.items()}),
                      pk.guard)
        return self._of(self.variables, {pk.unpack(e): c * divisor.den
                                         for e, c in q.items()}, g * self.den)

    # -- formatting --------------------------------------------------------

    def __str__(self):
        if not self.num:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(),
                           key=lambda t: GREVLEX.key(t[0]), reverse=True):
            mono = "*".join(
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.variables, e) if k)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({self.variables!r}, {self})"


# -- term maps ---------------------------------------------------------------

def div_terms(rem: dict[int, int], divisor: Mapping[int, int],
              guard: int) -> dict[int, int]:
    """Exact quotient of packed term maps; rem is consumed as the remainder.

    Heap division (Monagan & Pearce, "Sparse polynomial division using a
    heap", JSC 2011) on lex ``Packing`` keys and guard mask: the largest
    pending exponent of rem is popped and gives one quotient term, whose
    product with the rest of the divisor is subtracted from rem in place.
    A term that cancels stays in rem as a zero and is skipped when popped.
    """
    de = max(divisor)
    dc = divisor[de]
    tail = [(e, c) for e, c in divisor.items() if e != de]
    heap = [-e for e in rem]  # rem's keys, largest first
    heapify(heap)
    q: dict[int, int] = {}
    while heap:
        e = -heappop(heap)
        c = rem.pop(e)
        if not c:
            continue
        qe = e - de
        qc, r = divmod(c, dc)
        if r or qe & guard:
            raise ValueError("inexact polynomial division")
        q[qe] = qc
        for be, bc in tail:
            te = qe + be
            if te not in rem:
                if te & guard:  # past the dividend's degrees: not exact
                    raise ValueError(
                        "inexact polynomial division (a field outgrows)")
                heappush(heap, -te)
            rem[te] = rem.get(te, 0) - qc * bc
    return q


# -- parsing ---------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\*|/|\+|-|\(|\))")
MAX_NESTING = 200  # "(" and "-" levels; 4 frames each stays under 1000


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...]):
        self.tokens = []
        pos = 0
        text = text.rstrip()  # _TOKEN skips whitespace only before a token
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                raise InvalidInput(f"bad character at {text[pos:pos + 10]!r}")
            self.tokens.append(m.group(1))
            pos = m.end()
        self.i = self.depth = 0
        self.variables = variables

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expr(self) -> Polynomial:
        p = None
        while p is None or self.peek() in ("+", "-"):
            sign = 1
            while self.peek() in ("+", "-"):
                if self.next() == "-":
                    sign = -sign
            term = self.term() * sign
            p = term if p is None else p + term
        return p

    def term(self) -> Polynomial:
        p = self.factor()
        while self.peek() in ("*", "/"):
            op = self.next()
            q = self.factor()
            if op == "*":
                p = p * q
            else:
                if not q.is_constant() or q.constant_term() == 0:
                    raise InvalidInput("division only by nonzero rationals")
                p = p * (1 / q.constant_term())
        return p

    def factor(self) -> Polynomial:
        base = self.atom()
        if self.peek() == "^":
            self.next()
            neg = False
            if self.peek() == "-":
                self.next()
                neg = True
            tok = self.next()
            if tok is None or not tok.isdigit():
                raise InvalidInput("exponent must be a nonnegative integer")
            if neg:
                raise InvalidInput("negative exponents not allowed")
            return base ** int(tok)
        return base

    def atom(self) -> Polynomial:
        tok = self.next()
        if tok is None:
            raise InvalidInput("unexpected end of expression")
        if tok in ("(", "-"):
            if self.depth == MAX_NESTING:
                raise InvalidInput("expression nested deeper than "
                                   f"{MAX_NESTING} levels")
            self.depth += 1
            p = self.expr() if tok == "(" else -self.factor()
            self.depth -= 1
            if tok == "(" and self.next() != ")":
                raise InvalidInput("unbalanced parentheses")
            return p
        if tok.isdigit():
            return Polynomial.constant(int(tok), self.variables)
        if tok in self.variables:
            return Polynomial.variable(tok, self.variables)
        raise InvalidInput(f"unknown variable {tok!r}")


def parse_polynomial(text: str, variables: Iterable[str]) -> Polynomial:
    """Parse an ASCII expression like 'z^3 + w^3 - 3*z*w' exactly."""
    variables = tuple(variables)
    parser = _Parser(text, variables)
    p = parser.expr()
    if parser.peek() is not None:
        raise InvalidInput(f"trailing input at token {parser.peek()!r}")
    return p


def infer_variables(text: str) -> tuple[str, ...]:
    """Variable names appearing in an expression, in order of appearance."""
    seen = []
    for tok in re.findall(r"[A-Za-z_][A-Za-z_0-9]*", text):
        if tok not in seen:
            seen.append(tok)
    return tuple(seen)
