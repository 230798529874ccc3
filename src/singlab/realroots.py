"""Certified real root isolation for univariate rational polynomials.

Sturm counts isolate, so every returned interval provably contains exactly
one distinct real root; multiplicities come from Yun's square-free
factorization.  Refinement bisects on the sign of the square-free part.
Every decision is an integer sign: polynomials are scaled once to primitive
integer coefficients and evaluated at p/q (q > 0) as sum a_i p^i q^(d-i).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from .errors import ZeroPolynomial
from .poly import Polynomial

Coeffs = tuple[int, ...]


# -- dense univariate helpers (ascending coefficients) ---------------------

def _strip(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _diff(c):
    return [a * k for k, a in enumerate(c)][1:]


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _strip(out)


def _integer(c) -> Coeffs:
    """The primitive integer multiple of c (rationals) by a positive factor."""
    den = lcm(*(a.denominator for a in c))
    ints = [a.numerator * (den // a.denominator) for a in c]
    g = gcd(*ints)
    return tuple(a // g for a in ints)


def _positive(c) -> Coeffs:
    return tuple(c) if c[-1] > 0 else tuple(-a for a in c)


def _prem(a, b) -> list[int]:
    """A positive multiple of the remainder of a by b: each step scales a
    by |lc(b)| before cancelling its leading term."""
    a = list(a)
    m, s = abs(b[-1]), (1 if b[-1] > 0 else -1)
    while len(a) >= len(b):
        t, k = s * a[-1], len(a) - len(b)
        a = [m * x for x in a]
        for i, y in enumerate(b):
            a[k + i] -= t * y
        _strip(a)
    return a


def _exquo(a, b) -> Coeffs:
    """a / b, for a primitive b dividing a (so the quotient is integral)."""
    a, q = list(a), [0] * (len(a) - len(b) + 1)
    for k in reversed(range(len(q))):
        q[k] = a[k + len(b) - 1] // b[-1]
        for i, y in enumerate(b):
            a[k + i] -= q[k] * y
    return tuple(q)


def _gcd(a, b) -> Coeffs:
    """Primitive gcd with positive leading coefficient."""
    while b:
        a, b = b, _integer(_prem(a, b))
    return _positive(_integer(a))


def squarefree_decomposition(c) -> list[tuple[Coeffs, int]]:
    """Yun's algorithm on ascending rational coefficients c, computed over
    the integers: [(square-free factor, multiplicity), ...], each factor
    primitive with positive leading coefficient."""
    if len(c) < 2:  # constant
        return []
    c = _positive(_integer(c))
    d = _diff(c)
    g = _gcd(c, d)
    out = []
    # w and z keep one common scale, which Yun's step z - w' needs
    w, z = _exquo(c, g), _exquo(d, g)
    k = 1
    while len(w) > 1:
        h = _strip([a - b for a, b in zip_longest(z, _diff(w), fillvalue=0)])
        y = _gcd(w, h) if h else w
        if len(y) > 1:
            out.append((y, k))
        if not h:
            break
        w, z = _exquo(w, y), _exquo(h, y)
        k += 1
    return out


def _sign(c: Coeffs, p: int, q: int) -> int:
    """Sign of c(p/q) for q > 0, from the sum of c_i p^i q^(d - i)."""
    acc, qk = c[-1], 1
    for a in c[-2::-1]:
        qk *= q
        acc = acc * p + a * qk
    return (acc > 0) - (acc < 0)


def _sign_at(c: Coeffs, x: Fraction) -> int:
    return _sign(c, x.numerator, x.denominator)


def _sturm_chain(c) -> tuple[Coeffs, ...]:
    """Sturm sequence of c, each member as primitive integer coefficients."""
    f = _integer(c)
    chain = [f, _integer(_diff(f))]
    while r := _prem(chain[-2], chain[-1]):
        chain.append(_integer([-x for x in r]))
    return tuple(chain)


def _variations(chain, x: Fraction) -> int:
    n = prev = 0
    p, q = x.numerator, x.denominator
    for s in chain:
        v = _sign(s, p, q)
        if v:
            n += prev == -v
            prev = v
    return n


def _count_halfopen(chain, a: Fraction, b: Fraction) -> int:
    """Distinct real roots of the (square-free) chain polynomial in (a, b]."""
    if a >= b:
        return 0
    return _variations(chain, a) - _variations(chain, b)


def _squarefree_chain(c: list[Fraction]):
    """Yun factors of c, and the Sturm chain of c's square-free part."""
    if len(c) < 2:
        return [], ()
    factors = squarefree_decomposition(c)
    sqfree = (1,)
    for f, _ in factors:
        sqfree = _mul(sqfree, f)
    return factors, _sturm_chain(sqfree)


# -- public API ------------------------------------------------------------

@dataclass
class IsolatingInterval:
    """An interval certified to contain exactly one distinct real root."""

    lo: Fraction
    hi: Fraction
    multiplicity: int = 1
    _chain: tuple[Coeffs, ...] = field(default=(), repr=False, compare=False)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def refine(self, width: Fraction) -> "IsolatingInterval":
        """Shrink to the requested width, preserving the certification.

        (lo, hi] holds one simple root of the square-free part f, so it lies
        in (lo, mid] exactly when f(lo) and f(mid) differ in sign; only a
        root at lo needs the Sturm count.
        """
        chain = self._chain
        f = chain[0]
        # lo = a/d and hi = b/d over one denominator, doubled at each step
        d = lcm(self.lo.denominator, self.hi.denominator)
        a, b = int(self.lo * d), int(self.hi * d)
        wn, wd = width.numerator, width.denominator
        s_lo = _sign(f, a, d)
        while (b - a) * wd > wn * d:
            m, a, b, d = a + b, 2 * a, 2 * b, 2 * d
            s_mid = _sign(f, m, d)
            if s_mid == 0:
                mid = Fraction(m, d)
                half = min(width, Fraction(b - a, d)) / 4
                return IsolatingInterval(mid - half, mid + half,
                                         self.multiplicity, chain)
            if (s_mid != s_lo if s_lo else _count_halfopen(
                    chain, Fraction(a, d), Fraction(m, d)) >= 1):
                b = m
            else:
                a, s_lo = m, s_mid
        return IsolatingInterval(Fraction(a, d), Fraction(b, d),
                                 self.multiplicity, chain)


def isolate_real_roots(p: Polynomial, window: tuple[Fraction, Fraction]
                       ) -> list[IsolatingInterval]:
    """Disjoint isolating intervals for the distinct real roots in window."""
    if p.is_zero():
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    lo, hi = Fraction(window[0]), Fraction(window[1])
    if lo > hi:
        raise ValueError("empty window")
    factors, chain = _squarefree_chain(p.univariate_coeffs())
    if not chain:
        return []
    f = chain[0]
    # the one root in an emitted (a, b] is a root of exactly one factor
    owners = [(_sturm_chain(g), mult) for g, mult in factors[:-1]]
    out: list[IsolatingInterval] = []

    def emit(a: Fraction, b: Fraction):
        mult = next((m for ch, m in owners if _count_halfopen(ch, a, b)),
                    factors[-1][1])
        out.append(IsolatingInterval(a, b, mult, chain))

    def exact_root(r: Fraction, scale: Fraction):
        w = scale / 4 if scale > 0 else Fraction(1, 4)
        while (_count_halfopen(chain, r - w, r + w) != 1
               or _sign_at(f, r - w) == 0):
            w /= 2
        emit(r - w, r + w)
        return w

    # Window endpoints that are themselves roots get tight private intervals.
    if _sign_at(f, lo) == 0:
        lo += exact_root(lo, (hi - lo) or Fraction(1))
    stack = [(lo, hi)]
    while stack:
        x, y = stack.pop()
        k = _count_halfopen(chain, x, y)
        if k == 0:
            continue
        if k == 1:
            if _sign_at(f, y):
                emit(x, y)
            else:  # y is the single root in (x, y]
                exact_root(y, y - x)
            continue
        m = (x + y) / 2
        # a root at m gets its own interval, cut out of both halves
        w = exact_root(m, y - x) if _sign_at(f, m) == 0 else 0
        stack += [(x, m - w), (m + w, y)]
    out.sort(key=lambda iv: iv.lo)
    # touching closed intervals are shrunk until pairwise disjoint
    for i in range(len(out) - 1):
        while out[i].hi >= out[i + 1].lo:
            out[i] = out[i].refine(out[i].width() / 2)
            out[i + 1] = out[i + 1].refine(out[i + 1].width() / 2)
    return out


def count_distinct_roots(p: Polynomial, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of p in the closed interval [lo, hi]."""
    if p.is_zero():
        raise ZeroPolynomial("zero polynomial")
    _, chain = _squarefree_chain(p.univariate_coeffs())
    if not chain:
        return 0
    lo, hi = Fraction(lo), Fraction(hi)
    return _count_halfopen(chain, lo, hi) + (_sign_at(chain[0], lo) == 0)
