"""Certified real root isolation for univariate rational polynomials.

Sturm counts isolate, so every returned interval (a RatInterval) provably
contains exactly one distinct real root, and intervals that touch are
halved apart.  Each call builds one Sturm chain, that of the square-free
part; a root's multiplicity is that of the one factor of Yun's square-free
factorization whose sign changes on its interval.
Where a root lies against any other point is the caller's to decide, by
refining its interval.  Every decision is an integer sign: polynomials
are scaled once to primitive integer coefficients and evaluated at p/q
(q > 0) as sum a_i p^i q^(d-i), on intervals (a/d, b/d] as integer_interval
triples a, b, d.  Refinement ends in the cell that bisection ends in,
reached by quadratic interval refinement (Abbott 2014; Kerber & Sagraloff
2011).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from operator import ne

from .errors import InvalidInput, ZeroPolynomial
from .intervals import RatInterval, integer_interval
from .poly import Polynomial

Coeffs = tuple[int, ...]


# -- dense univariate helpers (ascending coefficients) ---------------------

def _strip(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _diff(c):
    return [a * k for k, a in enumerate(c)][1:]


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


def _gcd(a, b) -> tuple[Coeffs, tuple[Coeffs, ...]]:
    """Primitive gcd with positive leading coefficient, and the sequence
    that found it: a, b and the primitive parts of the negated remainders,
    for b = a' the Sturm chain of a (Basu, Pollack & Roy, ch. 2)."""
    seq = [a, b]
    while r := _prem(seq[-2], seq[-1]):
        seq.append(_integer([-x for x in r]))
    return _positive(_integer(seq[-1])), tuple(seq)


def squarefree_decomposition(c) -> list[tuple[Coeffs, int]]:
    """Yun's algorithm on ascending rational coefficients c, computed over
    the integers: [(square-free factor, multiplicity), ...], each factor
    primitive with positive leading coefficient."""
    if len(c) < 2:  # constant
        return []
    c = _positive(_integer(c))
    d = _diff(c)
    g = _gcd(c, _integer(d))[0]
    out = []
    # w and z keep one common scale, which Yun's step z - w' needs
    w, z = _exquo(c, g), _exquo(d, g)
    k = 1
    while len(w) > 1:
        h = _strip([a - b for a, b in zip_longest(z, _diff(w), fillvalue=0)])
        y = _gcd(w, h)[0] if h else w
        if len(y) > 1:
            out.append((y, k))
        if not h:
            break
        w, z = _exquo(w, y), _exquo(h, y)
        k += 1
    return out


def _chain(c) -> tuple[tuple[Coeffs, ...], bool]:
    """The Sturm chain of the square-free part of c (ascending rational
    coefficients, not constant), primitive: the remainder sequence of the
    primitive c and c', or of c / gcd(c, c') when that gcd is not
    constant; and whether c is square-free."""
    c = _positive(_integer(c))
    g, chain = _gcd(c, _integer(_diff(c)))
    if len(g) > 1:
        f = _exquo(c, g)
        chain = _gcd(f, _integer(_diff(f)))[1]
    return chain, len(g) == 1


def _value(c: Coeffs, p: int, q: int) -> int:
    """q^d c(p/q), the sum of c_i p^i q^(d - i): c's sign for q > 0."""
    acc, qk = c[-1], 1
    for a in c[-2::-1]:
        qk *= q
        acc = acc * p + a * qk
    return acc


def sign_changes(values) -> int:
    """Sign changes in a sequence of numbers, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(map(ne, signs, signs[1:]))


def _variations(chain, p: int, q: int) -> int:
    return sign_changes([_value(s, p, q) for s in chain])


def _count(chain, a: int, b: int, d: int) -> int:
    """Distinct real roots of the square-free chain[0] in (a/d, b/d]."""
    return _variations(chain, a, d) - _variations(chain, b, d) if a < b else 0


def _refine(chain, a: int, b: int, d: int, wn: int, wd: int,
            va: int = 0) -> list[int]:
    """[a, b, d, va]: (a, b] / d, holding one root of f = chain[0], bisected
    until no wider than wn / wd, with va of f's sign at a / d (0 where f is
    0), which a caller that knows it may pass; a root at a midpoint ends it
    at mid -+ wn / 4wd.  While f is nonzero and of opposite signs at the
    ends (d^deg f times: va, vb), the root is on no grid point yet, so a
    grid cell shown to hold it is bisection's: QIR jumps m halvings if the
    rounded secant root and a neighbour show it (m doubles), else halves m
    and takes one halving."""
    f, n = chain[0], len(chain[0]) - 1
    va = va or _value(f, a, d)
    k = (-(-(b - a) * wd // (wn * d)) - 1).bit_length()  # halvings to go
    vb, m = _value(f, b, d) if k > 2 else 0, 2
    while k and va * vb < 0:
        m = min(m, k)
        if m > 1:
            num, den = (va, va - vb) if va > 0 else (-va, vb - va)
            g = ((num << m + 1) + den) // (den << 1)
            w, q = b - a, d << m
            p = (a << m) + g * w
            vg = _value(f, p, q)
            right = (vg < 0) == (va < 0)  # the root is right of g
            p -= 0 if right else w
            vl, vh = ((vg, _value(f, p + w, q)) if right
                      else (_value(f, p, q), vg))
            if not vl * vh:
                break
            if (vl < 0) == (va < 0) and (vh < 0) == (vb < 0):
                a, b, d, va, vb, k, m = p, p + w, q, vl, vh, k - m, 2 * m
                continue
            m = max(m // 2, 2)
        vm = _value(f, a + b, 2 * d)
        if not vm:
            break
        if (vm < 0) == (va < 0):
            a, b, va, vb = a + b, 2 * b, vm, vb << n
        else:
            a, b, va, vb = 2 * a, a + b, va << n, vm
        d, k = 2 * d, k - 1
    while (b - a) * wd > wn * d:
        m, a, b, d = a + b, 2 * a, 2 * b, 2 * d
        vm = _value(f, m, d)
        if not vm:
            return [*integer_interval(
                Fraction(4 * m * wd - wn * d, 4 * d * wd),
                Fraction(4 * m * wd + wn * d, 4 * d * wd)), va]
        if ((vm < 0) != (va < 0) if va else _count(chain, a, m, d) >= 1):
            b = m
        else:
            a, va = m, vm
    return [a, b, d, va]


# -- public API ------------------------------------------------------------

@dataclass(frozen=True)
class IsolatingInterval(RatInterval):
    """An interval certified to contain exactly one distinct real root."""

    multiplicity: int = 1
    _chain: tuple[Coeffs, ...] = field(default=(), repr=False, compare=False)

    def refine(self, width: Fraction) -> "IsolatingInterval":
        """Shrink to the requested width, preserving the certification."""
        if width <= 0:
            raise InvalidInput(f"refinement width {width} is not positive")
        a, b, d, _ = _refine(self._chain, *integer_interval(self.lo, self.hi),
                             width.numerator, width.denominator)
        return IsolatingInterval(Fraction(a, d), Fraction(b, d),
                                 self.multiplicity, self._chain)


def isolate_real_roots(p: Polynomial, window: tuple[Fraction, Fraction]
                       ) -> list[IsolatingInterval]:
    """Disjoint isolating intervals for the distinct real roots in window."""
    if p.is_zero():
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    lo, hi = Fraction(window[0]), Fraction(window[1])
    if lo > hi:
        raise InvalidInput("empty window")
    c = p.univariate_coeffs()
    if len(c) < 2:
        return []
    chain, squarefree = _chain(c)
    f = chain[0]
    # f is nonzero at the ends of an emitted (a, b], whose one root is a
    # simple root of exactly one of Yun's coprime factors: the one whose
    # sign changes there
    *owners, (_, last) = ([(f, 1)] if squarefree
                          else squarefree_decomposition(c))
    out: list[list[int]] = []  # [a, b, d, va as in _refine, multiplicity]

    def emit(a: int, b: int, d: int, va: int):
        out.append([a, b, d, va, next((m for g, m in owners if
                                       _value(g, a, d) * _value(g, b, d) < 0),
                                      last)])

    def exact_root(r: int, s: int, e: int) -> tuple[int, int]:
        # (r - w, r + w] / ce for w = s / 4 (or 1/4) halved to isolate r
        w, r, c = s or e, 4 * r, 4
        while (_count(chain, r - w, r + w, c * e) != 1
               or not (va := _value(f, r - w, c * e))):
            r, c = 2 * r, 2 * c
        emit(r - w, r + w, c * e, va)
        return w, c

    def halve(iv: list[int]):  # one evaluation of f: its sign at a is known
        iv[:4] = _refine(chain, *iv[:3], iv[1] - iv[0], 2 * iv[2], iv[3])

    a, b, d = integer_interval(lo, hi)
    # Window endpoints that are themselves roots get tight private intervals.
    w, c = exact_root(a, b - a, d) if _value(f, a, d) == 0 else (0, 1)
    a, b, d = c * a + w, c * b, c * d
    # no stacked (x, y] starts at a root, so when it holds one root of the
    # square-free f and f(y) != 0, f(x) has the sign of -f(y)
    stack = [(a, b, d, _variations(chain, a, d), _variations(chain, b, d))]
    while stack:
        x, y, d, vx, vy = stack.pop()  # vx, vy: the variations at x/d, y/d
        k = vx - vy if x < y else 0
        if k == 1 and (fy := _value(f, y, d)):
            emit(x, y, d, -fy)
        elif k == 1:  # y is the single root in (x, y]
            exact_root(y, y - x, d)
        elif k > 1:
            x, y, m, d = 2 * x, 2 * y, x + y, 2 * d
            # a root at m gets its own interval, cut out of both halves
            w, c = exact_root(m, y - x, d) if _value(f, m, d) == 0 else (0, 1)
            l, r, d = c * m - w, c * m + w, c * d
            vl = _variations(chain, l, d)
            vr = _variations(chain, r, d) if w else vl
            stack += [(c * x, l, d, vx, vl), (r, c * y, d, vr, vy)]
    out.sort(key=lambda iv: Fraction(iv[0], iv[2]))
    # touching closed intervals are shrunk until pairwise disjoint
    for s, t in zip(out, out[1:]):
        while s[1] * t[2] >= t[0] * s[2]:
            halve(s)
            halve(t)
    return [IsolatingInterval(Fraction(a, d), Fraction(b, d), m, chain)
            for a, b, d, _, m in out]


def count_distinct_roots(p: Polynomial, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of p in the closed interval [lo, hi]."""
    if p.is_zero():
        raise ZeroPolynomial("zero polynomial")
    c = p.univariate_coeffs()
    if len(c) < 2:
        return 0
    a, b, d = integer_interval(Fraction(lo), Fraction(hi))
    chain = _chain(c)[0]
    return _count(chain, a, b, d) + (_value(chain[0], a, d) == 0)
