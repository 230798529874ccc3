"""Rational intervals for certified sign evaluation.

Endpoints are exact Fractions (ints are taken, floats refused), so a sign
decided on an interval is a proof.
``enclose`` bounds a polynomial over a box on integers, exactly as
term-by-term Fraction products would; ``eval_interval`` wraps it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .poly import Polynomial, _as_fraction


@dataclass(frozen=True)
class RatInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        for end in ("lo", "hi"):
            object.__setattr__(self, end, _as_fraction(getattr(self, end)))
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def width(self) -> Fraction:
        return self.hi - self.lo

    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def sign(self) -> int | None:
        """+1/-1 when the sign is certain, None when 0 is inside."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.lo == self.hi == 0:
            return 0
        return None

    def mag(self) -> Fraction:
        """Upper bound on |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def mignitude(self) -> Fraction:
        """Lower bound on |x| over the interval (0 if it straddles 0)."""
        if self.contains_zero():
            return Fraction(0)
        return min(abs(self.lo), abs(self.hi))

    def intersect(self, other: "RatInterval") -> "RatInterval | None":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return RatInterval(lo, hi) if lo <= hi else None

    def subset_of(self, other: "RatInterval") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi


def integer_box(box) -> dict[str, tuple[int, int, int]]:
    """Each interval of box (with Fraction lo and hi) as integers (lo, hi, q)
    for [lo, hi] / q, where q is the lcm of the endpoint denominators."""
    return {v: (iv.lo.numerator * (q // iv.lo.denominator),
                iv.hi.numerator * (q // iv.hi.denominator), q)
            for v, iv in box.items()
            for q in (lcm(iv.lo.denominator, iv.hi.denominator),)}


def enclose(p: Polynomial, box) -> tuple[int, int, int]:
    """[lo, hi] / den encloses p over an ``integer_box``.  On p's cached
    integer form, x_v^k, the k-fold interval product, is built once per
    variable and scaled to q_v^deg_v: the exact products of a term-by-term
    Fraction loop, over den = den_p * prod q_v^deg_v."""
    terms, den, degrees = p.integer_form()
    powers = []  # (i, [q_i^deg_i * x_i^k as integer pairs, k = 0..deg_i])
    for i, (v, d) in enumerate(zip(p.variables, degrees)):
        if not d:
            continue
        lo, hi, q = box[v]
        pw = [(1, 1)]
        for _ in range(d):
            pl, ph = pw[-1]
            prods = (pl * lo, pl * hi, ph * lo, ph * hi)
            pw.append((min(prods), max(prods)))
        den *= q ** d
        powers.append((i, [(pl * q ** (d - k), ph * q ** (d - k))
                           for k, (pl, ph) in enumerate(pw)]))
    lo = hi = 0
    for e, c in terms.items():
        tl = th = c
        for i, pw in powers:
            pl, ph = pw[e[i]]
            prods = (tl * pl, tl * ph, th * pl, th * ph)
            tl, th = min(prods), max(prods)
        lo, hi = lo + tl, hi + th
    return lo, hi, den


def eval_interval(p: Polynomial, box: dict[str, RatInterval]) -> RatInterval:
    """``enclose`` as a RatInterval."""
    lo, hi, den = enclose(p, integer_box(box))
    return RatInterval(Fraction(lo, den), Fraction(hi, den))
