"""Rational intervals for certified sign evaluation.

Endpoints are exact Fractions (ints are taken, floats refused), so a sign
decided on an interval is a proof.  ``sign`` is the one sign rule, also
for integer intervals [lo, hi] / den (den > 0), which ``integer_interval``
makes; ``enclose`` bounds a polynomial over a box of them, exactly as
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

    def sign(self) -> int | None:
        return sign(self.lo, self.hi)

    def mag(self) -> Fraction:
        """Upper bound on |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))


def sign(lo, hi) -> int | None:
    """+1/-1 when [lo, hi] (or [lo, hi] / den) is certainly positive or
    negative, 0 for [0, 0], None when 0 is inside."""
    return 1 if lo > 0 else -1 if hi < 0 else 0 if lo == hi == 0 else None


def integer_interval(lo: Fraction, hi: Fraction) -> list[int]:
    """[a, b, q] with [lo, hi] = [a, b] / q, q the lcm of the denominators."""
    q = lcm(lo.denominator, hi.denominator)
    return [lo.numerator * (q // lo.denominator),
            hi.numerator * (q // hi.denominator), q]


def integer_box(box) -> dict[str, list[int]]:
    """Each interval of box as its ``integer_interval``."""
    return {v: integer_interval(iv.lo, iv.hi) for v, iv in box.items()}


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
