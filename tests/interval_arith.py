"""Point intervals and interval arithmetic on RatInterval, for the oracles
of the tests.

The enclosure kernel in ``singlab.intervals`` works on integers; these
endpoint formulas are the term-by-term rational arithmetic it must match.
"""

from singlab.intervals import RatInterval


def point(x) -> RatInterval:
    return RatInterval(x, x)


def _coerce(x) -> RatInterval:
    return x if isinstance(x, RatInterval) else point(x)


def add(a, b) -> RatInterval:
    a, b = _coerce(a), _coerce(b)
    return RatInterval(a.lo + b.lo, a.hi + b.hi)


def neg(a) -> RatInterval:
    a = _coerce(a)
    return RatInterval(-a.hi, -a.lo)


def sub(a, b) -> RatInterval:
    return add(a, neg(b))


def mul(a, b) -> RatInterval:
    a, b = _coerce(a), _coerce(b)
    prods = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return RatInterval(min(prods), max(prods))


def inverse(a: RatInterval) -> RatInterval:
    if a.lo <= 0 <= a.hi:
        raise ZeroDivisionError("interval straddles zero")
    return RatInterval(1 / a.hi, 1 / a.lo)
