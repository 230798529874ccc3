"""Rational interval arithmetic: enclosure and sign semantics."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interval_arith import add, inverse, mul, point, sub
from singlab.intervals import RatInterval, enclose, eval_interval, integer_box
from singlab.poly import Polynomial, parse_polynomial

rationals = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=64)


@st.composite
def intervals(draw):
    a, b = sorted((draw(rationals), draw(rationals)))
    return RatInterval(a, b)


@st.composite
def boxes(draw):
    """Intervals with non-dyadic endpoints, points, and 0-straddling ones."""
    positive = rationals.filter(lambda x: x > 0)
    return draw(st.one_of(intervals(), rationals.map(point),
                          st.builds(lambda a, b: RatInterval(-a, b),
                                    positive, positive)))


@st.composite
def polynomials_on_boxes(draw):
    """p in 1-3 variables of degree <= 7 and a box for its variables; one
    variable may be of degree 0 and missing from the box."""
    names = ("x", "y", "z")[:draw(st.integers(1, 3))]
    absent = draw(st.sampled_from(names + (None,)))
    exps = st.tuples(*(st.integers(0, 0 if v == absent else 7)
                       for v in names)).filter(lambda e: sum(e) <= 7)
    terms = draw(st.dictionaries(exps, rationals.filter(bool), min_size=1,
                                 max_size=6))
    return (Polynomial(names, terms),
            {v: draw(boxes()) for v in names if v != absent})


def reference_eval_interval(p, box):
    """Term-by-term Fraction interval evaluation, x^k as k - 1 products."""
    total = point(0)
    for e, c in p.terms.items():
        term = point(c)
        for v, k in zip(p.variables, e):
            if k:
                x = box[v]
                powr = x
                for _ in range(k - 1):
                    powr = mul(powr, x)
                term = mul(term, powr)
        total = add(total, term)
    return total


class TestArithmetic:
    def test_sign_resolution(self):
        assert RatInterval(Fraction(1), Fraction(2)).sign() == 1
        assert RatInterval(Fraction(-2), Fraction(-1)).sign() == -1
        assert RatInterval(Fraction(-1), Fraction(1)).sign() is None
        assert point(Fraction(0)).sign() == 0

    def test_inverse_excludes_zero(self):
        iv = inverse(RatInterval(Fraction(2), Fraction(4)))
        assert iv.lo == Fraction(1, 4) and iv.hi == Fraction(1, 2)

    @given(intervals(), intervals(), rationals, rationals)
    @settings(max_examples=80, deadline=None)
    def test_containment_under_operations(self, a, b, x, y):
        # interval ops enclose the pointwise results for contained points
        x = min(max(x, a.lo), a.hi)
        y = min(max(y, b.lo), b.hi)
        assert add(a, b).lo <= x + y <= add(a, b).hi
        assert sub(a, b).lo <= x - y <= sub(a, b).hi
        assert mul(a, b).lo <= x * y <= mul(a, b).hi


class TestExactEndpoints:
    @pytest.mark.parametrize("make", [
        lambda: RatInterval(0.1, 0.3),
        lambda: RatInterval(Fraction(0), 0.5),
        lambda: point(0.1),
        lambda: add(point(Fraction(0)), 0.1),
        lambda: mul(point(Fraction(1)), 0.5),
    ])
    def test_float_endpoint_is_refused(self, make):
        with pytest.raises(TypeError):
            make()

    def test_int_endpoints_become_fractions(self):
        iv = RatInterval(0, 1)
        assert type(iv.lo) is Fraction and type(iv.hi) is Fraction
        assert iv.mid() == Fraction(1, 2) and type(iv.mid()) is Fraction


class TestEvaluation:
    def test_polynomial_enclosure(self):
        p = parse_polynomial("z^2 - z", ("z",))
        box = {"z": RatInterval(Fraction(0), Fraction(1))}
        iv = eval_interval(p, box)
        # true range is [-1/4, 0]; the enclosure may be wider but not smaller
        assert iv.lo <= Fraction(-1, 4) and iv.hi >= Fraction(0)

    @given(intervals(), rationals)
    @settings(max_examples=80, deadline=None)
    def test_point_evaluation_inside(self, iv, x):
        x = min(max(x, iv.lo), iv.hi)
        p = parse_polynomial("z^3 - 2*z + 1", ("z",))
        enclosure = eval_interval(p, {"z": iv})
        value = p.evaluate({"z": x})
        assert enclosure.lo <= value <= enclosure.hi

    @given(polynomials_on_boxes())
    @settings(max_examples=300, deadline=None)
    def test_same_enclosure_as_fraction_loop(self, case):
        # exact equality: a kernel that widens (or wrongly narrows) the
        # enclosure fails here, which containment alone would not catch
        p, box = case
        got, want = eval_interval(p, box), reference_eval_interval(p, box)
        assert got.lo == want.lo and got.hi == want.hi


class TestIntegerForm:
    """The integer form each Polynomial caches for ``enclose``."""

    TEXT = "z^3/3 - 2*z*w + w^2/5 - 7/6"
    BOX = {"z": RatInterval(Fraction(-1, 3), Fraction(1, 2)),
           "w": RatInterval(Fraction(2, 7), Fraction(5, 7))}

    def test_cache_changes_neither_eq_nor_hash(self):
        p, q = (parse_polynomial(self.TEXT, ("z", "w")) for _ in range(2))
        hash_before = hash(p)
        enclose(p, integer_box(self.BOX))  # fills p's cache, not q's
        assert p == q and q == p
        assert hash(p) == hash(q) == hash_before
        assert {p: 1}[q] == 1

    def test_same_triple_on_first_and_second_call(self):
        p = parse_polynomial(self.TEXT, ("z", "w"))
        box = integer_box(self.BOX)
        first = enclose(p, box)
        assert enclose(p, box) == first
        assert eval_interval(p, self.BOX) == RatInterval(
            Fraction(first[0], first[2]), Fraction(first[1], first[2]))

    def test_integer_box_is_exact(self):
        box = integer_box({"x": RatInterval(Fraction(-1, 6), Fraction(3, 4))})
        lo, hi, q = box["x"]
        assert (q, Fraction(lo, q), Fraction(hi, q)) == (
            12, Fraction(-1, 6), Fraction(3, 4))
