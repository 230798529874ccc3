"""Certified univariate real root isolation against sympy's counts."""

import dataclasses
from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from singlab.poly import parse_polynomial
from singlab.realroots import (count_distinct_roots, isolate_real_roots,
                               squarefree_decomposition)


def P(text):
    return parse_polynomial(text, ("z",))


Z = sympy.Symbol("z")


def _sympy_poly(coeffs, roots):
    """sum c_i z^i times prod (4z - k): rational roots k/4 hit dyadic
    bisection points."""
    return sympy.expand(sum(c * Z ** i for i, c in enumerate(coeffs))
                        * sympy.prod([4 * Z - k for k in roots]))


def _singlab_poly(expr):
    return parse_polynomial(str(expr).replace("**", "^"), ("z",))


# -- reference refine: bisection by a Fraction Sturm count at every step -----

def _ref_eval(c, x):
    acc = Fraction(0)
    for a in reversed(c):
        acc = acc * x + a
    return acc


def _ref_rem(a, b):
    a = list(a)
    while len(a) >= len(b):
        coef = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, y in enumerate(b):
            a[shift + i] -= coef * y
        while a and a[-1] == 0:
            a.pop()
    return a


def _ref_chain(c):
    chain = [c, [x * k for k, x in enumerate(c)][1:]]
    while r := _ref_rem(chain[-2], chain[-1]):
        chain.append([-x for x in r])
    return chain


def _ref_count(chain, a, b):
    """Distinct roots of the square-free chain[0] in (a, b]."""
    def variations(x):
        signs = [v > 0 for v in (_ref_eval(s, x) for s in chain) if v != 0]
        return sum(u != v for u, v in zip(signs, signs[1:]))
    return variations(a) - variations(b)


def _ref_refine(c, lo, hi, width):
    chain = _ref_chain(c)
    while hi - lo > width:
        mid = (lo + hi) / 2
        if _ref_eval(c, mid) == 0:
            half = min(width, hi - lo) / 4
            return mid - half, mid + half
        if _ref_count(chain, lo, mid) >= 1:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _sqfree(expr):
    """Ascending Fraction coefficients of the square-free part."""
    part = sympy.Poly(expr, Z).sqf_part()
    return [Fraction(int(c.p), int(c.q)) for c in reversed(part.all_coeffs())]


POLY = st.tuples(st.lists(st.integers(-6, 6), min_size=1, max_size=5),
                 st.lists(st.integers(-12, 12), max_size=3))


class TestIsolation:
    def test_sqrt_two(self):
        roots = isolate_real_roots(P("z^2 - 2"), (Fraction(-2), Fraction(2)))
        assert len(roots) == 2
        assert all(r.multiplicity == 1 for r in roots)
        lo = roots[0].refine(Fraction(1, 1000))
        assert lo.lo < Fraction(-141421, 100000) < lo.hi

    def test_double_root_multiplicity(self):
        roots = isolate_real_roots(P("z^2"), (Fraction(-1), Fraction(1)))
        assert len(roots) == 1
        assert roots[0].multiplicity == 2
        assert roots[0].lo <= 0 <= roots[0].hi

    def test_multiplicities_of_several_factors(self):
        roots = isolate_real_roots(P("(z - 1)^2 * (z + 2)^3 * (z - 3)"),
                                   (Fraction(-5), Fraction(5)))
        assert [r.multiplicity for r in roots] == [3, 2, 1]

    @given(st.lists(st.integers(-1, 1), min_size=1, max_size=3),
           st.lists(st.integers(-3, 3), max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_multiplicities_match_sympy(self, coeffs, roots):
        expr = _sympy_poly(coeffs, roots)
        if sympy.degree(expr, Z) < 1:
            return
        mults: dict = {}
        for r in sympy.real_roots(expr):
            mults[r] = mults.get(r, 0) + 1
        got = isolate_real_roots(_singlab_poly(expr),
                                 (Fraction(-10), Fraction(10)))
        assert [iv.multiplicity for iv in got] == list(mults.values())

    def test_no_real_roots(self):
        assert isolate_real_roots(P("z^2 + 1"),
                                  (Fraction(-10), Fraction(10))) == []

    def test_rational_roots_found_exactly(self):
        roots = isolate_real_roots(P("(z - 1/2)*(z + 3)"),
                                   (Fraction(-5), Fraction(5)))
        assert len(roots) == 2
        for r in roots:
            r = r.refine(Fraction(1, 10 ** 9))
            assert r.hi - r.lo <= Fraction(1, 10 ** 9)

    def test_intervals_are_disjoint(self):
        roots = isolate_real_roots(P("z^3 - z"), (Fraction(-2), Fraction(2)))
        assert len(roots) == 3
        for a, b in zip(roots, roots[1:]):
            assert a.hi < b.lo

    @given(st.lists(st.integers(-6, 6), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_count_matches_sympy(self, coeffs):
        if all(c == 0 for c in coeffs[1:]):
            return
        z = sympy.Symbol("z")
        poly = sum(c * z ** i for i, c in enumerate(coeffs))
        expected = len({r for r in sympy.real_roots(poly)
                        if -10 <= r <= 10})
        p = parse_polynomial(
            " + ".join(f"{c}*z^{i}" for i, c in enumerate(coeffs) if c)
            or "0", ("z",))
        roots = isolate_real_roots(p, (Fraction(-10), Fraction(10)))
        assert len(roots) == expected


class TestRefine:
    @given(POLY, st.integers(1, 2 ** 70))
    @settings(max_examples=60, deadline=None)
    def test_matches_fraction_sturm_bisection(self, poly, den):
        expr = _sympy_poly(*poly)
        if sympy.degree(expr, Z) < 1:
            return
        c = _sqfree(expr)
        width = Fraction(1, den)
        roots = isolate_real_roots(_singlab_poly(expr),
                                   (Fraction(-10), Fraction(10)))
        for iv in roots:
            got = iv.refine(width)
            assert (got.lo, got.hi) == _ref_refine(c, iv.lo, iv.hi, width)

    def test_root_at_lo_uses_sturm_count(self):
        # (1, hi] still holds one root, 5/4, but lo = 1 is itself a root,
        # so the sign of f(lo) cannot steer the bisection
        p = P("(z - 1)^2 * (4*z - 5)")
        iv = isolate_real_roots(p, (Fraction(0), Fraction(2)))[1]
        assert iv.lo < Fraction(5, 4) < iv.hi
        iv = dataclasses.replace(iv, lo=Fraction(1))
        width = Fraction(1, 2 ** 40)
        got = iv.refine(width)
        assert (got.lo, got.hi) == _ref_refine(
            [Fraction(5), Fraction(-9), Fraction(4)], iv.lo, iv.hi, width)
        assert got.lo < Fraction(5, 4) < got.hi
        assert got.hi - got.lo <= width


class TestCounting:
    def test_closed_interval_endpoints(self):
        assert count_distinct_roots(P("z^2 - 1"), Fraction(-1),
                                    Fraction(1)) == 2
        assert count_distinct_roots(P("z^2 - 1"), Fraction(0),
                                    Fraction(2)) == 1

    def test_quartic_fiber_counts(self):
        # z^4 - 2z^2 = lambda has 2 roots above and 0 below its values
        f = P("z^4 - 2*z^2")
        assert count_distinct_roots(f - P("1"), Fraction(-4), Fraction(4)) == 2
        assert count_distinct_roots(f + P("2"), Fraction(-4), Fraction(4)) == 0

    @given(POLY, st.integers(-40, 40), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_closed_interval_matches_sympy(self, poly, lo, length):
        # endpoints on the grid of quarters, where the rational roots lie
        expr = _sympy_poly(*poly)
        if sympy.degree(expr, Z) < 1:
            return
        a, b = sympy.Rational(lo, 4), sympy.Rational(lo + length, 4)
        expected = len({r for r in sympy.real_roots(expr) if a <= r <= b})
        assert count_distinct_roots(_singlab_poly(expr), Fraction(lo, 4),
                                    Fraction(lo + length, 4)) == expected


class TestSquarefree:
    def test_yun_multiplicities(self):
        # (z-1)^2 (z+2) splits into multiplicity-1 and multiplicity-2 parts
        p = P("(z - 1)^2 * (z + 2)")
        factors = squarefree_decomposition(p.univariate_coeffs())
        mults = sorted(m for _, m in factors)
        assert mults == [1, 2]

    def test_squarefree_input_unchanged(self):
        p = P("z^3 - z")
        factors = squarefree_decomposition(p.univariate_coeffs())
        assert [m for _, m in factors] == [1]
