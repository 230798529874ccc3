"""Certified univariate real root isolation against sympy's counts."""

import dataclasses
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singlab import morselab, realroots
from singlab.errors import BoxEscape, DegenerateParameter, InvalidInput
from singlab.poly import parse_polynomial
from singlab.realroots import (IsolatingInterval, count_distinct_roots,
                               isolate_real_roots, squarefree_decomposition)


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
    if a >= b:
        return 0

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


def _ref_isolate(expr, lo, hi):
    """isolate_real_roots on Fractions: Sturm-count bisection of (lo, hi],
    a private interval for each root at a window end or a midpoint, then
    touching intervals halved apart; [lo, hi, multiplicity] each."""
    c = _sqfree(expr)
    chain = _ref_chain(c)
    owners = [(_ref_chain(_ascending(g)), m)
              for g, m in sympy.sqf_list(expr, Z)[1]]
    out = []

    def emit(a, b):
        out.append([a, b, next(m for ch, m in owners if _ref_count(ch, a, b))])

    def exact_root(r, scale):
        w = scale / 4 if scale > 0 else Fraction(1, 4)
        while _ref_count(chain, r - w, r + w) != 1 or _ref_eval(c, r - w) == 0:
            w /= 2
        emit(r - w, r + w)
        return w

    if _ref_eval(c, lo) == 0:
        lo += exact_root(lo, (hi - lo) or Fraction(1))
    stack = [(lo, hi)]
    while stack:
        x, y = stack.pop()
        k = _ref_count(chain, x, y)
        if k == 1 and _ref_eval(c, y):
            emit(x, y)
        elif k == 1:
            exact_root(y, y - x)
        elif k > 1:
            m = (x + y) / 2
            w = exact_root(m, y - x) if _ref_eval(c, m) == 0 else 0
            stack += [(x, m - w), (m + w, y)]
    out.sort(key=lambda iv: iv[0])
    for a, b in zip(out, out[1:]):
        while a[1] >= b[0]:
            a[:2] = _ref_refine(c, a[0], a[1], (a[1] - a[0]) / 2)
            b[:2] = _ref_refine(c, b[0], b[1], (b[1] - b[0]) / 2)
    return out


def _ref_boxes(expr, r):
    """morselab._boxes for n = 1 on Fractions, R = expr: each interval from
    the Cauchy window is refined to VALUE_WIDTH, then by quarters, until a
    box lies inside (-r, r), its point's first box, or outside it, which
    raises BoxEscape; so does a 40th box still undecided.  A multiple root
    is rejected after every box is decided."""
    coeffs = _ascending(expr)
    bound = 1 + max(abs(x / coeffs[-1]) for x in coeffs[:-1])
    window = max(bound + 1, r + 1)
    c, out = _sqfree(expr), []
    roots = _ref_isolate(expr, -window, window)
    for lo, hi, _ in roots:
        lo, hi = _ref_refine(c, lo, hi, morselab.VALUE_WIDTH)
        for _ in range(40):
            if hi <= -r or lo >= r:
                raise BoxEscape(f"critical point with z near "
                                f"{float((lo + hi) / 2):.3f} outside "
                                f"[-{r}, {r}]")
            if -r < lo and hi < r:
                out.append((lo, hi))
                break
            lo, hi = _ref_refine(c, lo, hi, (hi - lo) / 4)
        else:
            raise BoxEscape("critical point on the box boundary")
    if any(m > 1 for *_, m in roots):
        raise DegenerateParameter("F_t has a degenerate critical point")
    return out


def _first_boxes(expr, r):
    """The first box of each point of morselab._boxes on F = the integral
    of expr, so that R = F' = expr."""
    F = _singlab_poly(sympy.integrate(expr, Z))
    return [(box["z"].lo, box["z"].hi) for box in
            map(next, morselab._boxes(F, [F.diff("z")], ("z",), r))]


def _ascending(expr):
    return [Fraction(int(c.p), int(c.q))
            for c in reversed(sympy.Poly(expr, Z).all_coeffs())]


def _sqfree(expr):
    """Ascending Fraction coefficients of the square-free part."""
    return _ascending(sympy.Poly(expr, Z).sqf_part())


POLY = st.tuples(st.lists(st.integers(-6, 6), min_size=1, max_size=5),
                 st.lists(st.integers(-12, 12), max_size=3))
# fewer, closer roots: repeated ones, and ones on window ends, more often
CLOSE = st.tuples(st.lists(st.integers(-6, 6), min_size=1, max_size=4),
                  st.lists(st.integers(-8, 8), max_size=4))


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

    def test_empty_window_is_invalid_input(self):
        with pytest.raises(InvalidInput, match="empty window"):
            isolate_real_roots(P("z^2 - 2"), (Fraction(1), Fraction(0)))

    @given(CLOSE, st.integers(-40, 40), st.integers(0, 40))
    @example(([1], [2]), 2, 0)  # the window is the one point 1/2, a root
    @settings(max_examples=60, deadline=None)
    def test_matches_fraction_isolation(self, poly, lo, length):
        # window ends and roots both on the grid of quarters
        expr = _sympy_poly(*poly)
        if sympy.degree(expr, Z) < 1:
            return
        window = (Fraction(lo, 4), Fraction(lo + length, 4))
        got = isolate_real_roots(_singlab_poly(expr), window)
        assert [[iv.lo, iv.hi, iv.multiplicity] for iv in got] == \
            _ref_isolate(expr, *window)

    @given(POLY, st.integers(1, 24),
           st.sampled_from([Fraction(0), Fraction(1, 1000),
                            Fraction(-1, 2 ** 30), Fraction(1, 3)]))
    @example(([1], [4]), 4, Fraction(0))  # the root is r: boundary
    # the root is 2^-62 inside r, so quarters of the first box decide it
    @example(([1], [4]), 4, Fraction(1, 2 ** 62))
    @example(([1], [4, 4]), 8, Fraction(0))  # a double root inside
    # a double root at 0, and a root at 3 outside: the box decides first
    @example(([1], [0, 0, 12]), 4, Fraction(0))
    @settings(max_examples=60, deadline=None)
    def test_box_matches_fraction_straddle_loop(self, poly, quarters, offset):
        # box radius at or near a root k/4, so intervals straddle it
        expr = _sympy_poly(*poly)
        if sympy.degree(expr, Z) < 1:
            return
        r = Fraction(quarters, 4) + offset
        try:
            want = _ref_boxes(expr, r)
        except (BoxEscape, DegenerateParameter) as exc:
            with pytest.raises(type(exc)) as got:
                _first_boxes(expr, r)
            assert str(got.value) == str(exc)
        else:
            assert _first_boxes(expr, r) == want

    def test_root_undecided_after_forty_boxes_is_boundary(self):
        # r is the upper end of the 40th box about sqrt(2): the root is
        # inside (-r, r), but only a 41st box would show it
        expr, c = Z ** 2 - 2, _sqfree(Z ** 2 - 2)
        lo, hi, _ = _ref_isolate(expr, Fraction(-4), Fraction(4))[1]
        lo, hi = _ref_refine(c, lo, hi, morselab.VALUE_WIDTH)
        for _ in range(39):
            lo, hi = _ref_refine(c, lo, hi, (hi - lo) / 4)
        r = hi
        assert _ref_refine(c, lo, hi, (hi - lo) / 4)[1] < r
        with pytest.raises(BoxEscape, match="boundary"):
            _ref_boxes(expr, r)
        with pytest.raises(BoxEscape, match="boundary"):
            _first_boxes(expr, r)

    def test_each_halving_evaluates_f_once(self, monkeypatch):
        # the intervals about 1, sqrt(2) and 3/2 touch, so they are halved
        # apart; the sign of f at each low end is known
        p = P("(z - 1)*(z - 3/2)*(z^2 - 2)")
        window = (Fraction(-4), Fraction(4))
        want = isolate_real_roots(p, window)
        calls, per_halving = [], []
        value, refine = realroots._value, realroots._refine

        def counted_value(c, x, q):
            calls.append(c)
            return value(c, x, q)

        def counted_refine(*args):
            before = len(calls)
            out = refine(*args)
            per_halving.append(len(calls) - before)
            return out
        monkeypatch.setattr(realroots, "_value", counted_value)
        monkeypatch.setattr(realroots, "_refine", counted_refine)
        got = isolate_real_roots(p, window)
        assert per_halving == [1] * 6
        assert got == want


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

    def test_nonpositive_width_is_rejected(self):
        iv = isolate_real_roots(P("z^2 - 2"), (Fraction(-4), Fraction(4)))[1]
        for width in (Fraction(0), Fraction(-1, 8)):
            with pytest.raises(InvalidInput, match="not positive"):
                iv.refine(width)

    @pytest.mark.parametrize("lo, hi, most", [(1, 2, 16), (0, 10, 40)])
    def test_quadratic_refinement_evaluation_count(self, monkeypatch,
                                                   lo, hi, most):
        # bisection to 2^-60 evaluates f 61 times from (1, 2], 65 from (0, 10]
        chain = isolate_real_roots(P("z^2 - 2"),
                                   (Fraction(0), Fraction(4)))[0]._chain
        calls = []
        value = realroots._value

        def counted(c, p, q):
            calls.append(c == chain[0])
            return value(c, p, q)
        monkeypatch.setattr(realroots, "_value", counted)
        width = Fraction(1, 2 ** 60)
        got = IsolatingInterval(Fraction(lo), Fraction(hi), 1,
                                chain).refine(width)
        assert sum(calls) <= most
        monkeypatch.undo()
        assert (got.lo, got.hi) == _ref_refine(
            [Fraction(-2), Fraction(0), Fraction(1)], Fraction(lo),
            Fraction(hi), width)


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

    @given(st.one_of(POLY, CLOSE))
    @example(([1], [2, 2, -3]))  # (4z - 2)^2 (4z + 3)
    @example(([-2, 0, 1], []))  # z^2 - 2
    @settings(max_examples=80, deadline=None)
    def test_chain_is_the_sturm_chain_built_from_scratch(self, poly):
        # one remainder sequence, of c and c' for a square-free c, else of
        # c / gcd(c, c'); isolation receives the Fraction Sturm chain of the
        # square-free part, made primitive
        expr = _sympy_poly(*poly)
        if sympy.degree(expr, Z) < 1:
            return
        f = _sqfree(expr)
        f = f if f[-1] > 0 else [-x for x in f]
        want = tuple(realroots._integer(m) for m in _ref_chain(f))
        squarefree = sympy.Poly(expr, Z).is_sqf
        assert realroots._chain(_ascending(expr)) == (want, squarefree)
        for iv in isolate_real_roots(_singlab_poly(expr),
                                     (Fraction(-16), Fraction(16))):
            assert iv._chain == want


def _sturm_owner(factors, a, b, d):
    """The multiplicity of the one Yun factor with a root in (a/d, b/d], by
    a Sturm count on each factor's own chain."""
    return next(m for g, m in factors if realroots._count(
        realroots._gcd(g, realroots._integer(realroots._diff(g)))[1],
        a, b, d))


# (scale, k, e): the factor (scale z - k)^e, whose root k / scale is on the
# grid of quarters, or close to another root
FACTORS = st.lists(st.tuples(st.sampled_from([4, 4, 64, 1024]),
                             st.integers(-16, 16), st.integers(1, 3)),
                   min_size=2, max_size=4)


class TestOwningFactor:
    @given(FACTORS, st.integers(-24, 8), st.integers(0, 32))
    # a double root on the first bisection midpoint, 0
    @example([(4, 0, 2), (4, 4, 1)], -16, 32)
    # a double root at the low end of the window, a triple one at its high end
    @example([(4, -4, 2), (4, 8, 3)], -4, 12)
    # close roots 1/4 and 17/64, each repeated
    @example([(4, 1, 2), (64, 17, 3), (4, -8, 1)], -16, 32)
    @settings(max_examples=80, deadline=None)
    def test_sign_change_names_the_sturm_count_owner(self, factors, lo,
                                                     length):
        # a product of two to four factors, repeated and close roots: the
        # intervals are the reference's, and so is each multiplicity, that
        # of the one Yun factor whose own Sturm chain counts a root there
        expr = sympy.expand(sympy.prod([(a * Z - k) ** e
                                        for a, k, e in factors]))
        window = (Fraction(lo, 4), Fraction(lo + length, 4))
        got = isolate_real_roots(_singlab_poly(expr), window)
        assert [[iv.lo, iv.hi, iv.multiplicity] for iv in got] == \
            _ref_isolate(expr, *window)
        yun = squarefree_decomposition(_ascending(expr))
        for iv in got:
            a, b, d = realroots.integer_interval(iv.lo, iv.hi)
            assert iv.multiplicity == _sturm_owner(yun, a, b, d)
