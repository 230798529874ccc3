"""Exact discriminants, Cerf traces, Maxwell scans, equal-level probe."""

import dataclasses
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from singlab import discriminant
from singlab.discriminant import (LAMBDA, PATH_S, cerf_trace,
                                  equal_level_search, exact_discriminant_1d,
                                  maxwell_refine, maxwell_scan, slice_sample)
from singlab.errors import (IdentityViolation, PathOutsideBox,
                            UnsupportedDimension)
from singlab.milnor import unfold_germ
from singlab.morselab import ParameterPoint, morse_report
from singlab.poly import GREVLEX, Polynomial, parse_polynomial
from singlab.realroots import count_distinct_roots
from singlab.resultant import resultant


def U(text, names):
    return unfold_germ(parse_polynomial(text, names))


def T(*xs):
    return ParameterPoint(tuple(Fraction(x) for x in xs))


def sylvester_discriminant(u):
    """The Sylvester-resultant route: Res_z(F - lambda, dF/dz), made
    primitive with a positive top lambda-coefficient."""
    z = u.z_names[0]
    ring = (LAMBDA,) + u.F.variables
    F = u.F.project(ring)
    res = resultant(F - Polynomial.variable(LAMBDA, ring), F.diff(z), z)
    res = res.primitive()
    if res.coeffs_in(LAMBDA)[-1].leading(GREVLEX)[1] < 0:
        res = -res
    return res.restrict()


def to_sympy(p):
    expr = sympy.Integer(0)
    for e, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for name, k in zip(p.variables, e):
            term *= sympy.Symbol(name) ** k
        expr += term
    return expr


@st.composite
def germs_1d(draw, max_degree):
    """sum c_k z^k over 2 <= k <= top <= max_degree with small rational c_k
    and c_top != 0; c_2 = 0 below a higher top, as unfold_germ rejects
    order-2 germs with mu > 1."""
    top = draw(st.integers(2, max_degree))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    coeffs = {(k,): draw(small) for k in range(3, top)}
    coeffs[(top,)] = draw(small.filter(bool))
    return Polynomial(("z",), coeffs)


class TestExactDiscriminant:
    def test_a2_cusp(self):
        curve = exact_discriminant_1d(U("z^3", ("z",)))
        assert str(curve) == "4*t1^3 + 27*lambda^2"

    def test_a3_swallowtail_shape(self):
        curve = exact_discriminant_1d(U("z^4", ("z",)))
        poly = curve.poly
        assert set(poly.variables) == {"lambda", "t1", "t2"}
        assert poly.degree_in("lambda") == 3

    def test_morse_germ_gives_lambda_axis(self):
        curve = exact_discriminant_1d(U("z^2", ("z",)))
        assert str(curve) == "lambda"

    def test_vanishes_exactly_on_multiple_root_locus(self):
        # points (z0, t1) with t1 = -3 z0^2, lambda = -2 z0^3 lie on the curve
        curve = exact_discriminant_1d(U("z^3", ("z",)))
        for num in range(-20, 21):
            z0 = Fraction(num, 7)
            value = curve.poly.evaluate(
                {"t1": -3 * z0 ** 2, "lambda": -2 * z0 ** 3})
            assert value == 0

    def test_2d_unsupported(self):
        with pytest.raises(UnsupportedDimension):
            exact_discriminant_1d(U("z^3 + w^3", ("z", "w")))

    @given(germs_1d(6))
    @settings(max_examples=15, deadline=None)
    def test_agrees_with_sylvester_resultant(self, germ):
        u = unfold_germ(germ)
        assert exact_discriminant_1d(u).poly == sylvester_discriminant(u)

    @pytest.mark.parametrize("germ", [
        "z^2", "z^3", "-z^3", "z^4", "z^5", "2/3*z^3 - z^5",
        "z^3 + z^4 + z^5", "-1/2*z^2", "3*z^4 - 1/5*z^5"])
    def test_agrees_with_sympy_resultant(self, germ):
        # equal up to a nonzero rational factor, over the same variables
        u = U(germ, ("z",))
        ours = exact_discriminant_1d(u).poly
        z, lam = sympy.symbols(("z", LAMBDA))
        F = to_sympy(u.F)
        theirs = sympy.resultant(F - lam, sympy.diff(F, z), z)
        ratio = sympy.cancel(to_sympy(ours) / theirs)
        assert ratio.is_Rational and ratio != 0
        assert set(ours.variables) == {LAMBDA, *u.parameter_names}

    def test_parameter_in_top_coefficient_of_derivative_raises(self):
        u = U("z^3", ("z",))
        t1 = Polynomial.variable("t1", u.F.variables)
        z = Polynomial.variable("z", u.F.variables)
        bad = dataclasses.replace(u, F=u.F + t1 * z ** 3)
        with pytest.raises(IdentityViolation):
            exact_discriminant_1d(bad)


class TestCerfTrace:
    def test_a2_single_death(self):
        trace = cerf_trace(U("z^3", ("z",)), [T(Fraction(-1, 2)),
                                              T(Fraction(1, 2))], steps=40)
        deaths = [e for e in trace.events if e.kind == "death"]
        assert len(deaths) == 1
        assert deaths[0].data["hessian_witness"] < 1e-6
        assert not [e for e in trace.events if e.kind == "unresolved"]

    def test_a3_death_along_t2(self):
        # at fixed t1 = 1/4, two of three critical points merge as t2 rises
        trace = cerf_trace(U("z^4", ("z",)),
                           [T(Fraction(1, 4), -1), T(Fraction(1, 4), 1)],
                           steps=40)
        kinds = [e.kind for e in trace.events]
        assert kinds.count("death") == 1

    def test_constant_path_no_events(self):
        trace = cerf_trace(U("z^3", ("z",)), [T(-1), T(-1)], steps=10)
        assert trace.events == []

    def test_counts_constant_between_events(self):
        trace = cerf_trace(U("z^3", ("z",)), [T(Fraction(-1, 2)),
                                              T(Fraction(1, 2))], steps=40)
        counts = [len(r.points) for r in trace.samples if r is not None]
        assert set(counts) == {0, 2}

    def test_path_outside_box_rejected(self):
        with pytest.raises(PathOutsideBox):
            cerf_trace(U("z^3", ("z",)), [T(0), T(5)], steps=10)


def segment_polynomials(u, a, b):
    """(E, C, X, p) as the one segment a -> b computes them: the arguments
    and result of its _crossing_factor call, and the polynomial whose roots
    it isolates."""
    seen = []
    real = discriminant._crossing_factor

    def spy(E, C):
        seen.append((E, C, real(E, C)))
        return seen[-1][2]
    discriminant._crossing_factor = spy
    try:
        _, p = discriminant._segment_roots(u, [a, b], 0, Fraction(4))
    finally:
        discriminant._crossing_factor = real
    (E, C, X), = seen
    return E, C, X, p


def proportional(ours, theirs):
    ratio = sympy.cancel(to_sympy(ours) / theirs)
    return ratio.is_Rational and ratio != 0


class TestExactEvents:
    """n = 1 events from the roots of exact polynomials in the path's s."""

    def test_maxwell_point_on_a_sample(self):
        # s = 1/2 is sample 16, where t1 = 0 and the two minima are equal
        trace = cerf_trace(U("z^4", ("z",)), [T(-1, -2), T(1, -2)],
                           steps=32, delta=2)
        assert trace.certified
        assert [(e.kind, e.s, e.step) for e in trace.events] == \
            [("maxwell", Fraction(1, 2), 16)]
        assert trace.events[0].data == {"values": [-1.0, -1.0],
                                        "indices": [0, 0]}

    def test_two_crossings_between_adjacent_samples(self):
        # t1 runs 1/8 -> -1/8 -> 1/8 twice: the samples s = 0, 1/2, 1 are
        # all at t = (1/8, -2), and the minima swap at s = k/8, k odd
        e = Fraction(1, 8)
        path = [T(e, -2), T(-e, -2), T(e, -2), T(-e, -2), T(e, -2)]
        trace = cerf_trace(U("z^4", ("z",)), path, steps=2, delta=2)
        assert [len(r.points) for r in trace.samples] == [3, 3, 3]
        assert [(ev.kind, ev.s, ev.step) for ev in trace.events] == [
            ("maxwell", Fraction(k, 8), (k + 3) // 4) for k in (1, 3, 5, 7)]

    def test_exact_maxwell_point(self):
        # t1 = -1/2 + 3s/2 = 0 at s = 1/3, not a dyadic point, where
        # t2 = -3/2 + 1/12
        point = maxwell_refine(U("z^4", ("z",)),
                               T(Fraction(-1, 2), Fraction(-3, 2)),
                               T(1, Fraction(-5, 4)))
        assert point.t == T(0, Fraction(-17, 12))
        assert point.minima[0] == point.minima[1] and point.gap == 0

    def test_path_through_the_cusp_uses_E(self):
        # E = c (2s - 1)^8 (64s - 5)^3 and C = c' (2s - 1)^2 (64s - 5):
        # X = 2s - 1 is exact but shares the cusp root s = 1/2 with C
        u = U("z^4", ("z",))
        a, b = T(Fraction(-1, 2), -1), T(Fraction(1, 2), 1)
        E, C, X, p = segment_polynomials(u, a, b)
        assert X is not None and X.degree_in(PATH_S) == 1
        p.exact_div(E)  # the roots isolated are those of E (times the box)
        # the side reports pass the cusp (one point on both sides) and
        # keep the death at the caustic root 5/64
        trace = cerf_trace(u, [a, b], steps=15)
        assert trace.certified
        assert [(e.kind, e.s) for e in trace.events] == \
            [("death", Fraction(5, 64))]
        assert trace.events[0].data["hessian_witness"] < 1e-6

    def test_death_through_the_origin(self):
        # at t = 0 two critical points of z^5 merge with a third, so |h|
        # drops like a higher power of the distance than at a fold; the
        # witness is still bisected down from an accepted report
        a = T(Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 3))
        trace = cerf_trace(U("z^5", ("z",)), [a, T(*(-x for x in a.t))],
                           steps=31)
        assert [(e.kind, e.s) for e in trace.events] == \
            [("death", Fraction(1, 2))]
        assert trace.events[0].data["hessian_witness"] < 1e-6

    def test_crossing_of_minima_above_the_lowest(self):
        # two of the three minima of z^6 swap at s ~ 0.1935 while a third
        # stays lower: a crossing, not a Maxwell point
        u = U("z^6", ("z",))
        path = [T(Fraction(-1, 2), Fraction(-1, 2), Fraction(3, 2), -2),
                T(Fraction(7, 4), 2, Fraction(-3, 2), 0)]
        trace = cerf_trace(u, path, steps=2, delta=2)
        assert [e.kind for e in trace.events] == \
            ["birth", "crossing", "death", "death"]
        crossing = trace.events[1]
        assert crossing.data["indices"] == [0, 0]
        values = [float(p.value.mid()) for p in morse_report(
            u, discriminant._path_point(path, crossing.s)).points]
        assert min(values) < min(crossing.data["values"]) - 1e-3

    def test_point_leaving_the_box(self):
        # the two points of z^3 + t1 z leave [-1, 1] at t1 = -3, s = 1/2,
        # where F'(1) = F'(-1) = 0; beyond it every report is rejected
        trace = cerf_trace(U("z^3", ("z",)), [T(-4), T(-2)], steps=5,
                           box_radius=1, delta=4)
        assert [(e.s, e.data["reason"]) for e in trace.events] == [
            (0, "degenerate-step"), (Fraction(1, 5), "degenerate-step"),
            (Fraction(2, 5), "degenerate-step"),
            (Fraction(1, 2), "degenerate-side")]

    def test_path_in_the_maxwell_stratum_is_unresolved(self):
        # t1 = 0 all along: the two minima have equal values, so E = 0
        trace = cerf_trace(U("z^4", ("z",)), [T(0, -2), T(0, -1)], steps=4,
                           delta=2)
        assert [(e.kind, e.data) for e in trace.events] == \
            [("unresolved", {"reason": "values-coincide-on-path"})]

    def test_two_variable_trace_is_sampled(self):
        trace = cerf_trace(U("z^3 + w^3", ("z", "w")),
                           [T(-1, 0, 0), T(1, 0, 0)], steps=4)
        assert not trace.certified

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_eliminants_match_sympy(self, k):
        """C ~ Res_z(F', F''), E ~ disc_lambda(Res_z(F - lambda, F')) and
        C^3 X^2 ~ E on seeded paths of A_(k-1) with small dyadic ends."""
        rng = random.Random(k)
        u = U(f"z^{k}", ("z",))
        z, lam, s = sympy.symbols(("z", LAMBDA, PATH_S))
        for _ in range(2):
            a, b = (T(*(Fraction(rng.randint(-8, 8), 8)
                        for _ in u.parameter_names)) for _ in range(2))
            E, C, X, _ = segment_polynomials(u, a, b)
            F = to_sympy(u.F).subs({
                sympy.Symbol(name): x + s * (y - x)
                for name, x, y in zip(u.parameter_names, a, b)})
            dF = sympy.diff(F, z)
            assert proportional(C, sympy.resultant(dF, sympy.diff(dF, z), z))
            D = sympy.resultant(F - lam, dF, z)
            assert proportional(E, sympy.discriminant(D, lam))
            assert X is not None and proportional(E, to_sympy(C ** 3 * X * X))


class TestMaxwell:
    def test_a3_symmetric_maxwell_point(self):
        pts = maxwell_scan(U("z^4", ("z",)),
                           segments=[(T(-1, -2), T(1, -2))])
        assert len(pts) == 1
        assert abs(pts[0].t.t[0]) < Fraction(1, 10 ** 8)
        assert pts[0].gap < 1e-8

    def test_a2_never_two_minima(self):
        assert maxwell_scan(U("z^3", ("z",)), samples=30, seed=3) == []

    def test_refine_needs_basin_switch(self):
        # both endpoints in the same basin: no crossing to find
        u = U("z^4", ("z",))
        assert maxwell_refine(u, T(Fraction(1, 2), -2),
                              T(Fraction(3, 4), -2)) is None


class TestEqualLevel:
    def test_a3_minima_witness(self):
        w = equal_level_search(U("z^4", ("z",)), index=0, budget=60, seed=2)
        assert w is not None and w.flag == "witness"
        assert abs(w.t.t[0]) < 1e-6  # symmetry stratum t1 = 0
        assert w.gap < 1e-8

    def test_a2_singleton(self):
        w = equal_level_search(U("z^3", ("z",)), index=0, budget=40, seed=2)
        assert w is not None and w.flag == "singleton"


class TestSliceSample:
    def test_counts_match_direct_root_isolation(self):
        u = U("z^3", ("z",))
        grid = slice_sample(u, "t1", (Fraction(-2), Fraction(2)),
                            (Fraction(-2), Fraction(2)), {}, grid=4)
        # recompute one cell directly
        lam = Fraction(-2) + Fraction(4) * Fraction(3, 8)  # row 1 center
        t1 = Fraction(-2) + Fraction(4) * Fraction(5, 8)   # col 2 center
        Ft = u.specialize((t1,))
        expected = count_distinct_roots(Ft - lam, Fraction(-4), Fraction(4))
        assert grid.root_counts[1][2] == expected

    def test_disc_signs_follow_exact_discriminant(self):
        u = U("z^3", ("z",))
        grid = slice_sample(u, "t1", (Fraction(-2), Fraction(2)),
                            (Fraction(-2), Fraction(2)), {}, grid=6)
        curve = exact_discriminant_1d(u).poly
        for i in range(6):
            lam = Fraction(-2) + Fraction(4) * Fraction(2 * i + 1, 12)
            for j in range(6):
                t1 = Fraction(-2) + Fraction(4) * Fraction(2 * j + 1, 12)
                val = curve.evaluate({"lambda": lam, "t1": t1})
                sign = 0 if val == 0 else (1 if val > 0 else -1)
                assert grid.disc_signs[i][j] == sign

    def test_single_cell_grid(self):
        grid = slice_sample(U("z^3", ("z",)), "t1",
                            (Fraction(-1), Fraction(1)),
                            (Fraction(-1), Fraction(1)), {}, grid=1)
        assert len(grid.root_counts) == 1 and len(grid.root_counts[0]) == 1
