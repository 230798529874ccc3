"""Exact discriminants, Cerf traces, Maxwell scans, equal-level probe."""

import dataclasses
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from singlab import cli, discriminant
from singlab.discriminant import (LAMBDA, PATH_S, VALUE_TOL,
                                  EqualLevelWitness, _report_at, cerf_trace,
                                  equal_level_search, exact_discriminant_1d,
                                  maxwell_refine, maxwell_scan, slice_sample)
from singlab.errors import (IdentityViolation, InvalidInput, PathOutsideBox,
                            UnsupportedDimension)
from singlab.intervals import RatInterval
from singlab.milnor import Unfolding, unfold_germ
from singlab.morselab import (DEFAULT_BOX_RADIUS, DEFAULT_DELTA,
                              CriticalPoint, MorseReport, ParameterPoint,
                              morse_report, sample_parameters)
from singlab.poly import GREVLEX, Polynomial, parse_polynomial
from singlab.realroots import (count_distinct_roots, isolate_real_roots,
                               squarefree_decomposition)
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


def segment_polynomials(u, a, b, r=Fraction(4)):
    """(E, C, X, p) as the one segment a -> b computes them, box radius r:
    the arguments and result of its _crossing_factor call, and the
    polynomial whose roots it isolates."""
    seen = []
    real = discriminant._crossing_factor

    def spy(E, C):
        seen.append((E, C, real(E, C)))
        return seen[-1][2]
    discriminant._crossing_factor = spy
    try:
        _, p = discriminant._segment_roots(u, [a, b], 0, r)
    finally:
        discriminant._crossing_factor = real
    (E, C, X), = seen
    return E, C, X, p


def spans(p, window):
    """The ends of p's isolating intervals in window."""
    return [(iv.lo, iv.hi) for iv in isolate_real_roots(p, window)]


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

    def test_crossing_that_does_not_refine_is_unresolved(self, monkeypatch):
        # t1 = 0 at s = 1/2, where the two minima swap; when no refinement
        # of the root makes their values agree, the swap stays as a marker
        path = [T(Fraction(-1, 2), Fraction(-3, 2)),
                T(Fraction(1, 2), Fraction(-3, 2))]
        u = U("z^4", ("z",))
        trace = cerf_trace(u, path, steps=8, delta=2)
        assert [(e.kind, e.s, e.step) for e in trace.events] == \
            [("maxwell", Fraction(1, 2), 4)]
        monkeypatch.setattr(discriminant, "_agree", lambda *args: False)
        trace = cerf_trace(u, path, steps=8, delta=2)
        assert [(e.kind, e.s, e.step, e.data) for e in trace.events] == \
            [("unresolved", Fraction(1, 2), 4,
              {"reason": "crossing-unrefined"})]

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
        assert X.degree_in(PATH_S) == 1
        # the roots isolated are those of E (times the box)
        assert spans(p, (0, 1)) == spans(p * E, (0, 1))
        # the side reports pass the cusp (one point on both sides) and
        # keep the death at the caustic root 5/64; sample 8 is the cusp,
        # rejected, and adds no marker as it is a root of p
        trace = cerf_trace(u, [a, b], steps=16)
        assert trace.certified and trace.samples[8] is None
        assert [(e.kind, e.s) for e in trace.events] == \
            [("death", Fraction(5, 64))]
        assert trace.events[0].data["hessian_witness"] < 1e-6

    def test_rejected_sample_on_a_root_adds_no_marker(self):
        # sample 16 is t = 0, a root of the path's polynomial with one
        # critical point on both sides: only the death is reported
        a = T(Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 3),
              Fraction(-1, 4))
        trace = cerf_trace(U("z^6", ("z",)), [a, T(*(-x for x in a.t))],
                           steps=32)
        assert trace.samples[16] is None
        assert [e.kind for e in trace.events] == ["death"]
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

    def test_birth_through_the_origin(self):
        # test_death_through_the_origin run backwards: the pair is born at
        # s = 1/2 and the rich side is the right one
        a = T(Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 3))
        trace = cerf_trace(U("z^5", ("z",)), [T(*(-x for x in a.t)), a],
                           steps=31)
        assert [(e.kind, e.s) for e in trace.events] == \
            [("birth", Fraction(1, 2))]
        assert trace.events[0].data["hessian_witness"] < 1e-6

    def test_root_at_an_inner_breakpoint_is_kept_once(self):
        # the minima of z^4 - 2 z^2 + t1 z swap at t1 = 0, the breakpoint
        # s = 1/2, which both segments isolate
        trace = cerf_trace(U("z^4", ("z",)), [T(-1, -2), T(0, -2), T(1, -2)],
                           steps=4, delta=2)
        assert [(e.kind, e.s) for e in trace.events] == \
            [("maxwell", Fraction(1, 2))]

    def test_hessian_witness_is_compared_exactly(self):
        # |h| = 10^-6 - 10^-40 < tol = 10^-6, though both are the float
        # 1e-6: with every midpoint rejected, a float comparison would
        # bisect 200 times and end unresolved
        h = Fraction(1, 10 ** 6) - Fraction(1, 10 ** 40)
        assert float(h) == 1e-6

        def point(z):
            return CriticalPoint((RatInterval(z, z),), RatInterval(0, 0), 0,
                                 1, RatInterval(h, h))
        rich = MorseReport(T(0), [point(0), point(1)], (2,), 0, 0, True)
        tol = Fraction(1, 10 ** 6)
        for ends in ((0, 1), (1, 0)):  # a death's rich end is 0, a birth's 1
            probes = []
            s, witness = discriminant._refine_count_change(
                probes.append, *map(Fraction, ends), tol, rich)
            assert type(witness) is Fraction and witness == h < tol
            assert (s, probes) == (Fraction(1, 2), [])

    @pytest.mark.parametrize("rich, poor, event", [
        (Fraction(0), Fraction(1), Fraction(2, 3)),
        (Fraction(1), Fraction(0), Fraction(1, 3)),
    ], ids=["death", "birth"])
    def test_bisection_moves_the_rich_end(self, rich, poor, event):
        # two points on the rich side of the event, |h| = |s - event| there,
        # none on the other: the bracket closes on the event from either side
        def point(z, h):
            return CriticalPoint((RatInterval(z, z),), RatInterval(0, 0), 0,
                                 1, RatInterval(h, h))

        def report(s):
            if (s - event) * (rich - event) <= 0:
                return MorseReport(T(0), [], (0,), 0, 0, True)
            h = abs(s - event)
            return MorseReport(T(0), [point(0, h), point(1, h)], (2,), 0, 0,
                               True)
        tol = Fraction(1, 1000)
        s, witness = discriminant._refine_count_change(
            report, rich, poor, tol, report(rich))
        assert type(witness) is Fraction and witness < tol
        assert abs(s - event) < tol

    def test_crossing_factor_checks_the_identity(self):
        s = Polynomial.variable(PATH_S, (PATH_S,))
        C = s - 1
        assert discriminant._crossing_factor(C ** 3 * (s - 2) ** 2 * 5,
                                             C) == s - 2
        with pytest.raises(IdentityViolation):  # not divisible by C^3
            discriminant._crossing_factor(C ** 2 * (s - 2) ** 2, C)
        for q in (s - 2, s * s + 1):  # E / C^3 is not a square
            with pytest.raises(IdentityViolation):
                discriminant._crossing_factor(C ** 3 * q, C)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_segment_roots_are_the_roots_of_E(self, k):
        """On seeded segments of A_(k-1) with random, sparse and symmetric
        ends, p = C X F'(r) F'(-r) isolates the intervals of p E: E's
        roots with the box factors', square-free or not."""
        rng = random.Random(20 + k)
        u = U(f"z^{k}", ("z",))
        m, repeated = len(u.parameter_names), 0
        for j in range(9):
            a = [Fraction(rng.randint(-12, 12), 8) for _ in range(m)]
            b = [Fraction(rng.randint(-12, 12), 8) for _ in range(m)]
            if j % 3 == 1:  # sparse: one nonzero coordinate at each end
                a = [x if i == j % m else 0 for i, x in enumerate(a)]
                b = [x if i == (j + 1) % m else 0 for i, x in enumerate(b)]
            elif j % 3 == 2:  # symmetric about t = 0
                b = [-x for x in a]
            r = (Fraction(4), Fraction(1), Fraction(1, 2))[j // 3]
            E, C, X, p = segment_polynomials(u, T(*a), T(*b), r)
            assert spans(p, (0, 1)) == spans(p * E, (0, 1))
            repeated += any(mult > 1 for _, mult in squarefree_decomposition(
                p.univariate_coeffs()))
        assert repeated  # some p has a repeated factor

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

    def test_path_in_the_maxwell_stratum_has_no_event(self, capsys):
        # t1 = 0 all along: the two minima have equal values, so E = 0;
        # they never meet the value of the maximum, so nothing happens
        trace = cerf_trace(U("z^4", ("z",)), [T(0, -2), T(0, -1)], steps=4,
                           delta=2)
        assert trace.events == []
        assert cli.main(["cerf", "z^4", "--path=0,-2;0,-1", "--steps", "4",
                         "--delta", "2"]) == 0

    @pytest.mark.parametrize("germ,path,steps,j,death", [
        ("z^4", [T(0, -2), T(0, 1)], 6, 1, (Fraction(2, 3), 4)),
        ("z^6", [T(0, Fraction(1, 4), 0, -1), T(0, Fraction(-3, 4), 0, 1)],
         8, 2, (Fraction(1, 4), 2))], ids=["z4", "z6"])
    def test_values_that_agree_all_along(self, monkeypatch, germ, path,
                                         steps, j, death):
        # F is even in z, so the values at z and -z agree and E = 0: S_1,
        # ..., S_j are taken until a top coefficient is not 0, and the
        # death where the pairs merge into z = 0 is found
        seen, real = [], discriminant.subresultant
        monkeypatch.setattr(discriminant, "subresultant", lambda *args: (
            seen.append(args[3]), real(*args))[1])
        trace = cerf_trace(U(germ, ("z",)), path, steps=steps, delta=2)
        assert seen == list(range(1, j + 1))
        assert [(e.kind, e.s, e.step) for e in trace.events] == \
            [("death", *death)]
        assert trace.events[0].data["hessian_witness"] < 1e-6

    def test_path_inside_the_caustic(self):
        # F' = z^2 (5z^2 + 3 t3) has a double root all along, so C = 0 and
        # is left out; every report is rejected, at z = 0 if not before
        trace = cerf_trace(U("z^5", ("z",)), [T(0, 0, -1), T(0, 0, 1)],
                           steps=4)
        assert [(e.s, e.data["reason"]) for e in trace.events] == [
            (0, "degenerate-step"), (Fraction(1, 4), "degenerate-step"),
            (Fraction(1, 2), "degenerate-side"),
            (Fraction(3, 4), "degenerate-step"), (1, "degenerate-step")]

    @pytest.mark.parametrize("k", [4, 6])
    def test_even_paths_match_sympy(self, k):
        """On seeded paths with F even in z (so E = 0), every event is a
        real root in (0, 1) of C E_red F'(r) F'(-r), E_red the
        discriminant of D / gcd(D, dD/dlambda), and every such root is
        reported where sympy's critical points in the box differ on its
        two sides: a birth or death where their count changes, a crossing
        or Maxwell point where the order of their values does."""
        rng = random.Random(k)
        u = U(f"z^{k}", ("z",))
        even = [g.degree_in("z") % 2 == 0 for g in u.deformation_monomials]
        z, lam, s = sympy.symbols(("z", LAMBDA, PATH_S))
        r = DEFAULT_BOX_RADIUS

        def value_ranks(F, at):
            """For each real critical point in the box, left to right, the
            number of points with a lower value."""
            Fs = sympy.Poly(F.subs(s, Fraction(at)), z)
            values = [float(Fs.eval(x)) for x in
                      Fs.diff(z).sqf_part().real_roots() if -r < x < r]
            return [sum(w < v - 1e-9 for w in values) for v in values]
        kinds = []
        for _ in range(4):
            a, b = (T(*(Fraction(rng.randint(-16, 16), 8) if e else 0
                        for e in even)) for _ in range(2))
            trace = cerf_trace(u, [a, b], steps=8, delta=2)
            F = to_sympy(u.F).subs({
                sympy.Symbol(name): x + s * (y - x)
                for name, x, y in zip(u.parameter_names, a, b)})
            dF = sympy.diff(F, z)
            D = sympy.Poly(sympy.resultant(F - lam, dF, z), lam, s)
            D_red = sympy.div(D, sympy.gcd(D, D.diff(lam)))[0]
            factors = (sympy.resultant(dF, sympy.diff(dF, z), z),
                       sympy.discriminant(D_red.as_expr(), lam),
                       dF.subs(z, r), dF.subs(z, -r))
            Q = sympy.Poly(sympy.Mul(*(f for f in factors if f != 0)), s)
            roots = sorted({float(x) for x in Q.real_roots() if 0 < x < 1})
            for e in trace.events:
                if e.kind != "unresolved":
                    assert min((abs(x - e.s) for x in roots),
                               default=1) < 1e-9, e
            ends = [0, *roots, 1]
            sides = [value_ranks(F, (x + y) / 2)
                     for x, y in zip(ends, ends[1:])]
            for x, left, right in zip(roots, sides, sides[1:]):
                if len(left) != len(right):
                    want = {"birth" if len(right) > len(left) else "death"}
                elif left != right:
                    want = {"crossing", "maxwell"}
                else:
                    continue
                assert [e for e in trace.events if e.kind in want
                        and abs(e.s - x) < 1e-9], (a, b, x, want)
                kinds.append(min(want))
        assert {"death", "crossing"} <= set(kinds) if k == 6 else kinds

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

    def test_two_variable_basin_bisection(self):
        # n = 2: the global minimizer switches basins along the segment,
        # and the bisection stops where the two lowest minima agree
        pts = maxwell_scan(U("z^3 + w^4", ("z", "w")), samples=2, seed=0)
        assert len(pts) == 1
        assert pts[0].gap < 1e-8
        assert pts[0].minima[0] == pytest.approx(pts[0].minima[1], abs=1e-8)

    @pytest.mark.parametrize("rejected,empty,found", [
        ([Fraction(1, 2)], [], Fraction(29671899, 67108864)),
        ([Fraction(1, 2), Fraction(127, 256)], [], None),
        ([], [Fraction(1, 2)], None)],
        ids=["midpoint", "midpoint-and-nudge", "no-minimum"])
    def test_two_variable_rejected_midpoint(self, monkeypatch, rejected,
                                            empty, found):
        # the seed-0 segment of test_two_variable_basin_bisection, whose
        # bisection ends at s = 927247/2097152: a rejected midpoint is
        # nudged to s = 127/256, and a rejected nudge, or a midpoint with
        # no critical point, ends the search
        u = U("z^3 + w^4", ("z", "w"))
        a, b = list(sample_parameters(u, 4, DEFAULT_DELTA, 0))[2:]

        def s_of(t):
            return (t.t[0] - a.t[0]) / (b.t[0] - a.t[0])
        assert s_of(maxwell_refine(u, a, b).t) == Fraction(927247, 2097152)
        probes, real = [], discriminant._report_at

        def report_at(u, t, r):
            probes.append(s := s_of(t))
            if s in rejected:
                return None
            rep = real(u, t, r)
            return dataclasses.replace(rep, points=[]) if s in empty else rep
        monkeypatch.setattr(discriminant, "_report_at", report_at)
        point = maxwell_refine(u, a, b)
        assert (Fraction(127, 256) in probes) == bool(rejected)
        assert (point and s_of(point.t)) == found
        if point:
            assert point.minima[1] - point.minima[0] < 1e-8

    def test_two_variable_bisection_that_never_agrees(self, monkeypatch):
        # with the two lowest minima never agreeing, the bisection stops
        # after 80 midpoints
        u = U("z^3 + w^4", ("z", "w"))
        a, b = list(sample_parameters(u, 4, DEFAULT_DELTA, 0))[2:]
        monkeypatch.setattr(discriminant, "_agree", lambda *args: False)
        probes, real = [], discriminant._report_at
        monkeypatch.setattr(discriminant, "_report_at", lambda *args: (
            probes.append(args[1]), real(*args))[1])
        assert maxwell_refine(u, a, b) is None
        assert len(probes) == 2 + 80

    def test_refine_needs_basin_switch(self):
        # both endpoints in the same basin: no crossing to find
        u = U("z^4", ("z",))
        assert maxwell_refine(u, T(Fraction(1, 2), -2),
                              T(Fraction(3, 4), -2)) is None


# The search as it was when level_gap and _gap_at evaluated each probe,
# with no cache; kept verbatim as the reference for equal_level_search.

def reference_equal_level_search(u: Unfolding, index: int, budget: int = 200,
                       tol: Fraction = VALUE_TOL,
                       delta: Fraction = DEFAULT_DELTA, seed: int = 0,
                       box_radius: Fraction = DEFAULT_BOX_RADIUS
                       ) -> EqualLevelWitness | None:
    """Heuristic coordinate descent toward equal index-i critical values.

    Absence of a witness proves nothing; a parameter with at most one
    index-i point qualifies vacuously and is flagged 'singleton'.
    """
    if not 0 <= index <= u.n:
        raise InvalidInput(f"index: {index} is not between 0 and {u.n}")
    r = Fraction(box_radius)
    grid = 2 ** 24

    def level_gap(t: ParameterPoint):
        rep = _report_at(u, t, r)
        if rep is None:
            return None, None
        vals = sorted(float(p.value.mid()) for p in rep.points
                      if p.index == index)
        if len(vals) < 2:
            return vals, 0.0
        return vals, vals[-1] - vals[0]

    start = None
    singleton = None
    for t in sample_parameters(u, budget, delta, seed):
        vals, gap = level_gap(t)
        if vals is None:
            continue
        if len(vals) >= 2:
            if start is None or gap < start[1]:
                start = (t, gap, vals)
        elif singleton is None:
            singleton = EqualLevelWitness(
                t=t, index=index, values=vals, gap=0.0, flag="singleton")
    if start is None:
        return singleton
    t, gap, vals = start
    coords = list(t.t)
    for _ in range(60):
        if gap < float(tol):
            break
        improved = False
        for k in range(len(coords)):
            lo, hi = -Fraction(delta), Fraction(delta)
            for _ in range(48):
                third = (hi - lo) / 3
                x1 = Fraction(round((lo + third) * grid), grid)
                x2 = Fraction(round((hi - third) * grid), grid)
                g1 = _gap_at(level_gap, coords, k, x1)
                g2 = _gap_at(level_gap, coords, k, x2)
                if g1 is None and g2 is None:
                    break
                if g2 is None or (g1 is not None and g1 <= g2):
                    hi = hi - third
                else:
                    lo = lo + third
                if hi - lo < Fraction(1, grid):
                    break
            best_x = Fraction(round((lo + hi) / 2 * grid), grid)
            g = _gap_at(level_gap, coords, k, best_x)
            if g is not None and g < gap:
                coords[k] = best_x
                gap = g
                improved = True
        if not improved:
            break
    vals, final_gap = level_gap(ParameterPoint(tuple(coords)))
    if vals is None or len(vals) < 2:
        return singleton
    if final_gap < float(tol):
        return EqualLevelWitness(t=ParameterPoint(tuple(coords)), index=index,
                                 values=vals, gap=final_gap, flag="witness")
    return singleton


def _gap_at(level_gap, coords, k, x):
    trial = list(coords)
    trial[k] = x
    vals, gap = level_gap(ParameterPoint(tuple(trial)))
    if vals is None or len(vals) < 2:
        return None
    return gap


class TestEqualLevel:
    def test_a3_minima_witness(self):
        w = equal_level_search(U("z^4", ("z",)), index=0, budget=60, seed=2)
        assert w is not None and w.flag == "witness"
        assert abs(w.t.t[0]) < 1e-6  # symmetry stratum t1 = 0
        assert w.gap < 1e-8

    def test_a2_singleton(self):
        w = equal_level_search(U("z^3", ("z",)), index=0, budget=40, seed=2)
        assert w is not None and w.flag == "singleton"

    @pytest.mark.parametrize("text", ["z^2", "z^2 + w^2", "z^3", "z^4", "z^5",
                                      "z^6", "z^3 + w^3"])
    def test_same_witness_as_the_reference(self, text):
        # z^2 has no parameters: its singleton is at t = ()
        u = U(text, tuple("zw"[:text.count("^")]))
        for index in range(u.n + 1):
            for seed in range(3):
                for budget in (5, 20):
                    assert repr(equal_level_search(u, index, budget,
                                                   seed=seed)) == \
                        repr(reference_equal_level_search(u, index, budget,
                                                          seed=seed))


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
