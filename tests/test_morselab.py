"""Certified Morse data at parameter points; scans, Euler checks, probes."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from singlab.critmap import sign_relation_check
from singlab import morselab
from singlab.errors import (BoxEscape, DegenerateParameter, IdentityViolation,
                            InvalidInput)
from test_discriminant import to_sympy
from singlab.intervals import RatInterval
from singlab.milnor import unfold_germ
from singlab.morselab import (ParameterPoint, critical_points,
                              degree_invariance_scan, euler_fiber_check,
                              herman_probe, morse_report, report_or_reason,
                              sample_parameters)
from singlab.poly import Polynomial, parse_polynomial
from singlab.serialize import dumps, jsonable

R2 = Fraction(2)


def U(text, names):
    return unfold_germ(parse_polynomial(text, names))


def T(*xs):
    return ParameterPoint(tuple(Fraction(x) for x in xs))


GOLDEN_MORSE = Path(__file__).parent / "golden" / "morse_reports.json"
GOLDEN_OUTCOMES = Path(__file__).parent / "golden" / "morse_outcomes.json"
# The morse-scan benchmark germs, each at a dyadic t and a non-dyadic t.
MORSE_CASES = (
    ("z^5", ("z",), ("1/64", "1/32", "-1"), ("1/63", "1/33", "-1")),
    ("z^7", ("z",), ("-1/64", "1/32", "3/4", "1/16", "-3/2"),
     ("-1/63", "1/33", "2/3", "1/17", "-3/2")),
    ("z^3 + w^3", ("z", "w"), ("-1/2", "-1/4", "1/8"),
     ("-1/3", "-1/5", "1/7")),
    ("z^3 + w^4", ("z", "w"), ("-1/2", "1/8", "1/8", "-1", "-1/16"),
     ("-1/3", "1/9", "1/7", "-1", "-1/11")),
)


def morse_report_bytes() -> dict[str, str]:
    """Serialized morse_report of every MORSE_CASES point at r = 4 and 1."""
    out = {}
    for germ, names, *points in MORSE_CASES:
        u = U(germ, names)
        for r in (4, 1):
            for t in points:
                rep = morse_report(u, T(*t), Fraction(r))
                out[f"{germ} | r={r} | t=({', '.join(t)})"] = dumps(
                    jsonable(rep))
    return out


def morse_outcome(u, t, r, margin=morselab.DEFAULT_MARGIN) -> str:
    """The report bytes, or the class name of the exception raised."""
    try:
        return dumps(jsonable(morse_report(u, t, Fraction(r), margin)))
    except Exception as exc:
        return type(exc).__name__


def morse_outcome_lists() -> dict[str, list[str]]:
    """Outcomes of each MORSE_CASES germ at r = 4 and 1: 32 seeded points,
    t = 0, and margin 10^4 at the first seeded point with a critical
    point, which rejects it by the Hessian margin."""
    out = {}
    for germ, names, *points in MORSE_CASES:
        u = U(germ, names)
        dim = len(u.parameter_names)
        seeded = [next(sample_parameters(u, 1, Fraction(1), k))
                  for k in range(32)]
        for r in (4, 1):
            outcomes = [morse_outcome(u, t, r) for t in seeded]
            outcomes.append(morse_outcome(u, T(*[0] * dim), r))
            first = next(t for t, o in zip(seeded, outcomes)
                         if '"index"' in o)
            outcomes.append(morse_outcome(u, first, r, Fraction(10 ** 4)))
            out[f"{germ} | r={r}"] = outcomes
    return out


def outcome_digests(lists: dict[str, list[str]]) -> dict[str, str]:
    return {key: hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
            for key, outcomes in lists.items()}


class TestCriticalPoints1D:
    def test_a2_two_points(self):
        pts = critical_points(U("z^3", ("z",)), T(-3), box_radius=R2)
        assert len(pts) == 2
        by_z = sorted(pts, key=lambda p: p.location[0].lo)
        assert by_z[0].index == 1 and by_z[1].index == 0  # max at -1, min at 1
        assert by_z[1].value.lo <= Fraction(-2) <= by_z[1].value.hi
        assert by_z[0].value.lo <= Fraction(2) <= by_z[0].value.hi

    def test_a2_empty_side(self):
        assert critical_points(U("z^3", ("z",)), T(3), box_radius=R2) == []

    def test_degenerate_parameter_rejected(self):
        with pytest.raises(DegenerateParameter):
            critical_points(U("z^3", ("z",)), T(0))

    def test_locations_certified_inside_box(self):
        pts = critical_points(U("z^4", ("z",)), T(0, -2))
        assert len(pts) == 3
        for p in pts:
            assert -4 < p.location[0].lo and p.location[0].hi < 4

    def test_point_outside_box_escapes(self):
        # critical points at z = +-1 lie outside |z| <= 1/2
        with pytest.raises(BoxEscape, match="outside"):
            critical_points(U("z^3", ("z",)), T(-3), box_radius=Fraction(1, 2))

    def test_point_on_boundary_escapes(self):
        with pytest.raises(BoxEscape, match="boundary"):
            critical_points(U("z^3", ("z",)), T(-3), box_radius=Fraction(1))

    def test_sign_relation_failure_raises(self, monkeypatch):
        monkeypatch.setattr(morselab, "sign_relation_check",
                            lambda *args: False)
        with pytest.raises(IdentityViolation):
            critical_points(U("z^3", ("z",)), T(-3), box_radius=R2)


class TestClassify:
    """The one classifier, on F = z^3/3 - z (critical points at z = +-1)."""

    F = parse_polynomial("z^3/3 - z", ("z",))
    HESS = [[parse_polynomial("2*z", ("z",))]]

    def test_shrinks_until_the_sign_is_known(self):
        seen = []

        def toward_one(iv):
            while True:
                seen.append(iv)
                yield {"z": iv}
                iv = RatInterval((iv.lo + 1) / 2, (iv.hi + 1) / 2)

        pt = morselab._classify(self.F, self.HESS,
                                toward_one(RatInterval(0, 2)), Fraction(1))
        assert len(seen) == 2  # 2z on [1/2, 3/2] is positive
        assert pt.location == (RatInterval(Fraction(1, 2), Fraction(3, 2)),)
        assert (pt.index, pt.hessian_det_sign) == (0, 1)
        assert pt.hessian_det == RatInterval(1, 3)

    def test_gives_up_after_twenty_shrinks(self):
        seen = []

        def unchanged():
            while True:
                seen.append(1)
                yield {"z": RatInterval(-1, 1)}

        with pytest.raises(DegenerateParameter, match="too close to zero"):
            morselab._classify(self.F, self.HESS, unchanged(), Fraction(0))
        assert len(seen) == 21  # the first box and twenty shrinks

    def test_margin_message_is_shared(self):
        with pytest.raises(DegenerateParameter, match="too close to zero"):
            morselab._classify(self.F, self.HESS,
                               iter([{"z": RatInterval(-2, -1)}]), Fraction(3))

    def test_wrong_length_parameter_is_bad_input(self):
        with pytest.raises(InvalidInput, match="1 coordinates, expected 2"):
            critical_points(U("z^4", ("z",)), T(1))


ZW = ("z", "w")


class TestCriticalPoints2D:
    def test_cubic_surface_four_points(self):
        pts = critical_points(U("z^3 + w^3", ("z", "w")), T(-3, -3, 0),
                              box_radius=R2)
        assert sorted(p.index for p in pts) == [0, 1, 1, 2]
        mids = sorted((round(p.midpoint()[0]), round(p.midpoint()[1]))
                      for p in pts)
        assert mids == [(-1, -1), (-1, 1), (1, -1), (1, 1)]

    def test_elimination_root_outside_box_escapes(self):
        with pytest.raises(BoxEscape, match="critical point with z"):
            critical_points(U("z^3 + w^3", ("z", "w")), T(-3, -3, 0),
                            box_radius=Fraction(1, 2))

    def test_w_outside_box_escapes(self):
        # every root of Res_w is a z inside (-1, 1), but one point has
        # w near -1.035
        u, t, r = U("z^3 + w^3", ZW), T(Fraction(-1, 2), Fraction(-5, 2), 1), 1
        with pytest.raises(BoxEscape, match="critical point with w"):
            critical_points(u, t, box_radius=r)
        oracle = sympy_critical_points(u.specialize(tuple(t)), 10 ** 6)
        assert all(abs(z) < r for z, _ in oracle)
        assert any(abs(w) > r for _, w in oracle)

    @pytest.mark.parametrize("t,r", [
        (T(Fraction(23, 16), -2, 0), Fraction(1, 2)),
        (T(Fraction(-59, 16), Fraction(15, 8), 0), Fraction(1))])
    def test_eliminant_with_no_real_root_gives_no_point(self, t, r):
        # F_z = 3z^2 + 23/16 > 0 in the first, F_w = 3w^2 + 15/8 > 0 in
        # the second: no real critical point, so Res_w of the sheared
        # gradient has no real root and no root outside the box escapes
        u = U("z^3 + w^3", ("z", "w"))
        assert critical_points(u, t, box_radius=r) == []
        assert sympy_critical_points(u.specialize(tuple(t)), 10 ** 6) == []

    def test_sign_relation_on_all_points(self):
        pts = critical_points(U("z^3 + w^3", ("z", "w")), T(-3, -3, 0),
                              box_radius=R2)
        for p in pts:
            assert sign_relation_check(Fraction(p.hessian_det_sign),
                                       p.index, 2)


class TestSubresultantRoute:
    """Res_w and its first subresultant S1 = s11*w + s10: the point over a
    root z0 is (z0, -s10/s11(z0)), in coordinates sheared until that
    holds."""

    @pytest.mark.parametrize("p,q,kind", [
        ("3*z^2 + 5*w^2 + 2*w - 1", "4*w^3 + 2*z*w + z - 2*w + 3", "prem"),
        ("z^2 - 2*z*w + 1/3", "3*w^2 + z^3 - 5", "p"),
        ("w^3 - z", "w - z^2 + 7", "q"),
        ("z^2*w + z - 1", "-2*w + 3*z", "q")],
        ids=["prem", "p", "q", "both-linear"])
    def test_first_subresultant(self, p, q, kind):
        # deg_w q = deg_w p + 1 gives S1 = prem(q, p), p linear in w gives
        # S1 = p, q linear in w gives S1 = q, also when p is linear too
        p, q = (parse_polynomial(x, ZW) for x in (p, q))
        s11, s10 = morselab._first_subresultant(p, q, "w")
        w = sympy.Symbol("w")
        sp, sq = to_sympy(p), to_sympy(q)
        want = {"prem": sympy.prem(sq, sp, w), "p": sp, "q": sq}[kind]
        got = to_sympy(s11.project(ZW)) * w + to_sympy(s10.project(ZW))
        assert sympy.expand(got - want) == 0

    def test_shear_when_fz_has_no_w(self):
        # F_z = 3z^2 - 1/2: each of its roots carries two of the points
        u = U("z^3 + w^3", ZW)
        t = T(Fraction(-1, 2), Fraction(-1, 3), 0)
        pts = critical_points(u, t)
        assert sorted(p.index for p in pts) == [0, 1, 1, 2]
        assert_sympy_points(pts, u.specialize(tuple(t)), Fraction(4))

    def test_shear_when_s11_vanishes_at_a_real_root(self, monkeypatch):
        # F is even in w, so its points (z, +-w) share z, and F_z involves w
        u = U("z^3 + w^4", ZW)
        t = T(Fraction(-1, 2), 0, 0, -1, 1)
        shears = []
        sheared = morselab._sheared
        monkeypatch.setattr(morselab, "_sheared", lambda F, k, z: (
            shears.append(k), sheared(F, k, z))[1])
        pts = critical_points(u, t)
        assert shears == [1, 1]  # once for each gradient component
        assert len(pts) == 6
        assert_sympy_points(pts, u.specialize(tuple(t)), Fraction(4))

    @pytest.mark.parametrize("germ,index", [
        ("z*w", 1), ("z^2 + w^2", 0), ("z^2 - w^2", 1), ("-z^2 - w^2", 2)])
    def test_morse_germ_one_point(self, germ, index):
        # no parameters; the gradient is linear, so a shear makes both of
        # its components linear in w and S1 is G_w itself
        pts = critical_points(U(germ, ZW), T())
        assert [p.index for p in pts] == [index]
        assert all(iv.lo <= 0 <= iv.hi for iv in pts[0].location)

    def test_degenerate_point_rejected(self):
        # det Hess = 36zw - 9 vanishes at the critical point (1/2, 1/2)
        with pytest.raises(DegenerateParameter, match="degenerate critical"):
            critical_points(U("z^3 + w^3", ZW),
                            T(Fraction(-9, 4), Fraction(-9, 4), 3))

    def test_non_reduced_point_fails_every_shear(self):
        # at t = 0 the origin is a fourfold point, singular on F_z = 0 and
        # on F_w = 0, so s11 vanishes there for every k
        with pytest.raises(DegenerateParameter, match="no shear separates"):
            critical_points(U("z^3 + w^3", ZW), T(0, 0, 0))


def assert_sympy_points(pts, Ft: Polynomial, r: Fraction):
    """Each of sympy's solutions lies in exactly one box, and each box
    holds exactly one."""
    hits = sorted(k for x in sympy_critical_points(Ft, r)
                  for k, p in enumerate(pts)
                  if all(iv.lo <= c <= iv.hi for iv, c in zip(p.location, x)))
    assert hits == list(range(len(pts)))


def sympy_critical_points(Ft: Polynomial, r: Fraction):
    """The real solutions of grad F_t = 0 in (-r, r)^2, independently of
    morselab: z runs over sympy's exact real_roots of Res_w(F_z, F_w), and
    w over the real nroots of F_w(z, w), at 50 digits, that also zero
    F_z; over a z where F_w(z, w) vanishes for every w, the roles of F_z
    and F_w swap."""
    z, w = sympy.symbols("z w")
    fz, fw = (sympy.diff(to_sympy(Ft), v) for v in (z, w))
    out = []
    for z0 in set(sympy.real_roots(sympy.Poly(sympy.resultant(fz, fw, w),
                                              z))):
        zv = z0.evalf(50)
        f, g = fw.subs(z, zv), fz.subs(z, zv)
        if all(abs(c) < 1e-30 for c in sympy.Poly(f, w).all_coeffs()):
            f, g = g, f
        for wv in sympy.Poly(f, w).nroots(n=50):
            if wv.is_real and abs(g.subs(w, wv)) < 1e-30 and \
                    abs(zv) < r and abs(wv) < r:
                out.append((zv, wv))
    return out


class TestCriticalPoints2DOracle:
    def test_fiber_where_fw_vanishes(self):
        # F_w = (2z + 1)w vanishes on the whole fiber z = -1/2, which holds
        # two of the three points, so the oracle takes their w from F_z
        u = U("z*w^2 + z^4", ZW)
        t = T(Fraction(1, 2), 0, Fraction(1, 4), Fraction(1, 2))
        Ft, r = u.specialize(tuple(t)), Fraction(1)
        oracle = [(round(float(x), 4), round(float(y), 4))
                  for x, y in sympy_critical_points(Ft, r)]
        assert sorted(oracle) == [(-0.5, -0.5), (-0.5, 0.5), (-0.4176, 0)]
        pts = critical_points(u, t, box_radius=r)
        assert sorted(p.index for p in pts) == [0, 1, 1]
        assert_sympy_points(pts, Ft, r)

    @pytest.mark.parametrize("germ,r", [
        (germ, r) for germ in ("z^3 + w^3", "z^3 + w^4") for r in (4, 1)])
    def test_certified_points_match_sympy(self, germ, r):
        # six accepted points of one seeded stream: each sympy solution
        # lies within 1e-12 of exactly one certified box, and each box
        # holds exactly one solution
        u, r = U(germ, ("z", "w")), Fraction(r)
        checked = 0
        for t in sample_parameters(u, 60, Fraction(1), 6):
            pts = report_or_reason(critical_points, u, t, r)
            if isinstance(pts, str):
                continue
            oracle = sympy_critical_points(u.specialize(tuple(t)), r)
            matched = []
            for x in oracle:
                hits = [k for k, p in enumerate(pts) if all(
                    iv.lo - 1e-12 <= c <= iv.hi + 1e-12
                    for iv, c in zip(p.location, x))]
                assert len(hits) == 1, (t, x)
                matched += hits
            assert sorted(matched) == list(range(len(pts))), t
            checked += 1
            if checked == 6:
                break
        assert checked == 6


class TestMorseReport:
    def test_a2_counts(self):
        rep = morse_report(U("z^3", ("z",)), T(-3), box_radius=R2)
        assert rep.counts == (1, 1)
        assert rep.alt_sum == 0 and rep.degree == 0
        assert rep.excellent

    def test_a3_counts_and_degree(self):
        rep = morse_report(U("z^4", ("z",)), T(0, -2))
        assert rep.counts == (2, 1)
        assert rep.alt_sum == 1 and rep.degree == -1
        assert not rep.excellent  # two equal minima at z = +-1

    def test_cubic_surface_counts(self):
        rep = morse_report(U("z^3 + w^3", ("z", "w")), T(-3, -3, 0),
                           box_radius=R2)
        assert rep.counts == (1, 2, 1)
        assert rep.alt_sum == 0 and rep.degree == 0


class TestGoldenMorseReports:
    def test_reports_match_golden_bytes(self):
        # every enclosure endpoint is in these bytes, so a kernel that
        # widens or narrows an enclosure fails here
        golden = json.loads(GOLDEN_MORSE.read_text())
        produced = morse_report_bytes()
        assert list(produced) == list(golden)
        for key, text in produced.items():
            assert text == golden[key], key

    def test_outcomes_match_golden_digests(self):
        # accepted reports and rejection classes, margin rejections included
        lists = morse_outcome_lists()
        assert outcome_digests(lists) == json.loads(
            GOLDEN_OUTCOMES.read_text())
        # the set reaches every index, a box escape and, per germ and
        # radius, the margin rejection of the classifier
        text = "".join(o for outcomes in lists.values() for o in outcomes)
        for needed in ('"index": 0', '"index": 1', '"index": 2', "BoxEscape"):
            assert needed in text
        assert {o[-1] for o in lists.values()} == {"DegenerateParameter"}


class TestDegreeScan:
    @pytest.mark.parametrize("germ,names,alt", [
        ("z^3", ("z",), 0), ("z^4", ("z",), 1), ("z^5", ("z",), 0),
        ("z^6", ("z",), 1), ("z^3 + w^3", ("z", "w"), 0),
        ("z*w", ("z", "w"), -1),
    ])
    def test_constant_alternating_sum(self, germ, names, alt):
        rep = degree_invariance_scan(U(germ, names), samples=12, seed=5)
        assert rep.accepted == 12
        assert rep.alt_sum == alt

    def test_observed_count_multisets_a3(self):
        rep = degree_invariance_scan(U("z^4", ("z",)), samples=25, seed=1)
        assert set(rep.histograms) <= {(1, 0), (2, 1)}

    def test_deterministic_under_seed(self):
        u = U("z^3", ("z",))
        a = degree_invariance_scan(u, samples=8, seed=11)
        b = degree_invariance_scan(u, samples=8, seed=11)
        assert a.samples == b.samples and a.rejected == b.rejected


class TestEulerFiber:
    def test_a3_symmetric_point(self):
        rep = euler_fiber_check(U("z^4", ("z",)), T(0, -2))
        assert rep.ok
        assert (rep.chi_above, rep.chi_below) == (2, 0)

    def test_a2_two_sides(self):
        u = U("z^3", ("z",))
        rep = euler_fiber_check(u, T(-3))
        assert rep.ok and (rep.chi_above, rep.chi_below) == (1, 1)
        vac = euler_fiber_check(u, T(3))
        assert vac.ok and vac.vacuous
        assert vac.chi_above == vac.chi_below == 1

    def test_epsilon_is_exact_rational(self):
        rep = euler_fiber_check(U("z^3", ("z",)), T(-3))
        assert isinstance(rep.epsilon, Fraction) and rep.epsilon > 0

    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=25, deadline=None)
    def test_relation_at_random_accepted_parameters(self, seed):
        u = U("z^4", ("z",))
        t = next(sample_parameters(u, 1, Fraction(1), seed))
        try:
            rep = euler_fiber_check(u, t)
        except (DegenerateParameter, BoxEscape):
            return  # a documented rejection of t, not a failed relation
        assert rep.ok


class TestHermanProbe:
    def test_a2_finds_witness(self):
        w = herman_probe(U("z^3", ("z",)), budget=100, seed=0)
        assert w is not None
        assert w.t.t[0] > 0  # 3z^2 + t1 > 0 needs t1 > 0

    def test_a3_reports_absent(self):
        assert herman_probe(U("z^4", ("z",)), budget=60, seed=0) is None

    def test_morse_saddle_reports_absent(self):
        # no parameters: every draw is t = (), with the saddle at the origin
        assert herman_probe(U("z*w", ZW), budget=5, seed=0) is None

    def test_cubic_surface_finds_witness(self):
        u = U("z^3 + w^3", ("z", "w"))
        w = herman_probe(u, budget=100, seed=0)
        assert w is not None
        assert w.certificate == ("Res_w(dF_t/dz, dF_t/dw) has no real root, "
                                 "after a shear z -> z + k*w if needed")
        assert sympy_critical_points(u.specialize(w.t.t), 10 ** 6) == []
