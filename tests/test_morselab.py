"""Certified Morse data at parameter points; scans, Euler checks, probes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlab.critmap import sign_relation_check
from singlab import morselab
from singlab.errors import BoxEscape, DegenerateParameter, IdentityViolation
from singlab.milnor import unfold_germ
from singlab.morselab import (ParameterPoint, critical_points,
                              degree_invariance_scan, euler_fiber_check,
                              herman_probe, morse_report, sample_parameter)
from singlab.poly import parse_polynomial

R2 = Fraction(2)


def U(text, names):
    return unfold_germ(parse_polynomial(text, names))


def T(*xs):
    return ParameterPoint(tuple(Fraction(x) for x in xs))


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


class TestCriticalPoints2D:
    def test_cubic_surface_four_points(self):
        pts = critical_points(U("z^3 + w^3", ("z", "w")), T(-3, -3, 0),
                              box_radius=R2)
        assert sorted(p.index for p in pts) == [0, 1, 1, 2]
        mids = sorted((round(p.midpoint()[0]), round(p.midpoint()[1]))
                      for p in pts)
        assert mids == [(-1, -1), (-1, 1), (1, -1), (1, 1)]

    def test_elimination_root_outside_box_escapes(self):
        with pytest.raises(BoxEscape, match="elimination root in z"):
            critical_points(U("z^3 + w^3", ("z", "w")), T(-3, -3, 0),
                            box_radius=Fraction(1, 2))

    def test_sign_relation_on_all_points(self):
        pts = critical_points(U("z^3 + w^3", ("z", "w")), T(-3, -3, 0),
                              box_radius=R2)
        for p in pts:
            assert sign_relation_check(Fraction(p.hessian_det_sign),
                                       p.index, 2)


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


class TestDegreeScan:
    @pytest.mark.parametrize("germ,names,alt", [
        ("z^3", ("z",), 0), ("z^4", ("z",), 1), ("z^5", ("z",), 0),
        ("z^6", ("z",), 1), ("z^3 + w^3", ("z", "w"), 0),
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
        t = sample_parameter(__import__("random").Random(seed), 2,
                             Fraction(1))
        try:
            rep = euler_fiber_check(u, t)
        except Exception:
            return
        assert rep.ok


class TestHermanProbe:
    def test_a2_finds_witness(self):
        w = herman_probe(U("z^3", ("z",)), budget=100, seed=0)
        assert w is not None
        assert w.t.t[0] > 0  # 3z^2 + t1 > 0 needs t1 > 0

    def test_a3_reports_absent(self):
        assert herman_probe(U("z^4", ("z",)), budget=60, seed=0) is None

    def test_cubic_surface_finds_witness(self):
        w = herman_probe(U("z^3 + w^3", ("z", "w")), budget=100, seed=0)
        assert w is not None
