"""Semigroups, toric ideals, fan resolution, strict transforms, overweight.

Oracles: brute-force subset-sum membership for semigroups, intersection
orders ord_t g(x(t), y(t)) for branch value semigroups, exact monomial
substitution for toric ideal membership.
"""

import dataclasses
import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import accumulate, product
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from singlab import semitoric
from singlab.cli import main
from singlab.errors import (GcdNotOne, IdentityViolation, InvalidInput,
                            NonBinomialElement, NotABranch, OrderMismatch,
                            RegularizationBudget, TruncationInsufficient)
from singlab.groebner import groebner_basis, ideal_contains
from singlab.poly import LEX, parse_polynomial
from singlab.semitoric import (Cone, OverweightDeformation, PlaneBranch,
                               Series, branch_embedding, branch_semigroup,
                               branch_series, characteristic_exponents,
                               overweight_check, resolve_monomial_curve,
                               semigroup_from_generators, toric_ideal,
                               verify_strict_transform, weight)


GOLDEN_RESOLUTIONS = Path(__file__).parent / "golden" / "toric_resolutions.json"
# the toric-curves benchmark's triples and branches (n, m, k):
# x = t^n, y = t^m + t^(m+k)
RESOLUTION_TRIPLES = ((5, 7, 9), (3, 4, 5), (3, 5, 7), (3, 8, 10), (4, 5, 7),
                      (4, 6, 7), (4, 6, 9), (6, 8, 9), (6, 9, 10), (6, 9, 11),
                      (6, 10, 11), (4, 10, 11))
RESOLUTION_BRANCHES = tuple((n, m, k) for n, m, ks in (
    (4, 10, (1, 3, 5)), (6, 9, (1, 2, 4, 5)), (8, 12, (1, 3, 5)))
    for k in ks)


def resolution_digests(capsys) -> dict[str, str]:
    """sha256 of the CLI JSON of every benchmark triple and branch."""
    commands = [("toric-resolve", "--generators", ",".join(map(str, g)))
                for g in RESOLUTION_TRIPLES]
    commands += [("strict-transform", "--x-exponent", str(n),
                  "--y", f"{m}:1,{m + k}:1")
                 for n, m, k in RESOLUTION_BRANCHES]
    out = {}
    for argv in commands:
        assert main(list(argv)) == 0, argv
        out[" ".join(argv)] = hashlib.sha256(
            capsys.readouterr().out.encode()).hexdigest()
    return out


def oracle_members(gens, bound):
    """All subset-sum reachable values up to bound."""
    reachable = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x + g
            if y <= bound and y not in reachable:
                reachable.add(y)
                frontier.append(y)
    return reachable


def oracle_branch_orders(branch, bound):
    """Attainable orders of g(x(t), y(t)) over polynomials g.

    Monomial substitutions alone miss generators reached only by
    cancellation (e.g. y^2 - x^3), so the oracle takes the linear span of
    all monomial series and reads off its pivot orders by row echelon.
    """
    prec = bound + 1
    x, y = branch_series(branch, prec)
    rows = []
    a = 0
    while a * branch.x_exponent <= bound:
        xa = x.power(a, prec)
        b = 0
        while True:
            s = xa.mul(y.power(b, prec)) if b else xa
            if s.order() is None or s.order() > bound:
                break
            rows.append([s.coefficient(k) for k in range(prec)])
            b += 1
        a += 1
    pivots = {}
    for row in rows:
        while True:
            lead = next((k for k, c in enumerate(row) if c), None)
            if lead is None:
                break
            if lead not in pivots:
                pivots[lead] = row
                break
            other = pivots[lead]
            factor = row[lead] / other[lead]
            row = [c - factor * o for c, o in zip(row, other)]
    return set(pivots)


class TestNumericalSemigroup:
    def test_4_6_13(self):
        s = semigroup_from_generators([4, 6, 13])
        assert s.minimal_generators == (4, 6, 13)
        assert s.conductor == 16
        assert s.gaps == (1, 2, 3, 5, 7, 9, 11, 15)

    def test_2_3(self):
        s = semigroup_from_generators([2, 3])
        assert s.minimal_generators == (2, 3)
        assert s.conductor == 2
        assert s.gaps == (1,)

    def test_all_of_n(self):
        s = semigroup_from_generators([1])
        assert s.conductor == 0 and s.gaps == ()

    def test_redundant_generators_dropped(self):
        s = semigroup_from_generators([4, 6, 13, 10, 17])
        assert s.minimal_generators == (4, 6, 13)

    def test_nonpositive_generator_is_an_input_error(self):
        with pytest.raises(InvalidInput):
            semigroup_from_generators([0, 3])

    def test_gcd_not_one_rejected(self):
        with pytest.raises(GcdNotOne):
            semigroup_from_generators([4, 6])

    def test_apery_set_structure(self):
        s = semigroup_from_generators([4, 6, 13])
        assert len(s.apery) == 4
        assert sorted(a % 4 for a in s.apery) == [0, 1, 2, 3]
        assert all(s.contains(a) and not s.contains(a - 4) for a in s.apery
                   if a >= 4)

    @given(st.lists(st.integers(2, 30), min_size=2, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_membership_matches_subset_sum_oracle(self, gens):
        if math.gcd(*gens) != 1:
            return
        s = semigroup_from_generators(gens)
        members = oracle_members(sorted(set(gens)), 3 * max(s.conductor, 1))
        for x in range(3 * max(s.conductor, 1) + 1):
            assert s.contains(x) == (x in members)

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_minimal_generators_and_apery_match_brute_force(self, gens):
        assume(math.gcd(*gens) == 1)
        s = semigroup_from_generators(gens)
        m = min(gens)
        bound = max(m * max(gens), m + 1)
        members = oracle_members(sorted(set(gens)), bound)
        nonzero = sorted(members - {0})
        # members that are not a sum of two nonzero members
        assert s.minimal_generators == tuple(
            x for x in nonzero if not any(x - y in members
                                          for y in nonzero if y < x))
        # the least member of each residue class mod m
        assert s.apery == tuple(min(x for x in members if x % m == r)
                                for r in range(m))


class TestPlaneBranches:
    def test_characteristic_exponents(self):
        assert characteristic_exponents(
            PlaneBranch(4, ((6, Fraction(1)), (7, Fraction(1))))) == [4, 6, 7]

    def test_cusp(self):
        s = branch_semigroup(PlaneBranch(2, ((3, Fraction(1)),)))
        assert s.minimal_generators == (2, 3)

    def test_4_6_7_branch(self):
        s = branch_semigroup(PlaneBranch(4, ((6, Fraction(1)),
                                             (7, Fraction(1)))))
        assert s.minimal_generators == (4, 6, 13)

    def test_smooth_branch(self):
        s = branch_semigroup(PlaneBranch(1, ((2, Fraction(1)),)))
        assert s.minimal_generators == (1,)

    def test_not_a_branch(self):
        with pytest.raises(NotABranch):
            characteristic_exponents(PlaneBranch(4, ((6, Fraction(1)),)))

    @pytest.mark.parametrize("branch,bound", [
        (PlaneBranch(2, ((3, Fraction(1)),)), 12),
        (PlaneBranch(4, ((6, Fraction(1)), (7, Fraction(1)))), 40),
        (PlaneBranch(3, ((5, Fraction(1)),)), 20),
    ])
    def test_matches_intersection_order_oracle(self, branch, bound):
        s = branch_semigroup(branch)
        orders = oracle_branch_orders(branch, bound)
        for x in range(bound + 1):
            assert s.contains(x) == (x in orders)


class TestToricIdeal:
    def test_cusp_kernel(self):
        ideal = toric_ideal(semigroup_from_generators([2, 3]))
        assert len(ideal.binomials) == 1
        target = parse_polynomial("U1^2 - U0^3", ("U0", "U1"))
        only = ideal.binomials[0]
        assert only == target or only == -target

    def test_4_6_13_membership(self):
        ideal = toric_ideal(semigroup_from_generators([4, 6, 13]))
        names = ideal.binomials[0].variables
        gb = groebner_basis(list(ideal.binomials), LEX)
        for text in ("U1^2 - U0^3", "U2^2 - U0^5*U1"):
            p = parse_polynomial(text, names)
            assert ideal_contains(p, gb, LEX)

    def test_binomials_vanish_under_substitution(self):
        # every binomial must vanish identically under U_i -> T^g_i
        ideal = toric_ideal(semigroup_from_generators([4, 6, 13]))
        for p in ideal.binomials:
            (e1, c1), (e2, c2) = sorted(p.terms.items())
            w1 = sum(e * g for e, g in zip(e1, ideal.weights))
            w2 = sum(e * g for e, g in zip(e2, ideal.weights))
            assert w1 == w2 and c1 == -c2

    def test_single_generator_rejected(self):
        with pytest.raises(ValueError):
            toric_ideal(semigroup_from_generators([1]))

    def test_single_generator_is_an_input_error(self):
        with pytest.raises(InvalidInput):
            toric_ideal(semigroup_from_generators([1]))
        with pytest.raises(InvalidInput):
            resolve_monomial_curve(semigroup_from_generators([1]))

    @pytest.mark.parametrize("gens", [(2, 3), (4, 6, 13), (5, 7, 9),
                                      (3, 4, 5), (6, 10, 11), (4, 10, 11)])
    def test_matches_sympy_elimination(self, gens):
        # the T-free elements of sympy's lex basis of {U_i - T^g_i}, monic
        ideal = toric_ideal(semigroup_from_generators(list(gens)))
        t, *us = sympy.symbols(["T"] + list(ideal.variables))
        basis = sympy.groebner([u - t ** g for u, g in zip(us, gens)],
                               t, *us, order="lex")
        oracle = {sympy.expand(e / sympy.LC(e, order="lex", gens=us))
                  for e in basis.exprs if not e.has(t)}
        ours = set()
        for p in ideal.binomials:
            expr = sum(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*[u ** k for u, k in zip(us, e)])
                       for e, c in p.terms.items())
            ours.add(sympy.expand(expr / sympy.LC(expr, order="lex",
                                                   gens=us)))
        assert ours == oracle


class TestResolution:
    def test_cusp_chart(self):
        cert = resolve_monomial_curve(semigroup_from_generators([2, 3]))
        assert cert.chart_cone().rays == ((1, 1), (2, 3))
        assert cert.exponents == (0, 1)

    def test_2_5_chart(self):
        cert = resolve_monomial_curve(semigroup_from_generators([2, 5]))
        assert cert.chart_cone().rays == ((1, 2), (2, 5))
        assert cert.exponents == (0, 1)

    def test_4_6_13_certificate(self):
        cert = resolve_monomial_curve(semigroup_from_generators([4, 6, 13]))
        assert all(abs(c.determinant()) == 1 for c in cert.fan.cones)
        assert (4, 6, 13) in cert.chart_cone().rays
        assert sorted(cert.exponents) == [0, 0, 1]

    @pytest.mark.parametrize("gens", [[2, 3], [2, 5], [3, 4], [4, 6, 13],
                                      [8, 12, 26, 53]])
    def test_random_rays_lie_in_exactly_one_cone_interior(self, gens):
        cert = resolve_monomial_curve(semigroup_from_generators(gens))
        d = len(gens)
        rng = random.Random(0)
        interior = boundary = 0
        for _ in range(1000):
            v = tuple(Fraction(rng.randint(1, 999), rng.randint(1, 999))
                      for _ in range(d))
            hits = []
            open_hits = 0
            for cone in cert.fan.cones:
                coeffs = cone.coefficients(v)
                if coeffs is None:
                    continue
                hits.append(coeffs)
                if all(c > 0 for c in coeffs):
                    open_hits += 1
            assert hits, "orthant ray missed the fan"
            if open_hits:
                assert open_hits == 1 and len(hits) == 1
                interior += 1
            else:
                # on a shared face: every containing cone sees a zero coeff
                assert all(any(c == 0 for c in coeffs) for coeffs in hits)
                boundary += 1
        assert interior > 0


class TestGoldenResolutions:
    def test_cli_bytes_match_golden_digests(self, capsys):
        # the fan of each triple is in these bytes, cone by cone, so a
        # subdivision that changes a cone, its ray order or the chart
        # fails here
        assert resolution_digests(capsys) == json.loads(
            GOLDEN_RESOLUTIONS.read_text())


@st.composite
def _int_matrix(draw):
    d = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=d, max_size=d),
                         min_size=d, max_size=d))
    if draw(st.booleans()):  # a row dependent on the others: singular
        k = draw(st.integers(0, d - 1))
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
        rows[k] = [sum(c * row[j] for i, (c, row)
                       in enumerate(zip(coeffs, rows)) if i != k)
                   for j in range(d)]
    return rows


class TestDetAdj:
    @given(_int_matrix())
    @settings(max_examples=150, deadline=None)
    def test_matches_sympy(self, m):
        det, adj = semitoric._det_adj(m)
        oracle = sympy.Matrix(m)
        assert det == oracle.det()
        if det == 0:
            assert adj is None
        else:
            assert sympy.Matrix(adj) == oracle.adjugate()

    def test_zero_leading_pivot_and_singular(self):
        assert semitoric._det_adj([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])
        assert semitoric._det_adj([[1, 2], [2, 4]]) == (0, None)
        assert semitoric._det_adj([[0, 0], [0, 0]]) == (0, None)

    def test_coefficients_of_negative_determinant_cone(self):
        cone = Cone(rays=((0, 1, 0), (2, 0, 0), (0, 0, 1)))
        assert cone.determinant() == -2
        assert cone.coefficients((3, 5, 7)) == (5, Fraction(3, 2), 7)
        assert cone.coefficients((3, -5, 7)) is None
        assert cone.coefficients((Fraction(1, 2), 1, 0)) == \
            (1, Fraction(1, 4), 0)


def _walk_all_coefficients(cone):
    """The det^d walk over every coefficient vector: the reference."""
    det = abs(cone.determinant())
    d = cone.dim
    best = None
    for combo in product(range(det), repeat=d):
        if all(c == 0 for c in combo):
            continue
        lam = [Fraction(c, det) for c in combo]
        point = tuple(sum(lam[j] * cone.rays[j][i] for j in range(d))
                      for i in range(d))
        if any(x.denominator != 1 for x in point):
            continue
        point = tuple(int(x) for x in point)
        key = (sum(lam), point)
        if best is None or key < best[0]:
            best = (key, point)
    return best[1]


@st.composite
def _small_det_cone(draw):
    # the reference walks |det|^d points: d = 4 keeps small entries and dets
    d = draw(st.integers(2, 4))
    entry = st.integers(-4, 4) if d < 4 else st.integers(-2, 2)
    rays = draw(st.tuples(*[st.tuples(*[entry] * d)] * d))
    cone = Cone(rays=rays)
    assume(1 < abs(cone.determinant()) <= (12 if d < 4 else 8))
    return cone


class TestParallelepipedPoint:
    @given(_small_det_cone())
    @settings(max_examples=60, deadline=None)
    def test_matches_full_walk(self, cone):
        assert semitoric._parallelepiped_point(cone) == \
            _walk_all_coefficients(cone)

    def test_wrong_group_raises(self, monkeypatch):
        cone = Cone(rays=((1, 0), (1, 2)))
        monkeypatch.setattr(semitoric, "_det_adj",
                            lambda m: (2, [[0] * len(m) for _ in m]))
        with pytest.raises(IdentityViolation):
            semitoric._parallelepiped_point(cone)

    def test_unimodular_cone_raises(self):
        with pytest.raises(IdentityViolation):
            semitoric._parallelepiped_point(Cone(rays=((1, 0), (1, 1))))

    def test_generator_off_the_lattice_raises(self, monkeypatch):
        # the group {0, (1, 0)} has |det| = 2 elements, but the column
        # (1, 0) maps to ray 0 = (1, 0), which is not in 2 Z^2
        cone = Cone(rays=((1, 0), (1, 2)))
        monkeypatch.setattr(semitoric, "_det_adj",
                            lambda m: (2, [[1, 0], [0, 0]]))
        with pytest.raises(IdentityViolation, match="column off the lattice"):
            semitoric._parallelepiped_point(cone)


def _ref_stellar(fan, v):
    """Stellar subdivision by a scan of every cone: the reference."""
    v = semitoric._primitive(v)
    out = []
    for cone in fan:
        coeffs = cone._scaled_coefficients(v)
        if coeffs is None or v in cone.rays:
            out.append(cone)
            continue
        for i, c in enumerate(coeffs):
            if c > 0:
                rays = tuple(v if j == i else r
                             for j, r in enumerate(cone.rays))
                out.append(Cone(rays=rays))
    return out


@st.composite
def _subdivisions(draw):
    """An orthant dimension and a list of (cone choice, ray choice) draws:
    a ray choice of None is the chosen cone's parallelepiped point, else a
    positive integer combination of its rays, which may lie on a face."""
    d = draw(st.integers(2, 4))
    steps = draw(st.lists(st.tuples(
        st.integers(0, 10 ** 6),
        st.none() | st.lists(st.integers(0, 3), min_size=d, max_size=d)),
        min_size=1, max_size=12))
    return d, steps


class TestStarIndexedStellar:
    @given(_subdivisions())
    @settings(max_examples=60, deadline=None)
    def test_indexed_star_matches_scan(self, case):
        d, steps = case
        orthant = Cone(rays=tuple(tuple(int(i == j) for j in range(d))
                                  for i in range(d)))
        star = {r: {orthant} for r in orthant.rays}
        fan = [orthant]
        for pick, combo in steps:
            live = sorted(set().union(*star.values()))
            if combo is None:
                bad = [c for c in live if abs(c.determinant()) > 1]
                if not bad:
                    continue
                cone = bad[pick % len(bad)]
                v = semitoric._parallelepiped_point(cone)
            else:
                cone = live[pick % len(live)]
                if not any(combo):
                    continue
                v = semitoric._primitive(tuple(
                    sum(k * r[i] for k, r in zip(combo, cone.rays))
                    for i in range(d)))
            new = semitoric._stellar(star, cone, v)
            fan = _ref_stellar(fan, v)
            live = set().union(*star.values())
            assert live == set(fan)
            # a new cone's |det| is its scaled coefficient, with no Bareiss
            assert all(abs(c.determinant()) == det for c, det in new)
            # and its det and adj, carried from the parent's, are Bareiss's
            assert all(c.det_adj == semitoric._det_adj(
                [list(row) for row in zip(*c.rays)]) for c, _ in new)
            assert {r: cones for r, cones in star.items() if cones} == {
                r: {c for c in live if r in c.rays}
                for c in live for r in c.rays}

    def test_point_outside_its_cone_raises(self):
        cone = Cone(rays=((1, 0), (1, 2)))
        with pytest.raises(IdentityViolation):
            semitoric._stellar({r: {cone} for r in cone.rays}, cone, (0, 1))

    def test_corrupted_parent_adjugate_raises(self, monkeypatch):
        # adj of ((1, 0), (1, 2)) is [[2, -1], [0, 1]]; with [1, 1] for its
        # last row, row 1 of the cone with (1, 1) for ray 0 is (-3, 3) / 2
        monkeypatch.setattr(semitoric, "_det_adj",
                            lambda m: (2, [[2, -1], [1, 1]]))
        cone = Cone(rays=((1, 0), (1, 2)))
        with pytest.raises(IdentityViolation, match="inexact adjugate"):
            semitoric._stellar({r: {cone} for r in cone.rays}, cone, (1, 1))

    def test_adjugates_carried_only_into_non_unimodular_cones(
            self, monkeypatch):
        # a unimodular cone holds no parallelepiped point, so it is never
        # subdivided: one adjugate update per new cone with |det| > 1
        updates, made = [], []
        replaced, stellar = semitoric._replaced, semitoric._stellar

        def counted_replaced(*args):
            updates.append(replaced(*args))
            return updates[-1]

        def counted_stellar(*args):
            new = stellar(*args)
            made.extend(c for c, det in new if det > 1)
            return new
        monkeypatch.setattr(semitoric, "_replaced", counted_replaced)
        monkeypatch.setattr(semitoric, "_stellar", counted_stellar)
        for g in RESOLUTION_TRIPLES:
            resolve_monomial_curve(semigroup_from_generators(list(g)))
        assert made and updates == made

    def test_five_generator_branch_hits_the_budget_in_few_steps(
            self, monkeypatch):
        # semigroup <16, 24, 52, 106, 213>: 666 subdivisions, over the cap;
        # a scan of the whole fan per new ray takes 736,485 coefficient calls
        gamma = branch_semigroup(PlaneBranch(16, tuple(
            (e, Fraction(1)) for e in (24, 28, 30, 31))))
        assert gamma.minimal_generators == (16, 24, 52, 106, 213)
        calls = 0
        scaled = Cone._scaled_coefficients

        def counted(self, v):
            nonlocal calls
            calls += 1
            return scaled(self, v)

        monkeypatch.setattr(Cone, "_scaled_coefficients", counted)
        with pytest.raises(RegularizationBudget,
                           match="not unimodular after 500 subdivisions"):
            resolve_monomial_curve(gamma)
        assert calls <= 5000


class TestResolutionInvariants:
    def test_chart_exponents_not_unit_raise(self):
        # a generator vector with gcd 2 puts 2 in the chart exponents
        gamma = dataclasses.replace(semigroup_from_generators([2, 3]),
                                    minimal_generators=(2, 4))
        with pytest.raises(IdentityViolation):
            resolve_monomial_curve(gamma)

    def test_non_unimodular_chart_raises(self, monkeypatch):
        gamma, xi = branch_embedding(PlaneBranch(2, ((3, Fraction(1)),)))
        cert = resolve_monomial_curve(gamma)
        monkeypatch.setattr(semitoric.Cone, "determinant", lambda self: 2)
        with pytest.raises(IdentityViolation):
            verify_strict_transform(xi, gamma, cert)


class TestStrictTransform:
    def test_monomial_cusp(self):
        gamma, xi = branch_embedding(PlaneBranch(2, ((3, Fraction(1)),)))
        cert = resolve_monomial_curve(gamma)
        rep = verify_strict_transform(xi, gamma, cert)
        assert rep.ok
        assert rep.orders == (0, 1)
        assert rep.leading_units[0] == 1  # undeformed curve: unit exactly 1

    def test_deformed_cusp(self):
        gamma, xi = branch_embedding(
            PlaneBranch(2, ((3, Fraction(1)), (4, Fraction(1)))))
        cert = resolve_monomial_curve(gamma)
        rep = verify_strict_transform(xi, gamma, cert)
        assert rep.ok and rep.orders == (0, 1)

    def test_4_6_7_branch_three_charts(self):
        gamma, xi = branch_embedding(
            PlaneBranch(4, ((6, Fraction(1)), (7, Fraction(1)))))
        assert [s.order() for s in xi] == [4, 6, 13]
        cert = resolve_monomial_curve(gamma)
        rep = verify_strict_transform(xi, gamma, cert)
        assert rep.ok and rep.orders == (0, 0, 1)

    def test_8_12_14_15_branch_four_charts(self):
        # three characteristic exponents: the fan lives in dimension 4
        gamma, xi = branch_embedding(PlaneBranch(
            8, ((12, Fraction(1)), (14, Fraction(1)), (15, Fraction(1)))))
        assert gamma.minimal_generators == (8, 12, 26, 53)
        rep = verify_strict_transform(xi, gamma, resolve_monomial_curve(gamma))
        assert rep.ok and rep.orders == (0, 0, 0, 1)

    def test_truncation_guard(self):
        gamma, xi = branch_embedding(PlaneBranch(2, ((3, Fraction(1)),)))
        cert = resolve_monomial_curve(gamma)
        short = [Series(dict(s.terms), 3) for s in xi]
        with pytest.raises(TruncationInsufficient):
            verify_strict_transform(short, gamma, cert)

    def test_order_mismatch_guard(self):
        gamma, xi = branch_embedding(PlaneBranch(2, ((3, Fraction(1)),)))
        cert = resolve_monomial_curve(gamma)
        with pytest.raises(OrderMismatch):
            verify_strict_transform(list(reversed(xi)), gamma, cert)


class TestOverweight:
    NAMES = ("U0", "U1", "U2")

    def _deform(self, series_texts, expected_texts, weights=(4, 6, 13)):
        return OverweightDeformation(
            weights=weights,
            series=tuple(parse_polynomial(s, self.NAMES)
                         for s in series_texts),
            expected_initials=tuple(parse_polynomial(s, self.NAMES)
                                    for s in expected_texts))

    def test_pass_heavier_term(self):
        verdicts = overweight_check(self._deform(
            ["U1^2 - U0^3 + U2"], ["U1^2 - U0^3"]))
        assert verdicts[0].ok  # weight(U2) = 13 > 12

    def test_fail_lighter_term(self):
        verdicts = overweight_check(self._deform(
            ["U1^2 - U0^3 + U0"], ["U1^2 - U0^3"]))
        assert not verdicts[0].ok  # weight(U0) = 4 < 12
        assert str(verdicts[0].initial_form) == "U0"

    def test_pass_empty_deformation(self):
        verdicts = overweight_check(self._deform(
            ["U1^2 - U0^3"], ["U1^2 - U0^3"]))
        assert verdicts[0].ok

    def test_weight_values(self):
        p = parse_polynomial("U1^2 - U0^3", self.NAMES)
        assert weight(p, (4, 6, 13)) == 12
        assert weight(parse_polynomial("U2 + U0*U1", self.NAMES),
                      (4, 6, 13)) == 10
        assert weight(parse_polynomial("0", self.NAMES),
                      (4, 6, 13)) == math.inf

    @given(st.fractions(min_value=Fraction(-20), max_value=Fraction(20),
                        max_denominator=12))
    @settings(max_examples=50, deadline=None)
    def test_pass_invariant_under_coefficient_scaling(self, c):
        # weights ignore coefficients: scaling the deformation term is moot
        if c == 0:
            return
        base = parse_polynomial("U1^2 - U0^3", self.NAMES)
        deform = parse_polynomial("U2", self.NAMES)
        d = OverweightDeformation(
            weights=(4, 6, 13),
            series=(base + deform * c,),
            expected_initials=(base,))
        assert overweight_check(d)[0].ok


def _reference_mul(a, b):
    """The double-loop Fraction product that Series.mul replaced."""
    prec = min(a.prec + (b.order() or 0), b.prec + (a.order() or 0)) \
        if a.terms and b.terms else min(a.prec, b.prec)
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            if e1 + e2 < prec:
                out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return Series(out, prec)


def _reference_inverse(s, prec):
    c0 = s.terms[0]
    inv = {0: 1 / c0}
    for e in range(1, min(prec, s.prec)):
        acc = Fraction(0)
        for k, c in s.terms.items():
            if 0 < k <= e:
                acc += c * inv.get(e - k, Fraction(0))
        inv[e] = -acc / c0
    return Series(inv, min(prec, s.prec))


def _reference_power(s, k, prec):
    """|k| products by the unit, or by its inverse for k < 0."""
    ordr = s.order()
    unit = Series({e - ordr: c for e, c in s.terms.items()}, s.prec - ordr)
    if k < 0:
        unit = _reference_inverse(unit, prec + abs(k) * max(ordr, 0) + 1)
    acc = Series({0: Fraction(1)}, prec + abs(k * ordr) + 1)
    for _ in range(abs(k)):
        acc = _reference_mul(acc, unit)
    return Series({e + k * ordr: c for e, c in acc.terms.items()},
                  acc.prec + k * ordr)


def _reference_product(xi, exps, prec):
    """The Fraction chain that _product replaced: each power by repeated
    products, multiplied in by the double loop."""
    acc = Series({0: Fraction(1)}, prec)
    for s, k in zip(xi, exps):
        if k:
            acc = _reference_mul(acc, _reference_power(s, k, prec)
                                 if s.terms else Series({}, prec))
    return acc


def _reference_embedding(b):
    """The Fraction semiroot loop that the integer cancellation in
    branch_embedding replaced."""
    gamma = branch_semigroup(b)
    gens, prec = gamma.minimal_generators, gamma.conductor + 60
    xi = list(branch_series(b, prec))
    e = list(accumulate(gens, math.gcd))
    for k in range(2, len(gens)):
        cur = _reference_power(xi[k - 1], e[k - 2] // e[k - 1], prec)
        caps = [0] + [e[j - 1] // e[j] for j in range(1, k)]
        while cur.order() != gens[k]:
            rep = semitoric._represent(cur.order(), list(gens[:k]), caps)
            mono = _reference_product(xi, rep, prec)
            c = cur.leading() / mono.leading()
            cur = Series({j: cur.coefficient(j) - c * mono.coefficient(j)
                          for j in cur.terms.keys() | mono.terms.keys()},
                         min(cur.prec, mono.prec))
        xi.append(cur)
    return xi


_rational = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def _series(draw, allow_zero=False):
    order = draw(st.integers(-8, 8))
    terms = draw(st.dictionaries(st.integers(order, order + 10), _rational,
                                 max_size=5))
    if not allow_zero:
        terms[order] = draw(_rational.filter(bool))
    return Series(terms, draw(st.integers(order + 1, order + 24)))


def _lowest(s):
    """s, checked to be integer numerators over a positive denominator in
    lowest terms."""
    assert s.den > 0 and math.gcd(s.den, *s.num.values()) == 1
    assert all(type(c) is int and c for c in s.num.values())
    return s


class TestSeries:
    def test_inverse_of_unit(self):
        s = Series({0: Fraction(1), 1: Fraction(1)}, 8)
        inv = s.power(-1, 8)
        assert [inv.coefficient(k) for k in range(4)] == [1, -1, 1, -1]

    @given(_series(), st.integers(-12, 12), st.integers(-4, 24))
    @settings(max_examples=150, deadline=None)
    def test_power_matches_repeated_products(self, s, k, prec):
        got, want = _lowest(s.power(k, prec)), _reference_power(s, k, prec)
        assert got.terms == want.terms and got.prec == want.prec

    @given(_series(allow_zero=True), _series(allow_zero=True))
    @settings(max_examples=150, deadline=None)
    def test_mul_matches_double_loop(self, a, b):
        got, want = _lowest(a.mul(b)), _reference_mul(a, b)
        assert got.terms == want.terms and got.prec == want.prec

    @given(st.lists(st.tuples(_series(allow_zero=True), st.integers(-3, 3)),
                    min_size=1, max_size=3), st.integers(-4, 24))
    @settings(max_examples=100, deadline=None)
    def test_product_matches_fraction_chain(self, factors, prec):
        assume(all(s.terms or k >= 0 for s, k in factors))  # 0^-k raises
        xi, exps = [s for s, _ in factors], [k for _, k in factors]
        got = _lowest(semitoric._product(xi, exps, prec))
        want = _reference_product(xi, exps, prec)
        assert got.terms == want.terms and got.prec == want.prec

    def test_product_with_an_empty_series(self):
        xi = [Series({2: Fraction(1, 3), 3: Fraction(2)}, 9), Series({}, 7)]
        got = semitoric._product(xi, [-2, 1], 6)
        want = _reference_product(xi, [-2, 1], 6)
        # (t^2 + ...)^-2 is exact below 3, the product below min(6 - 4, 3)
        assert not got.terms and got.prec == want.prec == 2
        with pytest.raises(ValueError):
            semitoric._product(xi, [1, -1], 6)

    def test_product_whose_coefficients_cancel(self):
        # (1 + t)^2 (1 - t)^2 (1 - t^2)^-2 = 1: every coefficient after the
        # first cancels, so the order and precision come from the one term
        # left after the zeros are dropped
        xi = [Series({0: Fraction(1), 1: Fraction(1)}, 12),
              Series({0: Fraction(1), 1: Fraction(-1)}, 12),
              Series({0: Fraction(1), 2: Fraction(-1)}, 12)]
        got = semitoric._product(xi, [2, 2, -2], 10)
        want = _reference_product(xi, [2, 2, -2], 10)
        assert got.terms == want.terms == {0: 1}
        assert got.order() == 0 and got.prec == want.prec
        # t (1 + t) (t - t^2)^-1 = (1 + t) / (1 - t) = 1 + 2t + 2t^2 + ...,
        # through a product whose t^1 term cancels on the way
        xi = [Series({1: Fraction(1), 2: Fraction(1)}, 12),
              Series({1: Fraction(1), 2: Fraction(-1)}, 12)]
        got = semitoric._product(xi, [1, -1], 8)
        want = _reference_product(xi, [1, -1], 8)
        assert got.terms == want.terms and got.prec == want.prec
        assert got.terms[0] == 1 and got.terms[1] == 2

    @given(st.sampled_from([(4, (6, 7)), (8, (12, 14, 15)), (6, (9, 10))]),
           st.lists(_rational.filter(bool), min_size=3, max_size=3))
    @settings(max_examples=20, deadline=None)
    def test_embedding_matches_fraction_semiroots(self, shape, coeffs):
        # non-unit leading coefficients: the semiroot of (8; 12, 14, 15)
        # cancels x^5 y, whose leading numerator is y's
        n, exps = shape
        b = PlaneBranch(n, tuple(zip(exps, coeffs)))
        _, xi = branch_embedding(b)
        want = _reference_embedding(b)
        assert [(s.terms, s.prec) for s in xi] == \
            [(s.terms, s.prec) for s in want]
        assert all(_lowest(s) for s in xi)

    def test_power_of_zero(self):
        zero = Series({}, 5)
        assert not zero.power(3, 7).terms and zero.power(3, 7).prec == 7
        for k in (0, -1, -12):
            with pytest.raises(ValueError):
                zero.power(k, 5)

    def test_negative_power(self):
        # (t^2)^-1 shifts orders down by 2
        s = Series({2: Fraction(1), 3: Fraction(1)}, 10)
        p = s.power(-1, 6)
        assert p.order() == -2
        assert p.leading() == 1

    def test_one_denominator_in_lowest_terms(self):
        # 2/3 t + 4/3 t^2 over -2, with t^5 past the precision
        s = _lowest(Series({1: Fraction(2, 3), 2: Fraction(4, 3),
                            5: Fraction(1)}, 5, -2))
        assert (s.num, s.den, s.prec) == ({1: -1, 2: -2}, 3, 5)
        view = s.terms
        assert view == {1: Fraction(-1, 3), 2: Fraction(-2, 3)}
        view[1] = Fraction(7)  # a copy: the series is unchanged
        assert s.leading() == Fraction(-1, 3) and s.coefficient(3) == 0
        assert (Series({}, 4).num, Series({}, 4).den) == ({}, 1)

    def test_mul_precision_tracking(self):
        a = Series({1: Fraction(1)}, 4)
        b = Series({1: Fraction(1)}, 4)
        prod = a.mul(b)
        assert prod.coefficient(2) == 1
        assert prod.prec == 5  # shifted by the other factor's order
