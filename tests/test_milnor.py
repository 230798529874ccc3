"""Milnor numbers, cobases, and miniversal unfoldings.

The oracle recomputes mu independently: sympy Groebner basis of the
Jacobian ideal, then brute-force counting of staircase monomials.
"""

import dataclasses
import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from singlab import milnor
from singlab.errors import (BudgetExceeded, IdentityViolation, NotCritical,
                            NotIsolated)
from singlab.milnor import analyze_germ, miniversal_unfolding, unfold_germ
from singlab.poly import Polynomial, parse_polynomial


def P(text, names):
    return parse_polynomial(text, names)


def oracle_mu(expr_text, names):
    symbols = sympy.symbols(names)
    f = sympy.sympify(expr_text.replace("^", "**"))
    partials = [sympy.diff(f, s) for s in symbols]
    gb = sympy.groebner(partials, *symbols, order="grevlex")
    leads = [sympy.Poly(e, *symbols).monoms(order="grevlex")[0]
             for e in gb.exprs]
    cap = 1 + max((max(l) for l in leads), default=0)
    count = 0
    for e in itertools.product(range(cap * len(names) + 1),
                               repeat=len(names)):
        if not any(all(le <= ee for le, ee in zip(l, e)) for l in leads):
            count += 1
            if count > 10_000:
                return None  # not zero-dimensional
    return count


CORPUS_1D = [(f"z^{k + 1}", k) for k in range(1, 8)]
CORPUS_2D = [(f"z^{a} + w^{b}", (a - 1) * (b - 1))
             for a in range(2, 6) for b in range(2, 6)]


class TestMilnorNumber:
    @pytest.mark.parametrize("germ,mu", CORPUS_1D)
    def test_one_variable_chain(self, germ, mu):
        assert analyze_germ(P(germ, ("z",))).mu == mu

    @pytest.mark.parametrize("germ,mu", CORPUS_2D)
    def test_two_variable_sums(self, germ, mu):
        assert analyze_germ(P(germ, ("z", "w"))).mu == mu

    @pytest.mark.parametrize("germ,names", [
        ("z^3", ("z",)), ("z^5", ("z",)), ("z^3 + w^3", ("z", "w")),
        ("z^3 + w^4", ("z", "w")), ("z^2*w + w^4", ("z", "w")),
    ])
    def test_matches_staircase_oracle(self, germ, names):
        assert analyze_germ(P(germ, names)).mu == oracle_mu(germ, names)

    def test_d5_germ(self):
        assert analyze_germ(P("z^2*w + w^4", ("z", "w"))).mu == 5


class TestValidation:
    def test_noncritical_origin_rejected(self):
        with pytest.raises(NotCritical):
            analyze_germ(P("z + z^2", ("z",)))

    def test_nonisolated_rejected(self):
        with pytest.raises(NotIsolated):
            analyze_germ(P("z^2*w", ("z", "w")))

    def test_morse_point_accepted(self):
        a = analyze_germ(P("z^2 - w^2", ("z", "w")))
        assert a.mu == 1
        assert a.signature == (1, 1)
        assert [str(g) for g in a.cobasis] == ["1"]

    def test_cubic_signature_vanishes(self):
        assert analyze_germ(P("z^3 + w^3", ("z", "w"))).signature == (0, 0)

    @pytest.mark.parametrize("text,names,sig", [
        ("z*w", ("z", "w"), (1, 1)),
        ("z^2 + 2*z*w + w^2 + u^3", ("z", "w", "u"), (1, 0)),
        ("-z^2 - w^2 + u*v", ("z", "w", "u", "v"), (1, 3)),
        ("z^4 + w^3", ("z", "w"), (0, 0)),
    ])
    def test_signature_examples(self, text, names, sig):
        assert milnor._quadratic_signature(P(text, names)) == sig


def diagonalized_signature(f):
    """Signature by exact congruence diagonalization of the form matrix."""
    names = f.variables
    n = len(names)
    a = [[Fraction(0)] * n for _ in range(n)]
    for e, c in f.terms.items():
        if sum(e) != 2:
            continue
        idx = [i for i, k in enumerate(e) if k]
        if len(idx) == 1:
            a[idx[0]][idx[0]] = c
        else:
            i, j = idx
            a[i][j] = a[j][i] = c / 2
    pos = neg = 0
    live = list(range(n))
    while live:
        p = next((i for i in live if a[i][i] != 0), None)
        if p is None:
            pair = next(((i, j) for i in live for j in live
                         if i != j and a[i][j] != 0), None)
            if pair is None:
                break
            i, j = pair
            for k in range(n):
                a[i][k] += a[j][k]
            for k in range(n):
                a[k][i] += a[k][j]
            p = i
        if a[p][p] > 0:
            pos += 1
        else:
            neg += 1
        live.remove(p)
        for i in live:
            factor = a[i][p] / a[p][p]
            if factor == 0:
                continue
            for k in range(n):
                a[i][k] -= factor * a[p][k]
            for k in range(n):
                a[k][i] -= factor * a[k][p]
    return pos, neg


@st.composite
def quadratic_forms(draw):
    """1-4-variable forms with small (often zero) coefficients, so
    rank-deficient forms, the zero form and zero diagonals are common,
    plus a cubic term that the signature must ignore."""
    n = draw(st.integers(1, 4))
    names = ("z", "w", "u", "v")[:n]
    coeff = st.one_of(st.just(0), st.fractions(-3, 3, max_denominator=4))
    terms = {}
    for i in range(n):
        for j in range(i, n):
            e = [0] * n
            e[i] += 1
            e[j] += 1
            terms[tuple(e)] = draw(coeff)
    terms[(3,) + (0,) * (n - 1)] = draw(coeff)
    return Polynomial(names, terms)


@given(quadratic_forms())
@settings(max_examples=300, deadline=None)
def test_signature_matches_diagonalization(f):
    assert milnor._quadratic_signature(f) == diagonalized_signature(f)


class TestCobasis:
    def test_a2_cobasis(self):
        a = analyze_germ(P("z^3", ("z",)))
        assert [str(g) for g in a.cobasis] == ["1", "z"]

    def test_cubic_surface_cobasis(self):
        a = analyze_germ(P("z^3 + w^3", ("z", "w")))
        assert [str(g) for g in a.cobasis] == ["1", "z", "w", "z*w"]

    def test_linear_monomials_present_when_order_three(self):
        a = analyze_germ(P("z^3 + w^4", ("z", "w")))
        names = [str(g) for g in a.cobasis]
        assert "z" in names and "w" in names and names[0] == "1"


class TestUnfolding:
    def test_a2(self):
        u = unfold_germ(P("z^3", ("z",)))
        assert str(u.F) == "z^3 + z*t1"
        assert u.parameter_names == ("t1",)

    def test_a3(self):
        u = unfold_germ(P("z^4", ("z",)))
        assert u.parameter_names == ("t1", "t2")
        assert [str(g) for g in u.deformation_monomials] == ["z", "z^2"]

    def test_cubic_surface(self):
        u = unfold_germ(P("z^3 + w^3", ("z", "w")))
        assert [str(g) for g in u.deformation_monomials] == ["z", "w", "z*w"]

    def test_specialize_is_exact(self):
        from fractions import Fraction
        u = unfold_germ(P("z^3", ("z",)))
        Ft = u.specialize((Fraction(-3),))
        assert Ft == P("z^3 - 3*z", ("z",))

    def test_morse_germ_unfolds_without_parameters(self):
        u = miniversal_unfolding(analyze_germ(P("z^2", ("z",))))
        assert u.parameter_names == ()
        assert u.F == P("z^2", ("z",))

    @pytest.mark.parametrize("germ,names", [
        ("z^3", ("z",)), ("z^4", ("z",)), ("z^5", ("z",)), ("z^7", ("z",)),
        ("z^3 + w^3", ("z", "w")), ("z^3 + w^4", ("z", "w")),
        ("z^2*w + w^4", ("z", "w")), ("1/2*z^4 + z*w^3", ("z", "w"))])
    def test_matches_sum_of_parameter_terms(self, germ, names):
        # F = f + t1 g1 + t2 g2 + ... term by term, in the same term order
        u = unfold_germ(P(germ, names))
        ring = u.F.variables
        F = u.analysis.f.project(ring)
        for t, g in zip(u.parameter_names, u.deformation_monomials):
            F = F + Polynomial.variable(t, ring) * g.project(ring)
        assert list(u.F.terms.items()) == list(F.terms.items())

    def test_specialize_follows_a_replaced_F(self):
        # the z-grouping behind specialize is rebuilt from F itself
        u = unfold_germ(P("z^3", ("z",)))
        t1, z = (Polynomial.variable(v, u.F.variables) for v in ("t1", "z"))
        moved = dataclasses.replace(u, F=u.F + t1 * z ** 2)
        assert moved.specialize((Fraction(2),)) == P("z^3 + 2*z^2 + 2*z",
                                                     ("z",))
        with pytest.raises(IdentityViolation, match="not linear in t"):
            dataclasses.replace(u, F=u.F + t1 * t1)

    def test_monomial_count_mismatch_raises(self, monkeypatch):
        # a repeated constant monomial raises mu without adding a parameter
        real = milnor.staircase_monomials
        monkeypatch.setattr(milnor, "staircase_monomials",
                            lambda gb, order: real(gb, order) + [(0,)])
        with pytest.raises(IdentityViolation):
            unfold_germ(P("z^3", ("z",)))

    def test_term_map_is_charged_to_the_budget(self, monkeypatch):
        # mu = 1998 terms of n + mu = 2000 exponents: 3996 steps, charged
        # before the map is built
        a = analyze_germ(P("z^3 + w^1000", ("z", "w")))
        monkeypatch.setenv("SINGLAB_BUDGET", "3995")
        with pytest.raises(BudgetExceeded,
                           match="miniversal_unfolding exceeded 3995 steps"):
            miniversal_unfolding(a)
        monkeypatch.setenv("SINGLAB_BUDGET", "3996")
        assert len(miniversal_unfolding(a).parameter_names) == 1997
