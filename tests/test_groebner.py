"""Buchberger bases checked against sympy as an independent oracle."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from singlab import groebner
from singlab.errors import BudgetExceeded
from singlab.groebner import (eliminate, groebner_basis, ideal_contains,
                              normal_form, staircase_monomials)
from singlab.poly import GREVLEX, LEX, Polynomial, parse_polynomial


def P(text, names):
    return parse_polynomial(text, names)


def _to_sympy(p, symbols):
    expr = sympy.Integer(0)
    for e, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, k in zip(symbols, e):
            term *= s ** k
        expr += term
    return expr


def _sympy_groebner(gens, names, order):
    symbols = sympy.symbols(names)
    basis = sympy.groebner([_to_sympy(g, symbols) for g in gens],
                           *symbols, order=order)
    return {sympy.expand(e / sympy.LC(e, order=order, gens=symbols))
            for e in basis.exprs}


def _as_sympy_set(basis, names, order):
    symbols = sympy.symbols(names)
    return {sympy.expand(_to_sympy(p.monic(GREVLEX if order == "grevlex"
                                           else LEX), symbols))
            for p in basis}


CASES = [
    (["z^2 + w^2 - 1", "z - w"], ("z", "w")),
    (["z^3 - 2*z*w", "z^2*w - 2*w^2 + z"], ("z", "w")),
    (["3*z^2 + t3*w", "3*w^2 + t3*z"], ("z", "w", "t3")),
    (["z^2 - w", "w^2 - z"], ("z", "w")),
]


class TestAgainstSympy:
    @pytest.mark.parametrize("texts,names", CASES)
    def test_grevlex_bases_agree(self, texts, names):
        gens = [P(t, names) for t in texts]
        ours = groebner_basis(gens, GREVLEX)
        assert _as_sympy_set(ours, names, "grevlex") == \
            _sympy_groebner(gens, names, "grevlex")

    @pytest.mark.parametrize("texts,names", CASES)
    def test_lex_bases_agree(self, texts, names):
        gens = [P(t, names) for t in texts]
        ours = groebner_basis(gens, LEX)
        assert _as_sympy_set(ours, names, "lex") == \
            _sympy_groebner(gens, names, "lex")


def _random_polynomial(names):
    """Two or three terms of total degree <= 3, small coefficients."""
    n = len(names)
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: sum(e) <= 3)
    terms = st.dictionaries(exps, st.integers(-3, 3).filter(bool),
                            min_size=2, max_size=3)
    return terms.map(lambda t: Polynomial(names, t))


@st.composite
def _random_ideal(draw):
    names = ("x", "y", "z")[:draw(st.integers(2, 3))]
    return draw(st.lists(_random_polynomial(names), min_size=2, max_size=3)), \
        names


class TestRandomIdealsAgainstSympy:
    @given(_random_ideal(), st.sampled_from(["grevlex", "lex"]))
    @settings(max_examples=40, deadline=None)
    def test_reduced_basis_agrees(self, ideal, order):
        gens, names = ideal
        ours = groebner_basis(gens, GREVLEX if order == "grevlex" else LEX)
        assert _as_sympy_set(ours, names, order) == \
            _sympy_groebner(gens, names, order)


class TestNormalForm:
    def test_membership_reduces_to_zero(self):
        names = ("z", "w")
        gb = groebner_basis([P("z^2", names), P("w^2", names)], GREVLEX)
        assert normal_form(P("z*w*z", names), gb, GREVLEX).is_zero()

    def test_nonmember_keeps_remainder(self):
        names = ("z",)
        gb = groebner_basis([P("z^2", names)], GREVLEX)
        assert normal_form(P("1 + z", names), gb, GREVLEX) == P("1 + z", names)

    @given(st.lists(st.integers(-5, 5), min_size=2, max_size=4),
           st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_random_combinations_are_members(self, coeffs, e1, e2):
        # any polynomial combination of the generators reduces to zero
        names = ("z", "w")
        g1, g2 = P("z^2 - w", names), P("z*w - 1", names)
        gb = groebner_basis([g1, g2], GREVLEX)
        mono = Polynomial.monomial((e1, e2), Fraction(1), names)
        combo = g1 * mono * Fraction(coeffs[0]) + \
            g2 * Polynomial.constant(Fraction(coeffs[1]), names)
        assert normal_form(combo, gb, GREVLEX).is_zero()
        assert ideal_contains(combo, gb, GREVLEX)


class TestElimination:
    def test_circle_line_projection(self):
        names = ("z", "w")
        out = eliminate([P("z^2 + w^2 - 1", names), P("z - w", names)], ["z"])
        assert len(out) == 1
        only = out[0].monic(LEX)
        assert only == parse_polynomial("w^2 - 1/2", ("w",))

    def test_toric_kernel_of_2_3(self):
        names = ("T", "U0", "U1")
        out = eliminate([P("U0 - T^2", names), P("U1 - T^3", names)], ["T"])
        target = parse_polynomial("U1^2 - U0^3", ("U0", "U1"))
        assert any(p == target or p == -target for p in out)


class TestStaircase:
    def test_zero_dimensional_count(self):
        names = ("z", "w")
        gb = groebner_basis([P("z^2", names), P("w^3", names)], GREVLEX)
        stairs = staircase_monomials(gb, GREVLEX)
        assert stairs is not None and len(stairs) == 6

    def test_positive_dimensional_returns_none(self):
        names = ("z", "w")
        gb = groebner_basis([P("z^2", names)], GREVLEX)
        assert staircase_monomials(gb, GREVLEX) is None


def test_budget_is_enforced(monkeypatch):
    monkeypatch.setenv("SINGLAB_BUDGET", "3")
    names = ("z", "w")
    with pytest.raises(BudgetExceeded):
        groebner_basis([P("z^3 - 2*z*w", names),
                        P("z^2*w - 2*w^2 + z", names)], GREVLEX)


def test_budget_bounds_the_whole_computation(monkeypatch):
    # Record each reduction's steps and the shared counter's final total.
    runs, counters = [], []
    real = groebner._reduce

    def recording(work, divisors, order, budget):
        before = budget.used
        out = real(work, divisors, order, budget)
        runs.append(budget.used - before)
        counters.append(budget)
        return out

    monkeypatch.setattr(groebner, "_reduce", recording)
    names = ("T", "U0", "U1", "U2")
    gens = [P("U0 - T^5", names), P("U1 - T^7", names), P("U2 - T^9", names)]
    groebner_basis(gens, LEX)
    total = counters[-1].used
    pair_steps = total - sum(runs)
    cap = max(pair_steps, max(runs))
    # the pair loop and every single reduction fit the cap; their sum does not
    assert cap < total
    with pytest.raises(BudgetExceeded):
        groebner_basis(gens, LEX, budget=cap)
    monkeypatch.setenv("SINGLAB_BUDGET", str(cap))
    with pytest.raises(BudgetExceeded):
        eliminate(gens, ["T"])
