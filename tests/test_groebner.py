"""Buchberger bases checked against sympy as an independent oracle and
against the lcm-keyed pair loop, and the steps the budget counts pinned."""

import heapq
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singlab import groebner
from singlab.errors import BudgetExceeded
from singlab.groebner import (eliminate, groebner_basis, ideal_contains,
                              normal_form, staircase_monomials)
from singlab.poly import GREVLEX, LEX, Polynomial, parse_polynomial
from singlab.semitoric import semigroup_from_generators, toric_ideal


def P(text, names):
    return parse_polynomial(text, names)


# Positional case ids for [GREVLEX, LEX], so the test names do not depend
# on how the order members print.
ORDER_IDS = ["order0", "order1"]


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
    return {sympy.expand(_to_sympy(p, symbols)) for p in basis}


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


def _random_binomial(names):
    """Two terms with exponents up to 40, so that packed fields carry."""
    exps = st.tuples(*[st.integers(0, 40)] * len(names))
    terms = st.dictionaries(exps, st.integers(-3, 3).filter(bool),
                            min_size=2, max_size=2)
    return terms.map(lambda t: Polynomial(names, t))


@st.composite
def _random_binomial_ideal(draw):
    names = ("x", "y", "z")[:draw(st.integers(2, 3))]
    return draw(st.lists(_random_binomial(names), min_size=2, max_size=2)), \
        names


class TestHighExponentIdealsAgainstSympy:
    @given(_random_binomial_ideal(), st.sampled_from(["grevlex", "lex"]))
    @settings(max_examples=40, deadline=None)
    def test_reduced_basis_agrees(self, ideal, order):
        gens, names = ideal
        ours = groebner_basis(gens, GREVLEX if order == "grevlex" else LEX)
        assert _as_sympy_set(ours, names, order) == \
            _sympy_groebner(gens, names, order)


@pytest.fixture
def budgets(monkeypatch):
    """Every step counter made, in order; the last one counts the run
    that finished."""
    made = []

    class Recording(groebner.Budget):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(groebner, "Budget", Recording)
    return made


@pytest.fixture
def widths(monkeypatch):
    """The field width of every packing made, in order."""
    made = []

    class Recording(groebner.Packing):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self.width)

    monkeypatch.setattr(groebner, "Packing", Recording)
    return made


# The steps of each toric-curves triple's elimination (lex) with pairs
# taken by lcm degree first, and the steps of the lcm-keyed loop (also those
# of the tuple-exponent kernel before it), which bound them.  CASES in
# (grevlex, lex) take the same steps either way.
TORIC_STEPS = {(5, 7, 9): 170, (3, 4, 5): 105, (3, 5, 7): 123,
               (3, 8, 10): 114, (4, 5, 7): 150, (4, 6, 7): 84,
               (4, 6, 9): 74, (6, 8, 9): 139, (6, 9, 10): 92,
               (6, 9, 11): 110, (6, 10, 11): 108, (4, 10, 11): 98}
LCM_KEYED_TORIC_STEPS = {(5, 7, 9): 1016, (3, 4, 5): 282, (3, 5, 7): 320,
                         (3, 8, 10): 265, (4, 5, 7): 289, (4, 6, 7): 84,
                         (4, 6, 9): 110, (6, 8, 9): 172, (6, 9, 10): 92,
                         (6, 9, 11): 129, (6, 10, 11): 108, (4, 10, 11): 98}
CASE_STEPS = [(7, 7), (16, 18), (2, 18), (2, 7)]
# A lex input that is not all binomials: with pairs by lcm degree its
# numerators pass 148,000 bits by step 650; by least lcm it takes 804 steps
# and 0.03 s.
SWOLLEN = [P(t, ("x", "y", "z")) for t in
           ["2*x^3 - 2*x^2*y - x", "2*x^2*y - 3*x*y^2", "2*x^3 - x*z + 2"]]


class TestStepCounts:
    @pytest.mark.parametrize("gens,bound", LCM_KEYED_TORIC_STEPS.items())
    def test_toric_elimination(self, budgets, gens, bound):
        toric_ideal(semigroup_from_generators(list(gens)))
        assert budgets[-1].used == TORIC_STEPS[gens] <= bound

    @pytest.mark.parametrize("case,steps", zip(CASES, CASE_STEPS))
    def test_cases(self, budgets, case, steps):
        texts, names = case
        gens = [P(t, names) for t in texts]
        for order, want in zip((GREVLEX, LEX), steps):
            groebner_basis(gens, order)
            assert budgets[-1].used == want

    def test_lex_beyond_binomials_takes_pairs_by_lcm(self, budgets):
        # pairs by lcm degree would take 307 steps
        gens = [P(t, ("x", "y", "z")) for t in ["-x^2*y + 3*x^2*z - 3*y",
                "x^2*y + 2*y^3", "x^2*y - 3*y*z^2 - 3*z"]]
        assert _term_for_term(groebner_basis(gens, LEX),
                              _lcm_keyed_basis(gens, LEX))
        assert [b.used for b in budgets] == [185, 185]


class TestFieldOverflow:
    """Products past the 16-bit field restart the run at 32 bits, with the
    result and the step count of an unpacked run."""

    XY = ("x", "y")

    @pytest.mark.parametrize("texts,order,steps", [
        (["x^301 - y^300", "x^301*y^65400 - x"], "grevlex", 6),  # y^65700
        (["x^300 - y", "y^300 - x"], "lex", 305),                # y^90000
    ])
    def test_basis_agrees_after_widening(self, budgets, widths, texts,
                                         order, steps):
        gens = [P(t, self.XY) for t in texts]
        ours = groebner_basis(gens, GREVLEX if order == "grevlex" else LEX)
        assert widths == [16, 32]
        assert budgets[-1].used == steps
        assert _as_sympy_set(ours, self.XY, order) == \
            _sympy_groebner(gens, self.XY, order)

    @pytest.mark.parametrize("order", [GREVLEX, LEX], ids=ORDER_IDS)
    def test_normal_form_after_widening(self, budgets, widths, order):
        rem = normal_form(P("x^301*y^65400", self.XY),
                          [P("x^301 - y^300", self.XY)], order)
        assert widths == [16, 32]
        assert budgets[-1].used == 2
        assert rem == P("y^65700", self.XY)


def _lcm_keyed_monic(pk, terms):
    packed = {pk.pack(e): c for e, c in terms.items()}
    lead = max(packed)
    return lead, {m: c / packed[lead] for m, c in packed.items()}


def _lcm_keyed_buchberger(maps, pk, steps):
    """The reference pair loop: pairs by least lcm, Fraction coefficients."""
    one, divides, lcm = pk.one, pk.divides, pk.lcm
    leads, basis = map(list, zip(*(_lcm_keyed_monic(pk, t) for t in maps)))
    live = []    # elements that still form pairs and reduce
    pairs = []   # heap of (lcm, i, j), i > j

    def update(h):
        nonlocal live, pairs
        mh = leads[h]
        new = [(lcm(mh, leads[g]), g) for g in live]
        kept = []
        for k, (l, g) in enumerate(new):
            coprime = l == mh + leads[g] - one
            # criteria M and F: a later new pair's lcm, or a kept one's,
            # divides this lcm; coprime pairs stay as witnesses
            if coprime or not any(divides(o[0], l)
                                  for o in new[k + 1:] + kept):
                kept.append((l, g, coprime))
        pairs = [p for p in pairs
                 if not divides(mh, p[0])
                 or lcm(leads[p[1]], mh) == p[0]
                 or lcm(leads[p[2]], mh) == p[0]]
        pairs += [(l, h, g) for l, g, coprime in kept if not coprime]
        heapq.heapify(pairs)
        live = [g for g in live if not divides(mh, leads[g])] + [h]

    for h in range(len(basis)):
        update(h)
    while pairs:
        steps.step()
        l, i, j = heapq.heappop(pairs)
        # the first division step of (l / lead i) * basis[i], by basis[j],
        # leaves the S-polynomial
        shift = l - leads[i]
        work = {e + shift: c for e, c in basis[i].items()}
        r = groebner._reduce(work, [(leads[j], basis[j])]
                             + [(leads[g], basis[g]) for g in live], pk, steps)
        if r:
            lead = max(r)
            basis.append({e: c / r[lead] for e, c in r.items()})
            leads.append(lead)
            update(len(basis) - 1)
    # Minimalize (the update leaves no two equal leading terms), then
    # tail-reduce each element against the others.
    keep = sorted((g for g in live
                   if not any(divides(leads[o], leads[g])
                              for o in live if o != g)),
                  key=leads.__getitem__)
    out = []
    for g in keep:
        tail = {e: c for e, c in basis[g].items() if e != leads[g]}
        r = groebner._reduce(tail, [(leads[o], basis[o])
                                    for o in keep if o != g], pk, steps)
        out.append({leads[g]: Fraction(1), **r})
    return out


def _lcm_keyed_basis(gens, order):
    variables = gens[0].variables
    pk, basis = groebner._packed_run(_lcm_keyed_buchberger,
                                     [g.terms for g in gens], order,
                                     len(variables), "reference")
    return [Polynomial(variables, {pk.unpack(m): c for m, c in g.items()})
            for g in basis]


def _toric(gens):
    """{U_i - T^{g_i}}, T first."""
    names = ("T",) + tuple(f"U{i}" for i in range(len(gens)))
    return [P(f"U{i} - T^{g}", names) for i, g in enumerate(gens)], names


@st.composite
def _pure_difference_ideal(draw):
    """Two to four binomials x^a - x^b in T and one to three more variables."""
    names = ("T", "x", "y", "z")[:draw(st.integers(2, 4))]
    exps = st.tuples(*[st.integers(0, 4)] * len(names))
    binomial = st.tuples(exps, exps).filter(lambda ab: ab[0] != ab[1]).map(
        lambda ab: Polynomial(names, {ab[0]: 1, ab[1]: -1}))
    return draw(st.lists(binomial, min_size=2, max_size=4)), names


def _term_for_term(ours, ref):
    return [list(p.terms.items()) for p in ours] == \
        [list(p.terms.items()) for p in ref]


class TestAgainstTheLcmKeyedLoop:
    """Pairs by lcm degree and integer coefficients give the same reduced
    basis, term for term and in the same order, as the loop they replaced."""

    @given(_pure_difference_ideal())
    @example(_toric((7, 8, 9)))
    @example(_toric((5, 6, 7, 8)))
    @example(_toric((7, 8, 9, 10, 11)))
    @example(_toric((16, 24, 52, 106, 213)))
    @settings(max_examples=60, deadline=None)
    def test_binomial_ideals_lex(self, ideal):
        gens, _ = ideal
        assert _term_for_term(groebner_basis(gens, LEX),
                              _lcm_keyed_basis(gens, LEX))

    @given(_random_ideal(), st.sampled_from([GREVLEX, LEX]))
    @example((SWOLLEN, ("x", "y", "z")), LEX)
    @settings(max_examples=60, deadline=None)
    def test_random_ideals(self, ideal, order):
        gens, _ = ideal
        assert _term_for_term(groebner_basis(gens, order),
                              _lcm_keyed_basis(gens, order))

    @pytest.mark.parametrize("order", [GREVLEX, LEX], ids=ORDER_IDS)
    @pytest.mark.parametrize("texts,names", CASES + [
        (["x^2 - y", "x*y - 1"], ("x", "y")),     # integral throughout
        (["2*x^2 - 3*y", "x*y - 1"], ("x", "y")),  # 3/2 after the first step
    ])
    def test_every_coefficient_is_a_fraction(self, order, texts, names):
        gens = [P(t, names) for t in texts]
        basis = groebner_basis(gens, order)
        cubes = P(" + ".join(f"{v}^3" for v in names) + " + 1", names)
        rem = normal_form(cubes, basis, order)
        assert not rem.is_zero()
        for p in basis + [rem]:
            assert all(type(c) is Fraction for c in p.terms.values())


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
        assert out[0] == parse_polynomial("w^2 - 1/2", ("w",))

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

    def test_box_is_charged_to_the_budget(self, monkeypatch):
        # the walk covers 2 * 999 monomials, charged before it starts
        names = ("z", "w")
        gb = [P("z^2", names), P("w^999", names)]
        monkeypatch.setenv("SINGLAB_BUDGET", "1997")
        with pytest.raises(BudgetExceeded,
                           match="staircase_monomials exceeded 1997 steps"):
            staircase_monomials(gb, GREVLEX)
        monkeypatch.setenv("SINGLAB_BUDGET", "1998")
        assert len(staircase_monomials(gb, GREVLEX)) == 1998


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

    def recording(work, divisors, packing, budget):
        before = budget.used
        out = real(work, divisors, packing, budget)
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
    monkeypatch.setenv("SINGLAB_BUDGET", str(cap))
    with pytest.raises(BudgetExceeded):
        groebner_basis(gens, LEX)
    with pytest.raises(BudgetExceeded):
        eliminate(gens, ["T"])
