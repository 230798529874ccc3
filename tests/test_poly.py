"""Exact polynomial arithmetic, canonical form, parsing, monomial orders."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlab.errors import InvalidInput, VariableMismatch
from singlab.groebner import groebner_basis, normal_form
from singlab.milnor import unfold_germ
from singlab.poly import (GREVLEX, LEX, MAX_NESTING, MonomialOrder, Packing,
                          Polynomial, div_terms, infer_variables,
                          parse_polynomial)
from singlab.resultant import poly_determinant
from test_discriminant import germs_1d

VARS = ("z", "w")


def P(text, names=VARS):
    return parse_polynomial(text, names)


@st.composite
def polynomials(draw, names=VARS, max_terms=6, max_exp=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = tuple(draw(st.integers(0, max_exp)) for _ in names)
        c = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        if c:
            terms[e] = terms.get(e, Fraction(0)) + c
    return Polynomial(names, {e: c for e, c in terms.items() if c})


class TestArithmetic:
    def test_add_sub_roundtrip_is_identity(self):
        p, q = P("z^2 + 3*w"), P("w^3 - 1/2*z")
        assert (p + q) - q == p

    def test_product_expands(self):
        assert P("z + w") * P("z - w") == P("z^2 - w^2")

    def test_zero_coefficients_are_dropped(self):
        p = P("z^2 + w") - P("z^2")
        assert p.terms == {(0, 1): Fraction(1)}

    def test_diff_power_rule(self):
        assert P("z^3*w").diff("z") == P("3*z^2*w")
        assert P("5").diff("z").is_zero()

    def test_evaluate_exact(self):
        p = P("z^2*w - 1/3")
        assert p.evaluate({"z": Fraction(2), "w": Fraction(1, 4)}) == \
            Fraction(2, 3)

    def test_project_reorders_and_adds_variables(self):
        p = P("z^2 + 3*w")
        q = p.project(("u", "w", "z"))
        assert q.terms == {(0, 0, 2): Fraction(1), (0, 1, 0): Fraction(3)}
        assert q.project(VARS) == p

    def test_project_drops_only_absent_variables(self):
        assert P("z^2 - 1").project(("z",)) == \
            parse_polynomial("z^2 - 1", ("z",))
        with pytest.raises(VariableMismatch, match="dropped variable"):
            P("z^2 + w").project(("z",))

    @pytest.mark.parametrize("exps", [(1.5,), (Fraction(1, 2),), (-1,),
                                      (1, 0)])
    def test_bad_exponent_vector_rejected(self, exps):
        # a non-integral exponent is not truncated to 3*z
        with pytest.raises(ValueError, match="bad exponent vector"):
            Polynomial(("z",), {exps: 1, (1,): 2})

    def test_integral_exponents_of_any_type_accepted(self):
        assert Polynomial(("z",), {(2.0,): 1, (Fraction(1),): 2}) == \
            Polynomial(("z",), {(2,): 1, (1,): 2})

    def test_mismatched_rings_rejected(self):
        with pytest.raises(VariableMismatch):
            P("z") + parse_polynomial("u", ("u",))

    @given(polynomials(), polynomials(), polynomials())
    @settings(max_examples=60, deadline=None)
    def test_distributive_law(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polynomials(), polynomials())
    @settings(max_examples=60, deadline=None)
    def test_commutativity(self, a, b):
        assert a * b == b * a
        assert a + b == b + a


def assert_clean(p):
    """p is what the validating constructor makes of its own term map, and
    holds only nonzero Fractions on int tuples of the ring's length."""
    assert p == Polynomial(p.variables, p.terms)
    assert type(p.variables) is tuple
    for e, c in p.terms.items():
        assert type(c) is Fraction and c != 0
        assert type(e) is tuple and len(e) == len(p.variables)
        assert all(type(k) is int and k >= 0 for k in e)


small = st.fractions(-3, 3, max_denominator=4)


class TestTrustedResults:
    """Results built on Polynomial._of, without the constructor's checks."""

    @given(polynomials(), polynomials(), small)
    @settings(max_examples=100, deadline=None)
    def test_arithmetic(self, a, b, c):
        for p in (-a, a + b, a - b, a - a, (a + b) - b, a * b, a * c,
                  a * 0, (a + b) * (a - b) - a * a, a ** 2, a + c):
            assert_clean(p)

    @given(polynomials(max_exp=6), st.sampled_from(VARS))
    @settings(max_examples=100, deadline=None)
    def test_calculus_and_views(self, p, v):
        wide = p.project(("u",) + VARS)
        results = [p.diff("z"), p.diff("w"), *p.coeffs_in(v), wide,
                   p.project(VARS[::-1] + ("u",)), wide.project(VARS),
                   p.restrict()]
        assert wide.project(VARS) == p
        if not p.is_zero():
            results.append((p * (p + 1)).exact_div(p))
        for q in results:
            assert_clean(q)

    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(polynomials(max_terms=3, max_exp=2), min_size=n,
                 max_size=n), min_size=n, max_size=n)))
    @settings(max_examples=60, deadline=None)
    def test_determinant(self, matrix):
        assert_clean(poly_determinant(matrix))

    @given(st.lists(polynomials(max_terms=3, max_exp=3), min_size=1,
                    max_size=3), polynomials(), st.sampled_from([GREVLEX, LEX]))
    @settings(max_examples=60, deadline=None)
    def test_groebner_basis_and_normal_form(self, gens, p, order):
        basis = groebner_basis(gens, order)
        for q in basis + [normal_form(p, basis, order)]:
            assert_clean(q)

    @given(st.one_of(germs_1d(6).map(lambda f: unfold_germ(f)),
                     st.sampled_from(["z^3 + w^3", "z^3 + w^4",
                                      "z^2*w + w^4", "1/2*z^4 + z*w^3"]).map(
                         lambda g: unfold_germ(P(g)))),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_grouped_specialize_is_substitution(self, u, data):
        t = data.draw(st.tuples(*(small for _ in u.parameter_names)))
        got = u.specialize(t)
        assert got.variables == u.z_names
        for _ in range(3):
            z = data.draw(st.tuples(*(small for _ in u.z_names)))
            assert got.evaluate(dict(zip(u.z_names, z))) == u.F.evaluate(
                dict(zip(u.parameter_names + u.z_names, t + z)))
        assert_clean(got)


class TestParsing:
    def test_rational_coefficients(self):
        assert P("1/2*z^2 - w") == Polynomial(
            VARS, {(2, 0): Fraction(1, 2), (0, 1): Fraction(-1)})

    def test_parentheses_and_unary_minus(self):
        assert P("-(z - w)^2") == P("-z^2 + 2*z*w - w^2")

    def test_infer_variables(self):
        # order of first appearance, not alphabetical
        assert infer_variables("4*t1^3 + 27*lambda^2") == ("t1", "lambda")

    def test_surrounding_whitespace_is_ignored(self):
        assert parse_polynomial(" z^3 \n", ("z",)) == \
            parse_polynomial("z^3", ("z",))

    @given(polynomials())
    @settings(max_examples=60, deadline=None)
    def test_str_parse_roundtrip(self, p):
        assert parse_polynomial(str(p), VARS) == p

    @pytest.mark.parametrize("wrap,value", [
        (lambda k: "(" * k + "w" + ")" * k, "w"),
        (lambda k: "z*" + "-" * k + "w", "z*w"),
        # each "(z*-" nests a parenthesis and a sign
        (lambda k: "(z*-" * (k // 2) + "w" + ")" * (k // 2), "z^100*w"),
    ], ids=["parentheses", "signs", "both"])
    def test_nesting_past_the_limit_is_invalid_input(self, wrap, value):
        # a parse that recursed past Python's limit raised RecursionError
        assert MAX_NESTING == 200
        assert P(wrap(200)) == P(value)
        for k in (202, 250, 5000):
            with pytest.raises(InvalidInput,
                               match="nested deeper than 200 levels"):
                P(wrap(k))


def _rebuild_per_term_div(p, divisor):
    """The earlier exact_div: one Polynomial rebuilt per quotient term."""
    rem = p
    q = {}
    de, dc = divisor.leading(GREVLEX)
    while not rem.is_zero():
        re_, rc = rem.leading(GREVLEX)
        qe = tuple(a - b for a, b in zip(re_, de))
        if any(x < 0 for x in qe):
            raise ValueError("inexact polynomial division")
        qc = rc / dc
        q[qe] = q.get(qe, Fraction(0)) + qc
        rem = rem - divisor * Polynomial.monomial(qe, qc, p.variables)
    return Polynomial(p.variables, q)


@st.composite
def exact_products(draw):
    names = ("x", "y", "z")[:draw(st.integers(1, 3))]
    q = draw(polynomials(names, max_terms=5, max_exp=3))
    b = draw(polynomials(names, max_terms=4, max_exp=3).filter(
        lambda b: not b.is_zero()))
    return q, b


class TestExactDivision:
    @given(exact_products())
    @settings(max_examples=120, deadline=None)
    def test_matches_rebuild_per_term_loop(self, qb):
        q, b = qb
        product = q * b
        assert product.exact_div(b) == q
        assert _rebuild_per_term_div(product, b) == q

    @pytest.mark.parametrize("a,b", [
        ("x^2 + 1", "x + 1"),
        ("x", "y"),
        ("x", "2*x + 3*y"),
        ("3*x^2*y + 1", "2*x*y"),
    ])
    def test_inexact_raises(self, a, b):
        names = ("x", "y")
        a, b = parse_polynomial(a, names), parse_polynomial(b, names)
        with pytest.raises(ValueError, match="inexact"):
            a.exact_div(b)
        with pytest.raises(ValueError, match="inexact"):
            _rebuild_per_term_div(a, b)

    def test_integer_coefficient_must_divide(self):
        # 3x / 2x is exact over Q but not over Z
        pk = Packing(LEX, 1, 2)
        guard = pk.guard
        x0, x1, x2 = map(pk.pack, [(0,), (1,), (2,)])
        with pytest.raises(ValueError, match="inexact"):
            div_terms({x1: 3}, {x1: 2}, guard)
        assert div_terms({x2: 6, x1: 3}, {x1: 2, x0: 1}, guard) == {x1: 3}

    @pytest.mark.parametrize("names", [("x", "y"), ("y", "x")])
    def test_exponent_borrow_raises(self, names):
        # y / x borrows from the top field for x > y, from the low one for
        # y > x; x^2 / (x*y) borrows from the y field
        pk = Packing(LEX, 2, 2)
        for a, b in (("y", "x"), ("x^2", "x*y")):
            a, b = parse_polynomial(a, names), parse_polynomial(b, names)
            with pytest.raises(ValueError, match="inexact"):
                a.exact_div(b)
            with pytest.raises(ValueError, match="inexact"):
                div_terms({pk.pack(e): 1 for e in a.terms},
                          {pk.pack(e): 1 for e in b.terms}, pk.guard)

    def test_remainder_outgrowing_its_field_raises(self):
        # in lex x > y, x^3 = (x^2 - x*y^5 + y^10)(x + y^5) - y^15: the
        # second quotient term pushes x*y^10, past the width of y^5's field
        names = ("x", "y")
        a, b = P("x^3", names), P("x + y^5", names)
        with pytest.raises(ValueError, match="inexact.*outgrows"):
            a.exact_div(b)
        pk = Packing(LEX, 2, 3)  # fields as wide as 5
        pack = pk.pack
        with pytest.raises(ValueError, match="inexact.*outgrows"):
            div_terms({pack((3, 0)): 1}, {pack((1, 0)): 1, pack((0, 5)): 1},
                      pk.guard)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            P("z").exact_div(Polynomial.zero(VARS))


class TestMonomialOrders:
    def test_grevlex_grades_by_total_degree_first(self):
        assert GREVLEX.key((3, 0)) < GREVLEX.key((2, 2))

    def test_grevlex_ties_break_by_last_variable(self):
        # z^2*w < z*w^2 in grevlex (smaller power of the last variable wins)
        assert GREVLEX.key((1, 2)) < GREVLEX.key((2, 1))

    def test_lex_ignores_total_degree(self):
        assert LEX.key((0, 5)) < LEX.key((1, 0))

    def test_leading_term(self):
        p = P("z^2*w + z*w^2 + z^4")
        assert p.leading(GREVLEX)[0] == (4, 0)
        assert p.leading(LEX)[0] == (4, 0)

    @given(order=st.sampled_from([GREVLEX, LEX]), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_packing_agrees_with_exponent_tuples(self, order, data):
        n, width = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 5))
        exps = data.draw(st.lists(
            st.tuples(*[st.integers(0, (1 << width) - 1)] * n),
            min_size=1, max_size=6))
        pk = Packing(order, n, width)
        packed = pk.pack_terms({e: k for k, e in enumerate(exps)})
        assert {pk.unpack(m): k for m, k in packed.items()} == \
            {e: k for k, e in enumerate(exps)}
        assert [pk.unpack(m) for m in sorted(packed)] == \
            sorted(set(exps), key=order.key)
        for a in exps:
            assert pk.degree(pk.pack(a)) == sum(a)
            for b in exps:
                pa, pb = pk.pack(a), pk.pack(b)
                assert pk.divides(pa, pb) == all(map(int.__le__, a, b))
                assert pk.unpack(pk.lcm(pa, pb)) == tuple(map(max, a, b))
                assert pk.lcm(pa, pb) == pk.pack(tuple(map(max, a, b)))

    def test_orders_are_named_singletons(self):
        assert MonomialOrder("lex") is LEX
        assert MonomialOrder("grevlex") is GREVLEX
        with pytest.raises(ValueError):
            MonomialOrder("deglex")
