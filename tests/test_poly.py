"""Exact polynomial arithmetic, canonical form, parsing, monomial orders."""

import itertools
import math
import operator
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlab.errors import DegreeError, InvalidInput, VariableMismatch
from singlab.groebner import groebner_basis, normal_form
from singlab.milnor import unfold_germ
from singlab.poly import (GREVLEX, LEX, MAX_NESTING, MonomialOrder, Packing,
                          Polynomial, div_terms, infer_variables,
                          parse_polynomial)
from singlab.resultant import poly_determinant
from test_discriminant import germs_1d
from test_groebner import _as_sympy_set, _sympy_groebner

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


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_scale(a, c):
    return {e: c * x for e, x in a.items() if c}


def _ref_constant(c, n):
    return {(0,) * n: Fraction(c)} if c else {}


def _ref_project(a, names, variables):
    pos = [variables.index(v) if v in variables else None for v in names]
    out = {}
    for e, c in a.items():
        ne = [0] * len(variables)
        for i, k in zip(pos, e):
            if k:
                ne[i] = k
        out[tuple(ne)] = c
    return out


def _ref_determinant(rows):
    """Leibniz's sum over permutations, on Fraction term maps in VARS."""
    n, out = len(rows), {}
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i, j in itertools.combinations(range(n), 2))
        term = _ref_constant((-1) ** inversions, len(VARS))
        for i, j in enumerate(perm):
            term = _ref_mul(term, rows[i][j])
        out = _ref_add(out, term)
    return out


def _ref_normal_form(terms, divisors, order):
    """The remainder of terms under full division by divisors, on Fraction
    term maps: unique when they are a Groebner basis for order."""
    work, rem = dict(terms), {}
    leads = [(max(g, key=order.key), g) for g in divisors]
    while work:
        e = max(work, key=order.key)
        c = work.pop(e)
        for le, g in leads:
            if all(map(operator.ge, e, le)):
                shift, q = tuple(map(operator.sub, e, le)), c / g[le]
                for ge, gc in g.items():
                    if ge != le:
                        m = tuple(map(add, ge, shift))
                        work[m] = work.get(m, 0) - q * gc
                        if not work[m]:
                            del work[m]
                break
        else:
            rem[e] = c
    return rem


def assert_clean(p, want):
    """p holds nonzero int numerators on int tuples of the ring's length,
    over an int den > 0 that shares no factor with all of them; its
    Fraction terms are want, the same operation's result on Fraction term
    maps; and p is what the validating constructor makes of want."""
    assert type(p.variables) is tuple
    assert type(p.den) is int and p.den > 0
    assert math.gcd(p.den, *p.num.values()) == 1
    for e, c in p.num.items():
        assert type(c) is int and c != 0
        assert type(e) is tuple and len(e) == len(p.variables)
        assert all(type(k) is int and k >= 0 for k in e)
    assert all(type(c) is Fraction for c in p.terms.values())
    assert dict(p.terms) == want
    q = Polynomial(p.variables, want)
    assert p == q and hash(p) == hash(q)


small = st.fractions(-3, 3, max_denominator=4)


class TestTrustedResults:
    """Results built on Polynomial._of and Polynomial._reduced, without the
    constructor's checks, against the Fraction term maps of each
    operation."""

    @given(polynomials(), polynomials(), small)
    @settings(max_examples=100, deadline=None)
    def test_arithmetic(self, a, b, c):
        x, y, n = dict(a.terms), dict(b.terms), len(a.variables)
        minus_y = _ref_scale(y, -1)
        x_plus_y, x_minus_y = _ref_add(x, y), _ref_add(x, minus_y)
        for p, want in (
                (-a, _ref_scale(x, -1)), (a + b, x_plus_y), (a - b, x_minus_y),
                (a - a, {}), ((a + b) - b, x), (a * b, _ref_mul(x, y)),
                (a * c, _ref_scale(x, c)), (a * 0, {}),
                ((a + b) * (a - b) - a * a,
                 _ref_add(_ref_mul(x_plus_y, x_minus_y),
                          _ref_scale(_ref_mul(x, x), -1))),
                (a ** 2, _ref_mul(x, x)),
                (a + c, _ref_add(x, _ref_constant(c, n))),
                (c - a, _ref_add(_ref_constant(c, n), _ref_scale(x, -1)))):
            assert_clean(p, want)

    @given(polynomials(max_exp=6), st.sampled_from(VARS))
    @settings(max_examples=100, deadline=None)
    def test_calculus_and_views(self, p, v):
        x, i = dict(p.terms), VARS.index(v)
        wide = p.project(("u",) + VARS)
        results = [
            (p.diff(v), {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                         for e, c in x.items() if e[i]}),
            (wide, _ref_project(x, VARS, ("u",) + VARS)),
            (p.project(VARS[::-1] + ("u",)),
             _ref_project(x, VARS, VARS[::-1] + ("u",))),
            (wide.project(VARS), x)]
        used = tuple(w for k, w in enumerate(VARS) if any(e[k] for e in x))
        results.append((p.restrict(), _ref_project(x, VARS, used)))
        for k, q in enumerate(p.coeffs_in(v)):
            results.append((q, {e[:i] + e[i + 1:]: c for e, c in x.items()
                                if e[i] == k}))
        assert wide.project(VARS) == p
        if not p.is_zero():
            results.append(((p * (p + 1)).exact_div(p),
                            _ref_add(x, _ref_constant(1, 2))))
            content = p.content()
            assert content > 0
            results.append((p.primitive(), _ref_scale(x, 1 / content)))
        for q, want in results:
            assert_clean(q, want)

    @given(polynomials(), st.tuples(small, small))
    @settings(max_examples=100, deadline=None)
    def test_evaluate_is_the_fraction_sum(self, p, point):
        want = sum((c * point[0] ** e[0] * point[1] ** e[1]
                    for e, c in p.terms.items()), Fraction(0))
        got = p.evaluate(dict(zip(VARS, point)))
        assert type(got) is Fraction and got == want

    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(polynomials(max_terms=3, max_exp=2), min_size=n,
                 max_size=n), min_size=n, max_size=n)))
    @settings(max_examples=60, deadline=None)
    def test_determinant(self, matrix):
        assert_clean(poly_determinant(matrix), _ref_determinant(
            [[dict(p.terms) for p in row] for row in matrix]))

    @given(st.lists(polynomials(max_terms=3, max_exp=3), min_size=1,
                    max_size=3), polynomials(), st.sampled_from([GREVLEX, LEX]))
    @settings(max_examples=60, deadline=None)
    def test_groebner_basis_and_normal_form(self, gens, p, order):
        basis = groebner_basis(gens, order)
        if any(g.terms for g in gens):
            want = _sympy_groebner(gens, VARS, order.value)
            assert _as_sympy_set(basis, VARS, order.value) == want
        for q in basis:  # monic, so its terms are the sympy element's
            assert_clean(q, dict(q.terms))
        assert_clean(normal_form(p, basis, order), _ref_normal_form(
            dict(p.terms), [dict(g.terms) for g in basis if g.terms], order))

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
        n, want = u.n, {}
        for e, c in u.F.terms.items():
            for x, k in zip(t, e[n:]):
                c *= x ** k
            want[e[:n]] = want.get(e[:n], 0) + c
        assert_clean(got, {e: c for e, c in want.items() if c})


class TestCanonicalForm:
    @given(polynomials())
    @settings(max_examples=100, deadline=None)
    def test_every_route_builds_one_form(self, p):
        # equal polynomials are equal and hash alike however they are
        # built, as the subresultant chain's cache needs
        for q in (Polynomial(p.variables, p.terms),
                  Polynomial._of(p.variables, dict(p.num), p.den),
                  parse_polynomial(str(p), p.variables),
                  (p + p) * Fraction(1, 2), p * 3 - p * 2, -(-p),
                  p.project(p.variables), p + 0, p * 1):
            assert (q.num, q.den) == (p.num, p.den)
            assert q == p and hash(q) == hash(p)

    def test_lowest_terms_from_every_route(self):
        half = Polynomial(VARS, {(1, 0): Fraction(1, 2),
                                 (0, 1): Fraction(-3, 4)})
        for p in (half, P("z/2 - 3*w/4"), P("2*z - 3*w") * Fraction(1, 4),
                  Polynomial._of(VARS, {(1, 0): 2, (0, 1): -3}, 4)):
            assert (p.num, p.den) == ({(1, 0): 2, (0, 1): -3}, 4)
            assert p == half and hash(p) == hash(half)
        assert len({half, P("z/2 - 3*w/4"), P("(4*z - 6*w) / 8")}) == 1

    def test_denominator_takes_part_in_equality(self):
        assert P("z/2") != P("z") and P("z/2") != P("z/4")
        assert P("z/2 + w/3") == Polynomial(VARS, {(1, 0): Fraction(1, 2),
                                                   (0, 1): Fraction(1, 3)})

    def test_univariate_coeffs_are_den_times_the_coefficients(self):
        p = parse_polynomial("z^3/2 - 3/4", ("z",))
        assert (p.num, p.den) == ({(3,): 2, (0,): -3}, 4)
        assert p.univariate_coeffs() == [-3, 0, 0, 2]
        assert P("w^2/6 - w/4").univariate_coeffs() == [0, -3, 2]
        assert P("-5/3").univariate_coeffs() == [-5]
        assert P("0").univariate_coeffs() == []
        with pytest.raises(DegreeError, match="not univariate"):
            P("z*w").univariate_coeffs()

    def test_terms_is_a_read_only_view(self):
        p = P("z/2 + w")
        with pytest.raises(TypeError):
            p.terms[(0, 0)] = Fraction(1)
        with pytest.raises(TypeError):
            del p.terms[(1, 0)]
        with pytest.raises(AttributeError):
            p.terms = {}
        assert p == P("z/2 + w") and p.terms == {(1, 0): Fraction(1, 2),
                                                  (0, 1): Fraction(1)}

    @pytest.mark.parametrize("value", [1.4142135623730951, 1.5, "3/2",
                                       None])
    def test_evaluate_refuses_inexact_values(self, value):
        # Fraction(1.4142135623730951) is a binary rational, and z^2 - 2
        # at '3/2' was 1/4: the constructor and RatInterval refuse both
        with pytest.raises(TypeError, match="exact rational"):
            P("z^2 - 2", ("z",)).evaluate({"z": value})
        with pytest.raises(TypeError, match="exact rational"):
            P("z*w + 1").evaluate({"z": Fraction(1, 2), "w": value})

    def test_evaluate_ints_and_fractions(self):
        p = P("z^2 - 2", ("z",))
        assert p.evaluate({"z": 3}) == 7
        assert p.evaluate({"z": Fraction(3, 2)}) == Fraction(1, 4)
        assert P("0", ("z",)).evaluate({"z": 5}) == 0


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
