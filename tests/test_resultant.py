"""Sylvester resultants and fraction-free determinants vs sympy."""

import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, neg, sub

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singlab.errors import DegreeError, VariableMismatch
from singlab.poly import Polynomial, integer_terms, parse_polynomial
from singlab.resultant import poly_determinant, resultant, subresultant


@st.composite
def rational_polys(draw, names, max_exps):
    """Polynomials whose coefficients are mostly non-integer rationals."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        e = tuple(draw(st.integers(0, k)) for k in max_exps)
        terms[e] = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 7)))
    return Polynomial(names, terms)


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


def _tuple_mul_terms(acc, a, b):
    """The reference product acc += a * b on exponent tuples."""
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2


def _tuple_div_terms(rem, divisor):
    """The reference heap division on exponent tuples."""
    de = max(divisor)
    dc = divisor[de]
    tail = [(e, c) for e, c in divisor.items() if e != de]
    heap = [tuple(map(neg, e)) for e in rem]
    heapify(heap)
    q = {}
    while heap:
        e = tuple(map(neg, heappop(heap)))
        c = rem.pop(e)
        if not c:
            continue
        qe = tuple(map(sub, e, de))
        qc, r = divmod(c, dc)
        if r or min(qe, default=0) < 0:
            raise ValueError("inexact polynomial division")
        q[qe] = qc
        for be, bc in tail:
            te = tuple(map(add, qe, be))
            if te not in rem:
                heappush(heap, tuple(map(neg, te)))
            rem[te] = rem.get(te, 0) - qc * bc
    return q


def _tuple_bareiss(matrix):
    """The reference integer Bareiss determinant on exponent tuples."""
    n = len(matrix)
    variables = matrix[0][0].variables
    flat, den = integer_terms([p.terms for row in matrix for p in row])
    m = [flat[i * n:(i + 1) * n] for i in range(n)]
    sign = 1
    prev = {(0,) * len(variables): 1}
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return Polynomial.zero(variables)
        pivot = m[k][k]
        for i in range(k + 1, n):
            neg_ik = {e: -c for e, c in m[i][k].items()}
            for j in range(k + 1, n):
                num = {}
                _tuple_mul_terms(num, m[i][j], pivot)
                if neg_ik and m[k][j]:
                    _tuple_mul_terms(num, neg_ik, m[k][j])
                m[i][j] = _tuple_div_terms(num, prev)
        prev = pivot
    return Polynomial._of(variables, {e: Fraction(c, sign * den ** n)
                                      for e, c in m[n - 1][n - 1].items()})


@st.composite
def bareiss_matrices(draw):
    """Square matrices of sizes 1-6 over 0-4 variables, with rational
    entries: dense ones with forced zero pivots, singular ones, and
    diagonal ones whose last two entries are constants, so that the last
    product reaches twice the degree bound."""
    n = draw(st.integers(1, 6))
    names = ("x", "y", "u", "v")[:draw(st.integers(0, 4))]
    zero = Polynomial.zero(names)
    entry = rational_polys(names, (2,) * len(names))
    kind = draw(st.sampled_from(["dense", "singular", "diagonal"]))
    if kind == "diagonal":
        diag = [draw(entry) for _ in range(n - 2)] + [
            Polynomial.constant(draw(st.integers(1, 5)), names)
            for _ in range(min(n, 2))]
        return [[diag[i] if i == j else zero for j in range(n)]
                for i in range(n)]
    m = [[draw(st.one_of(st.just(zero), entry)) for _ in range(n)]
         for _ in range(n)]
    for k in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        for i in range(k, n):  # a zero pivot, and zeros below it
            if draw(st.booleans()):
                m[i][k] = zero
    if kind == "singular" and n > 1:
        i, j = draw(st.permutations(range(n)))[:2]
        f = draw(entry)
        m[j] = [p * f for p in m[i]]
    return m


class TestResultant:
    def test_quadratic_minus_parameter(self):
        # the eliminated variable is dropped from the result's ring
        r = resultant(P("z^2 - a", ("z", "a")), P("z", ("z", "a")), "z")
        assert r == P("-a", ("a",)) or r == P("a", ("a",))

    def test_cusp_discriminant(self):
        names = ("z", "t", "l")
        r = resultant(P("z^3 + t*z - l", names),
                      P("3*z^2 + t", names), "z")
        target = P("4*t^3 + 27*l^2", ("t", "l"))
        # defined up to a nonzero rational unit
        assert r.primitive() == target or r.primitive() == -target

    def test_common_root_gives_zero(self):
        names = ("z",)
        assert resultant(P("z - 1", names), P("z - 1", names), "z").is_zero()

    def test_degree_zero_rejected(self):
        names = ("z",)
        with pytest.raises(DegreeError):
            resultant(P("3", names), P("z", names), "z")

    @pytest.mark.parametrize("f,g", [
        ("z^4 - 3*z + 1", "2*z^2 + z - 5"),
        ("z^5 + z^2*w + w^3", "z^2 - w"),
        ("z^3*w^2 - z + 1", "z^2*w + 3*w - 2"),
    ])
    def test_agrees_with_sympy(self, f, g):
        names = ("z", "w")
        symbols = sympy.symbols(names)
        ours = resultant(P(f, names), P(g, names), "z")
        theirs = sympy.expand(sympy.resultant(
            _to_sympy(P(f, names), symbols), _to_sympy(P(g, names), symbols),
            symbols[0]))
        ours_expr = _to_sympy(ours, sympy.symbols(ours.variables))
        assert sympy.expand(ours_expr - theirs) == 0

    @given(st.lists(st.integers(-4, 4), min_size=3, max_size=5),
           st.lists(st.integers(-4, 4), min_size=2, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_zero_iff_common_factor(self, fc, gc):
        # nonzero resultant exactly when gcd is trivial (univariate case)
        z = sympy.Symbol("z")
        f_s = sum(c * z ** i for i, c in enumerate(fc))
        g_s = sum(c * z ** i for i, c in enumerate(gc))
        if sympy.degree(f_s, z) < 1 or sympy.degree(g_s, z) < 1:
            return
        names = ("z",)
        f = Polynomial(names, {(i,): Fraction(c)
                               for i, c in enumerate(fc) if c})
        g = Polynomial(names, {(i,): Fraction(c)
                               for i, c in enumerate(gc) if c})
        r = resultant(f, g, "z")
        assert r.is_zero() == (sympy.degree(sympy.gcd(f_s, g_s), z) >= 1)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_rational_coefficients_agree_with_sympy(self, data):
        names = ("z", "a", "b")[:data.draw(st.integers(2, 3))]
        bounds = (3,) + (2,) * (len(names) - 1)
        f = data.draw(rational_polys(names, bounds))
        g = data.draw(rational_polys(names, bounds))
        if f.degree_in("z") < 1 or g.degree_in("z") < 1:
            return
        if f.degree_in("z") < g.degree_in("z"):
            # sympy's resultant has the opposite sign to the Sylvester
            # determinant when the first input has the lower degree
            # (z + 1 and z^3 give 1, not -1), so the higher degree goes first
            f, g = g, f
        symbols = sympy.symbols(names)
        ours = resultant(f, g, "z")
        theirs = sympy.resultant(_to_sympy(f, symbols), _to_sympy(g, symbols),
                                 symbols[0])
        ours_expr = _to_sympy(ours, sympy.symbols(ours.variables))
        assert sympy.expand(ours_expr - theirs) == 0


class TestSubresultant:
    """S_j from Sylvester submatrices: S_0 is the resultant, and the first
    S_j with a top coefficient that is not 0 is a gcd."""

    @pytest.mark.parametrize("p,q,kind", [
        ("3*z^2 + 5*w^2 + 2*w - 1", "4*w^3 + 2*z*w + z - 2*w + 3", "prem"),
        ("z^2 - 2*z*w + 1/3", "3*w^2 + z^3 - 5", "p"),
        ("w^3 - z", "w - z^2 + 7", "q"),
        ("z^2*w + z - 1", "-2*w + 3*z", "q")],
        ids=["prem", "p", "q", "both-linear"])
    def test_first_subresultant(self, p, q, kind):
        # deg_w q = deg_w p + 1 gives S1 = prem(q, p), p linear in w gives
        # S1 = p, q linear in w gives S1 = q, also when p is linear too
        names = ("z", "w")
        symbols = sympy.symbols(names)
        p, q = (P(x, names) for x in (p, q))
        s11, s10 = subresultant(p, q, "w", 1)
        sp, sq = (_to_sympy(x, symbols) for x in (p, q))
        want = {"prem": sympy.prem(sq, sp, symbols[1]), "p": sp, "q": sq}[kind]
        got = _to_sympy(s11.project(names), symbols) * symbols[1] + \
            _to_sympy(s10.project(names), symbols)
        assert sympy.expand(got - want) == 0

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_zeroth_is_the_resultant(self, data):
        names = ("z", "a")
        f = data.draw(rational_polys(names, (3, 2)))
        g = data.draw(rational_polys(names, (3, 2)))
        if f.degree_in("z") < 1 or g.degree_in("z") < 1:
            return
        assert subresultant(f, g, "z", 0) == [resultant(f, g, "z")]

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_common_factor_of_degree_j(self, j):
        # p = g a, q = g b with deg_z g = j and a, b coprime: S_j is a
        # multiple of g by a nonzero polynomial in c, and S_i = 0 for i < j
        rng = random.Random(j)
        names = ("z", "c")
        z, c = symbols = sympy.symbols(names)

        def draw(degree):
            return sum(sympy.Integer(rng.randint(-3, 3)) * c ** rng.randint(
                0, 1) * z ** k for k in range(degree)) + \
                rng.choice([1, -2, 3]) * z ** degree
        checked = 0
        for _ in range(3):
            g, a, b = draw(j), draw(rng.randint(1, 3)), draw(rng.randint(1, 3))
            if sympy.degree(sympy.gcd(a, b), z) > 0:
                continue
            checked += 1
            p, q = (P(str(sympy.expand(g * x)).replace("**", "^"), names)
                    for x in (a, b))
            for i in range(j):
                assert all(x.is_zero() for x in subresultant(p, q, "z", i))
            s = subresultant(p, q, "z", j)
            assert not s[0].is_zero()
            got = sum(_to_sympy(x.project(names), symbols) * z ** (j - k)
                      for k, x in enumerate(s))
            ratio = sympy.cancel(got / g)
            assert ratio != 0 and z not in ratio.free_symbols
        assert checked >= 2


class TestDeterminant:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_sympy_with_zero_pivots(self, data):
        n = data.draw(st.integers(2, 4))
        names = ("z", "w")
        entries = st.one_of(st.just(Polynomial.zero(names)),
                            rational_polys(names, (2, 2)))
        m = [[data.draw(entries) for _ in range(n)] for _ in range(n)]
        # a zero leading pivot, and often zeros below it, forces row swaps
        m[0][0] = Polynomial.zero(names)
        symbols = sympy.symbols(names)
        theirs = sympy.Matrix([[_to_sympy(p, symbols) for p in row]
                               for row in m]).det(method="berkowitz")
        assert sympy.expand(_to_sympy(poly_determinant(m), symbols)
                            - theirs) == 0

    @given(bareiss_matrices())
    @settings(max_examples=150, deadline=None)
    @example([[P(t, ("x", "y")) for t in row] for row in
              [["x + y", "0", "0", "0"], ["0", "x + y", "0", "0"],
               ["0", "0", "1", "0"], ["0", "0", "0", "1"]]])
    @example([[P(t, ("x", "y")) for t in row] for row in
              [["x + y^2", "0", "0"], ["0", "1", "0"], ["0", "0", "2"]]])
    # the last division pushes a remainder term that no product made, its
    # x-field past the minor bound (within twice it)
    @example([[P(t, ("x", "y")) for t in row] for row in
              [["-2*x*y + x", "-3*x", "-2*x + 3"],
               ["0", "2*x*y + x + y", "2"], ["x - y", "x*y + 3", "0"]]])
    def test_matches_tuple_bareiss(self, m):
        ours, ref = poly_determinant(m), _tuple_bareiss(m)
        assert ours.variables == ref.variables
        # the same terms in the same order, so the same bytes downstream
        assert list(ours.terms.items()) == list(ref.terms.items())

    def test_one_by_one_is_the_entry(self):
        p = P("1/2*z^2 - 3", ("z",))
        assert poly_determinant([[p]]) is p

    def test_entries_over_one_ring(self):
        m = [[P("z", ("z",)), P("1", ("z",))],
             [P("1", ("z",)), P("w", ("z", "w"))]]
        with pytest.raises(VariableMismatch):
            poly_determinant(m)

    def test_row_swap_sign(self):
        names = ("z",)
        m = [[P(t, names) for t in row] for row in
             [["0", "1", "0"], ["z", "0", "0"], ["0", "0", "2"]]]
        assert poly_determinant(m) == P("-2*z", names)

    def test_two_by_two(self):
        names = ("z",)
        m = [[P("z", names), P("1", names)],
             [P("1", names), P("z", names)]]
        assert poly_determinant(m) == P("z^2 - 1", names)

    def test_singular_matrix(self):
        names = ("z",)
        row = [P("z", names), P("2*z", names)]
        assert poly_determinant([row, row]).is_zero()

    def test_matches_cofactor_expansion_3x3(self):
        names = ("z", "w")
        m = [[P(t, names) for t in row] for row in
             [["z", "w", "1"], ["1", "z", "w"], ["w", "1", "z"]]]
        expected = P("z^3 + w^3 - 3*z*w + 1", names)
        assert poly_determinant(m) == expected
