"""Resultants and subresultants by one subresultant chain; determinants.

S_j, the j-th subresultant of p and q in var, is the determinant polynomial
of the Sylvester rows of var^(n-j-1) p, ..., p, var^(m-j-1) q, ..., q, and
S_0 is the resultant (Basu, Pollack & Roy, ch. 8).  One run of Ducos' chain
(J. Pure Appl. Algebra 145, 2000) gives every S_j, and the last is kept.  It
and Bareiss elimination (Math. Comp. 1968) run on integer term maps in the
other variables, packed by one lex ``poly.Packing``; every division is exact.
"""

from __future__ import annotations

import functools
from math import lcm
from operator import mul

from .errors import DegreeError, VariableMismatch
from .poly import LEX, Packing, Polynomial, div_terms


def _sum(pairs) -> dict:
    """The sum of the products a * b of packed term maps, zeros dropped."""
    out: dict = {}
    for a, b in pairs:
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _neg(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


def poly_determinant(matrix: list[list[Polynomial]]) -> Polynomial:
    """Exact determinant of a square polynomial matrix (integer Bareiss)."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    variables = matrix[0][0].variables
    if any(p.variables != variables for row in matrix for p in row):
        raise VariableMismatch("matrix entries over different rings")
    if n == 1:
        return matrix[0][0]
    # every entry is a minor, of degree in a variable at most the sum of
    # the rows' largest degrees in it; a product of two, twice that
    bound = [2 * sum(max((e[v] for p in row for e in p.num), default=0)
                     for row in matrix) for v in range(len(variables))]
    pk = Packing(LEX, len(variables), max(bound, default=0).bit_length())
    den = lcm(*(p.den for row in matrix for p in row))
    m = [[{e: c * (den // p.den) for e, c in pk.pack_terms(p.num).items()}
          for p in row] for row in matrix]
    sign = 1
    prev = {0: 1}
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
            neg_ik = _neg(m[i][k])
            for j in range(k + 1, n):  # m[i][j] pivot - m[i][k] m[k][j]
                m[i][j] = div_terms(_sum(((m[i][j], pivot), (
                    neg_ik, m[k][j]))), prev, pk.guard)
        prev = pivot
    scale = sign * den ** n  # det(den * matrix) = den^n det(matrix)
    return Polynomial._of(variables, {
        pk.unpack(e): c for e, c in m[n - 1][n - 1].items()}, scale)


@functools.lru_cache(maxsize=1)
def _chain(p: Polynomial, q: Polynomial, var: str):
    """(packing, ring, {j: S_j}, dp, dq) for each S_j of p and q in var that
    is not 0: sum_i S_j[i] var^i for p dp and q dq, dp and dq the least
    integers that make them integral, each S_j[i] a packed term map."""
    if p.variables != q.variables:
        raise VariableMismatch("inputs over different rings")
    m, n = p.degree_in(var), q.degree_in(var)
    if m <= 0 or n <= 0:
        raise DegreeError(f"both inputs need positive degree in {var}")
    i = p.variables.index(var)
    # an S_j coefficient is a Sylvester minor, of degree at most n deg p +
    # m deg q in a variable, and a product of two at most twice that
    bound = max((n * x + m * y for k, (x, y) in enumerate(zip(
        p.degrees(), q.degrees())) if k != i), default=0)
    pk = Packing(LEX, len(p.variables) - 1, (2 * bound).bit_length())
    g, w = pk.guard, pk.weights[:i] + [0] + pk.weights[i:]
    a, b = ([{sum(map(mul, e, w)): c for e, c in terms.items() if e[i] == k}
             for k in range(d + 1)] for terms, d in ((p.num, m), (q.num, n)))
    a, b = (b, a) if m < n else (a, b)
    gap, lb, s, out = len(a) - len(b), b[-1], {0: 1}, {}
    for _ in range(gap):  # S_(deg B) = lc(B)^(gap - 1) B, s its top one
        out[len(b) - 1], s = [_sum(((s, x),)) for x in b], _sum(((s, lb),))
    # S_(deg B - 1) = prem(A, -B), prem(A, B) = lc(B)^(gap + 1) A mod B
    for k in range(gap, -1, -1):
        top = _neg(a[-1])
        a = [_sum(((lb, x), (top, y))) for x, y in zip(a[:-1], [{}] * k + b)]
    a, b = b, a if gap % 2 else list(map(_neg, a))
    # A a multiple of S_d, s = lc(S_d), and B = S_(d-1), of degree e
    while (e := max((k for k, x in enumerate(b) if x), default=-1)) >= 0:
        b, d, lb = b[:e + 1], len(a) - 1, b[e]
        out[d - 1] = c = b
        if d - e > 1:  # Lazard: S_e = (lc(B) / s)^(d - e - 1) B
            t = lb  # lc(B)^k / s^(k - 1), exact for k < d - e
            for _ in range(d - e - 2):
                t = div_terms(_sum(((t, lb),)), s, g)
            out[e] = c = [div_terms(_sum(((x, t),)), s, g) for x in b]
        if not e:
            break
        # Ducos: S_(e-1) from H_e = lc(C) var^e - C and H_j = var H_(j-1)
        # - h B / lc(B), h the var^e coefficient of var H_(j-1)
        hs = [[_neg(x) for x in c[:e]]]
        for _ in range(e + 1, d):
            top = _neg(hs[-1][-1])
            hs.append([div_terms(_sum(((lb, x), (top, y))), lb, g)
                       for x, y in zip([{}] + hs[-1][:-1], b)])
        dd = [div_terms(_sum([(a[v], c[-1])] + [
            (a[e + k], h[v]) for k, h in enumerate(hs)]), a[-1], g)
            for v in range(e)]  # D = sum_(j<d) A_j H_j / lc(A)
        top = _neg(hs[-1][-1])  # S_(e-1) = +-(lc(B) (var H + D) - h B) / s
        r = [div_terms(_sum(((lb, x), (lb, y), (top, z))), s, g)
             for x, y, z in zip([{}] + hs[-1][:-1], dd, b)]
        a, b, s = c, r if (d - e) % 2 else list(map(_neg, r)), c[-1]
    return pk, p.variables[:i] + p.variables[i + 1:], out, p.den, q.den


def resultant(p: Polynomial, q: Polynomial, var: str) -> Polynomial:
    """Resultant of p and q with respect to var, exactly: S_0."""
    return subresultant(p, q, var, 0)[0]


def subresultant(p: Polynomial, q: Polynomial, var: str,
                 j: int) -> list[Polynomial]:
    """Coefficients of S_j from var^j down, 0 <= j <= min(m, n) for m, n
    the degrees in var: q's if m = n = j, p's or q's if S_j is the 1 x 1
    determinant of it, else read off the chain."""
    m, n = p.degree_in(var), q.degree_in(var)
    if 0 < j == min(m, n) >= max(m, n) - 1:
        return (q if n == j else p).coeffs_in(var)[::-1]
    if not 0 <= j <= min(m, n):
        raise DegreeError(f"no S_{j} of degrees {m} and {n} in {var}")
    pk, ring, out, dp, dq = _chain(p, q, var)
    # S_j(p, q) = (-1)^((m - j)(n - j)) S_j(q, p), of degree n - j in p's
    # coefficients and m - j in q's
    d = (-1) ** ((m < n) * (m - j) * (n - j)) * dp ** (n - j) * dq ** (m - j)
    poly = out.get(j, [])
    return [Polynomial._of(ring, {pk.unpack(e): c for e, c in
                                  sorted(t.items(), reverse=True)}, d)
            for t in reversed(poly + [{}] * (j + 1 - len(poly)))]
