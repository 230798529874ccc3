"""Resultants and subresultants (``subresultant``) via the Sylvester matrix.

The determinant is computed by fraction-free elimination (Bareiss, Math.
Comp. 1968) in Z[remaining variables]: the entries are scaled once to
integer term maps over one common denominator, exponents packed once by
a lex ``poly.Packing``, and each step divides by the previous pivot with
the heap division ``poly.div_terms``.  Every such division is exact, so
the result is exact.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegreeError, VariableMismatch
from .poly import LEX, Packing, Polynomial, div_terms, integer_terms


def sylvester_matrix(p: Polynomial, q: Polynomial,
                     var: str) -> list[list[Polynomial]]:
    """Sylvester matrix of p, q w.r.t. var over the remaining variables."""
    pc = p.coeffs_in(var)
    qc = q.coeffs_in(var)
    m = len(pc) - 1
    n = len(qc) - 1
    if m <= 0 or n <= 0:
        raise DegreeError(f"both inputs need positive degree in {var}")
    zero = Polynomial.zero(pc[0].variables)
    return [[zero] * i + coeffs[::-1] + [zero] * (count - 1 - i)
            for coeffs, count in ((pc, n), (qc, m)) for i in range(count)]


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
    bound = [2 * sum(max((e[v] for p in row for e in p.terms), default=0)
                     for row in matrix) for v in range(len(variables))]
    pk = Packing(LEX, len(variables), max(bound, default=0).bit_length())
    flat, den = integer_terms([p.terms for row in matrix for p in row])
    flat = list(map(pk.pack_terms, flat))
    m = [flat[i * n:(i + 1) * n] for i in range(n)]
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
            neg_ik = {e: -c for e, c in m[i][k].items()}
            for j in range(k + 1, n):
                num: dict = {}  # m[i][j] * pivot - m[i][k] * m[k][j]
                for a, b in ((m[i][j], pivot), (neg_ik, m[k][j])):
                    for e1, c1 in a.items():
                        for e2, c2 in b.items():
                            e = e1 + e2
                            num[e] = num.get(e, 0) + c1 * c2
                m[i][j] = div_terms(num, prev, pk.guard)
        prev = pivot
    scale = sign * den ** n  # det(den * matrix) = den^n det(matrix)
    return Polynomial._of(variables, {pk.unpack(e): Fraction(c, scale)
                                      for e, c in m[n - 1][n - 1].items()})


def resultant(p: Polynomial, q: Polynomial, var: str) -> Polynomial:
    """Resultant of p and q with respect to var, exactly."""
    return poly_determinant(sylvester_matrix(p, q, var))


def subresultant(p: Polynomial, q: Polynomial, var: str,
                 j: int) -> list[Polynomial]:
    """Coefficients of S_j, the j-th subresultant of p and q in var, from
    var^j down, 0 <= j <= min(m, n) for m, n their degrees: q's if m = n =
    j, else the determinants of the Sylvester rows of var^(n-j-1) p, ..., p,
    var^(m-j-1) q, ..., q over their first m + n - 2j - 1 columns and that
    of var^i; S_0 is the resultant (Basu, Pollack & Roy, ch. 8)."""
    m, n = p.degree_in(var), q.degree_in(var)
    if m == n == j:
        return q.coeffs_in(var)[::-1]
    s, k = sylvester_matrix(p, q, var), m + n - 2 * j - 1
    rows = s[:n - j] + s[n:n + m - j]
    return [poly_determinant([row[:k] + [row[c]] for row in rows])
            for c in range(k, k + j + 1)]
