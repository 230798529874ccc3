"""Classical resultants via the Sylvester matrix.

The determinant is computed by fraction-free elimination (Bareiss, Math.
Comp. 1968) in Z[remaining variables]: the entries are scaled once to
integer term maps over one common denominator, and each step divides by
the previous pivot with the heap division ``poly.div_terms``.  Every such
division is exact, so the result is the exact resultant.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegreeError, VariableMismatch
from .poly import Polynomial, div_terms, integer_terms, mul_terms


def sylvester_matrix(p: Polynomial, q: Polynomial,
                     var: str) -> list[list[Polynomial]]:
    """Sylvester matrix of p, q w.r.t. var over the remaining variables."""
    pc = p.coeffs_in(var)
    qc = q.coeffs_in(var)
    m = len(pc) - 1
    n = len(qc) - 1
    if m <= 0 or n <= 0:
        raise DegreeError(f"both inputs need positive degree in {var}")
    rest = pc[0].variables
    zero = Polynomial.zero(rest)
    size = m + n
    rows = []
    for coeffs, count in ((pc, n), (qc, m)):
        for i in range(count):
            row = [zero] * size
            for j, c in enumerate(reversed(coeffs)):
                row[i + j] = c
            rows.append(row)
    return rows


def poly_determinant(matrix: list[list[Polynomial]]) -> Polynomial:
    """Exact determinant of a square polynomial matrix (integer Bareiss)."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    variables = matrix[0][0].variables
    if any(p.variables != variables for row in matrix for p in row):
        raise VariableMismatch("matrix entries over different rings")
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
                num: dict = {}
                mul_terms(num, m[i][j], pivot)
                if neg_ik and m[k][j]:  # the Sylvester matrix is banded
                    mul_terms(num, neg_ik, m[k][j])
                m[i][j] = div_terms(num, prev)
        prev = pivot
    # det(den * matrix) = den^n det(matrix)
    return Polynomial._of(variables, {e: Fraction(c, sign * den ** n)
                                      for e, c in m[n - 1][n - 1].items()})


def resultant(p: Polynomial, q: Polynomial, var: str) -> Polynomial:
    """Resultant of p and q with respect to var, exactly."""
    return poly_determinant(sylvester_matrix(p, q, var))
