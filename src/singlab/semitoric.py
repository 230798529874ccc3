"""Numerical semigroups, toric ideals of monomial curves, unimodular fan
resolution, and strict-transform / overweight-deformation checking.

The resolution pipeline is purely combinatorial: stellar subdivision of
the positive orthant at the generator vector, then repeated subdivision
at a minimal lattice point of each non-unimodular cone's fundamental
parallelepiped until every cone is unimodular, each in the new ray's star
only.  The cone linear algebra is integer: a new cone that is not
unimodular has its det and adjugate carried from its parent's in O(d^2),
so the fraction-free Gauss-Jordan (Bareiss) pass, `_det_adj`, runs only
for the orthant, for cones built outside `_stellar` and for the unimodular
cones that are read: the chart.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import mul

from .errors import (GcdNotOne, IdentityViolation, InvalidInput,
                     NonBinomialElement, NotABranch, OrderMismatch,
                     RegularizationBudget, TruncationInsufficient)
from .groebner import Budget, eliminate
from .poly import Polynomial, lowest_terms

Vector = tuple[int, ...]
MAX_SUBDIVISIONS = 500  # stellar subdivisions before RegularizationBudget


# -- numerical semigroups ---------------------------------------------------

@dataclass(frozen=True)
class NumericalSemigroup:
    """Cofinite additive sub-semigroup of N, with gcd-1 generators."""

    minimal_generators: tuple[int, ...]
    conductor: int
    apery: tuple[int, ...]
    gaps: tuple[int, ...]

    def contains(self, x: int) -> bool:
        return x >= 0 and (x >= self.conductor or x not in self.gaps)


def _achievable(gens: list[int], bound: int) -> list[bool]:
    table = [True] + [False] * bound
    for x in range(1, bound + 1):
        table[x] = any(table[x - g] for g in gens if g <= x)
    return table


def semigroup_from_generators(gens: list[int]) -> NumericalSemigroup:
    """Semigroup data via dynamic programming; the table's cells count
    against one step budget before it is built."""
    gens = sorted(set(int(g) for g in gens))
    if not gens or gens[0] <= 0:
        raise InvalidInput("generators must be positive integers")
    if math.gcd(*gens) != 1:
        raise GcdNotOne(f"gcd of {gens} is not 1")
    m = gens[0]
    # the conductor is at most (m - 1)(gens[-1] - 1) (Schur's bound), so
    # the table holds every gap and m members past them
    bound = max(m * gens[-1], m + 1)
    Budget("semigroup_from_generators").step(bound)
    table = _achievable(gens, bound)
    gaps = tuple(x for x in range(bound + 1) if not table[x])
    conductor = gaps[-1] + 1 if gaps else 0
    # Apery set: smallest member in each residue class mod m
    apery = [next(x for x in range(r, bound + 1, m) if table[x])
             for r in range(m)]
    # minimal generators: m and each nonzero Apery element w with no smaller
    # one v that w - v is a member of (Rosales & Garcia-Sanchez, 2009)
    tops = sorted(apery[1:])
    minimal = [m] + [w for i, w in enumerate(tops)
                     if not any(table[w - v] for v in tops[:i])]
    return NumericalSemigroup(
        minimal_generators=tuple(minimal),
        conductor=conductor,
        apery=tuple(apery),
        gaps=gaps,
    )


# -- plane branches ---------------------------------------------------------

@dataclass(frozen=True)
class PlaneBranch:
    """Parametrization x = t^beta0, y = sum of c_j t^j (finite)."""

    x_exponent: int
    y_terms: tuple[tuple[int, Fraction], ...]  # (exponent, coefficient)

    def y_exponents(self) -> list[int]:
        return sorted(e for e, c in self.y_terms if c != 0)


def characteristic_exponents(b: PlaneBranch) -> list[int]:
    """Exponents where the gcd chain drops, starting from beta0."""
    chain = [b.x_exponent]
    e = b.x_exponent
    for j in b.y_exponents():
        g = math.gcd(e, j)
        if g < e:
            chain.append(j)
            e = g
    if e != 1:
        raise NotABranch(f"gcd chain stalls at {e}; not a branch "
                         "parametrization")
    return chain


def branch_semigroup(b: PlaneBranch) -> NumericalSemigroup:
    """Value semigroup via the classical generator recursion."""
    if b.x_exponent <= 0:
        raise NotABranch("x exponent must be positive")
    chain = characteristic_exponents(b)
    e = list(accumulate(chain, math.gcd))
    bars = chain[:2]
    for i in range(1, len(chain) - 1):
        n_i = e[i - 1] // e[i]
        bars.append(n_i * bars[i] + chain[i + 1] - chain[i])
    return semigroup_from_generators(bars)


# -- toric ideal ------------------------------------------------------------

@dataclass(frozen=True)
class ToricIdeal:
    """Binomial generators of the kernel of U_i -> T^{gamma_i}."""

    binomials: tuple[Polynomial, ...]
    weights: tuple[int, ...]
    variables: tuple[str, ...]


def _weight_of_exps(exps, weights) -> int:
    return sum(e * w for e, w in zip(exps, weights))


def toric_ideal(gamma: NumericalSemigroup) -> ToricIdeal:
    """Eliminate T from {U_i - T^{gamma_i}}; certify the result binomial."""
    gens = gamma.minimal_generators
    if len(gens) < 2:
        raise InvalidInput("toric ideal needs at least two generators (g >= 1)")
    unames = tuple(f"U{i}" for i in range(len(gens)))
    ring, zeros = ("T",) + unames, (0,) * len(gens)
    ideal = [Polynomial._of(ring, {(0,) + zeros[:i] + (1,) + zeros[i + 1:]:
                                   1, (g,) + zeros: -1})
             for i, g in enumerate(gens)]
    kernel = eliminate(ideal, ["T"])
    for p in kernel:
        if len(p.num) != 2:
            raise NonBinomialElement(f"{p} is not a binomial")
        (e1, c1), (e2, c2) = sorted(p.num.items())
        if p.den != 1 or {c1, c2} != {1, -1}:
            raise NonBinomialElement(f"{p} has non-unit coefficients")
        if _weight_of_exps(e1, gens) != _weight_of_exps(e2, gens):
            raise NonBinomialElement(f"{p} is not weight-homogeneous")
    return ToricIdeal(binomials=tuple(kernel), weights=gens,
                      variables=unames)


# -- cones and fans ---------------------------------------------------------

@dataclass(frozen=True, order=True)
class Cone:
    """Simplicial cone spanned by primitive integer rays, ordered by rays."""

    rays: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.rays)

    @cached_property
    def det_adj(self) -> tuple[int, list[list[int]] | None]:
        """(det, adj) of the matrix with the rays as columns, computed once."""
        return _det_adj([list(row) for row in zip(*self.rays)])

    def determinant(self) -> int:
        return self.det_adj[0]

    def _scaled_coefficients(self, v: Vector) -> list[int] | None:
        """|det| times the barycentric coefficients of v; None if outside."""
        det, adj = self.det_adj
        if adj is None:
            return None
        sign = 1 if det > 0 else -1
        c = [sign * sum(map(mul, row, v)) for row in adj]
        return None if min(c) < 0 else c

    def coefficients(self, v) -> tuple[Fraction, ...] | None:
        """Barycentric coefficients of rational v, or None if v is outside."""
        den = math.lcm(*(x.denominator for x in v))
        c = self._scaled_coefficients([int(x * den) for x in v])
        if c is None:
            return None
        n = abs(self.det_adj[0]) * den
        return tuple(Fraction(x, n) for x in c)


@dataclass(frozen=True)
class Fan:
    cones: tuple[Cone, ...]


def _det_adj(m: list[list[int]]) -> tuple[int, list[list[int]] | None]:
    """(det m, adj m) for an integer matrix; (0, None) if m is singular.

    One fraction-free Gauss-Jordan pass on [m | I] (Bareiss, Math. Comp.
    1968): each step divides exactly by the previous pivot, every entry
    stays an integer minor, and the last pivot times the row-swap sign is
    det m while the right block becomes that sign times adj m.
    """
    n = len(m)
    a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m)]
    sign, prev = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0, None
        if p != k:
            a[k], a[p], sign = a[p], a[k], -sign
        pivot = a[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(pivot[k] * x - f * y) // prev
                        for x, y in zip(a[i], pivot)]
        prev = pivot[k]
    return sign * prev, [[sign * x for x in row[n:]] for row in a]


def _primitive(v: Vector) -> Vector:
    g = math.gcd(*[abs(x) for x in v])
    return tuple(x // g for x in v)


def _stellar(star: dict[Vector, set[Cone]], cone: Cone, v: Vector
             ) -> list[tuple[Cone, int]]:
    """Subdivide, in `star` (each ray's cones), the cones that contain v,
    a primitive point of `cone`: those with the face tau of `cone` that v's
    positive coefficients span.  Returns each new cone with its |det|."""
    tau = [r for r, c in zip(cone.rays, cone._scaled_coefficients(v)
                             or cone.rays) if c]  # v outside: raises below
    new = []
    for old in set.intersection(*(star[r] for r in tau)):
        coeffs = old._scaled_coefficients(v)
        if coeffs is None:
            raise IdentityViolation(f"{v} is outside {old.rays}, in its star")
        for r in old.rays:
            star[r].remove(old)
        # resolution never subdivides a unimodular cone (it holds no
        # parallelepiped point), so its adjugate is computed only if read
        new += [(_replaced(old, i, v, coeffs) if c > 1 else
                 Cone(old.rays[:i] + (v,) + old.rays[i + 1:]), c)
                for i, c in enumerate(coeffs) if c]
    for c, _ in new:
        for r in c.rays:
            star.setdefault(r, set()).add(c)
    return new


def _replaced(old: Cone, i: int, v: Vector, c: list[int]) -> Cone:
    """old with ray i put to v, c_i > 0 its scaled coefficient: det sign c_i
    (Cramer), adj row i kept, row j (c_i A_j - c_j A_i) / |det old| exactly."""
    det, adj = old.det_adj
    n, ci, top = abs(det), c[i], adj[i]
    rows = [[ci * x - cj * y for x, y in zip(row, top)]
            for row, cj in zip(adj, c)]  # row i is 0 here
    if any([x % n for row in rows for x in row]):
        raise IdentityViolation(f"inexact adjugate update of {old.rays}")
    rows = [top if j == i else [x // n for x in r] for j, r in enumerate(rows)]
    new = Cone(rays=old.rays[:i] + (v,) + old.rays[i + 1:])
    new.__dict__["det_adj"] = (ci if det > 0 else -ci, rows)  # its cache
    return new


def _parallelepiped_point(cone: Cone) -> Vector:
    """Minimal nonzero lattice point of the fundamental parallelepiped.

    Minimality is (sum of barycentric coordinates, lexicographic), the
    deterministic pivot rule for regularization.  The lattice points are
    sum(c_j rays_j) / |det| for the c in the subgroup of (Z/|det|)^d that
    the columns of adj = +-|det| V^-1 generate; a column joins by a walk
    from each element so far until it is back in the group.  As c -> point
    is linear mod |det|, |det| elements and columns that map to lattice
    points certify the group; only its elements of least sum are mapped.
    """
    det, adj = cone.det_adj
    n, cols = abs(det), list(zip(*adj))
    group = {(0,) * cone.dim}
    for step in cols:
        for c in list(group):
            while (c := tuple([(a + b) % n for a, b in zip(c, step)])) \
                    not in group:
                group.add(c)
    low = min((s for s in map(sum, group) if s), default=0)  # 0 only at 0
    # n times the points of the generators, then of the candidates
    raw = [[sum(map(mul, c, row)) for row in zip(*cone.rays)]
           for c in cols + [c for c in group if sum(c) == low]]
    if n < 2 or len(group) != n or any(x % n for p in raw for x in p):
        raise IdentityViolation(f"cone {cone.rays}, |det| = {n}: a group of "
                                f"{len(group)}, or a column off the lattice")
    return min(tuple(x // n for x in p) for p in raw[len(cols):])


@dataclass(frozen=True)
class ResolutionCertificate:
    """Unimodular fan subdividing the orthant, with the distinguished chart."""

    fan: Fan
    chart: int
    exponents: tuple[int, ...]
    gamma: Vector

    def chart_cone(self) -> Cone:
        return self.fan.cones[self.chart]


def resolve_monomial_curve(gamma: NumericalSemigroup
                           ) -> ResolutionCertificate:
    """Unimodular subdivision of the orthant with gamma as a ray."""
    gens = gamma.minimal_generators
    d = len(gens)
    if d < 2:
        raise InvalidInput("resolution needs g >= 1")
    orthant = Cone(rays=tuple(
        tuple(1 if i == j else 0 for j in range(d)) for i in range(d)))
    gvec = _primitive(tuple(gens))
    star = {r: {orthant} for r in orthant.rays}
    # the cones not unimodular: the first one still in a star is the pivot
    heap = sorted(c for c, det in _stellar(star, orthant, gvec) if det > 1)
    for _ in range(MAX_SUBDIVISIONS):
        while heap and heap[0] not in star[heap[0].rays[0]]:
            heapq.heappop(heap)
        if not heap:
            break
        v = _parallelepiped_point(heap[0])
        for c, det in _stellar(star, heap[0], v):
            if det > 1:
                heapq.heappush(heap, c)
    else:
        raise RegularizationBudget(
            f"not unimodular after {MAX_SUBDIVISIONS} subdivisions")
    cones = tuple(sorted(set().union(*star.values())))
    chart = next(i for i, c in enumerate(cones) if gvec in c.rays)
    sol = cones[chart].coefficients(gens) or ()
    if sorted(sol) != [0] * (d - 1) + [1]:
        raise IdentityViolation(f"chart exponents ({', '.join(map(str, sol))})"
                                f" of {gens} are not a unit vector")
    return ResolutionCertificate(fan=Fan(cones=cones), chart=chart,
                                 exponents=tuple(map(int, sol)), gamma=gvec)


# -- truncated series and strict transforms ---------------------------------

class Series:
    """Truncated power series in t with exact rational coefficients: integer
    numerators `num` over one denominator `den`, in lowest terms.

    Exponents below `prec` are exact; everything >= prec is unknown.
    """

    def __init__(self, terms: dict, prec: int, den: int = 1):
        """The series sum terms[e] t^e / den; int or Fraction terms."""
        num = {e: c for e, c in terms.items() if c and e < prec}
        if any(type(c) is not int for c in num.values()):
            num, d = lowest_terms(num)
            den *= d
        g = math.gcd(den, *num.values()) * (1 if den > 0 else -1)
        self.num = num if g == 1 else {e: c // g for e, c in num.items()}
        self.den, self.prec = den // g, prec

    @property
    def terms(self) -> dict[int, Fraction]:
        """The coefficients as Fractions; a copy."""
        return {e: Fraction(c, self.den) for e, c in self.num.items()}

    def order(self) -> int | None:
        return min(self.num) if self.num else None

    def leading(self) -> Fraction:
        return self.coefficient(self.order())

    def coefficient(self, e: int) -> Fraction:
        return Fraction(self.num.get(e, 0), self.den)

    def mul(self, other: "Series") -> "Series":
        """Product; zero numerators are dropped, so the precision is each
        factor's shifted by the other's order."""
        x, y = self.num, other.num
        if not (x and y):
            return Series({}, min(self.prec, other.prec))
        prec = min(self.prec + min(y), other.prec + min(x))
        out, ys = {}, sorted(y.items())
        for e1, c1 in sorted(x.items()):
            for e2, c2 in ys:
                if e1 + e2 >= prec:
                    break
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return Series(out, prec, self.den * other.den)

    def power(self, k: int, prec: int) -> "Series":
        """self**k for integer k: t^(k m) u^k for self = t^m u, u(0) != 0.

        J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7) gives u^k in
        O(prec * terms) for any k, with no inverse: g_0 = a_0^k and
        n a_0 g_n = sum_{i=1..n} ((k+1) i - n) a_i g_{n-i}.  u^k is exact
        below min(prec + |k m| + 1, self.prec - m), for k < 0 also below
        prec + |k| max(m, 0) + 1; u^0 = 1 is exact below prec + 1.
        """
        ordr = self.order()
        if ordr is None:
            if k <= 0:
                raise ValueError("cannot take nonpositive power of zero")
            return Series({}, prec)
        if k == 0:
            return Series({0: 1}, prec + 1)
        p = min(prec + abs(k * ordr) + 1, self.prec - ordr)
        if k < 0:
            p = min(p, prec - k * max(ordr, 0) + 1)
        # on integers: u = U / den, c0 = U_0, g_n = a_0^k G_n / c0^n, and
        # n G_n = sum ((k+1) i - n) U_i c0^(i-1) G_{n-i} divides exactly
        unit = sorted((e - ordr, c) for e, c in self.num.items())
        c0 = unit[0][1]
        w = [(i, u * c0 ** (i - 1)) for i, u in unit[1:] if i < p]
        g = [1]
        for n in range(1, p):
            g.append(sum(((k + 1) * i - n) * u * g[n - i]
                         for i, u in w if i <= n) // n)
        a0k = Fraction(c0, self.den) ** k  # its denominator times c0^(p-1)
        return Series({n + k * ordr: x * a0k.numerator * c0 ** (p - 1 - n)
                       for n, x in enumerate(g[:p]) if x}, p + k * ordr,
                      a0k.denominator * c0 ** max(p - 1, 0))


@dataclass
class TransformReport:
    orders: tuple[int, ...]
    leading_units: tuple[Fraction, ...]
    expected: tuple[int, ...]
    ok: bool
    detail: str


def branch_series(b: PlaneBranch, prec: int) -> tuple[Series, Series]:
    x = Series({b.x_exponent: Fraction(1)}, prec)
    y = Series(dict(b.y_terms), prec)
    return x, y


def _represent(value: int, gens, caps) -> tuple[int, ...] | None:
    """value = sum a_i gens[i] with 0 <= a_i < caps[i] for i >= 1, a_0 free."""
    if len(gens) == 1:
        q, r = divmod(value, gens[0])
        return (q,) if r == 0 and q >= 0 else None
    for a in range(caps[-1]):
        rest = value - a * gens[-1]
        if rest < 0:
            break
        sub = _represent(rest, gens[:-1], caps[:-1])
        if sub is not None:
            return sub + (a,)
    return None


def _product(xi: list[Series], exps, prec: int) -> Series:
    """prod xi_i^exps_i, each power to precision prec."""
    out = Series({0: 1}, prec)
    for s, k in zip(xi, exps):
        if k:
            out = out.mul(s.power(k, prec))
    return out


def branch_embedding(b: PlaneBranch
                     ) -> tuple[NumericalSemigroup, list[Series]]:
    """Embedding series (xi_0..xi_g) of a plane branch, one per generator,
    to precision conductor + 60.

    xi_0 = x and xi_1 = y; each later xi_k is a semiroot: xi_{k-1} raised
    to n_{k-1}, corrected by monomials in the earlier xi until the order
    leaves the subsemigroup they generate, landing exactly at gens[k].
    """
    gamma = branch_semigroup(b)
    gens = gamma.minimal_generators
    prec = gamma.conductor + 60
    x, y = branch_series(b, prec)
    xi = [x, y]
    for i, s in enumerate(xi[:len(gens)]):  # the semiroot loop needs both
        if s.order() != gens[i]:
            raise OrderMismatch(
                f"ord xi_{i} = {s.order()}, expected {gens[i]}")
    e = list(accumulate(gens, math.gcd))
    for k in range(2, len(gens)):
        n_prev = e[k - 2] // e[k - 1]
        cur = xi[k - 1].power(n_prev, prec)
        caps = [e[j - 1] // e[j] for j in range(1, k)]
        while True:
            o = cur.order()
            if o is None or o > gamma.conductor:
                raise TruncationInsufficient(
                    f"semiroot {k} lost all terms below the conductor")
            if o == gens[k]:
                break
            rep = _represent(o, list(gens[:k]), [0] + caps)
            if rep is None:
                raise NotABranch(
                    f"semiroot {k} has order {o} outside the expected chain")
            # cancel the leading term; u and v are the leading numerators
            mono = _product(xi, rep, prec)
            u, v = cur.num[o], mono.num[mono.order()]
            cur = Series({j: v * cur.num.get(j, 0) - u * mono.num.get(j, 0)
                          for j in cur.num.keys() | mono.num.keys()},
                         min(cur.prec, mono.prec), cur.den * v)
        xi.append(cur)
    return gamma, xi


def verify_strict_transform(xi: list[Series], gamma: NumericalSemigroup,
                            cert: ResolutionCertificate) -> TransformReport:
    """Chart coordinates of the embedded branch under the toric map, to
    precision conductor + 10.

    y_j = prod_i xi_i^{(V^-1)_{j,i}} must have order a_j, with the unique
    a_j = 1 coordinate a uniformized parameter (unit linear coefficient)
    and the rest units.
    """
    gens = gamma.minimal_generators
    d = len(gens)
    if len(xi) != d:
        raise OrderMismatch(f"need {d} embedding series, got {len(xi)}")
    need = gamma.conductor + 10
    for i, s in enumerate(xi):
        if s.order() != gens[i]:
            raise OrderMismatch(
                f"ord xi_{i} = {s.order()}, expected {gens[i]}")
        if s.prec < need:
            raise TruncationInsufficient(
                f"xi_{i} precision {s.prec} < conductor + 10 = {need}")
    cone = cert.chart_cone()
    det = cone.determinant()
    if abs(det) != 1:
        raise IdentityViolation(f"chart cone {cone.rays} has determinant "
                                f"{det}, not +-1")
    orders, units = [], []
    for j, row in enumerate(cone.det_adj[1]):  # V^-1 = det adj
        prod = _product(xi, [det * a for a in row], need)
        if not prod.num:
            raise TruncationInsufficient(
                f"chart coordinate {j} vanishes to precision {need}")
        orders.append(prod.order())
        units.append(prod.leading())
    expected = cert.exponents
    ok = tuple(orders) == expected and all(c != 0 for c in units)
    detail = "strict transform smooth and transverse" if ok else \
        f"orders {orders} != expected {list(expected)}"
    return TransformReport(orders=tuple(orders), leading_units=tuple(units),
                           expected=expected, ok=ok, detail=detail)


# -- weights and overweight deformations ------------------------------------

def weight(series: Polynomial, weights) -> int | float:
    """Monomial valuation: min weight over the support; inf for zero."""
    if series.is_zero():
        return math.inf
    return min(_weight_of_exps(e, weights) for e in series.num)


@dataclass(frozen=True)
class OverweightDeformation:
    weights: tuple[int, ...]
    series: tuple[Polynomial, ...]
    expected_initials: tuple[Polynomial, ...]


@dataclass
class OverweightVerdict:
    ok: bool
    initial_form: Polynomial
    initial_weight: int | float
    detail: str


def overweight_check(d: OverweightDeformation) -> list[OverweightVerdict]:
    """PASS iff each series' minimal-weight part is its expected binomial."""
    for b in d.expected_initials:
        if len(b.num) != 2:
            raise InvalidInput(f"expected initial {b} is not a binomial")
        (e1, _), (e2, _) = b.num.items()
        if _weight_of_exps(e1, d.weights) != _weight_of_exps(e2, d.weights):
            raise InvalidInput(
                f"expected initial {b} is not weight-homogeneous")
    out = []
    for s, expected in zip(d.series, d.expected_initials):
        w = weight(s, d.weights)
        initial = Polynomial._of(s.variables, {
            e: c for e, c in s.num.items()
            if _weight_of_exps(e, d.weights) == w}, s.den)
        ok = initial == expected.project(s.variables)
        detail = "initial form matches; all other terms heavier" if ok else \
            f"initial form {initial} at weight {w} differs from {expected}"
        out.append(OverweightVerdict(ok=ok, initial_form=initial,
                                     initial_weight=w, detail=detail))
    return out
