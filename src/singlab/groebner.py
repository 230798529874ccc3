"""Buchberger's algorithm with reduced bases and one step budget.

Leading exponents are computed once and kept beside the basis.  Critical
pairs wait in a heap keyed by (order key of the lcm of the leading terms,
i, j), so the pair with the smallest lcm comes first.  Each new element
prunes the pairs by the Gebauer-Moeller update (Gebauer & Moeller, JSC
1988): among its own pairs, criteria M and F keep one pair per minimal
lcm and Buchberger's criterion drops coprime ones; criterion B drops an
old pair whose lcm the new leading term divides unless it equals the lcm
of the new term with either member; and elements whose leading term the
new one divides stop forming pairs and reducing.  The reduced basis is
canonical, so none of these choices shows in the result.

One step counter bounds a whole computation: every pair popped and every
division step, in the pair loop and in the final inter-reduction, counts
against the cap read from SINGLAB_BUDGET unless one is passed explicitly.
"""

from __future__ import annotations

import heapq
import itertools
import os

from .errors import BudgetExceeded, VariableMismatch
from .poly import GREVLEX, Exponents, MonomialOrder, Polynomial

DEFAULT_BUDGET = 200_000


class _Budget:
    """Step counter shared by every stage of one computation."""

    def __init__(self, explicit: int | None, what: str):
        self.cap = explicit if explicit is not None else \
            int(os.environ.get("SINGLAB_BUDGET", DEFAULT_BUDGET))
        self.what = what
        self.used = 0

    def step(self) -> None:
        self.used += 1
        if self.used > self.cap:
            raise BudgetExceeded(f"{self.what} exceeded {self.cap} steps")


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


def _check_variables(polys: list[Polynomial], variables) -> None:
    for g in polys:
        if g.variables != variables:
            raise VariableMismatch(f"{g.variables} vs {variables}")


def _reduce(work: dict, divisors: list[tuple[Exponents, dict]],
            order: MonomialOrder, budget: _Budget) -> dict:
    """Remainder of the term map work (consumed) under full division.

    divisors are (leading exponent, terms) of monic polynomials, tried in
    list order; each step of the division takes one budget step.
    """
    key = order.key
    rem = {}
    while work:
        budget.step()
        we = max(work, key=key)
        wc = work.pop(we)
        for ge, g in divisors:
            if _divides(ge, we):
                shift = [b - a for a, b in zip(ge, we)]
                for e, c in g.items():
                    if e != ge:
                        m = tuple(a + b for a, b in zip(e, shift))
                        v = work.get(m, 0) - wc * c
                        if v:
                            work[m] = v
                        else:
                            del work[m]
                break
        else:
            rem[we] = wc
    return rem


def normal_form(p: Polynomial, basis: list[Polynomial],
                order: MonomialOrder = GREVLEX,
                budget: int | None = None) -> Polynomial:
    """Remainder of p under multivariate division by basis.

    Unique when basis is a Groebner basis for the order.  Divisors are
    tried in decreasing leading-term order for determinism.
    """
    _check_variables(basis, p.variables)
    divisors = sorted(((g.leading(order)[0], g.monic(order).terms)
                       for g in basis if not g.is_zero()),
                      key=lambda d: order.key(d[0]), reverse=True)
    rem = _reduce(dict(p.terms), divisors, order,
                  _Budget(budget, "normal_form"))
    return Polynomial(p.variables, rem)


def groebner_basis(generators: list[Polynomial],
                   order: MonomialOrder = GREVLEX,
                   budget: int | None = None) -> list[Polynomial]:
    """Reduced Groebner basis of the ideal generated by the inputs."""
    if not generators:
        raise ValueError("empty generator list")
    variables = generators[0].variables
    _check_variables(generators, variables)
    steps = _Budget(budget, "groebner_basis")

    basis = [g.monic(order).terms for g in generators if not g.is_zero()]
    if not basis:
        return [Polynomial.zero(variables)]
    leads = [max(g, key=order.key) for g in basis]
    live: list[int] = []    # elements that still form pairs and reduce
    pairs: list = []        # heap of (order key of lcm, i, j, lcm), i > j

    def update(h: int) -> None:
        nonlocal live, pairs
        mh = leads[h]
        new = [(_lcm(mh, leads[g]), g) for g in live]
        kept = []
        for k, (l, g) in enumerate(new):
            coprime = l == tuple(a + b for a, b in zip(mh, leads[g]))
            # criteria M and F: a later new pair's lcm, or a kept one's,
            # divides this lcm; coprime pairs stay as witnesses
            if coprime or not any(_divides(o[0], l)
                                  for o in new[k + 1:] + kept):
                kept.append((l, g, coprime))
        pairs = [p for p in pairs
                 if not _divides(mh, p[3])
                 or _lcm(leads[p[1]], mh) == p[3]
                 or _lcm(leads[p[2]], mh) == p[3]]
        pairs += [(order.key(l), h, g, l) for l, g, coprime in kept
                  if not coprime]
        heapq.heapify(pairs)
        live = [g for g in live if not _divides(mh, leads[g])] + [h]

    for h in range(len(basis)):
        update(h)
    while pairs:
        steps.step()
        _, i, j, l = heapq.heappop(pairs)
        # the first division step of x^(l - lead i) * basis[i], by basis[j],
        # leaves the S-polynomial
        shift = [a - b for a, b in zip(l, leads[i])]
        work = {tuple(a + b for a, b in zip(e, shift)): c
                for e, c in basis[i].items()}
        r = _reduce(work, [(leads[j], basis[j])]
                    + [(leads[g], basis[g]) for g in live], order, steps)
        if r:
            lead = max(r, key=order.key)
            lc = r[lead]
            basis.append({e: c / lc for e, c in r.items()})
            leads.append(lead)
            update(len(basis) - 1)
    # Minimalize (the update leaves no two equal leading terms), then
    # tail-reduce each element against the others.
    keep = sorted((g for g in live
                   if not any(_divides(leads[o], leads[g])
                              for o in live if o != g)),
                  key=lambda g: order.key(leads[g]))
    out = []
    for g in keep:
        tail = {e: c for e, c in basis[g].items() if e != leads[g]}
        r = _reduce(tail, [(leads[o], basis[o]) for o in keep if o != g],
                    order, steps)
        out.append(Polynomial(variables, {leads[g]: 1, **r}))
    return out


def ideal_contains(p: Polynomial, basis: list[Polynomial],
                   order: MonomialOrder = GREVLEX) -> bool:
    """Ideal membership against a Groebner basis."""
    return normal_form(p, basis, order).is_zero()


def eliminate(generators: list[Polynomial], drop: list[str],
              budget: int | None = None) -> list[Polynomial]:
    """Generators of the elimination ideal with the drop variables removed.

    Uses lex with the dropped variables placed first in the ring.
    """
    variables = generators[0].variables
    front = tuple(v for v in variables if v in drop)
    back = tuple(v for v in variables if v not in drop)
    ring = front + back
    gb = groebner_basis([g.extend(ring) for g in generators],
                        MonomialOrder("lex"), budget=budget)
    kept = [g for g in gb if not any(g.uses(v) for v in front)]
    return [g.project(back) for g in kept]


def staircase_monomials(gb: list[Polynomial],
                        order: MonomialOrder = GREVLEX) -> list[Exponents]:
    """All monomials not divisible by any leading term; None if infinite.

    Finite exactly when every variable has a pure power among the leading
    terms (zero-dimensional ideal).
    """
    if not gb or all(g.is_zero() for g in gb):
        return None
    variables = gb[0].variables
    n = len(variables)
    leads = [g.leading(order)[0] for g in gb if not g.is_zero()]
    if any(sum(e) == 0 for e in leads):
        return []  # ideal is the whole ring
    caps = []
    for i in range(n):
        pure = [e[i] for e in leads if all(e[j] == 0 for j in range(n) if j != i)]
        if not pure:
            return None
        caps.append(min(pure))
    return [e for e in itertools.product(*map(range, caps))
            if not any(_divides(l, e) for l in leads)]
