"""Buchberger's algorithm with reduced bases and one step budget.

Monomials are packed into one int each by ``poly.Packing``, so int
order is the monomial order and a product is one addition.  The field
width is read off the inputs (at least 16 bits).  A product that
outgrows it sets a guard bit, yet packs exactly and in order; once such
a term leads, the computation restarts at twice the width with a fresh
step count, so nothing depends on the width.

Critical pairs wait in a heap keyed by (degree of the lcm of the leading
terms, lcm, i, j).  Least lcm degree first (Buchberger 1985; Giovini
et al., ISSAC 1991), as grevlex int order already is, saves lex most
steps, yet it can swell lex coefficients past any budget; binomials stay
binomials and are safe from that, so other lex inputs key by lcm alone.
Each new element prunes the pairs by the Gebauer-Moeller update (Gebauer
& Moeller, JSC 1988): among its own pairs, criteria M and F keep one
pair per minimal lcm and Buchberger's criterion drops coprime ones;
criterion B drops an old pair whose lcm the new leading term divides
unless it equals the lcm of the new term with either member; and
elements whose leading term the new one divides stop forming pairs and
reducing.  The reduced basis is canonical, so none of these choices
shows in the result.  Coefficients are ints while integral, Fractions
only where a leading coefficient leaves one.

One step counter bounds a whole computation: every pair popped and every
division step, in the pair loop and in the final inter-reduction, counts
against the cap read from SINGLAB_BUDGET, the only source of the cap.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
from fractions import Fraction

from .errors import BudgetExceeded, InvalidInput, VariableMismatch
from .poly import (GREVLEX, LEX, Exponents, MonomialOrder, Packing,
                   Polynomial, lowest_terms)

DEFAULT_BUDGET = 200_000


class Budget:
    """Step counter shared by every stage of one computation; its cap is
    read from SINGLAB_BUDGET."""

    def __init__(self, what: str):
        raw = os.environ.get("SINGLAB_BUDGET", str(DEFAULT_BUDGET)).strip()
        if not raw.isdecimal():
            raise InvalidInput(
                f"SINGLAB_BUDGET must be a non-negative integer, not {raw!r}")
        self.cap = int(raw)
        self.what = what
        self.used = 0

    def step(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.cap:
            raise BudgetExceeded(f"{self.what} exceeded {self.cap} steps")


def _monic(terms: dict) -> tuple[int, dict]:
    """Lead and monic form of a packed term map, ints where integral."""
    lead = max(terms)
    qs = ((m, Fraction(c, terms[lead])) for m, c in terms.items())
    return lead, {m: q.numerator if q.denominator == 1 else q for m, q in qs}


def _packed_run(run, maps: list[dict], order: MonomialOrder, n: int,
                what: str):
    """(packing, run(maps, packing, step counter)), rerun at twice the
    field width with a fresh counter while a product overflows."""
    big = max((e for t in maps for exps in t for e in exps), default=0)
    for widen in itertools.count():
        pk = Packing(order, n, max(16, big.bit_length()) << widen)
        try:
            return pk, run(maps, pk, Budget(what))
        except OverflowError:
            pass


def _check_variables(polys: list[Polynomial], variables) -> None:
    for g in polys:
        if g.variables != variables:
            raise VariableMismatch(f"{g.variables} vs {variables}")


def _reduce(work: dict, divisors: list[tuple[int, dict]], pk: Packing,
            budget: Budget) -> dict:
    """Remainder of the packed term map work (consumed) under full division
    by divisors, (leading monomial, terms) of monic packed polynomials tried
    in list order; each step of the division takes one budget step."""
    guard, sign = pk.guard, pk.sign
    rem = {}
    while work:
        budget.step()
        we = max(work)
        if we & guard:  # the first use of a product that outgrew its field
            raise OverflowError
        wc = work.pop(we)
        for ge, g in divisors:
            shift = we - ge
            if not (sign * shift) & guard:
                for e, c in g.items():
                    if e != ge:
                        m = e + shift
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
                order: MonomialOrder = GREVLEX) -> Polynomial:
    """Remainder of p under multivariate division by basis.

    Unique when basis is a Groebner basis for the order.  Divisors are
    tried in decreasing leading-term order for determinism.
    """
    _check_variables(basis, p.variables)

    def run(maps, pk, steps):  # maps: p, then the basis
        work = pk.pack_terms(maps[0])
        divisors = sorted((_monic(pk.pack_terms(t)) for t in maps[1:]),
                          key=lambda d: d[0], reverse=True)
        return _reduce(work, divisors, pk, steps)

    pk, rem = _packed_run(run, [p.num] + [g.num for g in basis if g.num],
                          order, len(p.variables), "normal_form")
    num, den = lowest_terms({pk.unpack(m): c for m, c in rem.items()})
    return Polynomial._of(p.variables, num, den * p.den)


def groebner_basis(generators: list[Polynomial],
                   order: MonomialOrder = GREVLEX) -> list[Polynomial]:
    """Reduced Groebner basis of the ideal generated by the inputs."""
    if not generators:
        raise ValueError("empty generator list")
    variables = generators[0].variables
    _check_variables(generators, variables)
    maps = [g.num for g in generators if g.num]
    if not maps:
        return [Polynomial.zero(variables)]
    pk, basis = _packed_run(_buchberger, maps, order, len(variables),
                            "groebner_basis")
    return [Polynomial._of(variables, *lowest_terms(
        {pk.unpack(m): c for m, c in g.items()})) for g in basis]


def _buchberger(maps: list[dict], pk: Packing, steps: Budget) -> list[dict]:
    """The reduced basis of the term maps, as packed monic term maps."""
    one, divides, lcm, degree = pk.one, pk.divides, pk.lcm, pk.degree
    leads, basis = map(list, zip(*(_monic(pk.pack_terms(t)) for t in maps)))
    binomial = all(len(t) <= 2 for t in maps)
    live: list[int] = []    # elements that still form pairs and reduce
    pairs: list = []        # heap of (lcm degree or 0, lcm, i, j), i > j

    def update(h: int) -> None:
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
                 if not divides(mh, p[1])
                 or lcm(leads[p[2]], mh) == p[1]
                 or lcm(leads[p[3]], mh) == p[1]]
        pairs += [(degree(l) if binomial else 0, l, h, g)
                  for l, g, coprime in kept if not coprime]
        heapq.heapify(pairs)
        live = [g for g in live if not divides(mh, leads[g])] + [h]

    for h in range(len(basis)):
        update(h)
    while pairs:
        steps.step()
        _, l, i, j = heapq.heappop(pairs)
        # the first division step of (l / lead i) * basis[i], by basis[j],
        # leaves the S-polynomial
        shift = l - leads[i]
        work = {e + shift: c for e, c in basis[i].items()}
        r = _reduce(work, [(leads[j], basis[j])]
                    + [(leads[g], basis[g]) for g in live], pk, steps)
        if r:
            lead, g = _monic(r)
            basis.append(g)
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
        r = _reduce(tail, [(leads[o], basis[o]) for o in keep if o != g],
                    pk, steps)
        out.append({leads[g]: 1, **r})
    return out


def ideal_contains(p: Polynomial, basis: list[Polynomial],
                   order: MonomialOrder = GREVLEX) -> bool:
    """Ideal membership against a Groebner basis."""
    return normal_form(p, basis, order).is_zero()


def eliminate(generators: list[Polynomial], drop: list[str]
              ) -> list[Polynomial]:
    """Generators of the elimination ideal with the drop variables removed,
    from a lex basis with the dropped variables first in the ring."""
    variables = generators[0].variables
    front = tuple(v for v in variables if v in drop)
    back = tuple(v for v in variables if v not in drop)
    gb = groebner_basis([g.project(front + back) for g in generators], LEX)
    kept = [g for g in gb if not any(g.degree_in(v) > 0 for v in front)]
    return [g.project(back) for g in kept]


def staircase_monomials(gb: list[Polynomial],
                        order: MonomialOrder = GREVLEX) -> list[Exponents]:
    """All monomials not divisible by any leading term; None if infinite.

    Finite exactly when every variable has a pure power among the leading
    terms (zero-dimensional ideal).  The box of those powers is charged to
    a step budget before it is walked.
    """
    leads = [g.leading(order)[0] for g in gb if g.num]
    if not leads:
        return None
    # the least pure power of each variable (all 0 for the whole ring)
    caps = [min((e[i] for e in leads if sum(e) == e[i]), default=None)
            for i in range(len(leads[0]))]
    if None in caps:
        return None
    Budget("staircase_monomials").step(math.prod(caps))
    return [e for e in itertools.product(*map(range, caps))
            if not any(all(a <= b for a, b in zip(m, e)) for m in leads)]
