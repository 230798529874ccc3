"""Geometry of the discriminant: exact curves for n = 1, Cerf traces with
event detection, Maxwell-set scanning, and the equal-level probe.

The exact discriminant is the z-resultant of (F - lambda, dF/dz),
normalized to a canonical primitive representative.  For n = 1, Cerf and
Maxwell events are roots of exact polynomials in the path parameter, each
confirmed by certified reports on both sides; n = 2 traces compare
samples and are labeled uncertified.  Events that cannot be certified at
the configured budgets are labeled 'unresolved' rather than guessed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import (IdentityViolation, InvalidInput, PathOutsideBox,
                     UnsupportedDimension)
from .milnor import Unfolding
from .morselab import (DEFAULT_BOX_RADIUS, DEFAULT_DELTA, CriticalPoint,
                       MorseReport, ParameterPoint, critical_points,
                       morse_report, report_or_reason, sample_parameters)
from .poly import GREVLEX, Polynomial
from .realroots import (IsolatingInterval, count_distinct_roots,
                        isolate_real_roots, squarefree_decomposition)
# bench/tracing.py wraps critical_points (not called here) and resultant,
# which eliminates z and lambda along Cerf paths
from .resultant import poly_determinant, resultant

LAMBDA = "lambda"
PATH_S = "~s"  # the path parameter; no parsed germ variable has this name
VALUE_TOL = Fraction(1, 10 ** 8)
HESSIAN_TOL = Fraction(1, 10 ** 6)


@dataclass(frozen=True)
class DiscriminantCurve:
    """Zero set of poly = locus where F_t - lambda has a multiple root."""

    poly: Polynomial

    def __str__(self):
        return str(self.poly)


@dataclass
class CerfEvent:
    step: int
    s: Fraction
    kind: str  # birth | death | crossing | maxwell | unresolved
    data: dict


@dataclass
class CerfTrace:
    path: list[ParameterPoint]
    steps: int
    samples: list[MorseReport | None]
    s_values: list[Fraction]
    events: list[CerfEvent]
    certified: bool  # events from exact roots (n = 1), not from samples


@dataclass
class MaxwellPoint:
    t: ParameterPoint
    minima: tuple[float, float]
    gap: float


@dataclass
class EqualLevelWitness:
    t: ParameterPoint
    index: int
    values: list[float]
    gap: float
    flag: str  # 'witness' | 'singleton'


def _fiber_determinant(F: Polynomial, z: str) -> Polynomial:
    """det(M - lambda), M multiplying by F on R[z]/(dF/dz), R the ring of
    F's other variables.  dF/dz has a constant top coefficient, so this is
    c * Res_z(F - lambda, dF/dz), c != 0 (Stickelberger; Cox, Little &
    O'Shea, UAG 2.4)."""
    ring = (LAMBDA,) + F.variables
    F, lam = F.project(ring), Polynomial.variable(LAMBDA, ring)
    g = F.diff(z).coeffs_in(z)
    m = len(g) - 1
    if m < 1 or not g[m].is_constant():
        raise IdentityViolation("dF/dz: degree < 1 or nonconstant top coefficient")
    col, cols = (F - lam).coeffs_in(z), []
    for _ in range(m):  # column j is z^j (F - lambda) mod dF/dz
        while len(col) > m:  # z^k -> -z^(k-m) sum_{i<m} g_i z^i / g_m
            lead = col.pop() * (1 / g[m].constant_term())
            col[-m:] = [c - lead * gi for c, gi in zip(col[-m:], g)]
        cols.append(col)
        col = [Polynomial.zero(lead.variables)] + col
    return poly_determinant(cols)  # det of the transpose


def exact_discriminant_1d(u: Unfolding) -> DiscriminantCurve:
    """Res_z(F - lambda, dF/dz) by _fiber_determinant, canonically
    normalized."""
    if u.n != 1:
        raise UnsupportedDimension("exact discriminants only for n = 1")
    res = _fiber_determinant(u.F, u.z_names[0]).primitive()
    # positive leading coefficient of the highest lambda-power
    top = res.coeffs_in(LAMBDA)[-1]
    if top.leading(GREVLEX)[1] < 0:
        res = -res
    return DiscriminantCurve(poly=res.restrict())


# -- event candidates along a path, exactly (n = 1) -------------------------

def _crossing_factor(E: Polynomial, C: Polynomial) -> Polynomial | None:
    """X with E = c * C^3 * X^2, c != 0, or None: exact division, then the
    square root of the primitive quotient, checked by squaring."""
    try:
        q = E.exact_div(C ** 3).primitive()
    except ValueError:
        return None
    c = [int(x) for x in reversed(q.univariate_coeffs())]
    q, c = (q, c) if c[0] > 0 else (-q, [-x for x in c])
    root = [math.isqrt(c[0])]
    for k in range(1, len(c) // 2 + 1):  # X's coefficients, top down
        root.append((c[k] - sum(root[i] * root[k - i] for i in range(1, k)))
                    // (2 * root[0]))
    X = Polynomial._of(q.variables, {(k,): Fraction(x) for k, x in
                                     enumerate(reversed(root)) if x})
    return X if X * X == q else None


def _segment_roots(u: Unfolding, path: list[ParameterPoint], i: int,
                   r: Fraction):
    """(isolating intervals, their polynomial p) of the s on segment i of
    k, t = a + (k s - i)(b - a), where the points' count or value order may
    change: roots of the caustic C = Res_z(F', F''), of E = Res_lambda(D,
    dD/dlambda) for D the _fiber_determinant (or of C X when E = c C^3 X^2
    with C X square-free, the generic case), and of F'(+-r), where a point
    crosses the box boundary.  None when E vanishes."""
    z, k = u.z_names[0], len(path) - 1
    ring = (PATH_S, z)
    Fa, Fb = (u.specialize(tuple(p)).project(ring) for p in path[i:i + 2])
    s = Polynomial.variable(PATH_S, ring)
    F = Fa + (s * k - i) * (Fb - Fa)  # F is affine in t
    dF = F.diff(z)
    C = resultant(dF, dF.diff(z), z)
    D = _fiber_determinant(F, z)
    if (E := resultant(D, D.diff(LAMBDA), LAMBDA)).is_zero():
        return None
    box = E ** 0
    for x in (r, -r):
        edge = sum((c * x ** e for e, c in enumerate(dF.coeffs_in(z))), E * 0)
        box *= edge if not edge.is_zero() else 1
    X = _crossing_factor(E, C)
    p = (C * X if X is not None else E) * box
    factors = squarefree_decomposition(p.univariate_coeffs())
    if X is not None and any(m > 1 for _, m in factors):
        p, factors = E * box, None
    return isolate_real_roots(p, (Fraction(i, k), Fraction(i + 1, k)),
                              factors), p


@dataclass
class _Root:
    """A root on the path that iv isolates as a root of p, below hi."""

    iv: IsolatingInterval
    p: Polynomial
    hi: Fraction

    def exact(self) -> Fraction | None:
        """The root if it is rational: its denominator divides l, p's top
        integer coefficient, so once iv is narrower than 1 / (2 l^2) it is
        the fraction nearest iv's middle with denominator <= l."""
        ints, _, (d,) = self.p.integer_form()
        l = abs(ints[(d,)])
        iv = self.iv.refine(Fraction(1, 2 * l * l))
        x = iv.mid().limit_denominator(l)
        ok = iv.lo <= x <= iv.hi and self.p.evaluate({PATH_S: x}) == 0
        return x if ok else None

    def point(self) -> Fraction:
        """The root if it is rational, else the middle of iv."""
        x = self.exact()
        return self.iv.mid() if x is None else x


def _path_roots(u: Unfolding, path: list[ParameterPoint], r: Fraction):
    """The _segment_roots of each segment in path order, or None.  A root
    at an inner breakpoint, found by both its segments, is kept once; one
    at an end of the path is left out, as no side lies beyond it."""
    out, k = [], len(path) - 1
    # below degree 3 in z there is one Morse point and no event
    for i in range(k if u.F.degree_in(u.z_names[0]) > 2 else 0):
        if (found := _segment_roots(u, path, i, r)) is None:
            return None
        for iv in found[0]:
            if iv.lo < Fraction(i, k):  # a root at the segment's start
                if out and out[-1].hi > Fraction(i, k):
                    out[-1].hi = min(out[-1].hi, iv.hi)
            elif iv.hi <= 1:
                out.append(_Root(iv, found[1], iv.hi))
    return out


def _brackets(roots: list[_Root], report, samples=()):
    """(root, side before it, side after it) for each root.  A side is
    (s, report) between two neighbouring roots, where no event happens: at
    an accepted sample if there is one, else at an end or the middle of
    the gap; its report is None when all are rejected."""
    def side(lo, hi):
        for x in [*(x for x in samples if lo <= x <= hi), hi, lo,
                  (lo + hi) / 2]:
            if report(x) is not None:
                return x, report(x)
        return hi, None
    edges = [Fraction(0), *(x for rt in roots for x in (rt.iv.lo, rt.hi)),
             Fraction(1)]
    left = side(*edges[:2])
    for k, root in enumerate(roots):
        right = side(*edges[2 * k + 2:2 * k + 4])
        yield root, left, right
        left = right


def _agree(p: CriticalPoint, q: CriticalPoint, tol: Fraction) -> bool:
    """p's and q's values, in the order of their lower ends, are less than
    tol apart and span less than 2 tol."""
    lo, hi = sorted((p.value, q.value), key=lambda v: v.lo)
    return hi.lo - lo.hi < tol and hi.hi - lo.lo < 2 * tol


def _crossing_point(root: _Root, i: int, j: int, count: int, report,
                    tol: Fraction):
    """(s, report) at root, where points i and j of count swap values: the
    root itself if rational, else the middle of its interval refined until
    the two values _agree; (None, None) if that fails."""
    s, width = root.exact(), root.iv.hi - root.iv.lo
    for _ in range(9):
        rep = report(s) if s is not None else None
        if rep and len(rep.points) == count and \
                _agree(rep.points[i], rep.points[j], tol):
            return s, rep
        width /= 2 ** 16
        s = root.iv.refine(width).mid()
    return None, None


# -- Cerf traces ------------------------------------------------------------

def _path_point(path: list[ParameterPoint], s: Fraction) -> ParameterPoint:
    """Piecewise-linear interpolation at s in [0, 1]."""
    segs = len(path) - 1
    x = s * segs
    i = min(int(x), segs - 1)
    frac = x - i
    a, b = path[i].t, path[i + 1].t
    return ParameterPoint(tuple(
        ai + (bi - ai) * frac for ai, bi in zip(a, b)))


def _report_at(u: Unfolding, t: ParameterPoint, r: Fraction):
    """The report at t, or None when t is rejected."""
    rep = report_or_reason(morse_report, u, t, r)
    return None if isinstance(rep, str) else rep


def _reports(u: Unfolding, path: list[ParameterPoint], r: Fraction):
    """s -> _report_at the path's point s, each computed once."""
    return functools.cache(lambda s: _report_at(u, _path_point(path, s), r))


def nearest_pairs(prev: list, cur: list, dist) -> list[tuple[int, int]]:
    """Greedy matching: each item of prev in turn takes the item of cur not
    yet taken that is nearest by dist, the first one on ties; returns the
    (prev, cur) index pairs."""
    pairs, free = [], list(range(len(cur)))
    for i, p in enumerate(prev):
        if free:
            j = min(free, key=lambda k: dist(p, cur[k]))
            free.remove(j)
            pairs.append((i, j))
    return pairs


def _closest_pair_hessian(points: list[CriticalPoint]) -> float:
    """Upper bound on min |h| over the pair of points closest in space."""
    if len(points) < 2:
        return math.inf
    p, q = min(combinations(points, 2), key=lambda pq: sum(
        (x.mid() - y.mid()) ** 2 for x, y in zip(*(p.location for p in pq))))
    return float(min(p.hessian_det.mag(), q.hessian_det.mag()))


def _refine_count_change(report, s_lo, s_hi, tol, kind,
                         rich_rep: MorseReport) -> CerfEvent:
    """Bisect a birth/death, at most 200 times, until the merging pair's |h|
    drops below tol.

    The side with more critical points (left for a death, right for a
    birth), whose report is rich_rep, carries the merging pair; bisection
    drives that endpoint toward the event.  report maps s to the report
    there, or None.
    """
    rich_count = len(rich_rep.points)
    witness = _closest_pair_hessian(rich_rep.points)
    for _ in range(200):
        if witness < float(tol):
            break
        mid = (s_lo + s_hi) / 2
        rep_mid = report(mid)
        cnt = len(rep_mid.points) if rep_mid is not None else None
        if cnt == rich_count:
            if kind == "death":
                s_lo = mid
            else:
                s_hi = mid
            witness = min(witness, _closest_pair_hessian(rep_mid.points))
        else:
            if kind == "death":
                s_hi = mid
            else:
                s_lo = mid
    resolved = witness < float(tol)
    return CerfEvent(step=0, s=(s_lo + s_hi) / 2,
                     kind=kind if resolved else "unresolved",
                     data={"hessian_witness": witness})


def _swaps(left: MorseReport, right: MorseReport, nearest: bool):
    """(kind, j1, j2) for two critical points, j1 and j2 in right, whose
    values lie in disjoint enclosures on both sides in opposite orders;
    'maxwell' if they are minima and the lowest value passes from one to
    the other, else 'crossing'.  Points are matched by nearest location
    if nearest, else by their order in z (n = 1, nothing between)."""
    def below(p, q):  # 1 if p's enclosure lies below q's, -1 above, else 0
        return (p.value.hi < q.value.lo) - (q.value.hi < p.value.lo)
    lowest = [next((p for p in rep.points if all(
        p is q or below(p, q) == 1 for q in rep.points)), None)
        for rep in (left, right)]
    pairs = nearest_pairs(left.points, right.points, lambda p, q: math.dist(
        p.midpoint(), q.midpoint())) if nearest else \
        list(enumerate(range(len(left.points))))
    out = []
    for (i1, j1), (i2, j2) in combinations(pairs, 2):
        lp = left.points[i1], left.points[i2]
        rp = right.points[j1], right.points[j2]
        if below(*lp) and below(*rp) == -below(*lp):
            is_max = (rp[0].index == rp[1].index == 0 and lowest[0] in lp
                      and lowest[1] in rp)
            out.append(("maxwell" if is_max else "crossing", j1, j2))
    return out


def _events(brackets, report, hessian_tol: Fraction | None, tol: Fraction):
    """(event, report at it or None, sides of a birth or death) for each
    bracket (root or None, side, side), in path order.  Sides that differ
    in count give a birth or death (none if hessian_tol is None), bisected
    from the root's refined interval or, for n = 2, from the sides; a swap
    of two values gives a crossing or Maxwell point at the root, or at the
    later side for n = 2."""
    for root, (s0, left), (s1, right) in brackets:
        if left is None or right is None:
            yield CerfEvent(0, root.point(), "unresolved",
                            {"reason": "degenerate-side"}), None, None
        elif len(left.points) != len(right.points) and hessian_tol:
            kind, rich = ("death", left) if len(right.points) < \
                len(left.points) else ("birth", right)
            lo, hi, width = s0, s1, hessian_tol ** 2 / 16
            while root and width < 1:  # until its rich end is accepted
                iv = root.iv.refine(width)
                lo, hi, width = iv.lo, iv.hi, width * 2 ** 16
                if (edge := report(lo if kind == "death" else hi)):
                    rich = edge
                    break
            ev = _refine_count_change(report, lo, hi, hessian_tol, kind, rich)
            if root and (x := root.exact()) is not None:
                ev.s = x
            yield ev, None, (s0, s1)
        elif len(left.points) == len(right.points):
            for kind, j1, j2 in _swaps(left, right, root is None):
                s, rep = _crossing_point(root, j1, j2, len(left.points),
                                         report, tol) if root else (s1, right)
                if rep is None:
                    yield CerfEvent(0, root.point(), "unresolved", {
                        "reason": "crossing-unrefined"}), None, None
                    continue
                a, b = rep.points[j1], rep.points[j2]
                yield CerfEvent(0, s, kind, {
                    "values": [float(a.value.mid()), float(b.value.mid())],
                    "indices": [a.index, b.index]}), rep, None


def cerf_trace(u: Unfolding, path: list[ParameterPoint], steps: int,
               box_radius: Fraction = DEFAULT_BOX_RADIUS,
               delta: Fraction = DEFAULT_DELTA,
               hessian_tol: Fraction = HESSIAN_TOL) -> CerfTrace:
    """Critical values along a piecewise-linear parameter path, with the
    _events of its exact roots (n = 1) or of its consecutive accepted
    samples (n = 2, uncertified)."""
    if steps < 2:
        raise InvalidInput("need at least 2 steps")
    if len(path) < 2:
        raise InvalidInput("path needs at least 2 breakpoints")
    for p in path:
        if any(abs(x) > delta for x in p.t):
            raise PathOutsideBox(f"breakpoint {p.t} outside |t| <= {delta}")
    r = Fraction(box_radius)
    s_values = [Fraction(j, steps) for j in range(steps + 1)]
    report = _reports(u, path, r)
    samples = [report(s) for s in s_values]
    events = []
    if u.n == 1:
        if (roots := _path_roots(u, path, r)) is None:
            events.append(CerfEvent(0, Fraction(0), "unresolved",
                                    {"reason": "values-coincide-on-path"}))
        brackets = _brackets(roots or [], report, s_values)
    else:
        good = [(s, rep) for s, rep in zip(s_values, samples) if rep]
        brackets = ((None, a, b) for a, b in zip(good, good[1:]))
    found = list(_events(brackets, report, hessian_tol, VALUE_TOL))
    spans = [span for _, _, span in found if span]
    # a rejected sample inside a birth or death is that event's own point
    events += [ev for ev, _, _ in found] + [
        CerfEvent(0, s, "unresolved", {"reason": "degenerate-step"})
        for s, rep in zip(s_values, samples)
        if rep is None and not any(s0 < s < s1 for s0, s1 in spans)]
    events.sort(key=lambda e: e.s)
    for e in events:
        e.step = math.ceil(e.s * steps)
    return CerfTrace(path=path, steps=steps, samples=samples,
                     s_values=s_values, events=events, certified=u.n == 1)


# -- Maxwell scanning -------------------------------------------------------

def _two_lowest_minima(report: MorseReport):
    mins = sorted((p for p in report.points if p.index == 0),
                  key=lambda p: p.value.lo)
    return mins[:2] if len(mins) >= 2 else None


def _maxwell_point(path, s: Fraction, rep: MorseReport) -> MaxwellPoint:
    low, high = _two_lowest_minima(rep)
    return MaxwellPoint(t=_path_point(path, s),
                        minima=(float(low.value.mid()),
                                float(high.value.mid())),
                        gap=float(max(high.value.lo - low.value.hi, 0)))


def _global_min_location(report: MorseReport | None):
    p = min(report.points, key=lambda p: p.value.mid()) \
        if report and report.points else None
    return p.midpoint() if p and p.index == 0 else None


def maxwell_refine(u: Unfolding, a: ParameterPoint, b: ParameterPoint,
                   tol: Fraction = VALUE_TOL,
                   box_radius: Fraction = DEFAULT_BOX_RADIUS
                   ) -> MaxwellPoint | None:
    """A point of segment [a, b] where the two lowest minima agree.

    n = 1: the segment's first Maxwell point among its _events.  n = 2:
    bisect, at most 80 times, the identity of the global minimizer, which
    must switch basins between the segment's ends.
    """
    path, r = [a, b], Fraction(box_radius)
    report = _reports(u, path, r)
    ends = (Fraction(0), Fraction(1))
    loc_a, loc_b = (_global_min_location(report(s)) for s in ends)
    if u.n == 1:
        brackets = _brackets(_path_roots(u, path, r) or [], report, ends)
        return next((_maxwell_point(path, ev.s, rep) for ev, rep, _ in
                     _events(brackets, report, None, tol)
                     if ev.kind == "maxwell"), None)
    if loc_a is None or loc_b is None or math.dist(loc_a, loc_b) < 1e-6:
        return None
    s_lo, s_hi = ends
    for _ in range(80):
        mid = (s_lo + s_hi) / 2
        if (rep := report(mid)) is None:  # nudge off the degenerate midpoint
            mid = s_lo + (s_hi - s_lo) * Fraction(127, 256)
            if (rep := report(mid)) is None:
                return None
        if (loc := _global_min_location(rep)) is None:
            return None
        if math.dist(loc, loc_a) <= math.dist(loc, loc_b):
            s_lo = mid
        else:
            s_hi = mid
        if (pair := _two_lowest_minima(rep)) and _agree(*pair, tol):
            return _maxwell_point(path, mid, rep)
    return None


def maxwell_scan(u: Unfolding, samples: int = 50,
                 delta: Fraction = DEFAULT_DELTA, seed: int = 0,
                 tol: Fraction = VALUE_TOL,
                 box_radius: Fraction = DEFAULT_BOX_RADIUS,
                 segments: list[tuple[ParameterPoint, ParameterPoint]] | None
                 = None) -> list[MaxwellPoint]:
    """Maxwell points found along random (or supplied) parameter segments."""
    out = []
    if segments is None:
        points = sample_parameters(u, 2 * samples, delta, seed)
        segments = zip(points, points)  # consecutive draws a, b
    for a, b in segments:
        found = maxwell_refine(u, a, b, tol, box_radius)
        if found is not None:
            out.append(found)
    return out


# -- equal-level probe ------------------------------------------------------

def equal_level_search(u: Unfolding, index: int, budget: int = 200,
                       tol: Fraction = VALUE_TOL,
                       delta: Fraction = DEFAULT_DELTA, seed: int = 0,
                       box_radius: Fraction = DEFAULT_BOX_RADIUS
                       ) -> EqualLevelWitness | None:
    """Heuristic coordinate descent toward equal index-i critical values.

    Absence of a witness proves nothing; a parameter with at most one
    index-i point qualifies vacuously and is flagged 'singleton'.
    """
    if not 0 <= index <= u.n:
        raise InvalidInput(f"index: {index} is not between 0 and {u.n}")
    r = Fraction(box_radius)
    grid = 2 ** 24

    def level_gap(t: ParameterPoint):
        rep = _report_at(u, t, r)
        if rep is None:
            return None, None
        vals = sorted(float(p.value.mid()) for p in rep.points
                      if p.index == index)
        if len(vals) < 2:
            return vals, 0.0
        return vals, vals[-1] - vals[0]

    start = None
    singleton = None
    for t in sample_parameters(u, budget, delta, seed):
        vals, gap = level_gap(t)
        if vals is None:
            continue
        if len(vals) >= 2:
            if start is None or gap < start[1]:
                start = (t, gap, vals)
        elif singleton is None:
            singleton = EqualLevelWitness(
                t=t, index=index, values=vals, gap=0.0, flag="singleton")
    if start is None:
        return singleton
    t, gap, vals = start
    coords = list(t.t)
    for _ in range(60):
        if gap < float(tol):
            break
        improved = False
        for k in range(len(coords)):
            lo, hi = -Fraction(delta), Fraction(delta)
            for _ in range(48):
                third = (hi - lo) / 3
                x1 = Fraction(round((lo + third) * grid), grid)
                x2 = Fraction(round((hi - third) * grid), grid)
                g1 = _gap_at(level_gap, coords, k, x1)
                g2 = _gap_at(level_gap, coords, k, x2)
                if g1 is None and g2 is None:
                    break
                if g2 is None or (g1 is not None and g1 <= g2):
                    hi = hi - third
                else:
                    lo = lo + third
                if hi - lo < Fraction(1, grid):
                    break
            best_x = Fraction(round((lo + hi) / 2 * grid), grid)
            g = _gap_at(level_gap, coords, k, best_x)
            if g is not None and g < gap:
                coords[k] = best_x
                gap = g
                improved = True
        if not improved:
            break
    vals, final_gap = level_gap(ParameterPoint(tuple(coords)))
    if vals is None or len(vals) < 2:
        return singleton
    if final_gap < float(tol):
        return EqualLevelWitness(t=ParameterPoint(tuple(coords)), index=index,
                                 values=vals, gap=final_gap, flag="witness")
    return singleton


def _gap_at(level_gap, coords, k, x):
    trial = list(coords)
    trial[k] = x
    vals, gap = level_gap(ParameterPoint(tuple(trial)))
    if vals is None or len(vals) < 2:
        return None
    return gap


# -- slice sampling ---------------------------------------------------------

@dataclass
class SliceGrid:
    lambda_range: tuple[float, float]
    t_axis: str
    t_range: tuple[float, float]
    fixed: dict[str, Fraction]
    grid: int
    root_counts: list[list[int]]
    disc_signs: list[list[int]] | None


def slice_sample(u: Unfolding, t_axis: str,
                 lambda_range: tuple[Fraction, Fraction],
                 t_range: tuple[Fraction, Fraction],
                 fixed: dict[str, Fraction], grid: int,
                 box_radius: Fraction = DEFAULT_BOX_RADIUS) -> SliceGrid:
    """Per-cell fiber root counts over a (lambda, t_axis) plane slice."""
    if u.n != 1:
        raise UnsupportedDimension("slice sampling implemented for n = 1")
    if grid < 1:
        raise InvalidInput(f"grid: {grid} is not a positive cell count")
    if t_axis not in u.parameter_names:
        raise InvalidInput(f"t_axis: {t_axis!r} is not one of "
                           f"{', '.join(u.parameter_names)}")
    others = [t for t in u.parameter_names if t != t_axis]
    if set(fixed) != set(others):
        raise InvalidInput(f"fixed: give one value for each of "
                           f"{', '.join(others) or 'no parameter'}")
    r = Fraction(box_radius)
    disc = exact_discriminant_1d(u) if grid > 1 else None
    l0, l1 = Fraction(lambda_range[0]), Fraction(lambda_range[1])
    a0, a1 = Fraction(t_range[0]), Fraction(t_range[1])
    columns = []  # the parameters and F_t of each t_axis cell
    for j in range(grid):
        assign = {**fixed,
                  t_axis: a0 + (a1 - a0) * Fraction(2 * j + 1, 2 * grid)}
        columns.append((assign, u.specialize(
            tuple(assign[t] for t in u.parameter_names))))
    counts, signs = [], []
    for i in range(grid):
        lam = l0 + (l1 - l0) * Fraction(2 * i + 1, 2 * grid)
        counts.append([count_distinct_roots(Ft - lam, -r, r)
                       for _, Ft in columns])
        if disc is not None:
            values = [disc.poly.evaluate({**assign, LAMBDA: lam})
                      for assign, _ in columns]
            signs.append([(v > 0) - (v < 0) for v in values])
    return SliceGrid(lambda_range=(float(l0), float(l1)), t_axis=t_axis,
                     t_range=(float(a0), float(a1)), fixed=fixed, grid=grid,
                     root_counts=counts, disc_signs=signs or None)
