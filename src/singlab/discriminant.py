"""Geometry of the discriminant: exact curves for n = 1, Cerf traces with
event detection, Maxwell-set scanning, and the equal-level probe.

The exact discriminant is the z-resultant of (F - lambda, dF/dz),
normalized to a canonical primitive representative.  Traces and scans are
numeric over exact parameter points; events that cannot be certified at
the configured budgets are labeled 'unresolved' rather than guessed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (BoxEscape, DegenerateParameter, PathOutsideBox,
                     UnsupportedDimension)
from .milnor import Unfolding
from .morselab import (DEFAULT_BOX_RADIUS, DEFAULT_DELTA, CriticalPoint,
                       MorseReport, ParameterPoint, critical_points,
                       morse_report, sample_parameter)
from .poly import GREVLEX, Polynomial
from .resultant import resultant

LAMBDA = "lambda"
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


def exact_discriminant_1d(u: Unfolding) -> DiscriminantCurve:
    """Resultant of (F - lambda, dF/dz) in z, canonically normalized."""
    if u.n != 1:
        raise UnsupportedDimension("exact discriminants only for n = 1")
    zname = u.z_names[0]
    ring = (LAMBDA,) + u.F.variables
    F = u.F.extend(ring)
    lam = Polynomial.variable(LAMBDA, ring)
    res = resultant(F - lam, F.diff(zname), zname)
    res = res.primitive()
    # positive leading coefficient of the highest lambda-power
    top = res.coeffs_in(LAMBDA)[-1]
    if top.leading(GREVLEX)[1] < 0:
        res = -res
    return DiscriminantCurve(poly=res.restrict())


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


def _report_at(u, path, s, r):
    try:
        return morse_report(u, _path_point(path, s), r)
    except (DegenerateParameter, BoxEscape):
        return None


def _match(prev: list[CriticalPoint], cur: list[CriticalPoint]):
    """Greedy nearest-location matching; returns index pairs."""
    pairs = []
    used = set()
    for i, p in enumerate(prev):
        best, best_d = None, None
        for j, q in enumerate(cur):
            if j in used:
                continue
            d = math.dist(p.midpoint(), q.midpoint())
            if best is None or d < best_d:
                best, best_d = j, d
        if best is not None:
            pairs.append((i, best))
            used.add(best)
    return pairs


def _closest_pair_hessian(points: list[CriticalPoint]) -> float:
    """Upper bound on min |h| over the pair of points closest in space."""
    if len(points) < 2:
        return math.inf
    best = None
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = math.dist(points[i].midpoint(), points[j].midpoint())
            if best is None or d < best[0]:
                best = (d, i, j)
    _, i, j = best
    return float(min(points[i].hessian_det.mag(),
                     points[j].hessian_det.mag()))


def _refine_count_change(u, path, s_lo, s_hi, r, tol, kind,
                         max_iter=200) -> CerfEvent:
    """Bisect a birth/death until the merging pair's |h| drops below tol.

    The side with more critical points (left for a death, right for a
    birth) carries the merging pair; bisection drives that endpoint
    toward the event.
    """
    rich_s = s_lo if kind == "death" else s_hi
    rich_rep = _report_at(u, path, rich_s, r)
    if rich_rep is None:
        return CerfEvent(step=0, s=(s_lo + s_hi) / 2, kind="unresolved",
                         data={"reason": "degenerate endpoint"})
    rich_count = len(rich_rep.points)
    witness = _closest_pair_hessian(rich_rep.points)
    for _ in range(max_iter):
        if witness < float(tol):
            break
        mid = (s_lo + s_hi) / 2
        rep_mid = _report_at(u, path, mid, r)
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


def cerf_trace(u: Unfolding, path: list[ParameterPoint], steps: int,
               box_radius: Fraction = DEFAULT_BOX_RADIUS,
               delta: Fraction = DEFAULT_DELTA,
               hessian_tol: Fraction = HESSIAN_TOL) -> CerfTrace:
    """Critical values along a piecewise-linear parameter path, with events."""
    if steps < 2:
        raise ValueError("need at least 2 steps")
    if len(path) < 2:
        raise ValueError("path needs at least 2 breakpoints")
    for p in path:
        if any(abs(x) > delta for x in p.t):
            raise PathOutsideBox(f"breakpoint {p.t} outside |t| <= {delta}")
    r = Fraction(box_radius)
    s_values = [Fraction(j, steps) for j in range(steps + 1)]
    samples = [_report_at(u, path, s, r) for s in s_values]
    events: list[CerfEvent] = []
    last_good = None
    for j, rep in enumerate(samples):
        if rep is None:
            events.append(CerfEvent(step=j, s=s_values[j], kind="unresolved",
                                    data={"reason": "degenerate-step"}))
            continue
        if last_good is not None:
            prev = samples[last_good]
            if len(rep.points) != len(prev.points):
                kind = "death" if len(rep.points) < len(prev.points) \
                    else "birth"
                ev = _refine_count_change(
                    u, path, s_values[last_good], s_values[j], r,
                    hessian_tol, kind)
                ev.step = j
                events.append(ev)
            else:
                pairs = _match(prev.points, rep.points)
                for (i1, j1) in pairs:
                    for (i2, j2) in pairs:
                        if i1 >= i2:
                            continue
                        v1p = prev.points[i1].value.mid()
                        v2p = prev.points[i2].value.mid()
                        v1c = rep.points[j1].value.mid()
                        v2c = rep.points[j2].value.mid()
                        if (v1p - v2p) * (v1c - v2c) < 0:
                            a, b = rep.points[j1], rep.points[j2]
                            minima = min(p.value.mid() for p in rep.points)
                            is_max = (a.index == 0 and b.index == 0
                                      and min(a.value.lo, b.value.lo)
                                      <= minima)
                            events.append(CerfEvent(
                                step=j, s=s_values[j],
                                kind="maxwell" if is_max else "crossing",
                                data={"values": [float(v1c), float(v2c)],
                                      "indices": [a.index, b.index]}))
        last_good = j
    # drop degenerate-step markers that sit inside a resolved count change
    resolved_steps = {e.step for e in events if e.kind in ("birth", "death")}
    events = [e for e in events
              if not (e.data.get("reason") == "degenerate-step"
                      and any(abs(e.step - s) <= 1 for s in resolved_steps))]
    return CerfTrace(path=path, steps=steps, samples=samples,
                     s_values=s_values, events=events)


# -- Maxwell scanning -------------------------------------------------------

def _two_lowest_minima(report: MorseReport):
    mins = sorted((p for p in report.points if p.index == 0),
                  key=lambda p: p.value.lo)
    return mins[:2] if len(mins) >= 2 else None


def _global_min_location(report: MorseReport):
    if not report.points:
        return None
    p = min(report.points, key=lambda p: p.value.mid())
    if p.index != 0:
        return None
    return p.midpoint()


def maxwell_refine(u: Unfolding, a: ParameterPoint, b: ParameterPoint,
                   tol: Fraction = VALUE_TOL,
                   box_radius: Fraction = DEFAULT_BOX_RADIUS,
                   max_iter: int = 80) -> MaxwellPoint | None:
    """Bisect segment [a, b] for a point where the two lowest minima agree.

    The predicate is the identity of the global minimizer; the segment
    must switch basins between its endpoints for a crossing to exist.
    """
    path = [a, b]
    r = Fraction(box_radius)
    rep_a = _report_at(u, path, Fraction(0), r)
    rep_b = _report_at(u, path, Fraction(1), r)
    if rep_a is None or rep_b is None:
        return None
    loc_a = _global_min_location(rep_a)
    loc_b = _global_min_location(rep_b)
    if loc_a is None or loc_b is None or math.dist(loc_a, loc_b) < 1e-6:
        return None
    s_lo, s_hi = Fraction(0), Fraction(1)
    for _ in range(max_iter):
        mid = (s_lo + s_hi) / 2
        rep = _report_at(u, path, mid, r)
        if rep is None:
            # nudge off the degenerate midpoint
            mid = s_lo + (s_hi - s_lo) * Fraction(127, 256)
            rep = _report_at(u, path, mid, r)
            if rep is None:
                return None
        loc = _global_min_location(rep)
        if loc is None:
            return None
        if math.dist(loc, loc_a) <= math.dist(loc, loc_b):
            s_lo = mid
        else:
            s_hi = mid
        pair = _two_lowest_minima(rep)
        if pair is not None:
            gap = pair[1].value.lo - pair[0].value.hi
            if gap < tol and pair[1].value.hi - pair[0].value.lo < 2 * tol:
                return MaxwellPoint(
                    t=_path_point(path, mid),
                    minima=(float(pair[0].value.mid()),
                            float(pair[1].value.mid())),
                    gap=float(max(gap, 0)))
    return None


def maxwell_scan(u: Unfolding, samples: int = 50,
                 delta: Fraction = DEFAULT_DELTA, seed: int = 0,
                 tol: Fraction = VALUE_TOL,
                 box_radius: Fraction = DEFAULT_BOX_RADIUS,
                 segments: list[tuple[ParameterPoint, ParameterPoint]] | None
                 = None) -> list[MaxwellPoint]:
    """Maxwell points found along random (or supplied) parameter segments."""
    rng = random.Random(seed)
    dim = len(u.parameter_names)
    out = []
    if segments is None:
        segments = [(sample_parameter(rng, dim, delta),
                     sample_parameter(rng, dim, delta))
                    for _ in range(samples)]
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
    rng = random.Random(seed)
    dim = len(u.parameter_names)
    r = Fraction(box_radius)
    grid = 2 ** 24

    def level_gap(t: ParameterPoint):
        try:
            rep = morse_report(u, t, r)
        except (DegenerateParameter, BoxEscape):
            return None, None
        vals = sorted(float(p.value.mid()) for p in rep.points
                      if p.index == index)
        if len(vals) < 2:
            return vals, 0.0
        return vals, vals[-1] - vals[0]

    start = None
    singleton = None
    for _ in range(budget):
        t = sample_parameter(rng, dim, delta)
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
        for k in range(dim):
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
    from .realroots import count_distinct_roots
    r = Fraction(box_radius)
    disc = exact_discriminant_1d(u) if grid > 1 else None
    l0, l1 = Fraction(lambda_range[0]), Fraction(lambda_range[1])
    a0, a1 = Fraction(t_range[0]), Fraction(t_range[1])
    counts, signs = [], []
    for i in range(grid):
        lam = l0 + (l1 - l0) * Fraction(2 * i + 1, 2 * grid)
        row_c, row_s = [], []
        for j in range(grid):
            tv = a0 + (a1 - a0) * Fraction(2 * j + 1, 2 * grid)
            assign = dict(fixed)
            assign[t_axis] = tv
            Ft = u.F.substitute(assign).project(u.z_names)
            row_c.append(count_distinct_roots(Ft - lam, -r, r))
            if disc is not None:
                full = dict(assign)
                full[LAMBDA] = lam
                val = disc.poly.evaluate(
                    {v: full.get(v, Fraction(0))
                     for v in disc.poly.variables})
                row_s.append(0 if val == 0 else (1 if val > 0 else -1))
        counts.append(row_c)
        if disc is not None:
            signs.append(row_s)
    return SliceGrid(lambda_range=(float(l0), float(l1)), t_axis=t_axis,
                     t_range=(float(a0), float(a1)), fixed=fixed, grid=grid,
                     root_counts=counts, disc_signs=signs or None)
