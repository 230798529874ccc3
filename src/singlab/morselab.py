"""Certified real critical-point analysis of F_t on a working box.

n = 1 and n = 2 share one path.  The candidate boxes come from exact root
isolation of F_t' (n = 1), or from resultant elimination in each variable
and interval-Newton certification of every candidate box (n = 2), so they
provably hold all real critical points in the box.  One classifier shrinks
each box until the sign of det(Hess F_t) is known and reads the Morse
index from it.  Parameters too close to the bifurcation set are rejected
rather than resolved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .critmap import sign_relation_check
from .errors import (BoxEscape, DegenerateParameter, IdentityViolation,
                     InconsistentDegree, InsufficientAcceptance, InvalidInput,
                     UnsupportedDimension)
from .intervals import RatInterval, eval_interval
from .milnor import Unfolding
from .poly import Polynomial
from .realroots import (IsolatingInterval, count_distinct_roots,
                        isolate_real_roots, squarefree_decomposition)
from .resultant import resultant

DEFAULT_BOX_RADIUS = Fraction(4)
DEFAULT_DELTA = Fraction(1)
DEFAULT_MARGIN = Fraction(1, 10 ** 9)
VALUE_WIDTH = Fraction(1, 2 ** 60)
DENOMINATOR = 2 ** 16


@dataclass(frozen=True)
class ParameterPoint:
    """A point of the parameter box, with exact rational coordinates."""

    t: tuple[Fraction, ...]

    def __iter__(self):
        return iter(self.t)

    def __len__(self):
        return len(self.t)


@dataclass
class CriticalPoint:
    """A certified nondegenerate critical point of F_t in the box."""

    location: tuple[RatInterval, ...]
    value: RatInterval
    index: int
    hessian_det_sign: int
    hessian_det: RatInterval

    def midpoint(self) -> tuple[float, ...]:
        return tuple(float(iv.mid()) for iv in self.location)


@dataclass
class MorseReport:
    t: ParameterPoint
    points: list[CriticalPoint]
    counts: tuple[int, ...]
    alt_sum: int
    degree: int
    excellent: bool


@dataclass
class ScanReport:
    germ: str
    accepted: int
    rejected: dict[str, int]
    alt_sum: int
    degree: int
    histograms: dict[tuple[int, ...], int]
    samples: list[dict]


@dataclass
class EulerReport:
    t: ParameterPoint
    vacuous: bool
    chi_above: int
    chi_below: int
    alt_sum: int
    epsilon: Fraction | None
    ok: bool


@dataclass
class HermanWitness:
    t: ParameterPoint
    certificate: str


def _dyadic(iv: RatInterval, bits: int = 64) -> RatInterval:
    """Round endpoints outward to the dyadic grid to tame denominators."""
    scale = 1 << bits
    lo = Fraction((iv.lo * scale).__floor__(), scale)
    hi = Fraction(-((-iv.hi * scale).__floor__()), scale)
    return RatInterval(lo, hi)


def _roots_in_box(p: Polynomial, r: Fraction,
                  what: str) -> list[IsolatingInterval]:
    """Isolating intervals of p's real roots, each certified inside (-r, r).

    The window holds the Cauchy bound, so a root outside the box raises
    BoxEscape, as does one straddling the boundary after 80 halvings."""
    coeffs = p.univariate_coeffs()
    lead = coeffs[-1]
    bound = 1 + max(abs(c / lead) for c in coeffs[:-1]) if len(coeffs) > 1 \
        else Fraction(0)
    window = max(bound + 1, r + 1)
    inside = []
    for iv in isolate_real_roots(p, (-window, window)):
        for _ in range(80):
            if not (iv.lo < -r < iv.hi or iv.lo < r < iv.hi):
                break
            iv = iv.refine(iv.width() / 2)
        else:
            raise BoxEscape(f"{what} on the box boundary")
        if iv.hi <= -r or iv.lo >= r:
            raise BoxEscape(f"{what} near {float(iv.mid()):.3f} "
                            f"outside [-{r}, {r}]")
        inside.append(iv)
    return inside


def _det(m: list[list[RatInterval]]) -> RatInterval:
    """Determinant of a 1x1 or 2x2 interval matrix."""
    if len(m) == 1:
        return m[0][0]
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


# -- n = 1 ------------------------------------------------------------------

def _boxes_1d(p: Polynomial, z: str, r: Fraction):
    """A box per root of p = F_t' in the box, refined to VALUE_WIDTH lazily."""
    if p.is_zero():
        raise DegenerateParameter("derivative vanishes identically")
    factors = squarefree_decomposition(p.univariate_coeffs())
    if any(mult > 1 for _, mult in factors):
        raise DegenerateParameter("F_t has a degenerate critical point")
    return ({z: iv.refine(VALUE_WIDTH)}
            for iv in _roots_in_box(p, r, "critical point"))


# -- n = 2 ------------------------------------------------------------------

def _eliminate_var(p1: Polynomial, p2: Polynomial, var: str) -> Polynomial:
    d1, d2 = p1.degree_in(var), p2.degree_in(var)
    if d1 <= 0 and d2 <= 0:
        raise DegenerateParameter(f"neither equation involves {var}")
    if d1 <= 0:
        return p1.restrict() if not p1.is_zero() else p1
    if d2 <= 0:
        return p2.restrict()
    return resultant(p1, p2, var)


def _newton_step(eqs, jac, box: dict[str, RatInterval]):
    """The interval Newton image of box, rounded outward to dyadics, or None
    when the sign of the Jacobian determinant on box is unknown."""
    x, y = box
    J = [[eval_interval(h, box) for h in row] for row in jac]
    det = _det(J)
    if det.sign() is None:
        return None
    mid = {v: RatInterval.point(box[v].mid()) for v in box}
    fm = [eval_interval(e, mid) for e in eqs]
    inv_det = det.inverse()
    return {x: _dyadic(mid[x] - (J[1][1] * fm[0] - J[0][1] * fm[1]) * inv_det),
            y: _dyadic(mid[y] - (J[0][0] * fm[1] - J[1][0] * fm[0]) * inv_det)}


def _certify_box(eqs, jac, box: dict[str, RatInterval]):
    """Interval Newton: 'in' (unique root, contracted box), 'out', or split."""
    names = list(box)
    for _ in range(40):
        vals = [eval_interval(e, box) for e in eqs]
        if any(v.sign() not in (None, 0) for v in vals):
            return "out", box
        nbox = _newton_step(eqs, jac, box)
        if nbox is None:
            return "unknown", box
        if all(nbox[v].subset_of(box[v]) and nbox[v].width() < box[v].width()
               for v in names):
            # certified: contract further for tight output
            for _ in range(30):
                prev = nbox
                step = _newton_step(eqs, jac, nbox)
                if step is None:
                    break
                i0 = step[names[0]].intersect(nbox[names[0]])
                i1 = step[names[1]].intersect(nbox[names[1]])
                if i0 is None or i1 is None:
                    break
                nbox = {names[0]: i0, names[1]: i1}
                if all(nbox[v].width() < VALUE_WIDTH for v in names):
                    break
                if all(nbox[v].width() >= prev[v].width() * Fraction(3, 4)
                       for v in names):
                    break
            return "in", nbox
        inter0 = nbox[names[0]].intersect(box[names[0]])
        inter1 = nbox[names[1]].intersect(box[names[1]])
        if inter0 is None or inter1 is None:
            return "out", box
        if (inter0.width() > box[names[0]].width() * Fraction(7, 8)
                and inter1.width() > box[names[1]].width() * Fraction(7, 8)):
            return "unknown", box
        box = {names[0]: inter0, names[1]: inter1}
    return "unknown", box


def _resolve_candidate(eqs, jac, box, depth=0):
    status, out = _certify_box(eqs, jac, box)
    if status != "unknown":
        return [(status, out)]
    if depth >= 12:
        raise DegenerateParameter("cannot certify candidate box")
    v = max(box, key=lambda v: box[v].width())
    m = box[v].mid()
    return [res for half in (RatInterval(box[v].lo, m),
                             RatInterval(m, box[v].hi))
            for res in _resolve_candidate(eqs, jac, {**box, v: half},
                                          depth + 1)]


def _boxes_2d(grad, hess, z, r: Fraction) -> list[dict[str, RatInterval]]:
    """Certified 'in' boxes of the candidates from both eliminants."""
    (p1, p2), (z1, z2) = grad, z
    rz = _eliminate_var(p1, p2, z2)
    rw = _eliminate_var(p1, p2, z1)
    if rz.is_zero() or rw.is_zero():
        raise DegenerateParameter("elimination collapsed; system not finite")
    roots = [[] if q.is_constant() else
             _roots_in_box(q, r, f"elimination root in {var}")
             for var, q in ((z1, rz), (z2, rw))]
    return [out for ivz in roots[0] for ivw in roots[1]
            for status, out in _resolve_candidate(grad, hess,
                                                  {z1: ivz, z2: ivw})
            if status == "in"]


# -- classification --------------------------------------------------------

def _classify(Ft: Polynomial, hess, box, margin: Fraction,
              shrink) -> CriticalPoint:
    """The critical point in box, which maps each z to an interval (for
    n = 1 an IsolatingInterval); shrink(box) keeps the point.  box shrinks
    at most 20 times until the sign of det(hess) is known; the index is 1
    when det < 0, else 0 or 2 by the sign of hess[0][0]."""
    for tries in range(21):
        hv = [[eval_interval(h, box) for h in row] for row in hess]
        det = _det(hv)
        if (sign := det.sign()) is not None or tries == 20:
            break
        box = shrink(box)
    if sign is None or det.mignitude() < margin:
        raise DegenerateParameter("hessian determinant too close to zero")
    if sign < 0:
        index = 1
    else:
        lead = hv[0][0].sign()
        if lead is None:
            raise DegenerateParameter("cannot resolve hessian corner sign")
        index = 0 if lead > 0 else 2
    return CriticalPoint(
        location=tuple([RatInterval(iv.lo, iv.hi) for iv in box.values()]),
        value=eval_interval(Ft, box), index=index,
        hessian_det_sign=sign, hessian_det=det)


# -- public operations ------------------------------------------------------

def critical_points(u: Unfolding, t: ParameterPoint,
                    box_radius: Fraction = DEFAULT_BOX_RADIUS,
                    margin: Fraction = DEFAULT_MARGIN) -> list[CriticalPoint]:
    """All certified real critical points of F_t in [-r, r]^n."""
    if len(t.t) != len(u.parameter_names):
        raise InvalidInput(
            f"parameter point has {len(t.t)} coordinates, "
            f"expected {len(u.parameter_names)}")
    r = Fraction(box_radius)
    if r <= 0:
        raise InvalidInput("box radius must be positive")
    if u.n not in (1, 2):
        raise UnsupportedDimension(f"n = {u.n} not supported")
    z = u.z_names
    Ft = u.specialize(tuple(t))
    grad = [Ft.diff(v) for v in z]
    hess = [[g.diff(v) for v in z] for g in grad]
    if u.n == 1:
        boxes = _boxes_1d(grad[0], z[0], r)

        def shrink(box):
            return {v: iv.refine(iv.width() / 4) for v, iv in box.items()}
    else:
        boxes = _boxes_2d(grad, hess, z, r)

        def shrink(box):
            status, box = _certify_box(grad, hess, box)
            if status != "in":
                raise DegenerateParameter("lost certification while refining")
            return box
    pts = sorted([_classify(Ft, hess, box, margin, shrink) for box in boxes],
                 key=lambda p: [iv.lo for iv in p.location])
    for p in pts:
        if not sign_relation_check(Fraction(p.hessian_det_sign), p.index, u.n):
            raise IdentityViolation(
                f"hessian sign {p.hessian_det_sign} contradicts index "
                f"{p.index}")
    return pts


def morse_counts(points: list[CriticalPoint], t: ParameterPoint,
                 n: int) -> MorseReport:
    """Index counts, alternating sum, degree, and the excellence flag."""
    counts = [0] * (n + 1)
    for p in points:
        counts[p.index] += 1
    alt = sum((-1) ** i * c for i, c in enumerate(counts))
    degree = alt if n % 2 == 0 else -alt
    values = sorted((p.value for p in points), key=lambda v: v.lo)
    excellent = all(values[i].hi < values[i + 1].lo
                    for i in range(len(values) - 1))
    return MorseReport(t=t, points=points, counts=tuple(counts),
                       alt_sum=alt, degree=degree, excellent=excellent)


def morse_report(u: Unfolding, t: ParameterPoint,
                 box_radius: Fraction = DEFAULT_BOX_RADIUS,
                 margin: Fraction = DEFAULT_MARGIN) -> MorseReport:
    return morse_counts(critical_points(u, t, box_radius, margin), t, u.n)


def sample_parameter(rng: random.Random, dim: int,
                     delta: Fraction) -> ParameterPoint:
    """Uniform dyadic rational point of the parameter box."""
    d = int(Fraction(delta) * DENOMINATOR)
    return ParameterPoint(tuple(
        Fraction(rng.randint(-d, d), DENOMINATOR) for _ in range(dim)))


def degree_invariance_scan(u: Unfolding, samples: int,
                           delta: Fraction = DEFAULT_DELTA,
                           seed: int = 0,
                           box_radius: Fraction = DEFAULT_BOX_RADIUS,
                           draw_budget: int | None = None) -> ScanReport:
    """Accepted samples must agree on the alternating sum."""
    if samples < 2:
        raise InvalidInput("need at least 2 samples")
    rng = random.Random(seed)
    budget = draw_budget if draw_budget is not None else 50 * samples
    dim = len(u.parameter_names)
    rejected: dict[str, int] = {}
    histograms: dict[tuple[int, ...], int] = {}
    rows = []
    alt = None
    accepted = 0
    for _ in range(budget):
        if accepted >= samples:
            break
        t = sample_parameter(rng, dim, delta)
        try:
            report = morse_report(u, t, box_radius)
        except DegenerateParameter:
            rejected["degenerate"] = rejected.get("degenerate", 0) + 1
            continue
        except BoxEscape:
            rejected["box-escape"] = rejected.get("box-escape", 0) + 1
            continue
        if not report.excellent:
            rejected["non-excellent"] = rejected.get("non-excellent", 0) + 1
            continue
        accepted += 1
        histograms[report.counts] = histograms.get(report.counts, 0) + 1
        rows.append({"t": [str(x) for x in t.t],
                     "counts": list(report.counts),
                     "alt_sum": report.alt_sum})
        if alt is None:
            alt = report.alt_sum
        elif alt != report.alt_sum:
            raise InconsistentDegree(
                f"alt_sum {report.alt_sum} at {t.t} disagrees with {alt}")
    if accepted < 2:
        raise InsufficientAcceptance(
            f"only {accepted} accepted samples within budget {budget}")
    degree = alt if u.n % 2 == 0 else -alt
    return ScanReport(germ=str(u.analysis.f), accepted=accepted,
                      rejected=rejected, alt_sum=alt, degree=degree,
                      histograms=histograms, samples=rows)


def euler_fiber_check(u: Unfolding, t: ParameterPoint,
                      box_radius: Fraction = DEFAULT_BOX_RADIUS) -> EulerReport:
    """chi(above top value) - chi(below bottom value) = 2 * alt_sum (n = 1)."""
    if u.n != 1:
        raise UnsupportedDimension("Euler fiber relation implemented for n = 1")
    r = Fraction(box_radius)
    report = morse_report(u, t, r)
    Ft = u.specialize(tuple(t))
    if not report.points:
        chi = count_distinct_roots(Ft, -r, r)
        return EulerReport(t=t, vacuous=True, chi_above=chi, chi_below=chi,
                           alt_sum=0, epsilon=None, ok=True)
    # Equal critical values (Maxwell points) are fine here: only gaps
    # between distinct levels matter, so overlapping values are clustered.
    values = sorted((p.value for p in report.points), key=lambda v: v.lo)
    clusters: list[RatInterval] = []
    for v in values:
        if clusters and v.lo <= clusters[-1].hi:
            clusters[-1] = RatInterval(clusters[-1].lo,
                                       max(clusters[-1].hi, v.hi))
        else:
            clusters.append(v)
    eps = min((b.lo - a.hi for a, b in zip(clusters, clusters[1:])),
              default=Fraction(1)) / 10
    # keep the exact rational but prefer a short dyadic representative
    coarse = Fraction((eps * 2 ** 48).__floor__(), 2 ** 48)
    if coarse > 0:
        eps = coarse
    lam_above = clusters[-1].hi + eps
    lam_below = clusters[0].lo - eps
    chi_above = count_distinct_roots(Ft - lam_above, -r, r)
    chi_below = count_distinct_roots(Ft - lam_below, -r, r)
    ok = (chi_above - chi_below) == 2 * report.alt_sum
    return EulerReport(t=t, vacuous=False, chi_above=chi_above,
                       chi_below=chi_below, alt_sum=report.alt_sum,
                       epsilon=eps, ok=ok)


def herman_probe(u: Unfolding, budget: int = 100,
                 delta: Fraction = DEFAULT_DELTA, seed: int = 0,
                 box_radius: Fraction = DEFAULT_BOX_RADIUS
                 ) -> HermanWitness | None:
    """First sampled parameter whose F_t has no critical point in the box.

    Absence of a witness proves nothing about surjectivity.
    """
    rng = random.Random(seed)
    dim = len(u.parameter_names)
    for _ in range(budget):
        t = sample_parameter(rng, dim, delta)
        try:
            pts = critical_points(u, t, box_radius)
        except (DegenerateParameter, BoxEscape):
            continue
        if not pts:
            if u.n == 1:
                cert = "Sturm count of dF_t/dz on the box is zero"
            else:
                cert = ("elimination polynomials have no real root pair "
                        "admitting a certified solution in the box")
            return HermanWitness(t=t, certificate=cert)
    return None
