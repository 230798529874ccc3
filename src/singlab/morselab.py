"""Certified real critical-point analysis of F_t on a working box.

n = 1 and n = 2 share one route.  Each real critical point sits over a real
root u0 of one univariate polynomial R, with coordinates rational in u0:
for n = 1, R = F_t' and the point is u0; for n = 2, R = Res_w(F_z, F_w) and
the point is (u0, w0), w0 = -s10/s11(u0), when F_w has a constant leading
coefficient in w and the first subresultant S1 = s11*w + s10 has
s11(u0) != 0: the shape lemma read off the subresultants (Rouillier, AAECC
1999), with the shear z -> z + k*w, k = 1, 2, ..., where the projection
does not separate the points (Bouzidi, Lazard, Moroz, Pouget, Rouillier &
Sagraloff, J. Complexity 2016).  w0 is enclosed on integer enclosures (lo,
hi, den) over u0's interval, and there is no point when R has no real root.
Each point gets one iterator of ever smaller boxes, from u0's interval
refined to a quarter of its width each time: the box test draws from it
until a box lies inside (-r, r)^n or outside it, and the classifier goes on
drawing until det(Hess F_t) has a known sign, which gives the Morse index.
Parameters too close to the bifurcation set are rejected, not resolved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .critmap import sign_relation_check
from .errors import (BoxEscape, DegenerateParameter, IdentityViolation,
                     InconsistentDegree, InsufficientAcceptance, InvalidInput,
                     UnsupportedDimension)
from .intervals import (RatInterval, enclose, eval_interval, integer_box,
                        sign)
from .milnor import Unfolding
from .poly import Polynomial
# squarefree_decomposition is not called here, but bench/tracing.py wraps
# this module's binding of it, so the import stays
from .realroots import (IsolatingInterval, _gcd, count_distinct_roots,
                        isolate_real_roots, squarefree_decomposition)
from .resultant import resultant, subresultant

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


def _real_roots(p: Polynomial, r: Fraction):
    """Isolating intervals of all real roots of p, on a window that holds
    the Cauchy bound 1 + max|a_i| / |a_d| and the box."""
    num = p.num
    top = max(num, key=sum)  # p has one variable
    big = max((abs(c) for e, c in num.items() if e != top), default=0)
    window = max(1 + Fraction(big, abs(num[top])), r) + 1
    return isolate_real_roots(p, (-window, window))


def _det(m):
    """Determinant of a 1x1 or 2x2 matrix of integer interval triples
    (lo, hi, den), each the interval [lo, hi] / den with den > 0."""
    if len(m) == 1:
        return m[0][0]
    (a, b), (c, d) = m
    ad = [x * y for x in a[:2] for y in d[:2]]
    bc = [x * y for x in b[:2] for y in c[:2]]
    s, t = a[2] * d[2], b[2] * c[2]
    return min(ad) * t - max(bc) * s, max(ad) * t - min(bc) * s, s * t


# -- n = 2: the shear and the first subresultant ---------------------------

def _sheared(F: Polynomial, k: int, z) -> Polynomial:
    """F(z - k*w, w), whose critical point (z + k*w, w) is F's (z, w)."""
    shift = Polynomial.variable(z[0], z) - k * Polynomial.variable(z[1], z)
    out = Polynomial.zero(z)
    for c in reversed(F.coeffs_in(z[0])):
        out = out * shift + c.project(z)
    return out


def _separates(res: Polynomial, s11: Polynomial, r: Fraction) -> bool:
    """Whether s11 vanishes at no real root of res, decided exactly: by
    the real roots of gcd(res, s11), which are the common ones."""
    if s11.is_constant():
        return not s11.is_zero()
    g = _gcd(res.univariate_coeffs(), s11.univariate_coeffs())[0]
    return len(g) == 1 or not _real_roots(
        Polynomial._of(res.variables, {(i,): c for i, c in enumerate(g)
                                       if c}), r)


# -- boxes -----------------------------------------------------------------

def _fiber_boxes(iv: IsolatingInterval, s11, s10, k: int, z):
    """Boxes holding the critical point over the root u0 in iv, iv refined
    to a quarter of its width from one box to the next: {z: iv} for n = 1;
    for n = 2, w0 = -s10/s11 on iv, rounded outward to the 2^-64 grid, and
    z0 = u0 - k*w0."""
    while True:
        if len(z) == 1:
            yield {z[0]: iv}
        else:
            ibox = integer_box({z[0]: iv})
            al, ah, ad = enclose(s10, ibox)
            bl, bh, bd = enclose(s11, ibox)
            if sign(bl, bh):  # -a/b = a/-b, so make b positive
                if bl < 0:
                    al, ah, bl, bh = -ah, -al, -bh, -bl
                # -a/b runs from -ah/(bl or bh) to -al/(bh or bl), by signs
                lo_den = (bl if ah >= 0 else bh) * ad
                hi_den = (bh if al >= 0 else bl) * ad
                w = RatInterval(
                    Fraction((-ah * bd << 64) // lo_den, 1 << 64),
                    Fraction(-((al * bd << 64) // hi_den), 1 << 64))
                yield {z[0]: RatInterval(iv.lo - k * w.hi, iv.hi - k * w.lo)
                       if k else iv, z[1]: w}
        iv = iv.refine(iv.width() / 4)


def _inside(boxes, r: Fraction):
    """boxes from the first one inside (-r, r)^n, after at most 40;
    BoxEscape for a box whose point is outside, or when none is decided."""
    for _ in range(40):
        box = next(boxes)
        for v, iv in box.items():
            if iv.hi <= -r or iv.lo >= r:
                raise BoxEscape(f"critical point with {v} near "
                                f"{float(iv.mid()):.3f} outside [-{r}, {r}]")
        if all(-r < iv.lo and iv.hi < r for iv in box.values()):
            return chain((box,), boxes)
    raise BoxEscape("critical point on the box boundary")


def _boxes(Ft: Polynomial, grad, z, r: Fraction):
    """One box iterator per real critical point of F_t, from its first box
    inside the box, over each real root u0 of one polynomial R.  For n = 1,
    R = F_t' and the box is u0's interval.  For n = 2, R = Res_w(G_z, G_w),
    G = F_t(z - k*w, w) for the first k = 0, 1, ... at which G_z has w, G_w
    has a constant leading coefficient in w and s11 no real root in common
    with R: then each u0 carries exactly one point, at w0 = -s10/s11(u0).
    A k >= 1 fails only at a zero of the leading form of F_t or F_z (2d - 1
    at most), for a pair of points on one fiber (b(b - 1)/2 at most, b the
    Bezout bound) or for a point whose fiber is tangent to both curves (b at
    most), so the range outlasts them all unless a point is singular on
    both curves, which no shear separates.  [] when R has no real root; a
    multiple root of R is rejected after every box is decided."""
    k, s11, s10 = 0, None, None
    if len(z) == 1:
        if grad[0].is_zero():
            raise DegenerateParameter("derivative vanishes identically")
        roots = _real_roots(grad[0], r)
    else:
        d = max(map(sum, Ft.num), default=0)
        b = (d - 1) ** 2  # Bezout's bound on the number of points
        for k in range(2 * d + b * (b + 1) // 2 + 1):
            p, q = [_sheared(Ft, k, z).diff(v) for v in z] if k else grad
            n = q.degree_in(z[1])
            # G_z has w, and G_w no z^i w^n, i > 0, so its lead is constant
            if p.degree_in(z[1]) < 1 or n < 1 or any(
                    i for i, j in q.num if j == n):
                continue
            res = resultant(p, q, z[1])
            if res.is_zero():
                raise DegenerateParameter(
                    "elimination collapsed; system not finite")
            if res.is_constant() or not (roots := _real_roots(res, r)):
                return []
            s11, s10 = subresultant(p, q, z[1], 1)  # res's chain, kept
            if _separates(res, s11, r):
                break
        else:
            raise DegenerateParameter("no shear separates the critical points")
    points = [_inside(_fiber_boxes(iv.refine(VALUE_WIDTH), s11, s10, k, z), r)
              for iv in roots]
    if any(iv.multiplicity > 1 for iv in roots):
        raise DegenerateParameter("F_t has a degenerate critical point")
    return points


# -- classification --------------------------------------------------------

def _classify(Ft: Polynomial, hess, boxes, margin: Fraction) -> CriticalPoint:
    """The critical point that each of boxes holds (a box maps each z to an
    interval).  At most 21 boxes are drawn, until the sign of det(hess) is
    known; the index is 1 when det < 0, else 0 or 2 by the sign of
    hess[0][0]."""
    for _ in range(21):
        box = next(boxes)
        ibox = integer_box(box)
        hv = [[enclose(h, ibox) for h in row] for row in hess]
        lo, hi, den = _det(hv)
        if (det_sign := sign(lo, hi)) is not None:
            break
    if det_sign is None or min(abs(lo), abs(hi)) < margin * den:
        raise DegenerateParameter("hessian determinant too close to zero")
    if det_sign < 0:
        index = 1
    else:
        lead = sign(*hv[0][0][:2])
        if lead is None:
            raise DegenerateParameter("cannot resolve hessian corner sign")
        index = 0 if lead > 0 else 2
    return CriticalPoint(
        location=tuple(box.values()), value=eval_interval(Ft, box),
        index=index, hessian_det_sign=det_sign,
        hessian_det=RatInterval(Fraction(lo, den), Fraction(hi, den)))


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
    pts = sorted([_classify(Ft, hess, boxes, margin)
                  for boxes in _boxes(Ft, grad, z, r)],
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


def sample_parameters(u: Unfolding, draws: int, delta: Fraction, seed: int):
    """draws uniform dyadic rational points of the parameter box, from one
    seeded stream."""
    rng = random.Random(seed)
    d = int(Fraction(delta) * DENOMINATOR)
    for _ in range(draws):
        yield ParameterPoint(tuple(Fraction(rng.randint(-d, d), DENOMINATOR)
                                   for _ in u.parameter_names))


def report_or_reason(report, u: Unfolding, t: ParameterPoint,
                     box_radius: Fraction):
    """report(u, t, box_radius), where report is morse_report or
    critical_points, or the reason t is rejected: 'degenerate' or
    'box-escape'."""
    try:
        return report(u, t, box_radius)
    except DegenerateParameter:
        return "degenerate"
    except BoxEscape:
        return "box-escape"


def degree_invariance_scan(u: Unfolding, samples: int,
                           delta: Fraction = DEFAULT_DELTA,
                           seed: int = 0,
                           box_radius: Fraction = DEFAULT_BOX_RADIUS
                           ) -> ScanReport:
    """Accepted samples (at most 50 draws each) must agree on the alt sum."""
    if samples < 2:
        raise InvalidInput("need at least 2 samples")
    budget = 50 * samples
    rejected: dict[str, int] = {}
    histograms: dict[tuple[int, ...], int] = {}
    rows = []
    alt = None
    accepted = 0
    for t in sample_parameters(u, budget, delta, seed):
        report = report_or_reason(morse_report, u, t, box_radius)
        if isinstance(report, str) or not report.excellent:
            reason = report if isinstance(report, str) else "non-excellent"
            rejected[reason] = rejected.get(reason, 0) + 1
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
        if accepted == samples:
            break
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
    for t in sample_parameters(u, budget, delta, seed):
        # [] is a witness; a rejection reason is a nonempty string
        if not report_or_reason(critical_points, u, t, box_radius):
            if u.n == 1:
                cert = "Sturm count of dF_t/dz on the box is zero"
            else:
                cert = ("Res_w(dF_t/dz, dF_t/dw) has no real root, after a "
                        "shear z -> z + k*w if needed")
            return HermanWitness(t=t, certificate=cert)
    return None
