"""Certified real critical-point analysis of F_t on a working box.

n = 1 and n = 2 share one path.  Candidate boxes come from exact root
isolation of F_t' (n = 1), or from pairs of the roots of the resultant in
each variable, each refined to CANDIDATE_WIDTH, and interval Newton (n = 2;
Moore, Kearfott & Cloud 2009) on integer enclosures (lo, hi, den): they
provably hold all real critical points in the box, and there are none when
an eliminant has no real root.  One classifier shrinks each box until
det(Hess F_t) has a known sign, which gives the Morse index.  Parameters too
close to the bifurcation set are rejected, not resolved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .critmap import sign_relation_check
from .errors import (BoxEscape, DegenerateParameter, IdentityViolation,
                     InconsistentDegree, InsufficientAcceptance, InvalidInput,
                     UnsupportedDimension)
from .intervals import (RatInterval, enclose, eval_interval, integer_box,
                        sign)
from .milnor import Unfolding
from .poly import Polynomial
from .realroots import (IsolatingInterval, count_distinct_roots,
                        isolate_real_roots, squarefree_decomposition)
from .resultant import resultant

DEFAULT_BOX_RADIUS = Fraction(4)
DEFAULT_DELTA = Fraction(1)
DEFAULT_MARGIN = Fraction(1, 10 ** 9)
VALUE_WIDTH = Fraction(1, 2 ** 60)
CANDIDATE_WIDTH = Fraction(1, 2 ** 32)  # n = 2 eliminant roots, before Newton
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


def _real_roots(p: Polynomial, r: Fraction, factors=None):
    """Isolating intervals of all real roots of p (the window holds the
    Cauchy bound), each halved at most 79 times to keep -r and r out of it.
    factors is p's squarefree_decomposition, if the caller has it."""
    coeffs = p.univariate_coeffs()
    bound = 1 + max((abs(c / coeffs[-1]) for c in coeffs[:-1]), default=-1)
    window = max(bound, r) + 1
    return isolate_real_roots(p, (-window, window), factors, (-r, r))


def _in_box(roots, r: Fraction, what: str) -> list[IsolatingInterval]:
    """roots, each certified inside (-r, r): a root outside the box, or one
    still straddling its boundary, raises BoxEscape."""
    for iv in roots:
        if iv.lo < -r < iv.hi or iv.lo < r < iv.hi:
            raise BoxEscape(f"{what} on the box boundary")
        if iv.hi <= -r or iv.lo >= r:
            raise BoxEscape(f"{what} near {float(iv.mid()):.3f} "
                            f"outside [-{r}, {r}]")
    return roots


def _roots_in_box(p: Polynomial, r: Fraction, what: str, factors=None):
    return _in_box(_real_roots(p, r, factors), r, what)


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


# -- n = 1 ------------------------------------------------------------------

def _boxes_1d(p: Polynomial, z: str, r: Fraction):
    """A box per root of p = F_t' in the box, refined to VALUE_WIDTH lazily."""
    if p.is_zero():
        raise DegenerateParameter("derivative vanishes identically")
    factors = squarefree_decomposition(p.univariate_coeffs())
    if any(mult > 1 for _, mult in factors):
        raise DegenerateParameter("F_t has a degenerate critical point")
    return ({z: iv.refine(VALUE_WIDTH)}
            for iv in _roots_in_box(p, r, "critical point", factors))


# -- n = 2 ------------------------------------------------------------------

def _eliminate_var(p1: Polynomial, p2: Polynomial, var: str) -> Polynomial:
    d1, d2 = p1.degree_in(var), p2.degree_in(var)
    if d1 <= 0 and d2 <= 0:
        raise DegenerateParameter(f"neither equation involves {var}")
    q = p1 if d1 <= 0 else p2 if d2 <= 0 else resultant(p1, p2, var)
    if q.is_zero():
        raise DegenerateParameter("elimination collapsed; system not finite")
    return q


def _newton_step(eqs, jac, box: dict[str, RatInterval]):
    """The interval Newton image of box, rounded outward to the 2^-64 grid,
    or None when 0 is in det J.  J, det J, the midpoint residuals f and the
    numerators N of Cramer's rule are integer triples; for det J > 0 (else
    negate it and f), N / det J runs from nl / (dl if nl < 0 else dh) to
    nh / (dh if nh < 0 else dl)."""
    ibox = integer_box(box)
    J = [[enclose(h, ibox) for h in row] for row in jac]
    dl, dh, dd = _det(J)
    if dl <= 0 <= dh:
        # det J = [0, 0] is unreachable: on a candidate box it needs
        # constant or zero Hessian entries, which _boxes_2d rejects or
        # gives no candidate; a contracted box lies in one with a det sign
        return None
    mid = {v: (lo + hi, lo + hi, 2 * q) for v, (lo, hi, q) in ibox.items()}
    f0, f1 = [enclose(e, mid) for e in eqs]
    if dl < 0:  # N / det J = -N / -det J, and N is linear in f
        dl, dh = -dh, -dl
        f0, f1 = [(-hi, -lo, den) for lo, hi, den in (f0, f1)]
    (a, b), (c, d) = J
    out = {}
    for v, (nl, nh, nd) in zip(ibox, (_det([[f0, b], [f1, d]]),
                                      _det([[a, f0], [c, f1]]))):
        m, _, mq = mid[v]  # v - N / det J = m / mq - n * dd / (nd * dx)
        dx = dh if nh < 0 else dl
        lo_num, lo_den = m * nd * dx - mq * nh * dd, mq * nd * dx
        dx = dl if nl < 0 else dh
        hi_num, hi_den = m * nd * dx - mq * nl * dd, mq * nd * dx
        out[v] = RatInterval(Fraction((lo_num << 64) // lo_den, 1 << 64),
                             Fraction(-((-hi_num << 64) // hi_den), 1 << 64))
    return out


def _certify_box(eqs, jac, box: dict[str, RatInterval]):
    """Interval Newton: 'in' (unique root, contracted box), 'out', or split."""
    names = list(box)
    for _ in range(40):
        ibox = integer_box(box)
        if any(lo > 0 or hi < 0 for lo, hi, _ in
               (enclose(e, ibox) for e in eqs)):
            return "out", box
        nbox = _newton_step(eqs, jac, box)
        if nbox is None:
            return "unknown", box
        if all(nbox[v].subset_of(box[v]) and nbox[v].width() < box[v].width()
               for v in names):
            # certified: contract further for tight output
            for _ in range(30):
                step = _newton_step(eqs, jac, nbox)
                if step is None:
                    break
                inter = {v: step[v].intersect(nbox[v]) for v in names}
                if not all(inter.values()):
                    break
                prev, nbox = nbox, inter
                if all(nbox[v].width() < VALUE_WIDTH for v in names):
                    break
                if all(nbox[v].width() >= prev[v].width() * Fraction(3, 4)
                       for v in names):
                    break
            return "in", nbox
        inter = {v: nbox[v].intersect(box[v]) for v in names}
        if not all(inter.values()):
            return "out", box
        if all(inter[v].width() > box[v].width() * Fraction(7, 8)
               for v in names):
            return "unknown", box
        box = inter
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
    """Certified 'in' boxes of the candidates from both eliminants: [] as
    soon as one has no real root (each real critical point gives a root of
    both), before any root outside the box raises BoxEscape (z first)."""
    (p1, p2), (z1, z2) = grad, z
    roots = []
    for other in (z2, z1):
        q = _eliminate_var(p1, p2, other)
        if q.is_constant() or not (ivs := _real_roots(q, r)):
            return []
        roots.append(ivs)
    zs, ws = ([iv.refine(CANDIDATE_WIDTH)
               for iv in _in_box(ivs, r, f"elimination root in {var}")]
              for var, ivs in zip(z, roots))
    return [out for ivz in zs for ivw in ws
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
        ibox = integer_box(box)
        hv = [[enclose(h, ibox) for h in row] for row in hess]
        lo, hi, den = _det(hv)
        if (det_sign := sign(lo, hi)) is not None or tries == 20:
            break
        box = shrink(box)
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
                cert = ("elimination polynomials have no real root pair "
                        "admitting a certified solution in the box")
            return HermanWitness(t=t, certificate=cert)
    return None
