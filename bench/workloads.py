"""The benchmark's workloads: inputs drawn from a seed, ops, output checks.

A run is a sequence of rounds.  Every round of a workload has the same mix
of op kinds; the seed and the round number draw the inputs of each op
(``round_inputs``), so runs with different seeds do comparable work and a
run's throughput does not hinge on which few inputs it happened to draw.
Ops call singlab through module attributes (``morselab.morse_report``, not
an imported name), so the tracer's patches are seen.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from singlab import (discriminant, errors, milnor, morselab, poly, semitoric,
                     serialize)

# Documented rejections raised by the program, by reason.
REJECTIONS = {errors.DegenerateParameter: "degenerate",
              errors.BoxEscape: "box_escape"}
GOLDEN_A2 = Path("tests") / "golden" / "a2_discriminant.txt"


@dataclass(frozen=True)
class Op:
    """One closed-loop request: ``call`` is timed, ``check`` is not.

    ``check(result, tally)`` returns "ok", "rejected:<reason>" or
    "failed:<reason>", and may add layer counts to ``tally``.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object, Counter], str]


def _rng(workload: str, seed: int, k) -> random.Random:
    return random.Random(f"{workload}/{seed}/{k}")


def _dyadic(rng: random.Random, lo, hi, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(rng.randint(math.ceil(lo * scale), math.floor(hi * scale)),
                    scale)


# -- morse-scan -------------------------------------------------------------

PRIMES = (2, 3, 5, 7, 11)


def _radical_inverse(k: int, base: int) -> float:
    """k's digits in ``base`` mirrored about the radix point (Halton)."""
    out, scale = 0.0, 1.0
    while k:
        k, digit = divmod(k, base)
        scale /= base
        out += digit * scale
    return out


def _grid(u: float) -> Fraction:
    """u in [0, 1) onto the dyadic grid of [-1, 1] with step 2^-16."""
    return Fraction(math.floor(u * (1 << 17)) - (1 << 16), 1 << 16)


class MorseScan:
    name = "morse-scan"
    tail_percentile = 95
    trace_rounds = 20
    # (germ, variables, parameter count)
    GERMS = (("z^5", ("z",), 3), ("z^7", ("z",), 5),
             ("z^3 + w^3", ("z", "w"), 3), ("z^3 + w^4", ("z", "w"), 5))
    RADII = (4, 1)

    def setup(self, root: Path):
        out = {}
        for germ, names, dim in self.GERMS:
            u = milnor.unfold_germ(poly.parse_polynomial(germ, names))
            if len(u.parameter_names) != dim:
                raise RuntimeError(f"{germ}: expected {dim} parameters")
            out[germ] = u
        return out

    def round_inputs(self, seed: int, k: int):
        """Round k's point for each germ and radius.

        Points are the Halton sequence shifted modulo 1 by a seeded random
        vector, one per germ and radius, then put on the 2^-16 grid of
        [-1, 1].  Each point is uniform, but a run covers the box evenly, so
        the share of points with no critical point in the box, whose ops are
        about 20x cheaper, depends less on the seed than with independent
        draws.
        """
        out = []
        for germ, _, dim in self.GERMS:
            for r in self.RADII:
                shift = _rng(self.name, seed, f"{germ}/{r}")
                t = tuple(_grid((_radical_inverse(k + 1, b) + shift.random())
                                % 1.0) for b in PRIMES[:dim])
                out.append((germ, r, t))
        return out

    def ops(self, state, inputs):
        for germ, r, t in inputs:
            u = state[germ]
            yield Op("morse_report",
                     lambda u=u, t=t, r=r: morselab.morse_report(
                         u, morselab.ParameterPoint(t), Fraction(r)),
                     _check_morse)


def _check_morse(rep, tally: Counter) -> str:
    counts = [0] * len(rep.counts)
    for p in rep.points:
        s = p.hessian_det.sign()
        if s != p.hessian_det_sign or s != (-1) ** p.index:
            return f"failed:sign(h) != (-1)^index at {p.midpoint()}"
        counts[p.index] += 1
    alt = sum((-1) ** i * c for i, c in enumerate(counts))
    if tuple(counts) != rep.counts or rep.alt_sum != alt or alt != 0:
        return f"failed:counts {rep.counts}, alternating sum {rep.alt_sum}"
    if not rep.excellent:
        tally["morselab.non_excellent"] += 1
    return "ok"


# -- discriminant-paths -----------------------------------------------------

class DiscriminantPaths:
    name = "discriminant-paths"
    tail_percentile = 90
    trace_rounds = 3
    DEGREES = (3, 4, 5, 6)
    EULER_POINTS = 8
    CURVE_POINTS = 4

    def setup(self, root: Path):
        units = {k: milnor.unfold_germ(poly.parse_polynomial(f"z^{k}", ("z",)))
                 for k in self.DEGREES}
        return {"unfoldings": units,
                "golden": (root / GOLDEN_A2).read_text()}

    def round_inputs(self, seed: int, k: int):
        rng = _rng(self.name, seed, k)
        eighth = Fraction(1, 8)
        path = (_dyadic(rng, -1, -eighth, 8), _dyadic(rng, eighth, 1, 8))
        segment = ((_dyadic(rng, -1, -eighth, 8), _dyadic(rng, -2, -1, 8)),
                   (_dyadic(rng, eighth, 1, 8), _dyadic(rng, -2, -1, 8)))
        euler = [(_dyadic(rng, -1, 1, 16), _dyadic(rng, -1, 1, 16))
                 for _ in range(self.EULER_POINTS)]
        # (z0, t2, ..., t_{d-2}) per degree; t1 is solved so z0 is critical
        curve = {d: [tuple(_dyadic(rng, -2, 2, 6) for _ in range(d - 2))
                     for _ in range(self.CURVE_POINTS)]
                 for d in self.DEGREES}
        return {"path": path, "segment": segment, "euler": euler,
                "curve": curve}

    def ops(self, state, inputs):
        units = state["unfoldings"]
        pp = morselab.ParameterPoint
        a, b = inputs["path"]
        yield Op("cerf_trace",
                 lambda: discriminant.cerf_trace(
                     units[3], [pp((a,)), pp((b,))], steps=40),
                 _check_cerf)
        sa, sb = inputs["segment"]
        yield Op("maxwell_refine",
                 lambda: discriminant.maxwell_refine(units[4], pp(sa), pp(sb)),
                 _check_maxwell)
        for t in inputs["euler"]:
            yield Op("euler_fiber_check",
                     lambda t=t: morselab.euler_fiber_check(units[4], pp(t)),
                     _check_euler)
        for d in self.DEGREES:
            yield Op("exact_discriminant_1d",
                     lambda d=d: discriminant.exact_discriminant_1d(units[d]),
                     _discriminant_check(d, inputs["curve"][d],
                                         state["golden"] if d == 3 else None))


def _check_cerf(trace, tally: Counter) -> str:
    events = trace.events
    unresolved = sum(e.kind == "unresolved" for e in events)
    tally["discriminant.events"] += len(events)
    tally["discriminant.resolved"] += len(events) - unresolved
    if unresolved:
        return "rejected:unresolved"
    if len(events) != 1 or events[0].kind != "death":
        return f"failed:events {[e.kind for e in events]}"
    if not events[0].data["hessian_witness"] < 1e-6:
        return f"failed:hessian witness {events[0].data['hessian_witness']}"
    return "ok"


def _check_maxwell(point, tally: Counter) -> str:
    tally["discriminant.maxwell_calls"] += 1
    if point is None:
        return "rejected:no_maxwell"
    tally["discriminant.maxwell_found"] += 1
    if not abs(point.t.t[0]) < Fraction(1, 10 ** 8):
        return f"failed:Maxwell point at t1 = {point.t.t[0]}"
    return "ok"


def _check_euler(report, tally: Counter) -> str:
    return "ok" if report.ok else f"failed:Euler relation at {report.t.t}"


def _discriminant_check(d: int, points, golden: str | None):
    """z0 a double root of F_t - lambda must lie on the curve, exactly."""

    def check(curve, tally: Counter) -> str:
        if golden is not None and str(curve.poly) + "\n" != golden:
            return "failed:A2 discriminant differs from the golden file"
        for z0, *rest in points:
            t = [Fraction(0)] + list(rest)  # t_j multiplies z^j
            t[0] = -(d * z0 ** (d - 1)
                     + sum(j * t[j - 1] * z0 ** (j - 1)
                           for j in range(2, d - 1)))
            lam = z0 ** d + sum(t[j - 1] * z0 ** j for j in range(1, d - 1))
            values = {f"t{j}": t[j - 1] for j in range(1, d - 1)}
            values["lambda"] = lam
            if curve.poly.evaluate(
                    {v: values[v] for v in curve.poly.variables}) != 0:
                return f"failed:z^{d} curve misses the point z0 = {z0}"
        return "ok"
    return check


# -- toric-curves -----------------------------------------------------------

class ToricCurves:
    name = "toric-curves"
    tail_percentile = 75
    trace_rounds = 1
    # Minimal-generator triples up to 11 whose toric ideals took 0.03-0.08 s
    # (fast), 0.35-0.6 s (medium) and 8 s, the slow (5,7,9) that the
    # Buchberger work targets, at the seed commit.  Costs span 300x, so a
    # seeded subset would make a run's work hinge on its draw: every round
    # takes them all and the seed orders them.  Triples such as (7,8,9) and
    # (7,9,11), 19 s to over 25 s each, are left out: one would outlast a run.
    TRIPLES = ((5, 7, 9),
               (3, 4, 5), (3, 5, 7), (3, 8, 10), (4, 5, 7),
               (4, 6, 7), (4, 6, 9), (6, 8, 9), (6, 9, 10), (6, 9, 11),
               (6, 10, 11), (4, 10, 11))
    # Branches x = t^n, y = t^m + t^(m+k), one per n, each 0.8-1.8 s:
    # (n, m, choices of k)
    BRANCHES = ((4, 10, (1, 3, 5)), (6, 9, (1, 2, 4, 5)), (8, 12, (1, 3, 5)))

    def setup(self, root: Path):
        return {g: semitoric.semigroup_from_generators(list(g))
                for g in self.TRIPLES}

    def round_inputs(self, seed: int, k: int):
        rng = _rng(self.name, seed, k)
        triples = rng.sample(self.TRIPLES, len(self.TRIPLES))
        branches = [(n, m, rng.choice(ks)) for n, m, ks in self.BRANCHES]
        return {"triples": triples, "branches": branches}

    def ops(self, state, inputs):
        for g in inputs["triples"]:
            gamma = state[g]
            yield Op("toric_ideal", lambda gamma=gamma:
                     semitoric.toric_ideal(gamma), _check_toric_ideal)
            yield Op("resolve_monomial_curve", lambda gamma=gamma:
                     semitoric.resolve_monomial_curve(gamma),
                     _check_resolution)
        for n, m, k in inputs["branches"]:
            branch = semitoric.PlaneBranch(
                n, ((m, Fraction(1)), (m + k, Fraction(1))))
            yield Op("strict_transform", lambda b=branch: _strict_transform(b),
                     _check_transform)


def _strict_transform(branch):
    gamma, xi = semitoric.branch_embedding(branch)
    cert = semitoric.resolve_monomial_curve(gamma)
    return semitoric.verify_strict_transform(xi, gamma, cert)


def _check_toric_ideal(ideal, tally: Counter) -> str:
    for b in ideal.binomials:
        by_weight: dict[int, Fraction] = {}
        for exps, c in b.terms.items():
            w = sum(e * g for e, g in zip(exps, ideal.weights))
            by_weight[w] = by_weight.get(w, Fraction(0)) + c
        if len(b.terms) != 2 or len(by_weight) != 1 \
                or any(by_weight.values()):
            return f"failed:{b} is not a weight-homogeneous kernel binomial"
    return "ok"


def _det(m) -> int:
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:]
                                            for row in m[1:]])
               for j in range(len(m)))


def _check_resolution(cert, tally: Counter) -> str:
    for cone in cert.fan.cones:
        if abs(_det([list(r) for r in cone.rays])) != 1:
            return f"failed:cone {cone.rays} is not unimodular"
    if cert.gamma not in cert.chart_cone().rays:
        return f"failed:generator ray {cert.gamma} missing from the chart"
    if sorted(cert.exponents) != [0] * (len(cert.exponents) - 1) + [1]:
        return f"failed:chart exponents {cert.exponents}"
    return "ok"


def _check_transform(report, tally: Counter) -> str:
    return "ok" if report.ok else f"failed:{report.detail}"


WORKLOADS = {w.name: w for w in (MorseScan(), DiscriminantPaths(),
                                 ToricCurves())}


def run_op(op: Op):
    """The timed part of an op: the call, then serialization as in the CLI.

    Returns (result, text); documented rejections propagate.
    """
    result = op.call()
    return result, serialize.dumps(serialize.jsonable(result))
