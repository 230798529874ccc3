"""Acceptance gate: one test per published criterion, one PASS line each.

Tolerances used below:
  - symbolic identities: exact polynomial equality (zero tolerance)
  - degree/Euler counts: exact integer equality
  - discriminant membership: exact rational evaluation to zero
  - Cerf death witness: hessian magnitude < 1e-6
  - Maxwell location: |t1| < 1e-8
Wall-clock budgets (5 s / 10 s / 30 s) are asserted where stated.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
import sympy

from singlab.critmap import sign_relation_check, verify_jacobian_identity
from singlab.discriminant import (cerf_trace, exact_discriminant_1d,
                                  maxwell_scan)
from singlab.errors import BoxEscape, DegenerateParameter
from singlab.milnor import analyze_germ, unfold_germ
from singlab.morselab import (ParameterPoint, critical_points,
                              degree_invariance_scan, euler_fiber_check,
                              herman_probe, sample_parameters)
from singlab.poly import parse_polynomial
from singlab.semitoric import (OverweightDeformation, PlaneBranch, Series,
                               branch_embedding, branch_semigroup,
                               overweight_check, resolve_monomial_curve,
                               semigroup_from_generators, toric_ideal,
                               verify_strict_transform, weight)
from singlab.groebner import groebner_basis, ideal_contains
from singlab.poly import LEX

GOLDEN = Path(__file__).parent / "golden"


def P(text, names):
    return parse_polynomial(text, names)


@lru_cache(maxsize=None)
def _unfold(germ, names):
    return unfold_germ(P(germ, names))


def _report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _oracle_mu(expr_text, names):
    """Independent route: sympy Groebner basis + brute-force staircase."""
    symbols = sympy.symbols(names)
    f = sympy.sympify(expr_text.replace("^", "**"))
    gb = sympy.groebner([sympy.diff(f, s) for s in symbols],
                        *symbols, order="grevlex")
    leads = [sympy.Poly(e, *symbols).monoms(order="grevlex")[0]
             for e in gb.exprs]
    cap = 1 + max(max(l) for l in leads)
    count = 0
    for e in itertools.product(range(cap * len(names)), repeat=len(names)):
        if not any(all(le <= ee for le, ee in zip(l, e)) for l in leads):
            count += 1
    return count


def test_criterion_01_milnor_numbers():
    start = time.monotonic()
    ok = True
    for k in range(1, 8):
        germ = f"z^{k + 1}"
        ok &= analyze_germ(P(germ, ("z",))).mu == k == _oracle_mu(germ, ("z",))
    for a in range(2, 6):
        for b in range(2, 6):
            germ = f"z^{a} + w^{b}"
            mu = analyze_germ(P(germ, ("z", "w"))).mu
            ok &= mu == (a - 1) * (b - 1) == _oracle_mu(germ, ("z", "w"))
    elapsed = time.monotonic() - start
    ok &= elapsed < 5
    _report(1, ok, f"mu(z^(k+1))=k and mu(z^a+w^b)=(a-1)(b-1) "
                   f"vs staircase oracle in {elapsed:.2f}s")


IDENTITY_CORPUS = [("z^3", ("z",)), ("z^4", ("z",)), ("z^5", ("z",)),
                   ("z^6", ("z",)), ("z^7", ("z",)),
                   ("z^3 + w^3", ("z", "w")), ("z^3 + w^4", ("z", "w"))]


def test_criterion_02_jacobian_identity():
    start = time.monotonic()
    ok = all(verify_jacobian_identity(_unfold(g, n)).ok
             for g, n in IDENTITY_CORPUS)
    elapsed = time.monotonic() - start
    ok &= elapsed < 10
    _report(2, ok, f"jac(p o nu) = (-1)^n h_z(F) exactly on "
                   f"{len(IDENTITY_CORPUS)} germs in {elapsed:.2f}s")


@lru_cache(maxsize=None)
def _accepted_samples(germ, names, count=100, seed=0):
    """(t, points) for `count` accepted parameter samples."""
    u = _unfold(germ, names)
    out = []
    for t in sample_parameters(u, 60 * count, Fraction(1), seed):
        if len(out) >= count:
            break
        try:
            pts = critical_points(u, t)
        except (DegenerateParameter, BoxEscape):
            continue
        values = sorted((p.value for p in pts), key=lambda v: v.lo)
        if any(a.hi >= b.lo for a, b in zip(values, values[1:])):
            continue  # not excellent
        out.append((t, pts))
    return tuple(out)


def test_criterion_03_sign_relation():
    violations = 0
    total = 0
    for germ, names in IDENTITY_CORPUS:
        n = len(names)
        samples = _accepted_samples(germ, names)
        assert len(samples) >= 100
        for _, pts in samples:
            for p in pts:
                total += 1
                if not sign_relation_check(Fraction(p.hessian_det_sign),
                                           p.index, n):
                    violations += 1
    _report(3, violations == 0,
            f"sign(h) = (-1)^index at {total} critical points over "
            f"100 accepted samples x {len(IDENTITY_CORPUS)} germs, "
            f"{violations} violations")


DEGREE_CONSTANTS = [("z^3", ("z",), 0), ("z^4", ("z",), 1),
                    ("z^5", ("z",), 0), ("z^6", ("z",), 1),
                    ("z^3 + w^3", ("z", "w"), 0)]


def test_criterion_04_degree_invariance():
    ok = True
    details = []
    for germ, names, alt in DEGREE_CONSTANTS:
        n = len(names)
        seen = set()
        for _, pts in _accepted_samples(germ, names):
            counts = [0] * (n + 1)
            for p in pts:
                counts[p.index] += 1
            seen.add(sum((-1) ** i * c for i, c in enumerate(counts)))
        ok &= seen == {alt}
        details.append(f"{germ}:{sorted(seen)}")
    _report(4, ok, "constant alternating sums over 100 accepted samples — "
                   + ", ".join(details))


def test_criterion_05_trivial_families():
    ok = True
    for germ, names in [("z^3", ("z",)), ("z^3 + w^3", ("z", "w"))]:
        rep = degree_invariance_scan(_unfold(germ, names), samples=100,
                                     seed=0)
        ok &= rep.alt_sum == 0 and rep.degree == 0
        witness = herman_probe(_unfold(germ, names), budget=100, seed=0)
        ok &= witness is not None
    _report(5, ok, "z^3 and z^3+w^3 have degree 0 and a no-critical-point "
                   "parameter within 100 samples")


def test_criterion_06_euler_fiber_relation():
    ok = True
    for germ in ("z^3", "z^4", "z^5", "z^6"):
        u = _unfold(germ, ("z",))
        accepted = 0
        for t in sample_parameters(u, 2000, Fraction(1), 17):
            if accepted >= 20:
                break
            try:
                rep = euler_fiber_check(u, t)
            except (DegenerateParameter, BoxEscape):
                continue
            accepted += 1
            ok &= rep.ok  # chi_above - chi_below == 2 * alt_sum exactly
        ok &= accepted == 20
    _report(6, ok, "chi_above - chi_below = 2*alt_sum at 20 accepted "
                   "samples for each of A2..A5 (exact rational epsilon)")


def test_criterion_07_exact_discriminant():
    u2 = _unfold("z^3", ("z",))
    golden = (GOLDEN / "a2_discriminant.txt").read_bytes()
    produced = (str(exact_discriminant_1d(u2).poly) + "\n").encode()
    ok = produced == golden

    # 1000 exact degenerate points: z0 a double root of F_t - lambda
    d2 = exact_discriminant_1d(u2).poly
    on_curve = 0
    for i in range(500):
        z0 = Fraction(i - 250, 101)
        t1 = -3 * z0 ** 2
        lam = z0 ** 3 + t1 * z0
        if d2.evaluate({"t1": t1, "lambda": lam}) == 0:
            on_curve += 1
    u3 = _unfold("z^4", ("z",))
    d3 = exact_discriminant_1d(u3).poly
    rng = random.Random(7)
    for _ in range(500):
        z0 = Fraction(rng.randint(-200, 200), 97)
        t2 = Fraction(rng.randint(-200, 200), 89)
        t1 = -4 * z0 ** 3 - 2 * t2 * z0  # makes z0 a critical point
        lam = z0 ** 4 + t2 * z0 ** 2 + t1 * z0
        if d3.evaluate({"t1": t1, "t2": t2, "lambda": lam}) == 0:
            on_curve += 1
    ok &= on_curve == 1000
    _report(7, ok, f"A2 discriminant matches golden bytes; {on_curve}/1000 "
                   "degenerate points vanish exactly on A2/A3 curves")


@pytest.mark.parametrize("name,germ", [
    ("a3", "z^4"), ("a4", "z^5"), ("a5", "z^6"), ("a6", "z^7"),
    ("a5_rational", "-2/3*z^4 + z^6")])
def test_golden_discriminants(name, germ):
    golden = (GOLDEN / f"{name}_discriminant.txt").read_bytes()
    produced = str(exact_discriminant_1d(_unfold(germ, ("z",))).poly) + "\n"
    assert produced.encode() == golden


def test_criterion_08_cerf_and_maxwell():
    trace = cerf_trace(_unfold("z^3", ("z",)),
                       [ParameterPoint((Fraction(-1, 2),)),
                        ParameterPoint((Fraction(1, 2),))], steps=40)
    deaths = [e for e in trace.events if e.kind == "death"]
    ok = len(deaths) == 1 and len(trace.events) == 1
    witness = deaths[0].data["hessian_witness"] if deaths else float("inf")
    ok &= witness < 1e-6

    points = maxwell_scan(_unfold("z^4", ("z",)),
                          segments=[(ParameterPoint((Fraction(-1),
                                                     Fraction(-2))),
                                     ParameterPoint((Fraction(1),
                                                     Fraction(-2))))])
    ok &= len(points) == 1 and abs(points[0].t.t[0]) < Fraction(1, 10 ** 8)
    _report(8, ok, f"one A2 death (|h| = {witness:.2e} < 1e-6); A3 Maxwell "
                   "point at |t1| < 1e-8")


def test_criterion_09_semitoric_pipeline():
    start = time.monotonic()
    branch = PlaneBranch(4, ((6, Fraction(1)), (7, Fraction(1))))
    gamma = branch_semigroup(branch)
    ok = gamma.minimal_generators == (4, 6, 13)

    ideal = toric_ideal(gamma)
    gb = groebner_basis(list(ideal.binomials), LEX)
    names = ideal.binomials[0].variables
    ok &= ideal_contains(P("U1^2 - U0^3", names), gb, LEX)
    ok &= ideal_contains(P("U2^2 - U0^5*U1", names), gb, LEX)

    cert = resolve_monomial_curve(gamma)
    ok &= all(abs(c.determinant()) == 1 for c in cert.fan.cones)
    ok &= (4, 6, 13) in cert.chart_cone().rays
    ok &= sorted(cert.exponents) == [0, 0, 1]

    # strict transform: the monomial curve (t^4, t^6, t^13) itself ...
    need = gamma.conductor + 60
    mono_xi = [Series({g: Fraction(1)}, need)
               for g in gamma.minimal_generators]
    mono = verify_strict_transform(mono_xi, gamma, cert)
    ok &= mono.ok and all(c == 1 for c in mono.leading_units)
    # ... and the deformed branch via its semiroot embedding
    gamma2, xi = branch_embedding(branch)
    ok &= verify_strict_transform(xi, gamma2, cert).ok
    elapsed = time.monotonic() - start
    ok &= elapsed < 30
    _report(9, ok, f"semigroup/ideal/certificate/strict-transform pipeline "
                   f"for (t^4, t^6+t^7) and its monomial curve "
                   f"in {elapsed:.2f}s")


def test_criterion_10_overweight_verdicts():
    names = ("U0", "U1", "U2")
    weights = (4, 6, 13)
    expected = P("U1^2 - U0^3", names)
    cases = [("U1^2 - U0^3 + U2", True),    # extra weight 13 > 12
             ("U1^2 - U0^3 + U0", False),   # extra weight 4 < 12
             ("U1^2 - U0^3", True)]         # empty deformation
    verdicts = overweight_check(OverweightDeformation(
        weights=weights,
        series=tuple(P(t, names) for t, _ in cases),
        expected_initials=(expected,) * 3))
    ok = [v.ok for v in verdicts] == [want for _, want in cases]
    ok &= weight(P("0", names), weights) == float("inf")
    _report(10, ok, "overweight verdicts PASS/FAIL/PASS and weight(0) = inf")


def test_criterion_11_reproducibility(tmp_path):
    from singlab.cli import run_manifest
    manifest = {
        "schema": "singlab-manifest/1",
        "seed": 12,
        "jobs": [
            {"kind": "unfolding", "germ": "z^3",
             "tasks": [{"op": "analyze"}, {"op": "verify-identity"},
                       {"op": "degree-scan", "samples": 8},
                       {"op": "euler-check", "t": ["-1/2"]},
                       {"op": "discriminant"},
                       {"op": "cerf",
                        "path": [["-1/2"], ["1/2"]], "steps": 24}]},
            {"kind": "branch", "x_exponent": 4, "y": [[6, "1"], [7, "1"]],
             "tasks": [{"op": "semigroup"}, {"op": "toric-ideal"},
                       {"op": "toric-resolve"},
                       {"op": "strict-transform"}]},
            {"kind": "overweight", "weights": [4, 6, 13],
             "variables": ["U0", "U1", "U2"],
             "series": ["U1^2 - U0^3 + U2"],
             "expected": ["U1^2 - U0^3"],
             "tasks": [{"op": "check"}]},
        ],
    }
    blobs = []
    for name in ("first", "second"):
        doc = json.loads(json.dumps(manifest))
        doc["outputs"] = {"report": str(tmp_path / f"{name}.json"),
                          "csv": str(tmp_path / f"{name}.csv")}
        _, ok = run_manifest(doc)
        assert ok
        blobs.append(((tmp_path / f"{name}.json").read_bytes(),
                      (tmp_path / f"{name}.csv").read_bytes()))
    ok = blobs[0] == blobs[1]
    _report(11, ok, "identical manifest + seed reproduce byte-identical "
                    "JSON and CSV reports")
