"""Command-line front end and manifest runner.

Every command prints one JSON document to stdout (suppress with --quiet)
and exits 0 on success, 1 on a domain error (reported as a JSON error
object), 2 on bad input or manifest validation failure, and 3 when a
verification command ran fine but its verdict is negative.  The manifest
runner executes a batch of jobs and writes byte-deterministic reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import figures, serialize
from .discriminant import (cerf_trace, equal_level_search,
                           exact_discriminant_1d, maxwell_scan, slice_sample)
from .errors import InvalidInput, ManifestError, SinglabError
from .milnor import analyze_germ, unfold_germ
from .morselab import (DEFAULT_BOX_RADIUS, DEFAULT_DELTA, DEFAULT_MARGIN,
                       ParameterPoint, degree_invariance_scan,
                       euler_fiber_check, herman_probe, morse_report)
from .poly import infer_variables, parse_polynomial
from .critmap import verify_jacobian_identity
from .semitoric import (OverweightDeformation, PlaneBranch, branch_embedding,
                        branch_semigroup, characteristic_exponents,
                        overweight_check, resolve_monomial_curve,
                        semigroup_from_generators, toric_ideal,
                        verify_strict_transform)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_FAILED = 3


# -- small parsers -----------------------------------------------------------

def _germ(text: str, variables: str | None):
    names = tuple(v.strip() for v in variables.split(",")) if variables \
        else infer_variables(text)
    if not names:
        raise SinglabError(f"no variables found in germ {text!r}")
    return parse_polynomial(text, names)


def _fractions(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(x.strip()) for x in text.split(","))


def _point(text: str) -> ParameterPoint:
    return ParameterPoint(_fractions(text))


def _path(text: str) -> list[ParameterPoint]:
    return [_point(chunk) for chunk in text.split(";") if chunk.strip()]


def _y_terms(text: str) -> tuple[tuple[int, Fraction], ...]:
    """'6:1,7:1' -> ((6, 1), (7, 1))."""
    out = []
    for chunk in text.split(","):
        e, _, c = chunk.partition(":")
        try:
            out.append((int(e.strip()), Fraction(c.strip() or "1")))
        except (ValueError, ZeroDivisionError):
            raise InvalidInput(f"y term {chunk!r} is not exponent:rational")
    return tuple(out)


def _branch(args) -> PlaneBranch:
    if args.x_exponent is None or args.y is None:
        raise InvalidInput("give --generators, or --x-exponent and --y")
    return PlaneBranch(x_exponent=args.x_exponent, y_terms=_y_terms(args.y))


# -- command handlers --------------------------------------------------------
# each returns (payload, ok); ok=False means a negative verdict, not an error

def cmd_analyze(args):
    a = analyze_germ(_germ(args.germ, args.variables))
    return serialize.jsonable(a), True


def cmd_unfold(args):
    u = unfold_germ(_germ(args.germ, args.variables))
    return {
        "germ": str(u.analysis.f),
        "mu": u.mu,
        "deformation_monomials": [str(g) for g in u.deformation_monomials],
        "parameter_names": list(u.parameter_names),
        "F": str(u.F),
    }, True


def cmd_verify_identity(args):
    u = unfold_germ(_germ(args.germ, args.variables))
    report = verify_jacobian_identity(u)
    return serialize.jsonable(report), report.ok


def cmd_morse(args):
    u = unfold_germ(_germ(args.germ, args.variables))
    report = morse_report(u, _point(args.t), Fraction(args.box_radius),
                          Fraction(args.margin))
    return serialize.jsonable(report), True


def cmd_degree_scan(args):
    u = unfold_germ(_germ(args.germ, args.variables))
    report = degree_invariance_scan(
        u, args.samples, Fraction(args.delta), args.seed,
        Fraction(args.box_radius))
    if args.csv:
        Path(args.csv).write_text(_scan_csv(report))
    return serialize.jsonable(report), True


def _scan_csv(report) -> str:
    dim = len(report.samples[0]["t"]) if report.samples else 0
    n = len(report.samples[0]["counts"]) - 1 if report.samples else 0
    header = ([f"t{k + 1}" for k in range(dim)]
              + [f"N{i}" for i in range(n + 1)] + ["alt_sum"])
    lines = [",".join(header)]
    for row in report.samples:
        lines.append(",".join(row["t"] + [str(c) for c in row["counts"]]
                              + [str(row["alt_sum"])]))
    return "\n".join(lines) + "\n"


def cmd_euler_check(args):
    u = unfold_germ(_germ(args.germ, args.variables))
    report = euler_fiber_check(u, _point(args.t), Fraction(args.box_radius))
    return serialize.jsonable(report), report.ok


def cmd_herman_probe(args):
    u = unfold_germ(_germ(args.germ, args.variables))
    witness = herman_probe(u, args.budget, Fraction(args.delta), args.seed,
                           Fraction(args.box_radius))
    return {"witness": serialize.jsonable(witness)}, True


def cmd_discriminant(args):
    u = unfold_germ(_germ(args.germ, args.variables))
    curve = exact_discriminant_1d(u)
    return {"discriminant": str(curve.poly),
            "variables": list(curve.poly.variables)}, True


def cmd_cerf(args):
    u = unfold_germ(_germ(args.germ, args.variables))
    trace = cerf_trace(u, _path(args.path), args.steps,
                       Fraction(args.box_radius), Fraction(args.delta),
                       Fraction(args.hessian_tol))
    if args.svg:
        Path(args.svg).write_text(figures.cerf_svg(trace))
    if args.csv:
        Path(args.csv).write_text(_cerf_csv(trace))
    payload = {
        "steps": trace.steps,
        "events": serialize.jsonable(trace.events),
        "counts": [len(r.points) if r is not None else None
                   for r in trace.samples],
    }
    return payload, True


def _cerf_csv(trace) -> str:
    lines = ["step,s,values,indices"]
    for j, (s, rep) in enumerate(zip(trace.s_values, trace.samples)):
        if rep is None:
            lines.append(f"{j},{s},,")
            continue
        vals = ";".join(f"{float(p.value.mid()):.12g}" for p in rep.points)
        idxs = ";".join(str(p.index) for p in rep.points)
        lines.append(f"{j},{s},{vals},{idxs}")
    return "\n".join(lines) + "\n"


def cmd_maxwell(args):
    u = unfold_germ(_germ(args.germ, args.variables))
    segments = [tuple(_path(args.segment))] if args.segment else None
    points = maxwell_scan(u, args.samples, Fraction(args.delta), args.seed,
                          Fraction(args.tol), Fraction(args.box_radius),
                          segments)
    return {"points": serialize.jsonable(points)}, True


def cmd_equal_level(args):
    u = unfold_germ(_germ(args.germ, args.variables))
    witness = equal_level_search(u, args.index, args.budget,
                                 Fraction(args.tol), Fraction(args.delta),
                                 args.seed, Fraction(args.box_radius))
    return {"witness": serialize.jsonable(witness)}, True


def cmd_slice(args):
    u = unfold_germ(_germ(args.germ, args.variables))
    fixed = {}
    if args.fixed:
        for chunk in args.fixed.split(","):
            k, _, v = chunk.partition("=")
            fixed[k.strip()] = Fraction(v.strip())
    grid = slice_sample(u, args.t_axis, tuple(_fractions(args.lambda_range)),
                        tuple(_fractions(args.t_range)), fixed, args.grid,
                        Fraction(args.box_radius))
    if args.svg:
        Path(args.svg).write_text(figures.slice_svg(grid))
    return serialize.jsonable(grid), True


def cmd_semigroup(args):
    payload = serialize.jsonable(_semigroup_of(args))
    if not args.generators:
        payload["characteristic_exponents"] = \
            characteristic_exponents(_branch(args))
    return payload, True


def _semigroup_of(args):
    if not args.generators:
        return branch_semigroup(_branch(args))
    try:
        gens = [int(x) for x in args.generators.split(",")]
    except ValueError:
        raise InvalidInput(f"generators {args.generators!r} are not integers")
    return semigroup_from_generators(gens)


def cmd_toric_ideal(args):
    ideal = toric_ideal(_semigroup_of(args))
    return {"binomials": [str(p) for p in ideal.binomials],
            "weights": list(ideal.weights),
            "variables": list(ideal.variables)}, True


def cmd_toric_resolve(args):
    cert = resolve_monomial_curve(_semigroup_of(args))
    return {
        "cones": [[list(r) for r in c.rays] for c in cert.fan.cones],
        "chart": cert.chart,
        "chart_rays": [list(r) for r in cert.chart_cone().rays],
        "exponents": list(cert.exponents),
        "gamma": list(cert.gamma),
    }, True


def cmd_strict_transform(args):
    gamma, xi = branch_embedding(_branch(args))
    cert = resolve_monomial_curve(gamma)
    report = verify_strict_transform(xi, gamma, cert)
    payload = serialize.jsonable(report)
    payload["generators"] = list(gamma.minimal_generators)
    return payload, report.ok


def cmd_overweight(args):
    names = tuple(v.strip() for v in args.variables.split(","))
    weights = tuple(int(x) for x in args.weights.split(","))
    series = tuple(parse_polynomial(s, names) for s in args.series)
    expected = tuple(parse_polynomial(s, names) for s in args.expected)
    if len(series) != len(expected):
        raise SinglabError("need one expected initial per series")
    verdicts = overweight_check(OverweightDeformation(
        weights=weights, series=series, expected_initials=expected))
    ok = all(v.ok for v in verdicts)
    return {"verdicts": serialize.jsonable(verdicts), "ok": ok}, ok


# -- manifest runner ---------------------------------------------------------

SCHEMA = "singlab-manifest/1"

_UNFOLDING_OPS = {"analyze", "unfold", "verify-identity", "morse",
                  "degree-scan", "euler-check", "herman-probe",
                  "discriminant", "cerf", "maxwell", "equal-level"}
_CURVE_OPS = {"semigroup", "toric-ideal", "toric-resolve",
              "strict-transform"}


def _require(cond, message, field):
    if not cond:
        raise ManifestError(message, field=field)


def _validate_manifest(doc) -> None:
    _require(isinstance(doc, dict), "manifest must be a JSON object", "$")
    _require(doc.get("schema") == SCHEMA,
             f"schema must be {SCHEMA!r}", "schema")
    _require(isinstance(doc.get("jobs"), list) and doc["jobs"],
             "jobs must be a non-empty list", "jobs")
    if "seed" in doc:
        _require(isinstance(doc["seed"], int), "seed must be an integer",
                 "seed")
    outputs = doc.get("outputs", {})
    _require(isinstance(outputs, dict), "outputs must be an object",
             "outputs")
    for key in outputs:
        _require(key in ("report", "csv"),
                 f"unknown output {key!r}", f"outputs.{key}")
    for j, job in enumerate(doc["jobs"]):
        where = f"jobs[{j}]"
        _require(isinstance(job, dict), "job must be an object", where)
        kind = job.get("kind")
        _require(kind in ("unfolding", "branch", "semigroup", "overweight"),
                 f"unknown job kind {kind!r}", f"{where}.kind")
        tasks = job.get("tasks")
        _require(isinstance(tasks, list) and tasks,
                 "tasks must be a non-empty list", f"{where}.tasks")
        if kind == "unfolding":
            _require(isinstance(job.get("germ"), str), "germ must be a string",
                     f"{where}.germ")
            for key in ("box_radius", "delta"):
                if key in job:
                    try:
                        value = serialize.parse_rational(job[key])
                    except (ValueError, ZeroDivisionError):
                        raise ManifestError(f"{key} must be a rational",
                                            field=f"{where}.{key}")
                    _require(value > 0, f"{key} must be positive",
                             f"{where}.{key}")
            allowed = _UNFOLDING_OPS
        elif kind == "branch":
            _require(isinstance(job.get("x_exponent"), int),
                     "x_exponent must be an integer", f"{where}.x_exponent")
            _require(isinstance(job.get("y"), list),
                     "y must be a list of [exponent, coefficient] pairs",
                     f"{where}.y")
            for k, pair in enumerate(job["y"]):
                try:  # the conversions the runner makes
                    e, c = pair
                    int(e), serialize.parse_rational(c)
                except (TypeError, ValueError, ZeroDivisionError):
                    raise ManifestError(
                        "y term must be an [exponent, coefficient] pair",
                        field=f"{where}.y[{k}]")
            allowed = _CURVE_OPS
        elif kind == "semigroup":
            gens = job.get("generators")
            _require(isinstance(gens, list)
                     and all(isinstance(g, int) for g in gens),
                     "generators must be a list of integers",
                     f"{where}.generators")
            allowed = _CURVE_OPS - {"strict-transform"}
        else:  # overweight
            for key in ("weights", "variables", "series", "expected"):
                _require(isinstance(job.get(key), list),
                         f"{key} must be a list", f"{where}.{key}")
            _require(len(job["series"]) == len(job["expected"]),
                     "series and expected must have the same length",
                     f"{where}.series")
            allowed = {"check"}
        for k, task in enumerate(tasks):
            twhere = f"{where}.tasks[{k}]"
            _require(isinstance(task, dict), "task must be an object", twhere)
            op = task.get("op")
            _require(op in allowed,
                     f"op {op!r} not valid for a {kind} job", f"{twhere}.op")
            if op == "morse" or op == "euler-check":
                _require(isinstance(task.get("t"), list),
                         "t must be a list of rationals", f"{twhere}.t")
            if op == "degree-scan":
                _require(isinstance(task.get("samples"), int)
                         and task["samples"] >= 2,
                         "samples must be an integer >= 2",
                         f"{twhere}.samples")
            if op == "cerf":
                _require(isinstance(task.get("path"), list)
                         and len(task["path"]) >= 2,
                         "path must be a list of at least 2 points",
                         f"{twhere}.path")
            if op == "equal-level":
                _require(isinstance(task.get("index"), int),
                         "index must be an integer", f"{twhere}.index")


def _manifest_point(raw) -> ParameterPoint:
    return ParameterPoint(tuple(serialize.parse_rational(x) for x in raw))


def _run_unfolding_task(u, task, seed, box_radius, delta):
    op = task["op"]
    if op == "analyze":
        return serialize.jsonable(u.analysis), True
    if op == "unfold":
        return {"F": str(u.F),
                "parameter_names": list(u.parameter_names)}, True
    if op == "verify-identity":
        report = verify_jacobian_identity(u)
        return serialize.jsonable(report), report.ok
    if op == "morse":
        report = morse_report(u, _manifest_point(task["t"]), box_radius)
        return serialize.jsonable(report), True
    if op == "degree-scan":
        report = degree_invariance_scan(
            u, task["samples"], delta, task.get("seed", seed), box_radius)
        return serialize.jsonable(report), True
    if op == "euler-check":
        report = euler_fiber_check(u, _manifest_point(task["t"]), box_radius)
        return serialize.jsonable(report), report.ok
    if op == "herman-probe":
        witness = herman_probe(u, task.get("budget", 100), delta,
                               task.get("seed", seed), box_radius)
        return {"witness": serialize.jsonable(witness)}, True
    if op == "discriminant":
        return {"discriminant": str(exact_discriminant_1d(u).poly)}, True
    if op == "cerf":
        path = [_manifest_point(p) for p in task["path"]]
        trace = cerf_trace(u, path, task.get("steps", 32), box_radius, delta)
        if task.get("svg"):
            Path(task["svg"]).write_text(figures.cerf_svg(trace))
        unresolved = [e for e in trace.events if e.kind == "unresolved"]
        return {"events": serialize.jsonable(trace.events)}, not unresolved
    if op == "maxwell":
        segments = None
        if "segments" in task:
            segments = [tuple(_manifest_point(p) for p in seg)
                        for seg in task["segments"]]
        points = maxwell_scan(u, task.get("samples", 50), delta,
                              task.get("seed", seed),
                              box_radius=box_radius, segments=segments)
        return {"points": serialize.jsonable(points)}, True
    if op == "equal-level":
        witness = equal_level_search(u, task["index"],
                                     task.get("budget", 200),
                                     delta=delta, seed=task.get("seed", seed),
                                     box_radius=box_radius)
        return {"witness": serialize.jsonable(witness)}, True
    raise ManifestError(f"unhandled op {op!r}")


def _run_curve_task(job, task):
    op = task["op"]
    if job["kind"] == "branch":
        branch = PlaneBranch(
            x_exponent=job["x_exponent"],
            y_terms=tuple((int(e), serialize.parse_rational(c))
                          for e, c in job["y"]))
        gamma = branch_semigroup(branch)
    else:
        branch = None
        gamma = semigroup_from_generators(job["generators"])
    if op == "semigroup":
        payload = serialize.jsonable(gamma)
        if branch is not None:
            payload["characteristic_exponents"] = \
                characteristic_exponents(branch)
        return payload, True
    if op == "toric-ideal":
        ideal = toric_ideal(gamma)
        return {"binomials": [str(p) for p in ideal.binomials],
                "weights": list(ideal.weights)}, True
    if op == "toric-resolve":
        cert = resolve_monomial_curve(gamma)
        return {"chart_rays": [list(r) for r in cert.chart_cone().rays],
                "exponents": list(cert.exponents),
                "cone_count": len(cert.fan.cones)}, True
    if op == "strict-transform":
        gamma, xi = branch_embedding(branch)
        cert = resolve_monomial_curve(gamma)
        report = verify_strict_transform(xi, gamma, cert)
        return serialize.jsonable(report), report.ok
    raise ManifestError(f"unhandled op {op!r}")


def _run_overweight_task(job):
    names = tuple(job["variables"])
    series = tuple(parse_polynomial(s, names) for s in job["series"])
    expected = tuple(parse_polynomial(s, names) for s in job["expected"])
    verdicts = overweight_check(OverweightDeformation(
        weights=tuple(job["weights"]), series=series,
        expected_initials=expected))
    ok = all(v.ok for v in verdicts)
    return {"verdicts": serialize.jsonable(verdicts)}, ok


def run_manifest(doc: dict) -> tuple[dict, bool]:
    """Execute a validated manifest; returns (report, all assertions pass)."""
    _validate_manifest(doc)
    seed = doc.get("seed", 0)
    report = {"schema": SCHEMA, "seed": seed, "jobs": []}
    all_ok = True
    csv_blocks = []
    for j, job in enumerate(doc["jobs"]):
        kind = job["kind"]
        job_out = {"kind": kind, "tasks": []}
        if kind == "unfolding":
            u = unfold_germ(_germ(job["germ"], ",".join(job["variables"])
                                  if job.get("variables") else None))
            job_out["germ"] = str(u.analysis.f)
            box_radius = serialize.parse_rational(
                job.get("box_radius", DEFAULT_BOX_RADIUS))
            delta = serialize.parse_rational(job.get("delta", DEFAULT_DELTA))
        for k, task in enumerate(job["tasks"]):
            op = task["op"]
            try:
                if kind == "unfolding":
                    payload, ok = _run_unfolding_task(
                        u, task, seed, box_radius, delta)
                elif kind == "overweight":
                    payload, ok = _run_overweight_task(job)
                else:
                    payload, ok = _run_curve_task(job, task)
            except SinglabError as exc:
                payload = {"error": {"type": type(exc).__name__,
                                     "message": str(exc)}}
                ok = False
            job_out["tasks"].append({"op": op, "ok": ok, "result": payload})
            all_ok = all_ok and ok
            if op == "degree-scan" and "samples" in payload:
                csv_blocks.append((j, payload))
        report["jobs"].append(job_out)
    report["ok"] = all_ok
    outputs = doc.get("outputs", {})
    if outputs.get("report"):
        Path(outputs["report"]).write_text(serialize.dumps(report))
    if outputs.get("csv"):
        Path(outputs["csv"]).write_text(_manifest_csv(csv_blocks))
    return report, all_ok


def _manifest_csv(blocks) -> str:
    lines = ["job,sample,t,counts,alt_sum"]
    for j, payload in blocks:
        for i, row in enumerate(payload["samples"]):
            lines.append(",".join([
                str(j), str(i),
                ";".join(row["t"]),
                ";".join(str(c) for c in row["counts"]),
                str(row["alt_sum"]),
            ]))
    return "\n".join(lines) + "\n"


def cmd_run(args):
    try:
        doc = json.loads(Path(args.manifest).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"cannot read manifest: {exc}")
    report, ok = run_manifest(doc)
    return report, ok


# -- argument parsing --------------------------------------------------------

def _add_germ_options(p):
    p.add_argument("germ", help="polynomial germ, e.g. 'z^3' or 'z^3+w^4'")
    p.add_argument("--variables", default=None,
                   help="comma-separated variable names (default: inferred)")
    p.add_argument("--box-radius", default="4",
                   help="working box half-width in z (rational)")


def _add_curve_source(p):
    p.add_argument("--generators", default=None,
                   help="comma-separated semigroup generators, e.g. 4,6,13")
    p.add_argument("--x-exponent", type=int, default=None,
                   help="branch x = t^k exponent")
    p.add_argument("--y", default=None,
                   help="branch y terms as exponent:coefficient pairs, "
                        "e.g. '6:1,7:1'")


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="singlab",
        description="desk-scale singularity laboratory")
    root.add_argument("--quiet", action="store_true",
                      help="suppress the JSON report on stdout")
    root.add_argument("--seed", type=int, default=0,
                      help="seed for all randomized commands")
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="Milnor data of a germ")
    _add_germ_options(p)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("unfold", help="miniversal unfolding of a germ")
    _add_germ_options(p)
    p.set_defaults(handler=cmd_unfold)

    p = sub.add_parser("verify-identity",
                       help="exact jacobian/hessian identity check")
    _add_germ_options(p)
    p.set_defaults(handler=cmd_verify_identity)

    p = sub.add_parser("morse", help="certified critical points of F_t")
    _add_germ_options(p)
    p.add_argument("--t", required=True, help="parameter point, e.g. '1/2,-1'")
    p.add_argument("--margin", default="1/1000000000",
                   help="hessian degeneracy margin (rational)")
    p.set_defaults(handler=cmd_morse)

    p = sub.add_parser("degree-scan",
                       help="alternating-sum invariance over random samples")
    _add_germ_options(p)
    p.add_argument("--samples", type=int, default=40)
    p.add_argument("--delta", default="1", help="parameter box half-width")
    p.add_argument("--csv", default=None, help="write per-sample rows here")
    p.set_defaults(handler=cmd_degree_scan)

    p = sub.add_parser("euler-check",
                       help="Euler characteristic fiber relation (n = 1)")
    _add_germ_options(p)
    p.add_argument("--t", required=True)
    p.set_defaults(handler=cmd_euler_check)

    p = sub.add_parser("herman-probe",
                       help="search for a parameter with no critical point")
    _add_germ_options(p)
    p.add_argument("--budget", type=int, default=100)
    p.add_argument("--delta", default="1")
    p.set_defaults(handler=cmd_herman_probe)

    p = sub.add_parser("discriminant",
                       help="exact discriminant curve (n = 1)")
    _add_germ_options(p)
    p.set_defaults(handler=cmd_discriminant)

    p = sub.add_parser("cerf", help="critical values along a parameter path")
    _add_germ_options(p)
    p.add_argument("--path", required=True,
                   help="breakpoints, e.g. '-1/2,0;1/2,0'")
    p.add_argument("--steps", type=int, default=32)
    p.add_argument("--delta", default="1")
    p.add_argument("--hessian-tol", default="1/1000000")
    p.add_argument("--svg", default=None, help="write the trace figure here")
    p.add_argument("--csv", default=None,
                   help="write per-step critical values here")
    p.set_defaults(handler=cmd_cerf)

    p = sub.add_parser("maxwell", help="scan for equal-minima parameters")
    _add_germ_options(p)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--segment", default=None,
                   help="explicit segment 'a1,a2;b1,b2' instead of sampling")
    p.add_argument("--delta", default="1")
    p.add_argument("--tol", default="1/100000000")
    p.set_defaults(handler=cmd_maxwell)

    p = sub.add_parser("equal-level",
                       help="search for equal index-i critical values")
    _add_germ_options(p)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--delta", default="1")
    p.add_argument("--tol", default="1/100000000")
    p.set_defaults(handler=cmd_equal_level)

    p = sub.add_parser("slice",
                       help="fiber root counts over a (lambda, t) slice")
    _add_germ_options(p)
    p.add_argument("--t-axis", required=True)
    p.add_argument("--lambda-range", required=True, help="e.g. '-2,2'")
    p.add_argument("--t-range", required=True, help="e.g. '-1,1'")
    p.add_argument("--fixed", default=None, help="e.g. 't2=-1/2'")
    p.add_argument("--grid", type=int, default=32)
    p.add_argument("--svg", default=None)
    p.set_defaults(handler=cmd_slice)

    p = sub.add_parser("semigroup",
                       help="numerical semigroup from generators or a branch")
    _add_curve_source(p)
    p.set_defaults(handler=cmd_semigroup)

    p = sub.add_parser("toric-ideal", help="binomial kernel of U_i -> T^g_i")
    _add_curve_source(p)
    p.set_defaults(handler=cmd_toric_ideal)

    p = sub.add_parser("toric-resolve",
                       help="unimodular fan with the generator ray")
    _add_curve_source(p)
    p.set_defaults(handler=cmd_toric_resolve)

    p = sub.add_parser("strict-transform",
                       help="smoothness of the branch in the resolved chart")
    p.add_argument("--x-exponent", type=int, required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(handler=cmd_strict_transform)

    p = sub.add_parser("overweight",
                       help="initial-form check of a deformation")
    p.add_argument("--variables", required=True, help="e.g. 'y0,y1,y2'")
    p.add_argument("--weights", required=True, help="e.g. '4,6,13'")
    p.add_argument("--series", action="append", required=True,
                   help="deformed equation (repeatable)")
    p.add_argument("--expected", action="append", required=True,
                   help="expected initial binomial (repeatable)")
    p.set_defaults(handler=cmd_overweight)

    p = sub.add_parser("run", help="execute a JSON manifest")
    p.add_argument("manifest")
    p.set_defaults(handler=cmd_run)

    return root


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, ok = args.handler(args)
    except SinglabError as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        if isinstance(exc, ManifestError):
            error["error"]["field"] = exc.field
        if not args.quiet:
            sys.stdout.write(serialize.dumps(error))
        return EXIT_USAGE if isinstance(exc, InvalidInput) else EXIT_ERROR
    if not args.quiet:
        sys.stdout.write(serialize.dumps(payload))
    return EXIT_OK if ok else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
