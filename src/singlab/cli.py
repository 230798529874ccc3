"""Command-line front end and manifest runner.

Every command prints one JSON document (suppress with --quiet) and exits
0 on success, 1 on a domain error (a JSON error object), 2 on bad input
or manifest validation failure, and 3 on a negative verdict.

Each op is defined once, in ``OPS``: the job kinds (``KINDS``) whose
source it runs on, its fields (name, converter, default, lower bound),
and a runner from the resolved source and a dict of field values to
``(payload, ok)``.  The flags (``box_radius`` is ``--box-radius``) and
the manifest checks are derived from the fields; both front ends call
the same runner.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from . import figures, serialize
from .critmap import verify_jacobian_identity
from .discriminant import (cerf_trace, equal_level_search,
                           exact_discriminant_1d, maxwell_scan, slice_sample)
from .errors import InvalidInput, ManifestError, SinglabError
from .milnor import unfold_germ
from .morselab import (ParameterPoint, degree_invariance_scan,
                       euler_fiber_check, herman_probe, morse_report)
from .poly import infer_variables, parse_polynomial
from .semitoric import (OverweightDeformation, PlaneBranch, branch_embedding,
                        branch_semigroup, characteristic_exponents,
                        overweight_check, resolve_monomial_curve,
                        semigroup_from_generators, toric_ideal,
                        verify_strict_transform)

EXIT_OK, EXIT_ERROR, EXIT_USAGE, EXIT_FAILED = 0, 1, 2, 3
SCHEMA = "singlab-manifest/1"
REQUIRED = object()


# -- converters: command-line text or manifest JSON -> value -----------------
# a bad value raises ManifestError, its field the bad part's place: "" or "[1]"

def _bad(raw, what):
    return ManifestError(f"{raw!r} is not {what}", field="")


def _text(raw) -> str:
    if not isinstance(raw, str):
        raise _bad(raw, "a string")
    return raw.strip()


def _path(raw) -> str:
    if not (text := _text(raw)):  # an empty path would write nothing
        raise _bad(raw, "a file path")
    return text


def _integer(raw) -> int:
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    try:
        return int(_text(raw))
    except (ManifestError, ValueError):
        raise _bad(raw, "an integer") from None


def _rational(raw) -> Fraction:
    try:
        if isinstance(raw, (int, float, str)) and not isinstance(raw, bool):
            return Fraction(str(raw))
    except (ValueError, ZeroDivisionError):
        pass
    raise _bad(raw, "a rational")


def _margin(raw) -> Fraction:
    if (value := _rational(raw)) < 0:  # 0 is a margin, below it is none
        raise _bad(raw, "at least 0")
    return value


def _seq(item, sep=",", least=1, most=None):
    """A list of items; on the command line, text split at sep."""
    def convert(raw):
        if isinstance(raw, str):
            raw = [part for part in raw.split(sep) if part.strip()]
        if not isinstance(raw, list) or \
                not least <= len(raw) <= (most or len(raw)):
            raise _bad(raw, f"a list of {least}{'' if most else '+'} items")
        out = []
        for k, part in enumerate(raw):
            try:
                out.append(item(part))
            except ManifestError as exc:
                raise ManifestError(str(exc), field=f"[{k}]{exc.field}")
        return tuple(out)
    return convert


def _pair(key, sep, default=None):
    """'k<sep>v' or [k, v] as (key(k), rational v)."""
    def convert(raw):
        if isinstance(raw, str):
            k, _, v = raw.partition(sep)
            raw = [k, v.strip() or default]
        if not (isinstance(raw, list) and len(raw) == 2):
            raise _bad(raw, "a [key, value] pair")
        return key(raw[0]), _rational(raw[1])
    return convert


def _point(raw) -> ParameterPoint:
    # empty for a germ with mu = 1, whose unfolding has no parameter
    return ParameterPoint(_seq(_rational, least=0)(raw))


@dataclass(frozen=True)
class Field:
    """One input of an op, a flag on the command line and a manifest key."""

    name: str  # the flag is --name-with-dashes
    convert: Callable = _text
    default: object = None  # command-line text; None means optional
    low: object = None      # values must be above it
    help: str | None = None
    positional: bool = False
    repeated: bool = False

    def value(self, raw):
        """raw converted; a bad one raises ManifestError at its field."""
        raw = self.default if raw is None else raw
        if raw is REQUIRED:
            raise ManifestError(f"{self.name} is required", field=self.name)
        try:
            value = None if raw is None else self.convert(raw)
            if self.low is not None and value <= self.low:
                raise _bad(raw, f"above {self.low}")
        except ManifestError as exc:
            raise ManifestError(str(exc), field=self.name + exc.field)
        return value


# -- sources: the job kinds ---------------------------------------------------

def _parse(text: str, names, field: str):
    try:
        if not names:
            raise InvalidInput(f"no variables found in {text!r}")
        return parse_polynomial(text, names)
    except InvalidInput as exc:
        raise ManifestError(str(exc), field=field) from None


def _deformation(v) -> OverweightDeformation:
    if len(v["series"]) != len(v["expected"]):
        raise ManifestError("need one expected initial per series",
                            field="series")
    series, expected = (
        tuple(_parse(text, v["variables"], f"{key}[{k}]")
              for k, text in enumerate(v[key]))
        for key in ("series", "expected"))
    return OverweightDeformation(v["weights"], series, expected)


class Kind(NamedTuple):
    fields: tuple[Field, ...]
    parse: Callable = lambda v: v  # field values -> source; bad input raises
    build: Callable = lambda s: s  # source -> resolved; domain errors raise


KINDS = {
    "unfolding": Kind(
        (Field("germ", default=REQUIRED, positional=True,
               help="polynomial germ, e.g. 'z^3' or 'z^3+w^4'"),
         Field("variables", _seq(_text), help="e.g. 'z,w'; else inferred")),
        lambda v: _parse(v["germ"], v["variables"]
                         or infer_variables(v["germ"]), "germ"),
        unfold_germ),
    "semigroup": Kind(
        (Field("generators", _seq(_integer), REQUIRED, help="e.g. 4,6,13"),),
        build=lambda v: (semigroup_from_generators(v["generators"]), None)),
    "branch": Kind(
        (Field("x_exponent", _integer, REQUIRED, low=0,
               help="the k of x = t^k"),
         Field("y", _seq(_pair(_integer, ":", "1")), REQUIRED,
               help="branch y terms exponent:coefficient, e.g. '6:1,7:1'")),
        lambda v: PlaneBranch(x_exponent=v["x_exponent"], y_terms=v["y"]),
        lambda branch: (branch_semigroup(branch), branch)),
    "overweight": Kind(
        (Field("variables", _seq(_text), REQUIRED, help="e.g. 'y0,y1,y2'"),
         Field("weights", _seq(_integer), REQUIRED, help="e.g. '4,6,13'"),
         Field("series", _seq(_text), REQUIRED, repeated=True,
               help="deformed equation (repeatable)"),
         Field("expected", _seq(_text), REQUIRED, repeated=True,
               help="expected initial binomial (repeatable)")),
        _deformation),
}
_SEED = Field("seed", _integer, 0)


# -- runners: (resolved source, field values) -> (payload, ok) ----------------

def _report(report, **extra):
    return {**serialize.jsonable(report), **extra}, getattr(report, "ok", True)


def _write(path, render, obj, field=None) -> None:
    """render(obj) into the file at path, if given.  A failed write is
    InvalidInput, a ManifestError at field when one is named."""
    if path:
        try:
            Path(path).write_text(render(obj))
        except OSError as exc:
            message = f"cannot write {path}: {exc.strerror or exc}"
            raise (InvalidInput(message) if field is None
                   else ManifestError(message, field=field)) from None


def _unfold(u, v):
    return {"germ": str(u.analysis.f), "mu": u.mu, "F": str(u.F),
            "deformation_monomials": [str(g) for g in u.deformation_monomials],
            "parameter_names": list(u.parameter_names)}, True


def _degree_scan(u, v):
    report = degree_invariance_scan(u, v["samples"], v["delta"], v["seed"],
                                    v["box_radius"])
    _write(v["csv"], _scan_csv, report)
    return _report(report)


def _scan_csv(report) -> str:
    first = report.samples[0] if report.samples else {"t": [], "counts": [0]}
    lines = [",".join([f"t{k + 1}" for k in range(len(first["t"]))]
                      + [f"N{i}" for i in range(len(first["counts"]))]
                      + ["alt_sum"])]
    for row in report.samples:
        lines.append(",".join(row["t"] + [str(c) for c in row["counts"]]
                              + [str(row["alt_sum"])]))
    return "\n".join(lines) + "\n"


def _discriminant(u, v):
    poly = exact_discriminant_1d(u).poly
    return {"discriminant": str(poly), "variables": list(poly.variables)}, True


def _cerf(u, v):
    trace = cerf_trace(u, list(v["path"]), v["steps"], v["box_radius"],
                       v["delta"], v["hessian_tol"])
    _write(v["svg"], figures.cerf_svg, trace)
    _write(v["csv"], _cerf_csv, trace)
    return {"steps": trace.steps, "events": serialize.jsonable(trace.events),
            "certified": trace.certified,
            "counts": [len(r.points) if r is not None else None
                       for r in trace.samples]}, \
        not any(e.kind == "unresolved" for e in trace.events)


def _cerf_csv(trace) -> str:
    lines = ["step,s,values,indices"]
    for j, (s, rep) in enumerate(zip(trace.s_values, trace.samples)):
        points = rep.points if rep is not None else []
        vals = ";".join(f"{float(p.value.mid()):.12g}" for p in points)
        idxs = ";".join(str(p.index) for p in points)
        lines.append(f"{j},{s},{vals},{idxs}")
    return "\n".join(lines) + "\n"


def _slice(u, v):
    grid = slice_sample(u, v["t_axis"], v["lambda_range"], v["t_range"],
                        dict(v["fixed"] or ()), v["grid"], v["box_radius"])
    _write(v["svg"], figures.slice_svg, grid)
    return _report(grid)


def _semigroup(curve, v):
    gamma, branch = curve
    return _report(gamma, **({} if branch is None else {
        "characteristic_exponents": characteristic_exponents(branch)}))


def _toric_ideal(curve, v):
    ideal = toric_ideal(curve[0])
    return {"binomials": [str(p) for p in ideal.binomials],
            "weights": list(ideal.weights),
            "variables": list(ideal.variables)}, True


def _toric_resolve(curve, v):
    cert = resolve_monomial_curve(curve[0])
    return {"cones": [[list(r) for r in c.rays] for c in cert.fan.cones],
            "chart": cert.chart, "gamma": list(cert.gamma),
            "chart_rays": [list(r) for r in cert.chart_cone().rays],
            "exponents": list(cert.exponents)}, True


def _strict_transform(curve, v):
    gamma, xi = branch_embedding(curve[1])
    report = verify_strict_transform(xi, gamma, resolve_monomial_curve(gamma))
    return _report(report, generators=list(gamma.minimal_generators))


def _overweight(deformation, v):
    verdicts = overweight_check(deformation)
    ok = all(verdict.ok for verdict in verdicts)
    return {"verdicts": serialize.jsonable(verdicts), "ok": ok}, ok


# -- the op table -------------------------------------------------------------

class Op(NamedTuple):
    help: str
    kinds: tuple[str, ...]  # in the order the command line tries them
    run: Callable
    fields: tuple[Field, ...] = ()


_BOX_RADIUS = Field("box_radius", _rational, "4", low=0,
                    help="working box half-width in z (rational)")
_DELTA = Field("delta", _rational, "1", low=0, help="parameter box radius")
_T = Field("t", _point, REQUIRED, help="parameter point, e.g. '1/2,-1'")
_TOL = Field("tol", _rational, "1/100000000", low=0)
_RANGE = _seq(_rational, ",", 2, 2)
_CURVE = ("semigroup", "branch")


def _germ_op(help, run, *fields):
    return Op(help, ("unfolding",), run, (_BOX_RADIUS,) + fields)


OPS = {
    "analyze": _germ_op("Milnor data of a germ",
                        lambda u, v: _report(u.analysis)),
    "unfold": _germ_op("miniversal unfolding of a germ", _unfold),
    "verify-identity": _germ_op(
        "exact jacobian/hessian identity check",
        lambda u, v: _report(verify_jacobian_identity(u))),
    "morse": _germ_op(
        "certified critical points of F_t", lambda u, v: _report(morse_report(
            u, v["t"], v["box_radius"], v["margin"])),
        _T, Field("margin", _margin, "1/1000000000",
                  help="hessian degeneracy margin (rational)")),
    "degree-scan": _germ_op(
        "alternating-sum invariance over random samples", _degree_scan,
        Field("samples", _integer, "40", low=1), _DELTA,
        Field("csv", _path, help="write per-sample rows here")),
    "euler-check": _germ_op(
        "Euler characteristic fiber relation (n = 1)", lambda u, v: _report(
            euler_fiber_check(u, v["t"], v["box_radius"])), _T),
    "herman-probe": _germ_op(
        "search for a parameter with no critical point",
        lambda u, v: ({"witness": serialize.jsonable(herman_probe(
            u, v["budget"], v["delta"], v["seed"], v["box_radius"]))}, True),
        Field("budget", _integer, "100", low=0), _DELTA),
    "discriminant": _germ_op("exact discriminant (n = 1)", _discriminant),
    "cerf": _germ_op(
        "critical values along a parameter path", _cerf,
        Field("path", _seq(_point, ";", least=2), REQUIRED,
              help="breakpoints, e.g. '-1/2,0;1/2,0'"),
        Field("steps", _integer, "32", low=1), _DELTA,
        Field("hessian_tol", _rational, "1/1000000", low=0),
        Field("svg", _path, help="write the trace figure here"),
        Field("csv", _path, help="write per-step critical values here")),
    "maxwell": _germ_op(
        "scan for equal-minima parameters",
        lambda u, v: ({"points": serialize.jsonable(maxwell_scan(
            u, v["samples"], v["delta"], v["seed"], v["tol"],
            v["box_radius"], v["segment"] and [v["segment"]]))}, True),
        Field("samples", _integer, "50", low=0),
        Field("segment", _seq(_point, ";", 2, 2),
              help="explicit segment 'a1,a2;b1,b2' instead of sampling"),
        _DELTA, _TOL),
    "equal-level": _germ_op(
        "search for equal index-i critical values",
        lambda u, v: ({"witness": serialize.jsonable(equal_level_search(
            u, v["index"], v["budget"], v["tol"], v["delta"], v["seed"],
            v["box_radius"]))}, True),
        Field("index", _integer, REQUIRED),
        Field("budget", _integer, "200", low=0),
        _DELTA, _TOL),
    "slice": _germ_op(
        "fiber root counts over a (lambda, t) slice", _slice,
        Field("t_axis", default=REQUIRED),
        Field("lambda_range", _RANGE, REQUIRED, help="e.g. '-2,2'"),
        Field("t_range", _RANGE, REQUIRED, help="e.g. '-1,1'"),
        Field("fixed", _seq(_pair(_text, "=")), help="e.g. 't2=-1/2'"),
        Field("grid", _integer, "32", low=0), Field("svg", _path)),
    "semigroup": Op("semigroup of generators or a branch", _CURVE, _semigroup),
    "toric-ideal": Op("binomial kernel of U_i -> T^g_i", _CURVE, _toric_ideal),
    "toric-resolve": Op("unimodular fan with the generator ray", _CURVE,
                        _toric_resolve),
    "strict-transform": Op("smoothness of the branch in the resolved chart",
                           ("branch",), _strict_transform),
    "overweight": Op("initial-form check of a deformation", ("overweight",),
                     _overweight),
}
_ALIASES = {"check": "overweight"}  # the manifest's older name


# -- command line -------------------------------------------------------------

def _run_command(op: Op, raw: dict):
    """op on argparse's values, from the first kind whose fields are given."""
    kinds = [KINDS[name] for name in op.kinds]
    kind = next((k for k in kinds if all(
        raw[f.name] is not None for f in k.fields if f.default is REQUIRED)),
        None)
    if kind is None:
        raise InvalidInput("give " + ", or ".join(" and ".join(
            _flag(f) for f in k.fields) for k in kinds))
    try:
        source = kind.parse({f.name: f.value(raw[f.name])
                             for f in kind.fields})
        values = {f.name: f.value(raw[f.name]) for f in op.fields + (_SEED,)}
    except ManifestError as exc:
        raise InvalidInput(f"{exc.field}: {exc}") from None
    return op.run(kind.build(source), values)


def _flag(f: Field) -> str:
    return f.name if f.positional else "--" + f.name.replace("_", "-")


def _run_file(raw: dict):
    try:
        doc = json.loads(Path(raw["manifest"]).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"cannot read manifest: {exc}")
    return run_manifest(doc)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a bad command line is InvalidInput, exit 2
        raise InvalidInput(message)


def build_parser() -> argparse.ArgumentParser:
    root = _Parser(
        prog="singlab", description="desk-scale singularity laboratory")
    root.add_argument("--quiet", action="store_true",
                      help="suppress the JSON report on stdout")
    root.add_argument("--seed", type=int, default=0,
                      help="seed for all randomized commands")
    sub = root.add_subparsers(dest="command", required=True)
    for name, op in OPS.items():
        p = sub.add_parser(name, help=op.help)
        fields = {f.name: f for kind in op.kinds for f in KINDS[kind].fields}
        for f in [*fields.values(), *op.fields]:
            options = {} if f.positional else {
                "action": "append" if f.repeated else "store",
                "required": f.default is REQUIRED and len(op.kinds) == 1}
            p.add_argument(_flag(f), help=f.help, **options)
        p.set_defaults(handler=partial(_run_command, op))
    p = sub.add_parser("run", help="execute a JSON manifest")
    p.add_argument("manifest")
    p.set_defaults(handler=_run_file)
    return root


def _error(exc: SinglabError) -> dict:
    error = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ManifestError):
        error["field"] = exc.field
    return {"error": error}


def main(argv: list[str] | None = None) -> int:
    args = argparse.Namespace(quiet=False)
    try:
        build_parser().parse_args(argv, namespace=args)
        payload, ok = args.handler(vars(args))
    except SinglabError as exc:
        if not args.quiet:
            sys.stdout.write(serialize.dumps(_error(exc)))
        return EXIT_USAGE if isinstance(exc, InvalidInput) else EXIT_ERROR
    if not args.quiet:
        sys.stdout.write(serialize.dumps(payload))
    return EXIT_OK if ok else EXIT_FAILED


# -- manifests ----------------------------------------------------------------

def _require(cond, message, field):
    if not cond:
        raise ManifestError(message, field=field)


def _only(obj: dict, names, where: str) -> None:
    for key in obj:
        _require(key in names, f"unknown key {key!r}", f"{where}.{key}")


def _at(where: str, fn, *args):
    """fn(*args), with a bad input's field placed under the path where."""
    try:
        return fn(*args)
    except ManifestError as exc:
        raise ManifestError(str(exc), field=f"{where}.{exc.field}") from None


def _validate_manifest(doc) -> list:
    """Check doc against the specs; each job's (kind, source, tasks)."""
    _require(isinstance(doc, dict), "manifest must be a JSON object", "$")
    _require(doc.get("schema") == SCHEMA,
             f"schema must be {SCHEMA!r}", "schema")
    _require(isinstance(doc.get("jobs"), list) and doc["jobs"],
             "jobs must be a non-empty list", "jobs")
    _SEED.value(doc.get("seed"))
    outputs = doc.get("outputs", {})
    _require(isinstance(outputs, dict), "outputs must be an object", "outputs")
    _only(outputs, ("report", "csv"), "outputs")
    for key, raw in outputs.items():
        _at("outputs", Field(key, _path).value, raw)
    plan = []
    for j, job in enumerate(doc["jobs"]):
        where = f"jobs[{j}]"
        _require(isinstance(job, dict), "job must be an object", where)
        kind = job.get("kind")
        _require(isinstance(kind, str) and kind in KINDS,
                 f"unknown job kind {kind!r}", f"{where}.kind")
        tasks = job.get("tasks")
        _require(isinstance(tasks, list) and tasks,
                 "tasks must be a non-empty list", f"{where}.tasks")
        ops = {name: op for name, op in OPS.items() if kind in op.kinds}
        fields = KINDS[kind].fields
        _only(job, {"kind", "tasks", "seed"} | {f.name for f in fields} | {
            f.name for op in ops.values() for f in op.fields}, where)
        source = _at(where, KINDS[kind].parse, {
            f.name: _at(where, f.value, job.get(f.name)) for f in fields})
        entries = []
        for k, task in enumerate(tasks):
            twhere = f"{where}.tasks[{k}]"
            _require(isinstance(task, dict), "task must be an object", twhere)
            name = task.get("op")
            op = ops.get(_ALIASES.get(name, name)) \
                if isinstance(name, str) else None
            _require(op, f"op {name!r} not valid for a {kind} job",
                     f"{twhere}.op")
            _only(task, {"op", "seed"} | {f.name for f in op.fields}, twhere)
            merged = {"seed": doc.get("seed"), **job, **task}
            entries.append((name, op, {
                f.name: _at(twhere if f.name in task else where, f.value,
                            merged.get(f.name))
                for f in op.fields + (_SEED,)}))
        plan.append((kind, source, entries))
    return plan


def run_manifest(doc: dict) -> tuple[dict, bool]:
    """Execute a validated manifest; returns (report, all assertions pass)."""
    plan = _validate_manifest(doc)
    report = {"schema": SCHEMA, "seed": doc.get("seed", 0), "jobs": []}
    all_ok, csv_blocks = True, []
    for j, (kind, source, entries) in enumerate(plan):
        job_out = {"kind": kind, "tasks": []}
        try:  # a source error is the result of each of the job's tasks
            resolved, error = KINDS[kind].build(source), None
        except SinglabError as exc:
            error = _error(exc)
        if kind == "unfolding" and error is None:
            job_out["germ"] = str(resolved.analysis.f)
        for name, op, values in entries:
            try:
                payload, ok = (error, False) if error \
                    else op.run(resolved, values)
            except SinglabError as exc:
                payload, ok = _error(exc), False
            job_out["tasks"].append({"op": name, "ok": ok, "result": payload})
            all_ok = all_ok and ok
            if name == "degree-scan" and "samples" in payload:
                csv_blocks.append((j, payload))
        report["jobs"].append(job_out)
    report["ok"] = all_ok
    outputs = {k: _path(v) for k, v in doc.get("outputs", {}).items()}
    _write(outputs.get("report"), serialize.dumps, report, "outputs.report")
    _write(outputs.get("csv"), _manifest_csv, csv_blocks, "outputs.csv")
    return report, all_ok


def _manifest_csv(blocks) -> str:
    lines = ["job,sample,t,counts,alt_sum"]
    for j, payload in blocks:
        for i, row in enumerate(payload["samples"]):
            lines.append(",".join([str(j), str(i), ";".join(row["t"]),
                                   ";".join(str(c) for c in row["counts"]),
                                   str(row["alt_sum"])]))
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
