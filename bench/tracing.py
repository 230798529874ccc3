"""Span tracing of singlab's layers, installed from outside the program.

Each public function of a layer is wrapped where its consumer module binds
it (a module global, or a method on its class), so spans are recorded
without changing anything under src/.  A span is (name, start, end, parent,
op id, error), where error names the exception the call raised, if any;
spans stay in memory until the run ends.  ``poly`` and ``Fraction``
arithmetic is not wrapped (apart from the Bareiss division
``Polynomial.exact_div``), so it counts toward the self time of whichever
layer calls it.
"""

from __future__ import annotations

import functools
import json
import time

from singlab import (discriminant, groebner, milnor, morselab, poly, realroots,
                     semitoric, serialize)

# (owner whose attribute is replaced, attribute, span name).  The owner is
# the consumer module that binds the function, or the class for a method.
# Names reached through a module's own globals are patched there too, e.g.
# ``squarefree_decomposition`` inside ``isolate_real_roots``.
BIND_SITES = (
    (morselab, "isolate_real_roots", "realroots.isolate_real_roots"),
    (morselab, "squarefree_decomposition", "realroots.squarefree_decomposition"),
    (morselab, "count_distinct_roots", "realroots.count_distinct_roots"),
    (morselab, "eval_interval", "intervals.eval_interval"),
    (morselab, "resultant", "resultant.resultant"),
    (morselab, "critical_points", "morselab.critical_points"),
    (realroots, "squarefree_decomposition",
     "realroots.squarefree_decomposition"),
    (realroots.IsolatingInterval, "refine", "realroots.refine"),
    (poly.Polynomial, "exact_div", "poly.exact_div"),
    (discriminant, "morse_report", "discriminant.morse_report"),
    (discriminant, "critical_points", "morselab.critical_points"),
    (discriminant, "resultant", "resultant.resultant"),
    (discriminant, "cerf_trace", "discriminant.cerf_trace"),
    (discriminant, "maxwell_refine", "discriminant.maxwell_refine"),
    (discriminant, "exact_discriminant_1d",
     "discriminant.exact_discriminant_1d"),
    (semitoric, "eliminate", "groebner.eliminate"),
    (semitoric, "toric_ideal", "semitoric.toric_ideal"),
    (semitoric, "resolve_monomial_curve", "semitoric.resolve_monomial_curve"),
    (semitoric, "branch_embedding", "semitoric.branch_embedding"),
    (semitoric, "verify_strict_transform",
     "semitoric.verify_strict_transform"),
    (groebner, "groebner_basis", "groebner.groebner_basis"),
    (groebner, "normal_form", "groebner.normal_form"),
    (milnor, "groebner_basis", "groebner.groebner_basis"),
    (milnor, "normal_form", "groebner.normal_form"),
    (milnor, "unfold_germ", "milnor.unfold_germ"),
    (serialize, "dumps", "serialize.dumps"),
)

# Spans whose calls and self time are reported as per-layer metrics.
# ``milnor.unfold_germ`` runs only during set-up; every other span is
# reported over the traced ops.
REPORTED_SPANS = (
    "realroots.isolate_real_roots", "realroots.refine",
    "realroots.count_distinct_roots", "realroots.squarefree_decomposition",
    "intervals.eval_interval", "resultant.resultant", "poly.exact_div",
    "groebner.groebner_basis", "groebner.normal_form",
    "semitoric.toric_ideal", "semitoric.resolve_monomial_curve",
    "semitoric.branch_embedding", "semitoric.verify_strict_transform",
    "morselab.critical_points",
    "discriminant.cerf_trace", "discriminant.maxwell_refine",
    "discriminant.exact_discriminant_1d",
    "milnor.unfold_germ", "serialize.dumps",
)
SETUP_SPANS = frozenset({"milnor.unfold_germ"})
# Spans reported by call count only.
COUNTED_SPANS = ("discriminant.morse_report",)

NAME, START, END, PARENT, OP, ERROR = range(6)


class Tracer:
    """Records spans while installed; ``op`` tags spans with the current op."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, name):
        """``fn`` recording one span per call while this tracer is live."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1,
                          self.op, None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                spans[idx][ERROR] = type(exc).__name__
                raise
            finally:
                stack.pop()
                spans[idx][END] = clock()
        return traced

    def install(self):
        for owner, attr, name in BIND_SITES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        """One JSON array per line: name, start, end, parent, op id, error."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered = 0.0
        reach = lo
        for a, b in sorted(children.get(idx, ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


def layer_metrics(spans) -> dict[str, float]:
    """``<span>.calls`` and ``<span>.self_s`` for every reported span.

    Set-up spans are those with no op id; ``SETUP_SPANS`` are counted there
    and every other span only inside ops.
    """
    selfs = self_times(spans)
    calls = {name: 0 for name in REPORTED_SPANS + COUNTED_SPANS}
    self_s = {name: 0.0 for name in REPORTED_SPANS}
    for span, own in zip(spans, selfs):
        name = span[NAME]
        if name not in calls or (span[OP] is None) != (name in SETUP_SPANS):
            continue
        calls[name] += 1
        if name in self_s:
            self_s[name] += own
    out = {}
    for name in REPORTED_SPANS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in COUNTED_SPANS:
        out[f"{name}.calls"] = calls[name]
    return out
