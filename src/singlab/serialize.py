"""JSON-friendly serialization of report objects.

Exact rationals become 'p/q' strings ('p' when q = 1) so reports are
byte-stable and round-trippable; floats only appear where the underlying
quantity is a float (heuristic witnesses).  ``dumps`` accepts a report or
the output of ``jsonable`` and writes, in one walk, the same text for
both: ``json.dumps`` of the jsonable data with 2-space indent, sorted keys
and non-ASCII escaped, plus a trailing newline.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as _quote

from .intervals import RatInterval


@cache
def _kind(t: type) -> tuple[str, tuple[str, ...]]:
    """How values of type t serialize, found once per type: the first test
    that holds (so bool is an int), and a dataclass's sorted public fields;
    a RatInterval subclass such as IsolatingInterval has only lo and hi."""
    cls = RatInterval if issubclass(t, RatInterval) else t
    record = object if dataclasses.is_dataclass(cls) else ()
    kind = next(k for k, c in (
        ("same", (type(None), int, str)), ("float", float), ("str", Fraction),
        ("record", record), ("dict", dict), ("list", (list, tuple)),
        ("set", (set, frozenset)), ("str", object)) if issubclass(t, c))
    return kind, tuple(sorted(
        f.name for f in dataclasses.fields(cls)
        if not f.name.startswith("_"))) if kind == "record" else ()


def jsonable(obj):
    """Recursively convert reports to plain JSON data."""
    kind, fields = _kind(type(obj))
    if kind == "same":
        return obj
    if kind == "float":
        return obj if math.isfinite(obj) else str(obj)
    if kind == "record":
        return {f: jsonable(getattr(obj, f)) for f in fields}
    if kind == "dict":
        return {_key(k): jsonable(v) for k, v in obj.items()}
    if kind == "list":
        return [jsonable(v) for v in obj]
    if kind == "set":  # in the order of the members' JSON text
        return sorted(map(jsonable, obj), key=dumps)
    return str(obj)  # a Fraction as 'p/q', a Polynomial as its text


def _key(k):
    if isinstance(k, str):
        return k
    if isinstance(k, tuple):
        return ",".join(str(x) for x in k)
    return str(k)


def _text(obj, nl: str) -> str:
    """The JSON text of obj (a report or jsonable data) on a line that
    starts with nl, a newline and the line's indent."""
    kind, fields = _kind(type(obj))
    if kind == "same":
        if obj is None or obj is True or obj is False:
            return "null" if obj is None else "true" if obj else "false"
        return _quote(obj) if isinstance(obj, str) else int.__repr__(obj)
    if kind == "float" and math.isfinite(obj):
        return float.__repr__(obj)
    inner = nl + "  "
    if kind == "list":
        items = [_text(v, inner) for v in obj]
    elif kind in ("dict", "record"):
        pairs = (sorted({_key(k): v for k, v in obj.items()}.items())
                 if kind == "dict" else [(f, getattr(obj, f)) for f in fields])
        items = [_quote(k) + ": " + _text(v, inner) for k, v in pairs]
    else:
        return _text(jsonable(obj), nl)
    ends = "[]" if kind == "list" else "{}"
    return (ends[0] + inner + ("," + inner).join(items) + nl + ends[1]
            if items else ends)


def dumps(obj) -> str:
    return _text(obj, "\n") + "\n"
