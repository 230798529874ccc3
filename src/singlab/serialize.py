"""JSON-friendly serialization of report objects.

Exact rationals become 'p/q' strings so reports are byte-stable and
round-trippable; floats only appear where the underlying quantity is a
float (heuristic witnesses).
"""

from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction

from .intervals import RatInterval
from .poly import Polynomial


def rational_str(x: Fraction) -> str:
    return str(Fraction(x))  # 'p/q', or 'p' when q = 1


def parse_rational(text) -> Fraction:
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    return Fraction(str(text))


def jsonable(obj):
    """Recursively convert reports to plain JSON data."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else str(obj)
    if isinstance(obj, Fraction):
        return rational_str(obj)
    if isinstance(obj, Polynomial):
        return str(obj)
    if isinstance(obj, RatInterval):
        return {"lo": rational_str(obj.lo), "hi": rational_str(obj.hi)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
                if not f.name.startswith("_")}
    if isinstance(obj, dict):
        return {_key(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in obj]
    return str(obj)


def _key(k):
    if isinstance(k, str):
        return k
    if isinstance(k, tuple):
        return ",".join(str(x) for x in k)
    return str(k)


def dumps(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"
