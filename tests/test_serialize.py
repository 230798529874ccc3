"""The one-walk JSON writer against json.dumps of the earlier jsonable."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import singlab
from singlab.intervals import RatInterval
from singlab.poly import Polynomial
from singlab.realroots import IsolatingInterval
from singlab.serialize import dumps, jsonable


# -- the earlier serializer, kept as the oracle ------------------------------

def old_jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else str(obj)
    if isinstance(obj, Fraction):
        return str(Fraction(obj))
    if isinstance(obj, Polynomial):
        return str(obj)
    if isinstance(obj, RatInterval):
        return {"lo": str(Fraction(obj.lo)), "hi": str(Fraction(obj.hi))}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: old_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
                if not f.name.startswith("_")}
    if isinstance(obj, dict):
        return {_old_key(k): old_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [old_jsonable(v) for v in obj]
    return str(obj)


def _old_key(k):
    if isinstance(k, str):
        return k
    if isinstance(k, tuple):
        return ",".join(str(x) for x in k)
    return str(k)


def old_dumps(obj) -> str:
    return json.dumps(old_jsonable(obj), sort_keys=True, indent=2) + "\n"


# -- report-like values -------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Frozen:
    b: object
    a: object


@dataclasses.dataclass(order=True)
class Ordered:
    zeta: object
    alpha: object = 0


@dataclasses.dataclass
class WithPrivate:
    shown: object
    _hidden: object = None


fractions = st.fractions(max_denominator=10 ** 6)
texts = st.text(st.characters(), max_size=8)  # non-ASCII and controls
intervals = st.tuples(fractions, fractions).map(sorted).flatmap(
    lambda ends: st.one_of(
        st.just(RatInterval(*ends)),
        st.builds(IsolatingInterval, st.just(ends[0]), st.just(ends[1]),
                  st.integers(1, 3), st.just(((1, 2), (2,))))))
polys = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                        fractions.filter(bool), max_size=3).map(
    lambda terms: Polynomial(("z", "w"), terms))
leaves = st.one_of(st.none(), st.booleans(), st.integers(),
                   st.integers(-2 ** 80, 2 ** 80), st.floats(), texts,
                   fractions, intervals, polys)
keys = st.one_of(texts, st.integers(-9, 9), st.booleans(),
                 st.tuples(st.integers(0, 5), st.integers(0, 5)))
values = st.recursive(leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(keys, inner, max_size=4),
    st.builds(Frozen, inner, inner),
    st.builds(Ordered, inner, inner),
    st.builds(WithPrivate, inner, inner)), max_leaves=12)


class TestAgainstJsonDumps:
    @given(values)
    @settings(max_examples=400, deadline=None)
    def test_report_and_jsonable_output_match_the_oracle(self, x):
        want = old_dumps(x)
        assert dumps(x) == want
        assert dumps(jsonable(x)) == want
        assert jsonable(x) == old_jsonable(x)

    def test_edge_cases(self):
        cases = [
            {}, [], (), {"e": {}, "l": [], "t": ()},
            True, False, 0, -1, 2 ** 100, 0.0, -0.0, 1e300, 0.1,
            math.inf, -math.inf, math.nan, "", "\x00\x1f\"\\/\u007f",
            "μ ∞ 😀 \ud800", Fraction(-7, 3),
            IsolatingInterval(Fraction(1), Fraction(2), 2, ((1,),)),
            {(1, 2): "tuple key", 3: "int key", True: "bool key"},
            WithPrivate(shown=[Frozen(a=None, b=Ordered(zeta=1))],
                        _hidden="not shown"),
            Polynomial.zero(("z",)), RatInterval,
        ]
        for x in cases:
            assert dumps(x) == old_dumps(x)
            assert dumps(jsonable(x)) == old_dumps(x)


def test_set_members_are_written_in_the_order_of_their_text():
    assert dumps({"s": {3, 1, 2}, "f": frozenset({"b", "a"})}) == \
        dumps({"s": [1, 2, 3], "f": ["a", "b"]})
    assert jsonable({Fraction(1, 2), Fraction(1, 3)}) == ["1/2", "1/3"]


def test_set_bytes_do_not_depend_on_the_hash_seed():
    members = ", ".join(repr(f"member {k}") for k in range(12))
    code = ("from singlab.serialize import dumps; "
            f"s = frozenset([{members}]); "
            "print(list(s)); print(dumps({'s': s}), end='')")
    src = str(Path(singlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    runs = [subprocess.run([sys.executable, "-c", code],
                           env={**env, "PYTHONHASHSEED": seed},
                           capture_output=True, text=True, check=True).stdout
            for seed in ("1", "2")]
    orders, texts = zip(*(run.split("\n", 1) for run in runs))
    assert orders[0] != orders[1]  # the seeds iterate the set differently
    assert texts[0] == texts[1]
    assert json.loads(texts[0])["s"] == sorted(
        f"member {k}" for k in range(12))
