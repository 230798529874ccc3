"""Tests of the benchmark itself: seeded inputs, self time, determinism.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_inputs_are_a_pure_function_of_the_seed():
    for wl in workloads.WORKLOADS.values():
        first = [wl.round_inputs(7, k) for k in range(3)]
        random.seed(12345)  # global random state must not leak in
        assert [wl.round_inputs(7, k) for k in range(3)] == first
        assert wl.round_inputs(8, 0) != first[0]
        assert first[0] != first[1]


def _span(name, start, end, parent, op=0):
    return [name, start, end, parent, op, None]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),      # overlaps a: the union counts once
        _span("a.child", 2.0, 3.0, 1),
        _span("late", 9.0, 12.0, 0),  # clipped at the parent's end
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 3.0]


def test_layer_metrics_split_set_up_from_ops():
    spans = [
        _span("milnor.unfold_germ", 0.0, 1.0, -1, op=None),
        _span("groebner.groebner_basis", 0.25, 0.75, 0, op=None),
        _span("groebner.groebner_basis", 2.0, 2.5, -1, op=3),
        _span("groebner.normal_form", 2.0, 2.25, 2, op=3),
    ]
    m = tracing.layer_metrics(spans)
    assert m["milnor.unfold_germ.calls"] == 1
    assert m["milnor.unfold_germ.self_s"] == 0.5
    assert m["groebner.groebner_basis.calls"] == 1
    assert m["groebner.groebner_basis.self_s"] == 0.25
    assert m["groebner.normal_form.calls"] == 1


def test_same_seed_gives_same_digests_and_calls():
    wl = workloads.WORKLOADS["morse-scan"]
    passes, calls = [], []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            state = wl.setup(ROOT)
            passes.append(run.run_rounds(wl, state, 3, workloads, rounds=2,
                                         tracer=tracer))
        calls.append({k: v for k, v in tracing.layer_metrics(
            tracer.spans).items() if k.endswith(".calls")})
    assert passes[0].digest.hexdigest() == passes[1].digest.hexdigest()
    assert calls[0] == calls[1]
    assert calls[0]["realroots.isolate_real_roots.calls"] > 0
    assert passes[0].count("failed:") == 0


class _FixedSpeed:
    kernels = [0.002] * 4

    def scale(self, start, end):
        return 1.0


def test_printed_metrics_match_benchmark_json():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(
        workloads.WORKLOADS)
    p = run.Pass()
    p.latencies, p.windows = [0.01, 0.02], [(0, 1), (1, 2)]
    p.status["ok"] = 2
    wl = workloads.WORKLOADS["morse-scan"]
    e2e, _ = run.end_to_end(wl, p, _FixedSpeed(), [(0.1, 0.1)])
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == {
        k: unit for k, (_, unit) in e2e.items()}
    layers = run.per_layer(tracing.Tracer(), run.Pass(), run.Pass())
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == {
        k: unit for k, (_, unit) in layers.items()}
