"""Run one singlab benchmark workload and print its metrics.

    python3 bench/run.py --workload morse-scan --seed 1 --seconds 30 --trace 0

One process, one thread, one closed-loop caller: each op starts when the
previous one has returned, as when a user drives ``degree-scan`` or a
manifest.  Rounds of ops run until the timed ops add up to ``--seconds``;
the round in progress then finishes, so every run has the same mix of op
kinds.  Each op is the program call plus ``serialize.dumps(jsonable(...))``
as in the CLI; its output is hashed and checked outside the timed interval.

``--trace 0`` prints the end-to-end metrics, with times at reference speed
(see ``speed.py``).  ``--trace 1`` runs a fixed number of rounds untraced
and then traced, so every ``.calls`` count repeats exactly for a seed,
prints the per-layer metrics and writes the spans to ``bench/out/``.  The
line before the last is a summary, with the end-to-end times as read; the
last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROCESSES = 11


class Pass:
    """Outcomes of one sequence of ops."""

    def __init__(self):
        self.latencies: list[float] = []
        self.windows: list[tuple[float, float]] = []
        self.status = Counter()
        self.tally = Counter()
        self.failures: list[str] = []
        self.digest = hashlib.sha256()
        self.rounds = 0

    @property
    def busy(self) -> float:
        return math.fsum(self.latencies)

    def count(self, prefix: str) -> int:
        return sum(n for s, n in self.status.items() if s.startswith(prefix))


def execute(op, run: Pass, workloads, tracer=None, sampler=None):
    """Time one op, then hash and check its output outside the timing."""
    call = workloads.run_op
    if tracer is not None:
        tracer.op = len(run.latencies)
        call = tracer.wrap(call, f"op.{op.kind}")
    sampled = sampler.handler_s if sampler else 0.0
    start = time.perf_counter()
    try:
        result, text = call(op)
    except tuple(workloads.REJECTIONS) as exc:
        status = "rejected:" + workloads.REJECTIONS[type(exc)]
        text = status
    except Exception as exc:  # an op that crashes counts as failed
        status = f"failed:{type(exc).__name__}: {exc}"
        text = status
    else:
        status = None
    end = time.perf_counter()
    sampled = (sampler.handler_s if sampler else 0.0) - sampled
    run.latencies.append(end - start - sampled)
    run.windows.append((start, end))
    if tracer is not None:
        tracer.op = None
    run.digest.update(text.encode())
    if status is None:
        status = op.check(result, run.tally)
    run.status[status] += 1
    if status.startswith("failed:") and len(run.failures) < 5:
        run.failures.append(f"{op.kind}: {status[7:]}")


def run_rounds(wl, state, seed: int, workloads, *, seconds=None, rounds=None,
               tracer=None, sampler=None) -> Pass:
    run = Pass()
    while (run.busy < seconds) if rounds is None else (run.rounds < rounds):
        for op in wl.ops(state, wl.round_inputs(seed, run.rounds)):
            execute(op, run, workloads, tracer, sampler)
        run.rounds += 1
    return run


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def setup_seconds(workload: str) -> list[tuple[float, float]]:
    """(seconds, seconds at reference speed) of set-up in fresh processes."""
    out = []
    for _ in range(SETUP_PROCESSES):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_child.py"), str(ROOT),
             workload], capture_output=True, text=True, check=True,
            timeout=120)
        raw, scaled = done.stdout.split()
        out.append((float(raw), float(scaled)))
    return out


def end_to_end(wl, run: Pass, sampler, setups) -> tuple[dict, dict]:
    n = len(run.latencies)
    scaled = [t * sampler.scale(*w) for t, w in zip(run.latencies, run.windows)]
    lat, raw = sorted(scaled), sorted(run.latencies)
    rejected, failed = run.count("rejected:"), run.count("failed:")
    q = wl.tail_percentile
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "ops_per_s": (n / math.fsum(scaled), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (percentile(lat, q) * 1e3, "ms"),
        "accepted_share": (1 - rejected / n, "ratio"),
        "unfailed_share": (1 - failed / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    info = {
        "tail_percentile": q,
        "ops_beyond_tail": n - math.ceil(q / 100 * n),
        "rejected_share": rejected / n,
        "failed_share": failed / n,
        "as_read": {"setup_s": statistics.median(r for r, _ in setups),
                    "ops_per_s": n / run.busy,
                    "op_p50_ms": statistics.median(raw) * 1e3,
                    "op_tail_ms": percentile(raw, q) * 1e3},
        "kernel_samples": len(sampler.kernels),
        "kernel_ms_quartiles": [k * 1e3 for k in
                                statistics.quantiles(sampler.kernels, n=4)],
    }
    return metrics, info


def per_layer(tracer, plain: Pass, traced: Pass) -> dict:
    import tracing

    metrics = {k: (v, "count" if k.endswith(".calls") else "s")
               for k, v in tracing.layer_metrics(tracer.spans).items()}
    cp = [s for s in tracer.spans if s[tracing.OP] is not None
          and s[tracing.NAME] == "morselab.critical_points"]
    errors = Counter(s[tracing.ERROR] for s in cp)
    rejected = {"degenerate": errors["DegenerateParameter"],
                "box_escape": errors["BoxEscape"],
                "non_excellent": traced.tally["morselab.non_excellent"]}
    tally = traced.tally

    def ratio(num, den):
        return num / den if den else 0.0

    metrics["morselab.accept_ratio"] = (
        ratio(len(cp) - sum(rejected.values()), len(cp)), "ratio")
    for reason, n in rejected.items():
        metrics[f"morselab.rejected.{reason}"] = (n, "count")
    metrics["discriminant.resolved_ratio"] = (
        ratio(tally["discriminant.resolved"], tally["discriminant.events"]),
        "ratio")
    metrics["discriminant.maxwell_found_ratio"] = (
        ratio(tally["discriminant.maxwell_found"],
              tally["discriminant.maxwell_calls"]), "ratio")
    metrics["trace.overhead_s"] = (traced.busy - plain.busy, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "singlab" / "__init__.py").is_file():
        print(f"error: no singlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:
        import tracing

        state = wl.setup(ROOT)
        plain = run_rounds(wl, state, args.seed, workloads,
                           rounds=wl.trace_rounds)
        with tracing.Tracer() as tracer:
            state = wl.setup(ROOT)
            traced = run_rounds(wl, state, args.seed, workloads,
                                rounds=wl.trace_rounds, tracer=tracer)
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{wl.name}-{args.seed}.jsonl")
        metrics = per_layer(tracer, plain, traced)
        runs = (plain, traced)
        info = {"spans": len(tracer.spans),
                "digests_equal": plain.digest.digest() == traced.digest.digest()}
    else:
        setups = setup_seconds(wl.name)
        state = wl.setup(ROOT)
        with speed.SpeedSampler() as sampler:
            run = run_rounds(wl, state, args.seed, workloads,
                             seconds=args.seconds, sampler=sampler)
        metrics, info = end_to_end(wl, run, sampler, setups)
        runs = (run,)

    attempted = sum(len(r.latencies) for r in runs)
    failed = sum(r.count("failed:") for r in runs)
    correct = failed == 0 and info.get("digests_equal", True)
    summary = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
               "rounds": runs[-1].rounds, "ops": len(runs[-1].latencies),
               "busy_s": runs[-1].busy,
               "digest": runs[-1].digest.hexdigest(),
               "status": dict(sorted(runs[-1].status.items())),
               "failures": [f for r in runs for f in r.failures], **info}
    print("summary " + json.dumps(summary))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
