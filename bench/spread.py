"""Run the benchmark on many seeds and summarize each metric's spread.

    python3 bench/spread.py --seeds 1-10 [--out FILE]

Every workload of BENCHMARK.json runs for its ``run_seconds``.  Workloads
are interleaved (seed 1 of every workload, then seed 2, ...), so drift in
the machine's speed spreads over all of them.  For each metric it
prints the median, the quartiles from ``statistics.quantiles(values, n=4)``
and the spread, (q3 - q1) / median, that the bounds in BENCHMARK.json are
set against.  ``--out`` writes the same numbers, with every run, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=600)
    lines = done.stdout.strip().splitlines()
    return {"seed": seed, "result": json.loads(lines[-1]),
            "summary": json.loads(lines[-2].removeprefix("summary "))}


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "min": min(values), "max": max(values)}


def summarize(runs: list[dict]) -> dict:
    """Quartiles of each metric; times also as read, before scaling."""
    values: dict[str, list[float]] = {}
    as_read: dict[str, list[float]] = {}
    units = {}
    for r in runs:
        for name, m in r["result"]["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        for name, v in r["summary"].get("as_read", {}).items():
            as_read.setdefault(name, []).append(v)
    out = {}
    for name, vals in values.items():
        out[name] = {"unit": units[name], **quartiles(vals)}
        if name in as_read:
            out[name]["as_read"] = quartiles(as_read[name])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    names = [w["name"] for w in config["workloads"]]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for seed in seed_list(args.seeds):
        for name in names:
            r = run_once(name, seed, seconds)
            runs[name].append(r)
            print(f"{name} seed {seed}: correct={r['result']['correct']} "
                  f"ops={r['summary']['ops']}", file=sys.stderr, flush=True)
    report = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "seconds": seconds,
              "workloads": {name: {"metrics": summarize(rs), "runs": rs}
                            for name, rs in runs.items()}}
    for name, w in report["workloads"].items():
        for metric, s in w["metrics"].items():
            raw = s.get("as_read")
            print(f"{name:20s} {metric:18s} median {s['median']:<12.5g} "
                  f"q1 {s['q1']:<12.5g} q3 {s['q3']:<12.5g} "
                  f"spread {s['spread']:.3f}"
                  + (f"  as read {raw['spread']:.3f}" if raw else ""))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
