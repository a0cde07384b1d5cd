#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload rewrite --seeds 1-10 [--trace]

For every end-to-end metric (or per-layer metric with ``--trace``) it
prints the median, the quartiles of ``statistics.quantiles(values, n=4)``
and their distance as a share of the median, next to the metric's bound
from BENCHMARK.json.  Runs are sequential, one process at a time.  Each
run's result line is appended to ``.bench_out/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def report_overhead(workload: str, seeds: list[int], log: Path) -> None:
    """Traced against untraced throughput, from the latest logged runs."""
    latest = {}
    for line in log.read_text().splitlines():
        run = json.loads(line)
        if run["workload"] == workload and run["seed"] in seeds:
            key = "trace.throughput_per_s" if run["trace"] else "throughput_per_s"
            latest[run["seed"], run["trace"]] = run["metrics"][key]["value"]
    pairs = [(latest[s, 0], latest[s, 1]) for s in seeds if (s, 0) in latest]
    if pairs:
        plain = statistics.median(p for p, _ in pairs)
        traced = statistics.median(t for _, t in pairs)
        print(f"tracing overhead over {len(pairs)} seeds: throughput_per_s "
              f"{plain:.6g} untraced, {traced:.6g} traced, "
              f"{(traced - plain) / plain:+.2%}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    values: dict[str, list[float]] = {}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    for seed in args.seeds:
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(int(args.trace)),
        ]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        with open(out_dir / "spread.jsonl", "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                 "trace": int(args.trace), **result}) + "\n")
        summary = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']} {summary}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    if args.trace:
        report_overhead(args.workload, args.seeds, out_dir / "spread.jsonl")
    if len(args.seeds) < 2:
        return 0
    print(f"{'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print(f"{name:<40} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} "
              f"{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
