#!/usr/bin/env python3
"""Alternating benchmark runs of two checkouts, summarized per metric.

    python3 tools/pairs.py --parent PATH --change PATH --workload rewrite
        [--workload objective ...] --seed N --out BENCH_<n>.json [--pairs 10]
        [--seconds S] [--what TEXT]

Runs ``bench/run.py`` (the command of BENCHMARK.json, with ``--trace 0``)
in the root of each checkout, ``--pairs`` times each per workload, one
process at a time and one workload after another: pair k runs the parent
first when k is odd and the change first when k is even.  ``--seconds``
defaults to BENCHMARK.json's ``run_seconds``.  A run that exits nonzero
or reports wrong answers (``correct`` false) stops the tool.

For each workload and end-to-end metric of BENCHMARK.json it prints one
JSON line: both sides' median and quartiles (``statistics.quantiles(values, n=4)``), the
ratio of the medians, the median and quartiles of the change/parent ratio
within each pair (``pair_ratio``), the pairs in which the change reads
better than the parent (ties count for neither side), and
``beyond_parent_spread``, whether the medians differ by more than the
distance between the parent's quartiles.  The host's speed drifts between
runs more than within a pair, so the parent's own spread can hide a change
that leads in most pairs; ``pair_ratio`` shows such a change.  A last line
per workload gives each side's failed and attempted operations.  The runs
and that summary are written to ``--out``.
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

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_bench(checkout: Path, command: list[str]) -> dict:
    """The result line of one benchmark run in `checkout`."""
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(command)} in {checkout} exited "
                         f"{done.returncode}\n{done.stdout}{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict], metrics: list[dict], workload: str) -> list[dict]:
    """One line per end-to-end metric over the runs of `workload`, then the
    failure line."""
    runs = [run for run in runs if run["workload"] == workload]
    lines = []
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: {} for side in SIDES}
        for run in runs:
            values[run["side"]][run["pair"]] = run["result"]["metrics"][name]["value"]
        line = {"workload": workload, "metric": name, "unit": metric["unit"],
                "better": metric["better"]}
        for side in SIDES:
            q1, median, q3 = statistics.quantiles(values[side].values(), n=4)
            line[side] = {"median": median, "q1": q1, "q3": q3}
        parent, change = line["parent"], line["change"]
        line["change_over_parent"] = round(change["median"] / parent["median"], 4)
        q1, median, q3 = statistics.quantiles(
            [value / values["parent"][pair] for pair, value in values["change"].items()],
            n=4,
        )
        line["pair_ratio"] = {"median": round(median, 4), "q1": round(q1, 4),
                              "q3": round(q3, 4)}
        line["wins"] = sum(
            (change_value > values["parent"][pair]) if higher
            else (change_value < values["parent"][pair])
            for pair, change_value in values["change"].items()
        )
        line["pairs"] = len(values["change"])
        line["beyond_parent_spread"] = (
            abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"]
        )
        lines.append(line)
    lines.append({"workload": workload, **{
        side: {key: sum(run["result"][key] for run in runs if run["side"] == side)
               for key in ("failed", "attempted")}
        for side in SIDES
    }})
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--what", default="")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    def command(workload: str) -> list[str]:
        return spec["command"] + ["--workload", workload, "--seed", str(args.seed),
                                  "--seconds", f"{seconds:g}", "--trace", "0"]

    runs = []
    for workload in args.workload:
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                result = run_bench(checkouts[side], command(workload))
                if not result["correct"]:
                    raise SystemExit(f"error: {workload} pair {pair} {side} "
                                     f"gave wrong answers: {json.dumps(result)}")
                runs.append({"pair": pair, "workload": workload, "seed": args.seed,
                             "side": side, "first": order[0], "result": result})
                print(f"# {workload} pair {pair} {side}: " + " ".join(
                    f"{name}={metric['value']:.6g}"
                    for name, metric in result["metrics"].items()
                ), file=sys.stderr, flush=True)

    summary = [line for workload in args.workload
               for line in summarize(runs, spec["end_to_end"], workload)]
    for line in summary:
        print(json.dumps(line))
    args.out.write_text(json.dumps({
        "what": args.what,
        "command": " ".join(command("|".join(args.workload))),
        "host": f"{os.cpu_count()} CPUs, Python {platform.python_version()}",
        "pairs": args.pairs,
        "order": "the workloads in turn, all pairs of one before the next; pair k "
                 "runs the parent first when k is odd and the change first when k "
                 "is even",
        "summary": summary,
        "runs": runs,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
