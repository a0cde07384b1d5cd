#!/usr/bin/env python3
"""Per-call time and evaluation count of the reference suite's optimizer rows.

    python3 tools/suite_rows.py --src PATH [--seed 0]

Imports fockmodes from PATH (a checkout's ``src`` directory) and nowhere
else, wraps the module-level ``optimize_entanglement`` that the suite's
optimizer rows call, and runs ``run_reference_suite(seed)`` once.  Prints one
JSON line per optimizer call (call index, row id, mode count, direction,
wall ms, ``OptResult.evaluations`` and ``OptResult.gradient_evaluations``,
the search's values and gradients; 0 gradients for a tree whose
``OptResult`` has no such field), then one line with the suite's totals.
The row ids are those of ``suite.EXTREMA``, whose loop makes the calls in
table order; a tree without that table prints the call index alone.  To
compare two trees, alternate runs of this script on each.  BLAS is pinned to
one thread, as in ``bench/run.py``, so the timings do not switch between
one- and two-thread modes from process to process.
"""

from __future__ import annotations

import argparse
import json
import time

from checkout import use_src


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src", required=True, help="directory holding the fockmodes package"
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    use_src(args.src)
    import fockmodes.suite as suite

    calls = []
    optimize = suite.optimize_entanglement
    row_ids = [extremum[0] for extremum in getattr(suite, "EXTREMA", ())]

    def timed(state, partition, cfg):
        start = time.perf_counter()
        result = optimize(state, partition, cfg)
        call = {"call": len(calls)}
        if len(calls) < len(row_ids):
            call["id"] = row_ids[len(calls)]
        calls.append({
            **call,
            "modes": state.mode_count,
            "direction": cfg.direction,
            "wall_ms": round((time.perf_counter() - start) * 1000.0, 1),
            "evaluations": result.evaluations,
            "gradient_evaluations": getattr(result, "gradient_evaluations", 0),
        })
        print(json.dumps(calls[-1]), flush=True)
        return result

    suite.optimize_entanglement = timed
    start = time.perf_counter()
    rows = suite.run_reference_suite(seed=args.seed)
    print(json.dumps({
        "total_wall_ms": round((time.perf_counter() - start) * 1000.0, 1),
        "optimizer_wall_ms": round(sum(call["wall_ms"] for call in calls), 1),
        "evaluations": sum(call["evaluations"] for call in calls),
        "gradient_evaluations": sum(call["gradient_evaluations"] for call in calls),
        "calls": len(calls),
        "all_pass": all(row.passed for row in rows),
    }))


if __name__ == "__main__":
    main()
