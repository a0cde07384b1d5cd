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

Each call line also shows the work that a stop at a proven extremum would
save.  Every redefinition has an entropy of at least 0 and at most
log2(``rank_bound``), so a restart that ends within ``AT_BOUND`` of the
call's bound (0 for ``min``, log2 ``rank_bound`` for ``max``) has found the
answer.  ``optimize._lbfgs`` is wrapped to record each restart's values,
gradients and final value; ``first_at_bound`` is the index of the first
restart at the bound (null if none is), and ``values_after_bound`` and
``gradients_after_bound`` are what the restarts after it spent.  The totals
line sums both.  The counts are deterministic.  A tree without
``optimize._lbfgs`` reads null and 0.
"""

from __future__ import annotations

import argparse
import json
import math
import time

from checkout import use_src

# A restart whose entropy is within this of the call's bound has proven it.
AT_BOUND = 1e-9


def after_bound(restarts: list[tuple[int, int, float]], bound: float) -> dict:
    """The first restart whose entropy is within AT_BOUND of `bound`, and the
    values and gradients of the restarts after it.  `restarts` holds one
    (values, gradients, entropy) record per restart, in restart order."""
    first = next((index for index, (_, _, entropy) in enumerate(restarts)
                  if abs(entropy - bound) <= AT_BOUND), None)
    rest = restarts[first + 1:] if first is not None else []
    return {
        "first_at_bound": first,
        "values_after_bound": sum(values for values, _, _ in rest),
        "gradients_after_bound": sum(gradients for _, gradients, _ in rest),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src", required=True, help="directory holding the fockmodes package"
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    use_src(args.src)
    import fockmodes.optimize as optimize_module
    import fockmodes.suite as suite
    from fockmodes.entanglement import rank_bound

    calls = []
    optimize = suite.optimize_entanglement
    row_ids = [extremum[0] for extremum in getattr(suite, "EXTREMA", ())]
    # (x, signed final value, values, gradients, converged) of each restart.
    runs = []
    if hasattr(optimize_module, "_lbfgs"):
        lbfgs = optimize_module._lbfgs

        def recorded(*args):
            runs.append(lbfgs(*args))
            return runs[-1]

        optimize_module._lbfgs = recorded

    def timed(state, partition, cfg):
        runs.clear()
        start = time.perf_counter()
        result = optimize(state, partition, cfg)
        wall_ms = round((time.perf_counter() - start) * 1000.0, 1)
        call = {"call": len(calls)}
        if len(calls) < len(row_ids):
            call["id"] = row_ids[len(calls)]
        # The search minimizes the entropy, or its negative for max.
        if cfg.direction == "min":
            sign, bound = 1.0, 0.0
        else:
            sign, bound = -1.0, math.log2(rank_bound(state, partition))
        restarts = [(run[2], run[3], sign * run[1]) for run in runs]
        calls.append({
            **call,
            "modes": state.mode_count,
            "direction": cfg.direction,
            "wall_ms": wall_ms,
            "evaluations": result.evaluations,
            "gradient_evaluations": getattr(result, "gradient_evaluations", 0),
            **after_bound(restarts, bound),
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
        "values_after_bound": sum(call["values_after_bound"] for call in calls),
        "gradients_after_bound": sum(call["gradients_after_bound"] for call in calls),
        "calls": len(calls),
        "all_pass": all(row.passed for row in rows),
    }))


if __name__ == "__main__":
    main()
