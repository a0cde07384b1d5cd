#!/usr/bin/env python3
"""Per-part time of the ``objective`` benchmark workload's evaluations, over several passes.

    python3 tools/objective_layers.py --src PATH [--seed 171] [--repeat 9]

Imports fockmodes from PATH (a checkout's ``src`` directory) and nowhere
else, and draws the items of one pass from ``bench/workloads.py``'s
``Objective(seed)`` in this checkout, so two trees see the same items.
Each source state's ``entropy_objective`` build is timed (``build``).  Each
evaluation item at theta times, on the previous part's output, the parts of
the theta closure: ``hermitian_from_params(-theta)``, ``exp_i_hermitian(H)``,
and the ladder rewrite ``transform._rewriter(state)[1](S)`` (built outside
the timing); then the whole closure (``objective``).  ``rest`` is the
closure less those three parts: the block spectrum, its checks and the
entropy.  Every part is timed ``--repeat`` times and its fastest run kept.
The pass runs PASSES times; a part's time in one pass is its best-of-repeat
ms summed over the items.  Prints one JSON line per part with the median
and quartiles of those per-pass times and, as ``share``, the median of the
part's fraction of its pass's total (``build`` plus ``objective``), then
one line with the median and quartiles of that total.  The shares are
steadier between runs than the ms sums.  To compare two trees, alternate
runs of this script on each.  BLAS is pinned to one thread, as in
``bench/run.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from checkout import best_of, quartiles, share, use_src

BENCH = Path(__file__).resolve().parent.parent / "bench"
# Passes per run: best-of-repeat sums of one tree still spread between
# runs, so a run reports the median and quartiles of several.
PASSES = 5
# Parts of the closure timed on their own; `rest` is the closure less these.
PARTS = ("hermitian_from_params", "exp_i_hermitian", "rewrite")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src", required=True, help="directory holding the fockmodes package"
    )
    parser.add_argument("--seed", type=int, default=171)
    parser.add_argument("--repeat", type=int, default=9)
    args = parser.parse_args()
    if args.repeat < 1:
        raise SystemExit("error: --repeat must be at least 1")

    use_src(args.src)
    sys.path.insert(1, str(BENCH))
    from fockmodes import optimize, transform
    from workloads import Objective

    workload = Objective(args.seed)
    sources = workload.sources
    evals = [item for item in workload.items if item["kind"] == "eval"]
    rewrites = [transform._rewriter(source["state"])[1] for source in sources]
    passes: list[dict[str, float]] = []

    def part(name, call):
        return best_of(passes[-1], name, call, args.repeat)

    for _ in range(PASSES):
        passes.append({})
        objectives = [
            part("build", lambda: optimize.entropy_objective(source["state"],
                                                              source["partition"]))
            for source in sources
        ]
        for item in evals:
            theta, index = item["theta"], item["source"]
            herm = part("hermitian_from_params",
                        lambda: transform.hermitian_from_params(np.negative(theta)))
            subst = part("exp_i_hermitian", lambda: transform.exp_i_hermitian(herm))
            part("rewrite", lambda: rewrites[index](subst))
            part("objective", lambda: objectives[index](theta))
        totals = passes[-1]
        totals["rest"] = totals["objective"] - sum(totals[name] for name in PARTS)

    def whole(totals: dict[str, float]) -> float:
        return totals["build"] + totals["objective"]

    counts = {"passes": PASSES, "items": len(evals), "sources": len(sources)}
    for name in passes[0]:
        print(json.dumps({"layer": name, **quartiles("", [totals[name] for totals in passes]),
                          "share": share(passes, name, whole), **counts}))
    print(json.dumps({**quartiles("total_", list(map(whole, passes))), **counts}))


if __name__ == "__main__":
    main()
