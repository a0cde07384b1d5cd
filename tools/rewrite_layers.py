#!/usr/bin/env python3
"""Per-layer time of the ``rewrite`` benchmark workload's pass, over several passes.

    python3 tools/rewrite_layers.py --src PATH [--seed 131] [--repeat 9]

Imports fockmodes from PATH (a checkout's ``src`` directory) and nowhere
else, and draws the items of one pass from ``bench/workloads.py``'s
``Rewrite(seed)`` in this checkout, so two trees see the same items.  Each
item runs the chain parse_state -> exp_map -> apply_redefinition ->
schmidt_spectrum -> rank_bound -> format_state, each layer ``--repeat``
times on the previous layer's output.  The pass runs PASSES times; a
layer's time in one pass is its best-of-repeat ms per item summed over the
items.  Prints one JSON line per layer with the median and quartiles of
those per-pass times and, as ``share``, the median of the layer's fraction
of its pass's total, then one line with the median and quartiles of the
total.  The shares are steadier between runs than the ms sums.  To compare
two trees, alternate runs of this script on each.  BLAS is pinned
to one thread, as in ``bench/run.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from checkout import best_of, quartiles, share, use_src

BENCH = Path(__file__).resolve().parent.parent / "bench"
# Passes per run: one pass of one tree spreads by up to two thirds between
# runs, so a run reports the median and quartiles of several.
PASSES = 5


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src", required=True, help="directory holding the fockmodes package"
    )
    parser.add_argument("--seed", type=int, default=131)
    parser.add_argument("--repeat", type=int, default=9)
    args = parser.parse_args()
    if args.repeat < 1:
        raise SystemExit("error: --repeat must be at least 1")

    use_src(args.src)
    sys.path.insert(1, str(BENCH))
    from fockmodes import entanglement, ketparse, transform
    from workloads import Rewrite

    items = Rewrite(args.seed).items
    passes: list[dict[str, float]] = []

    def layer(name, call):
        return best_of(passes[-1], name, call, args.repeat)

    for _ in range(PASSES):
        passes.append({})
        for item in items:
            cut = item["partition"]
            state = layer("parse_state", lambda: ketparse.parse_state(item["text"]))
            unitary = layer("exp_map", lambda: transform.exp_map(item["theta"]))
            rewritten = layer(
                "apply_redefinition", lambda: transform.apply_redefinition(state, unitary)
            )
            layer("schmidt_spectrum", lambda: entanglement.schmidt_spectrum(rewritten, cut))
            layer("rank_bound", lambda: entanglement.rank_bound(rewritten, cut))
            layer("format_state", lambda: ketparse.format_state(rewritten))

    def spread(prefix: str, times: list[float]) -> dict[str, float]:
        return {**quartiles(prefix, times), "passes": PASSES, "items": len(items)}

    for name in passes[0]:
        print(json.dumps({"layer": name, **spread("", [totals[name] for totals in passes]),
                          "share": share(passes, name, lambda totals: sum(totals.values()))}))
    print(json.dumps(spread("total_", [sum(totals.values()) for totals in passes])))


if __name__ == "__main__":
    main()
