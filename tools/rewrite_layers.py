#!/usr/bin/env python3
"""Per-layer time of the ``rewrite`` benchmark workload's pass, over several passes.

    python3 tools/rewrite_layers.py --src PATH [--against PATH] [--seed 131] [--repeat 9]

Imports fockmodes from PATH (a checkout's ``src`` directory) and nowhere
else, and draws the items of one pass from ``bench/workloads.py``'s
``Rewrite(seed)`` in this checkout, so two trees see the same items.  Each
item runs the chain parse_state -> exp_map -> apply_redefinition ->
schmidt_spectrum -> rank_bound -> format_state whole, as ``bench/run.py``
runs a query, ``--repeat`` times, and then each layer ``--repeat`` times
on the previous layer's output.  The pass runs PASSES times; a layer's
time in one pass is its best-of-repeat ms per item summed over the items.
Prints one JSON line per layer with the median and quartiles of those
per-pass times and, as ``share``, the median of the layer's fraction of
its pass's total; one line with the median and quartiles of the total;
and one line with the bench's throughput, p50 and tail over each item's
fastest whole chain, as ``bench/run.py`` reads them over its passes.  The
shares are steadier between runs than the ms sums.  BLAS is pinned to one
thread, as in ``bench/run.py``.

``--against PATH`` loads a second tree's package in the same process under
another name, and runs the two trees item by item, swapping which goes
first each pass.  The host's speed drifts by up to 1.7x between runs, so
this interleaving resolves changes that alternating runs cannot.  Every
line then names its tree, A for ``--src`` and B for ``--against``, and
lines of B/A follow: per layer and for the total, the median and
quartiles of the per-pass ratios, then the ratio of each bench metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from checkout import best_of, load_tree, quartiles, share, use_src

BENCH = Path(__file__).resolve().parent.parent / "bench"
# Passes per run: one pass of one tree spreads by up to two thirds between
# runs, so a run reports the median and quartiles of several.
PASSES = 5


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src", required=True, help="directory holding the fockmodes package"
    )
    parser.add_argument(
        "--against", help="a second tree's directory holding the fockmodes package"
    )
    parser.add_argument("--seed", type=int, default=131)
    parser.add_argument("--repeat", type=int, default=9)
    args = parser.parse_args()
    if args.repeat < 1:
        raise SystemExit("error: --repeat must be at least 1")

    use_src(args.src)
    sys.path.insert(1, str(BENCH))
    import fockmodes
    from run import query_latencies, tail
    from workloads import Rewrite

    trees = {"A": fockmodes}
    if args.against:
        trees["B"] = load_tree(args.against, "fockmodes_against")
    items = Rewrite(args.seed).items
    passes: dict[str, list[dict[str, float]]] = {name: [] for name in trees}
    latencies: dict[str, list[float]] = {name: [] for name in trees}

    def execute(tree, item):
        package, totals = trees[tree], passes[tree][-1]
        ketparse, transform, entanglement = (
            package.ketparse, package.transform, package.entanglement
        )
        cut = package.Partition(item["partition"].side_a, item["partition"].side_b)

        def query():
            state = ketparse.parse_state(item["text"])
            rewritten = transform.apply_redefinition(state, transform.exp_map(item["theta"]))
            entanglement.schmidt_spectrum(rewritten, cut)
            entanglement.rank_bound(rewritten, cut)
            return ketparse.format_state(rewritten)

        fastest: dict[str, float] = {}
        best_of(fastest, "query", query, args.repeat)
        latencies[tree].append(fastest["query"])

        def layer(name, call):
            return best_of(totals, name, call, args.repeat)

        state = layer("parse_state", lambda: ketparse.parse_state(item["text"]))
        unitary = layer("exp_map", lambda: transform.exp_map(item["theta"]))
        rewritten = layer(
            "apply_redefinition", lambda: transform.apply_redefinition(state, unitary)
        )
        layer("schmidt_spectrum", lambda: entanglement.schmidt_spectrum(rewritten, cut))
        layer("rank_bound", lambda: entanglement.rank_bound(rewritten, cut))
        layer("format_state", lambda: ketparse.format_state(rewritten))

    for index in range(PASSES):
        order = list(trees)[:: -1 if index % 2 else 1]
        for name in order:
            passes[name].append({})
        for item in items:
            for name in order:
                execute(name, item)

    def whole(totals: dict[str, float]) -> float:
        return sum(totals.values())

    def bench(name: str) -> dict[str, float]:
        per_query = query_latencies(latencies[name], len(items))
        return {"throughput_per_s": len(per_query) / (sum(per_query) / 1e3),
                "latency_p50_ms": statistics.median(per_query),
                "latency_tail_ms": tail(per_query)[0]}

    counts = {"passes": PASSES, "items": len(items)}
    for name, runs in passes.items():
        tag = {"tree": name} if len(trees) > 1 else {}
        for layer in runs[0]:
            print(json.dumps({**tag, "layer": layer,
                              **quartiles("", [totals[layer] for totals in runs]),
                              "share": share(runs, layer, whole), **counts}))
        print(json.dumps({**tag, **quartiles("total_", list(map(whole, runs))), **counts}))
        print(json.dumps({**tag, **{key: round(value, 4) for key, value in bench(name).items()},
                          "queries": len(items)}))
    if len(trees) == 1:
        return

    def ratios(part) -> dict[str, float]:
        q1, median, q3 = statistics.quantiles(
            [part(b) / part(a) for a, b in zip(passes["A"], passes["B"])], n=4
        )
        return {"b_over_a_median": round(median, 4), "b_over_a_q1": round(q1, 4),
                "b_over_a_q3": round(q3, 4)}

    for layer in passes["A"][0]:
        print(json.dumps({"layer": layer, **ratios(lambda totals: totals[layer])}))
    print(json.dumps({"layer": "total", **ratios(whole)}))
    a, b = bench("A"), bench("B")
    print(json.dumps({"b_over_a": {key: round(b[key] / a[key], 4) for key in a}}))


if __name__ == "__main__":
    main()
