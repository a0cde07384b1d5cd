#!/usr/bin/env python3
"""Per-part time of the ``objective`` benchmark workload's evaluations, over several passes.

    python3 tools/objective_layers.py --src PATH [--against PATH] [--seed 171] [--repeat 9]

Imports fockmodes from PATH (a checkout's ``src`` directory) and nowhere
else, and draws the items of one pass from ``bench/workloads.py``'s
``Objective(seed)`` in this checkout, so two trees see the same items;
each tree parses the sources' kets and cuts itself.  Each source state's
``entropy_objective`` build is timed (``build``).  Each evaluation item at
theta times, on the previous part's output, the parts of the theta
closure: ``hermitian_from_params(-theta)``, ``exp_i_hermitian(H)``, and the
ladder rewrite ``transform._rewriter(state)[1](S)`` (built outside the
timing); then the whole closure (``objective``).  ``rest`` is the closure
less those three parts: the block spectrum, its checks and the entropy.
Every part is timed ``--repeat`` times and its fastest run kept.  The pass
runs PASSES times; a part's time in one pass is its best-of-repeat ms
summed over the items.  Prints one JSON line per part with the median and
quartiles of those per-pass times and, as ``share``, the median of the
part's fraction of its pass's total (``build`` plus ``objective``), then
one line with the median and quartiles of that total.  The shares are
steadier between runs than the ms sums.  BLAS is pinned to one thread, as
in ``bench/run.py``.

``--against PATH`` loads a second tree's package in the same process under
another name, and runs the two trees item by item, swapping which goes
first each pass.  One tree's sums swing by about 2x between runs, so this
interleaving resolves changes that alternating runs cannot.  Every line
then names its tree, A for ``--src`` and B for ``--against``, and lines of
B/A follow: per part and for the total, the median and quartiles of the
per-pass ratios.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import numpy as np

from checkout import best_of, load_tree, quartiles, share, use_src

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
    parser.add_argument(
        "--against", help="a second tree's directory holding the fockmodes package"
    )
    parser.add_argument("--seed", type=int, default=171)
    parser.add_argument("--repeat", type=int, default=9)
    args = parser.parse_args()
    if args.repeat < 1:
        raise SystemExit("error: --repeat must be at least 1")

    use_src(args.src)
    sys.path.insert(1, str(BENCH))
    import fockmodes
    from workloads import Objective

    trees = {"A": fockmodes}
    if args.against:
        trees["B"] = load_tree(args.against, "fockmodes_against")
    workload = Objective(args.seed)
    evals = [item for item in workload.items if item["kind"] == "eval"]
    # Each tree's own states and cuts, and the rewrite of each state.
    sources = {
        name: [(package.ketparse.parse_state(source["text"]),
                package.Partition.from_string(source["cut"]))
               for source in workload.sources]
        for name, package in trees.items()
    }
    rewrites = {
        name: [package.transform._rewriter(state)[1] for state, _ in sources[name]]
        for name, package in trees.items()
    }
    passes: dict[str, list[dict[str, float]]] = {name: [] for name in trees}
    objectives: dict[str, list] = {}

    def part(tree, name, call):
        return best_of(passes[tree][-1], name, call, args.repeat)

    def build(tree, index):
        state, cut = sources[tree][index]
        objectives[tree].append(part(
            tree, "build", lambda: trees[tree].optimize.entropy_objective(state, cut)
        ))

    def evaluate(tree, item):
        transform, theta, index = trees[tree].transform, item["theta"], item["source"]
        herm = part(tree, "hermitian_from_params",
                    lambda: transform.hermitian_from_params(np.negative(theta)))
        subst = part(tree, "exp_i_hermitian", lambda: transform.exp_i_hermitian(herm))
        part(tree, "rewrite", lambda: rewrites[tree][index](subst))
        part(tree, "objective", lambda: objectives[tree][index](theta))

    for index in range(PASSES):
        order = list(trees)[:: -1 if index % 2 else 1]
        for name in order:
            passes[name].append({})
            objectives[name] = []
        for source in range(len(workload.sources)):
            for name in order:
                build(name, source)
        for item in evals:
            for name in order:
                evaluate(name, item)
        for name in order:
            totals = passes[name][-1]
            totals["rest"] = totals["objective"] - sum(totals[key] for key in PARTS)

    def whole(totals: dict[str, float]) -> float:
        return totals["build"] + totals["objective"]

    counts = {"passes": PASSES, "items": len(evals), "sources": len(workload.sources)}
    for name, runs in passes.items():
        tag = {"tree": name} if len(trees) > 1 else {}
        for layer in runs[0]:
            print(json.dumps({**tag, "layer": layer,
                              **quartiles("", [totals[layer] for totals in runs]),
                              "share": share(runs, layer, whole), **counts}))
        print(json.dumps({**tag, **quartiles("total_", list(map(whole, runs))), **counts}))
    if len(trees) == 1:
        return

    def ratios(value) -> dict[str, float]:
        q1, median, q3 = statistics.quantiles(
            [value(b) / value(a) for a, b in zip(passes["A"], passes["B"])], n=4
        )
        return {"b_over_a_median": round(median, 4), "b_over_a_q1": round(q1, 4),
                "b_over_a_q3": round(q3, 4)}

    for layer in passes["A"][0]:
        print(json.dumps({"layer": layer, **ratios(lambda totals: totals[layer])}))
    print(json.dumps({"layer": "total", **ratios(whole)}))


if __name__ == "__main__":
    main()
