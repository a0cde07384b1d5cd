#!/usr/bin/env python3
"""Per-part time of one gated benchmark workload's pass, over several passes.

    python3 tools/layers.py --workload rewrite|objective --src PATH [--against PATH]
        [--seed N] [--repeat 9]

Imports fockmodes from PATH (a checkout's ``src`` directory) and nowhere
else, and draws the items of one pass from ``bench/workloads.py`` in this
checkout, seeded by ``--seed`` (131 for ``rewrite``, 171 for
``objective``), so two trees see the same items.  Each item's whole run,
as ``bench/run.py`` times it, and each of its parts are run ``--repeat``
times, each part on the previous part's output, and the fastest run is
kept.  The pass runs PASSES times; a part's time in one pass is its
best-of-repeat ms summed over the items.

- ``rewrite``: the chain parse_state -> exp_map -> apply_redefinition ->
  schmidt_spectrum -> rank_bound -> format_state, one part per layer.  The
  whole chain is the query; the total is the sum of the layers.
- ``objective``: the CLI ``entropy`` query (``cli``), run by the tree's own
  ``cli.run_cli`` with its output captured; the ``entropy_objective``
  build (``build``); and for each evaluation at theta the parts of the
  theta closure, ``hermitian_from_params(-theta)``, ``exp_i_hermitian(H)``
  and the ladder rewrite ``transform._rewriter(state)[1](S)`` (built
  outside the timing), then the whole closure (``objective``).  ``rest`` is
  the closure less those three parts: the block spectrum, its checks and
  the entropy.  The total is cli + build + objective, the bench's pass.

Prints one JSON line per part with the median and quartiles of those
per-pass times and, as ``share``, the median of the part's fraction of its
pass's total; one line with the median and quartiles of the total; and one
line with the bench's throughput, p50 and tail over each item's fastest
whole run, as ``bench/run.py`` reads them over its passes, naming the item
the tail falls on.  The shares are steadier between runs than the ms sums.
BLAS is pinned to one thread, as in ``bench/run.py``.

``--against PATH`` loads a second tree's package in the same process under
another name, and runs the two trees item by item, swapping which goes
first each pass.  The host's speed drifts by up to 1.7x between runs, so
this interleaving resolves changes that alternating runs cannot.  Every
line then names its tree, A for ``--src`` and B for ``--against``, and
lines of B/A follow: per part and for the total, the median and quartiles
of the per-pass ratios, then the ratio of each bench metric.  An A/A run,
``--against`` the ``--src`` tree, shows the spread to read them against.
A part whose code did not change can still read up to about 1.02 B/A
from order or cache effects (``parse_state`` read 1.014-1.023 where its
A/A read 0.994), so one run's "within 2 %" on such a part is noise, not a
gate.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import statistics
import sys
from pathlib import Path

import numpy as np

from checkout import best_of, load_tree, quartiles, share, use_src

BENCH = Path(__file__).resolve().parent.parent / "bench"
# Passes per run: one pass of one tree spreads by up to two thirds between
# runs, so a run reports the median and quartiles of several.
PASSES = 5


class Timer:
    """One tree's best-of-repeat times: per part in each pass, and each
    item's whole run in item order, pass after pass."""

    def __init__(self, repeat: int):
        self.repeat = repeat
        self.passes: list[dict[str, float]] = []
        self.latencies: list[float] = []

    def part(self, name: str | None, call, query: bool = False):
        """Add `call`'s ms to part `name` of this pass, if named, and to the
        latencies when it is the item's whole run (`query`; each item has
        exactly one); return its result."""
        result, ms = best_of(call, self.repeat)
        if name is not None:
            self.passes[-1][name] = self.passes[-1].get(name, 0.0) + ms
        if query:
            self.latencies.append(ms)
        return result


class RewriteChain:
    """The ``rewrite`` workload's items, each timed layer by layer."""

    seed = 131

    def __init__(self, trees, seed: int):
        from workloads import Rewrite

        self.trees = trees
        self.items = Rewrite(seed).items
        self.counts = {"items": len(self.items)}

    @staticmethod
    def total(totals: dict[str, float]) -> float:
        return sum(totals.values())

    def run(self, tree: str, item, timer: Timer) -> None:
        package = self.trees[tree]
        ketparse, transform, entanglement = (
            package.ketparse, package.transform, package.entanglement
        )
        cut = package.Partition(item["partition"].side_a, item["partition"].side_b)

        def chain():
            state = ketparse.parse_state(item["text"])
            rewritten = transform.apply_redefinition(state, transform.exp_map(item["theta"]))
            entanglement.schmidt_spectrum(rewritten, cut)
            entanglement.rank_bound(rewritten, cut)
            return ketparse.format_state(rewritten)

        part = timer.part
        part(None, chain, query=True)
        state = part("parse_state", lambda: ketparse.parse_state(item["text"]))
        unitary = part("exp_map", lambda: transform.exp_map(item["theta"]))
        rewritten = part(
            "apply_redefinition", lambda: transform.apply_redefinition(state, unitary)
        )
        part("schmidt_spectrum", lambda: entanglement.schmidt_spectrum(rewritten, cut))
        part("rank_bound", lambda: entanglement.rank_bound(rewritten, cut))
        part("format_state", lambda: ketparse.format_state(rewritten))


class ObjectiveParts:
    """The ``objective`` workload's items: CLI queries, builds, and
    evaluations timed part by part."""

    seed = 171
    # Parts of the closure timed on their own; `rest` is the closure less these.
    CLOSURE = ("hermitian_from_params", "exp_i_hermitian", "rewrite")

    def __init__(self, trees, seed: int):
        from workloads import Objective

        workload = Objective(seed)
        self.trees = trees
        for package in trees.values():  # the package itself does not import cli
            importlib.import_module(".cli", package.__name__)
        self.items = workload.items
        self.counts = {"items": sum(item["kind"] == "eval" for item in self.items),
                       "sources": len(workload.sources)}
        # Each tree parses the sources' kets and cuts itself.
        self.sources = {
            name: [(package.ketparse.parse_state(source["text"]),
                    package.Partition.from_string(source["cut"]))
                   for source in workload.sources]
            for name, package in trees.items()
        }
        self.rewrites = {
            name: [trees[name].transform._rewriter(state)[1] for state, _ in sources]
            for name, sources in self.sources.items()
        }
        self.objectives: dict[str, dict[int, object]] = {name: {} for name in trees}

    @staticmethod
    def total(totals: dict[str, float]) -> float:
        return totals["cli"] + totals["build"] + totals["objective"]

    def run(self, tree: str, item, timer: Timer) -> None:
        package, index = self.trees[tree], item["source"]
        if item["kind"] == "cli":
            code, _, err = timer.part(
                "cli", lambda: run_cli_captured(package.cli, item["argv"]), query=True
            )
            if code:
                raise SystemExit(f"error: tree {tree} ({package.__file__}) refused "
                                 f"{item['label']} with code {code}: {err.strip()}")
        elif item["kind"] == "build":
            state, cut = self.sources[tree][index]
            self.objectives[tree][index] = timer.part(
                "build", lambda: package.optimize.entropy_objective(state, cut),
                query=True,
            )
        else:
            transform, theta, part = package.transform, item["theta"], timer.part
            herm = part("hermitian_from_params",
                        lambda: transform.hermitian_from_params(np.negative(theta)))
            subst = part("exp_i_hermitian", lambda: transform.exp_i_hermitian(herm))
            part("rewrite", lambda: self.rewrites[tree][index](subst))
            part("objective", lambda: self.objectives[tree][index](theta), query=True)
            totals = timer.passes[-1]
            totals["rest"] = totals["objective"] - sum(map(totals.get, self.CLOSURE))


WORKLOADS = {"rewrite": RewriteChain, "objective": ObjectiveParts}


def run_cli_captured(cli, argv: list[str]) -> tuple[int, str, str]:
    """``bench/workloads.run_cli_captured`` through a given tree's `cli`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_cli(argv)
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument(
        "--src", required=True, help="directory holding the fockmodes package"
    )
    parser.add_argument(
        "--against", help="a second tree's directory holding the fockmodes package"
    )
    parser.add_argument("--seed", type=int,
                        help="default: 131 for rewrite, 171 for objective")
    parser.add_argument("--repeat", type=int, default=9)
    args = parser.parse_args()
    if args.repeat < 1:
        raise SystemExit("error: --repeat must be at least 1")

    use_src(args.src)
    sys.path.insert(1, str(BENCH))
    import fockmodes
    from run import query_latencies, tail

    trees = {"A": fockmodes}
    if args.against:
        trees["B"] = load_tree(args.against, "fockmodes_against")
    kind = WORKLOADS[args.workload]
    workload = kind(trees, kind.seed if args.seed is None else args.seed)
    timers = {name: Timer(args.repeat) for name in trees}

    for index in range(PASSES):
        order = list(trees)[:: -1 if index % 2 else 1]
        for name in order:
            timers[name].passes.append({})
        for item in workload.items:
            for name in order:
                workload.run(name, item, timers[name])

    def bench(timer: Timer) -> tuple[dict[str, float], str]:
        """The bench metrics, and the label of the item the tail falls on."""
        per_query = query_latencies(timer.latencies, len(workload.items))
        tail_ms = tail(per_query)[0]
        return ({"throughput_per_s": len(per_query) / (sum(per_query) / 1e3),
                 "latency_p50_ms": statistics.median(per_query),
                 "latency_tail_ms": tail_ms},
                workload.items[per_query.index(tail_ms)]["label"])

    counts = {"passes": PASSES, **workload.counts}
    metrics = {name: bench(timer) for name, timer in timers.items()}
    for name, timer in timers.items():
        tag = {"tree": name} if len(trees) > 1 else {}
        runs = timer.passes
        for part in runs[0]:
            print(json.dumps({**tag, "layer": part,
                              **quartiles("", [totals[part] for totals in runs]),
                              "share": share(runs, part, workload.total), **counts}))
        print(json.dumps({**tag, **quartiles("total_", list(map(workload.total, runs))),
                          **counts}))
        values, tail_item = metrics[name]
        print(json.dumps({**tag, **{key: round(v, 4) for key, v in values.items()},
                          "tail_item": tail_item, "queries": len(workload.items)}))
    if len(trees) == 1:
        return

    def ratios(value) -> dict[str, float]:
        q1, median, q3 = statistics.quantiles(
            [value(b) / value(a) for a, b in zip(timers["A"].passes, timers["B"].passes)],
            n=4,
        )
        return {"b_over_a_median": round(median, 4), "b_over_a_q1": round(q1, 4),
                "b_over_a_q3": round(q3, 4)}

    for part in timers["A"].passes[0]:
        print(json.dumps({"layer": part, **ratios(lambda totals: totals[part])}))
    print(json.dumps({"layer": "total", **ratios(workload.total)}))
    (a, _), (b, _) = metrics["A"], metrics["B"]
    print(json.dumps({"b_over_a": {key: round(b[key] / a[key], 4) for key in a}}))


if __name__ == "__main__":
    main()
