"""Smoke test of tools/layers.py, the in-process per-part timer of the
``rewrite`` and ``objective`` benchmark workloads."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PARTS = {
    "rewrite": ["parse_state", "exp_map", "apply_redefinition", "schmidt_spectrum",
                "rank_bound", "format_state"],
    "objective": ["cli", "build", "hermitian_from_params", "exp_i_hermitian", "rewrite",
                  "objective", "rest"],
}
BENCH_KEYS = {"throughput_per_s", "latency_p50_ms", "latency_tail_ms"}


def test_layers_tool_names_every_part_of_both_workloads():
    # `rewrite` on one tree; `objective` against the same tree, which tags
    # each tree's lines and adds the B/A lines.  Both run at once.
    trees = {"rewrite": [None], "objective": ["A", "B"]}
    runs = {
        workload: subprocess.Popen(
            [sys.executable, "tools/layers.py", "--workload", workload, "--src", "src",
             "--repeat", "1", *(["--against", "src"] if len(names) > 1 else [])],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for workload, names in trees.items()
    }
    for workload, run in runs.items():
        out, err = run.communicate(timeout=120)
        assert run.returncode == 0, err
        lines = [json.loads(line) for line in out.splitlines()]
        parts = PARTS[workload]
        for tree in trees[workload]:
            own = [line for line in lines if line.get("tree") == tree]
            assert [line["layer"] for line in own if "layer" in line] == parts, workload
            assert sum("total_median_ms" in line for line in own) == 1
            (bench,) = [line for line in own if "latency_tail_ms" in line]
            assert BENCH_KEYS <= bench.keys() and bench["queries"] > 0
            assert bench["tail_item"]
        ratios = [line["layer"] for line in lines if "b_over_a_median" in line]
        if len(trees[workload]) > 1:
            assert ratios == parts + ["total"]
            assert lines[-1]["b_over_a"].keys() == BENCH_KEYS
        else:
            assert ratios == []
