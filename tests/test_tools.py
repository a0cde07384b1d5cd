"""Smoke test of tools/layers.py, the in-process per-part timer of the
``rewrite`` and ``objective`` benchmark workloads, a canned-run test of
tools/pairs.py, the alternating runner of two checkouts, a repeat test of
tools/query_peak.py, the one-query process runner, and a canned-record test
of the after-the-bound counts of tools/suite_rows.py."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_pairs_tool_alternates_and_summarizes_canned_runs(tmp_path, monkeypatch, capsys):
    # Canned results stand in for bench/run.py: on `rewrite` the change
    # reads 2 % more throughput in every pair but the third; nothing fails.
    import importlib.util

    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    calls = []

    def canned(checkout, command):
        side, workload = checkout.name, command[command.index("--workload") + 1]
        pair = sum(call == (side, workload) for call, _ in calls) + 1
        calls.append(((side, workload), command))
        gain = 1.02 if (side, workload) == ("change", "rewrite") and pair != 3 else 1.0
        value = {"throughput_per_s": (100.0 + pair) * gain}
        metrics = {name: {"value": value.get(name, 1.0), "unit": ""}
                   for name in ("setup_s", "throughput_per_s", "latency_p50_ms",
                                "latency_tail_ms", "rss_peak_mb")}
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(pairs, "run_bench", canned)
    out = tmp_path / "BENCH_0.json"
    assert pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                       str(tmp_path / "change"), "--workload", "rewrite", "--workload",
                       "objective", "--seed", "3", "--pairs", "4", "--seconds", "2",
                       "--out", str(out)]) == 0
    order = ["parent", "change", "change", "parent"] * 2
    assert [call for call, _ in calls] == (
        [(side, "rewrite") for side in order] + [(side, "objective") for side in order]
    )
    assert calls[0][1][-8:] == ["--workload", "rewrite", "--seed", "3", "--seconds", "2",
                                "--trace", "0"]
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [line["workload"] for line in lines] == ["rewrite"] * 6 + ["objective"] * 6
    by_metric = {(line["workload"], line.get("metric")): line for line in lines}
    throughput = by_metric["rewrite", "throughput_per_s"]
    assert (throughput["wins"], throughput["pairs"]) == (3, 4)
    assert throughput["parent"]["median"] == 102.5
    assert throughput["beyond_parent_spread"] is False
    # Per pair the change reads 1.02, 1.02, 1.0 and 1.02 of the parent.
    assert throughput["pair_ratio"] == {"median": 1.02, "q1": 1.005, "q3": 1.02}
    assert by_metric["objective", "throughput_per_s"]["pair_ratio"] == {
        "median": 1.0, "q1": 1.0, "q3": 1.0}
    # Equal values are ties: no wins either way, and no difference.
    assert by_metric["objective", "throughput_per_s"]["wins"] == 0
    assert by_metric["rewrite", "latency_p50_ms"]["change_over_parent"] == 1.0
    assert by_metric["objective", None] == {
        "workload": "objective", "parent": {"failed": 0, "attempted": 40},
        "change": {"failed": 0, "attempted": 40},
    }
    written = json.loads(out.read_text())
    assert written["summary"] == lines
    assert [(run["pair"], run["side"], run["first"]) for run in written["runs"][:4]] == [
        (1, "parent", "parent"), (1, "change", "parent"),
        (2, "change", "change"), (2, "parent", "change"),
    ]
    assert (written["pairs"], written["runs"][-1]["workload"]) == (4, "objective")
    # A run that reports wrong answers stops the tool before any summary.
    monkeypatch.setattr(pairs, "run_bench", lambda checkout, command: {
        **canned(checkout, command), "correct": False})
    with pytest.raises(SystemExit, match="rewrite pair 1 parent gave wrong answers"):
        pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                    "--workload", "rewrite", "--seed", "3", "--out", str(tmp_path / "x.json")])
    assert capsys.readouterr().out == "" and not (tmp_path / "x.json").exists()


def test_query_peak_tool_hashes_repeated_json_reports_alike():
    # Two runs of one `--json` report query at once: the same exit code and
    # stdout hash, so the hash can compare a report query across trees.
    command = [sys.executable, "tools/query_peak.py", "--src", "src", "--",
               "rank-bound", "|20>+|02>", "--partition", "0|1", "--json"]
    runs = [subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True) for _ in range(2)]
    lines = []
    for run in runs:
        out, err = run.communicate(timeout=60)
        assert run.returncode == 0, err
        lines.append(json.loads(out))
    assert [line["exit_code"] for line in lines] == [0, 0]
    assert lines[0]["stdout_sha256"] == lines[1]["stdout_sha256"]
    assert lines[0]["stdout_bytes"] > 0


def test_suite_rows_counts_the_work_after_the_first_restart_at_the_bound(monkeypatch):
    # Canned (values, gradients, entropy) records stand in for the restarts
    # of one optimizer call; the restarts after the first at the bound count.
    import importlib.util

    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    spec = importlib.util.spec_from_file_location("suite_rows", ROOT / "tools" / "suite_rows.py")
    suite_rows = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite_rows)
    after_bound = suite_rows.after_bound
    top = math.log2(3)
    # min: 1e-9 is at the bound 0, and the restarts after it count even
    # where they end at the bound too.
    restarts = [(40, 9, 0.31), (25, 11, 1e-9), (7, 3, 0.0), (12, 6, 0.2)]
    assert after_bound(restarts, 0.0) == {
        "first_at_bound": 1, "values_after_bound": 19, "gradients_after_bound": 9}
    # max: 2e-9 below log2 3 is not at the bound, 1e-12 below it is.
    restarts = [(30, 20, top - 2e-9), (8, 5, top), (16, 10, top - 1e-12), (9, 4, 1.0)]
    assert after_bound(restarts, top) == {
        "first_at_bound": 1, "values_after_bound": 25, "gradients_after_bound": 14}
    assert after_bound(restarts[:1] + restarts[3:], top) == {
        "first_at_bound": None, "values_after_bound": 0, "gradients_after_bound": 0}
    assert after_bound(restarts[:2], top) == {
        "first_at_bound": 1, "values_after_bound": 0, "gradients_after_bound": 0}
    assert after_bound([], 0.0)["first_at_bound"] is None
