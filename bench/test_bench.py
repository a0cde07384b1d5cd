"""Self-tests of the benchmark: answer checks, self time, patch restore.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import fockmodes  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fockmodes.fock import PureState  # noqa: E402


def report(best, restarts=(0.0,), code=0):
    return code, json.dumps({"best": best, "restart_values": list(restarts)}), ""


def test_extremize_check_rejects_a_corrupted_best():
    wl = workloads.Extremize(seed=0)
    index, item = next((i, it) for i, it in enumerate(wl.items) if it["label"] == "9.2")
    assert wl.check(index, item, report(math.log2(5.0))) is None
    assert wl.check(index, item, report(math.log2(5.0) - 2e-3)) is not None
    with pytest.raises(ValueError):
        wl.check(index, item, report(math.log2(5.0), code=4))


def test_bunched_check_rejects_answers_outside_the_sandwich():
    wl = workloads.Bunched(seed=0)
    for index, item in enumerate(wl.items):
        entropy = item["input_entropy"]
        if item["direction"] == "min":
            assert wl.check(index, item, report(0.0)) is None
            assert wl.check(index, item, report(entropy + 1e-6)) is not None
            assert wl.check(index, item, report(-1e-6)) is not None
        else:
            assert wl.check(index, item, report(item["log2_bound"])) is None
            assert wl.check(index, item, report(item["log2_bound"] + 1e-6)) is not None
            assert wl.check(index, item, report(entropy - 1e-6)) is not None


def test_rewrite_check_rejects_corrupted_answers():
    wl = workloads.Rewrite(seed=0)
    for index, item in enumerate(wl.items[:40]):
        answer = wl.execute(item)
        state, unitary, rewritten, spectrum, bound, text = answer
        # A per-occupation phase keeps the norm but not the amplitudes.
        twisted = PureState(rewritten.mode_count, {
            occ: amp * complex(math.cos(k + 1.0), math.sin(k + 1.0))
            for k, (occ, amp) in enumerate(rewritten.amplitudes.items())
        })
        args = (state, unitary, twisted, spectrum, bound, text, item["sample"])
        assert workloads.check_rewrite(*args) is not None
        assert wl.check(index, item, answer[:4] + (0, text)) is not None
        vacuum = "|" + ",".join("0" * state.mode_count) + ">"
        assert wl.check(index, item, answer[:5] + (f"{text} + 0.01*{vacuum}",)) is not None
        assert wl.check(index, item, answer) is None
        # Later passes must repeat the checked answer.
        assert wl.check(index, item, answer) is None
        assert wl.check(index, item, answer[:5] + (text + " ",)) is not None


def test_objective_check_rejects_corrupted_answers():
    wl = workloads.Objective(seed=0)
    for index, item in enumerate(wl.items):
        answer = wl.execute(item)
        source = wl.sources[item["source"]]
        if item["kind"] == "cli":
            code, out, err = answer
            wrong = json.loads(out)
            wrong["entropy_bits"] += 1e-6
            assert wl.check(index, item, (code, json.dumps(wrong), err)) is not None
        elif item["kind"] == "build":
            assert wl.check(index, item, lambda theta: source["entropy"] + 1e-6) \
                is not None
        else:
            assert wl.check(index, item, answer + 1e-6) is not None
            # Later passes must repeat the checked value.
            assert wl.check(index, item, answer) is None
            assert wl.check(index, item, answer + 1e-12) is not None
        assert wl.check(index, item, answer) is None


class FakeWorkload:
    """Two items: the first always answers wrong, the second raises."""

    items = [{"label": "wrong", "text": "a"}, {"label": "raises", "text": "b"}]

    @staticmethod
    def check(index, item, answer):
        return "corrupted" if answer == "bad" else None


def test_runner_counts_corrupted_and_crashing_queries_as_failures():
    def execute(index, item):
        if item["label"] == "raises":
            raise RuntimeError("boom")
        return "bad"

    latencies, failures, attempted, passes = run.run_passes(FakeWorkload, 0.0, execute)
    assert (attempted, passes, len(latencies)) == (2, 1, 2)
    assert [f["item"] for f in failures] == ["wrong", "raises"]
    assert "boom" in failures[1]["reason"]


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    value, pct = run.tail([float(v) for v in range(1, 13)])
    assert (value, pct) == (2.0, pytest.approx(100 * 2 / 12))
    value, pct = run.tail([float(v) for v in range(1000)])
    assert (value, pct) == (989.0, 99.0)
    with pytest.raises(SystemExit):
        run.tail([1.0] * 10)


def test_query_latency_is_the_fastest_pass():
    # Two items, 4 passes: item 0 alternates fast and slow, item 1 is steady.
    samples = [17.0, 5.0, 10.0, 5.0, 17.0, 5.0, 10.0, 5.0]
    assert run.query_latencies(samples, 2) == [10.0, 5.0]
    assert run.query_latencies([3.0, 4.0], 2) == [3.0, 4.0]


def test_self_time_on_a_hand_built_span_tree():
    # root [0,100] -> a [10,40] -> a1 [20,30]; root -> b [50,60], c [55,70]
    spans = [
        (0, 2, 1, 20, 30, 0),
        (0, 1, 0, 10, 40, 0),
        (0, 3, 0, 50, 60, 0),
        (0, 4, 0, 55, 70, 0),
        (0, 0, -1, 0, 100, 0),
    ]
    assert tracing.self_times(spans) == {0: 50, 1: 20, 2: 10, 3: 10, 4: 15}
    assert tracing.covered_ns([(5, 15), (12, 30), (40, 50)], 10, 45) == 25


def test_layer_metrics_on_a_hand_built_span_tree():
    tracer = tracing.Tracer()
    ids = {label: tracer.name_id(label) for label in (
        "bench.query", "cli.run_cli", "optimize.optimize_entanglement",
        "optimize.objective", "transform.apply_redefinition",
        "transform.hermitian_from_params")}
    # query [0,1000] > run_cli [0,1000] > optimize [100,900] > two objectives,
    # the second with a sparse rewrite inside it.
    tracer.spans[:] = [
        (ids["transform.hermitian_from_params"], 4, 3, 100, 150, 0),
        (ids["optimize.objective"], 3, 2, 100, 300, 0),
        (ids["transform.apply_redefinition"], 6, 5, 400, 600, 0),
        (ids["optimize.objective"], 5, 2, 300, 700, 0),
        (ids["optimize.optimize_entanglement"], 2, 1, 100, 900, 0),
        (ids["cli.run_cli"], 1, 0, 0, 1000, 0),
        (ids["bench.query"], 0, -1, 0, 1000, 0),
    ]
    metrics = tracing.layer_metrics(tracer, passes=1)
    assert metrics["optimize.objective_evals"][0] == 2
    assert metrics["optimize.objective_us"][0] == pytest.approx(0.3)
    assert metrics["optimize.fallback_eval_ratio"][0] == 0.5
    assert metrics["optimize.search_self_ms"][0] == pytest.approx(200 / 1e6)
    assert metrics["cli.self_ms"][0] == pytest.approx(200 / 1e6)
    assert metrics["transform.self_share"][0] == pytest.approx(250 / 1000)
    assert metrics["trace.overhead_est_frac"][0] > 0


def snapshot():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "fockmodes" or name.startswith("fockmodes.")
    }


def test_installed_wrappers_restore_every_patched_attribute():
    before = snapshot()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert fockmodes.optimize.hermitian_from_params is not \
                before["fockmodes.optimize"]["hermitian_from_params"]
            assert fockmodes.cli.optimize_entanglement is not \
                before["fockmodes.cli"]["optimize_entanglement"]
            assert fockmodes.parse_state is not before["fockmodes"]["parse_state"]
            raise RuntimeError("leave the block by an exception")
    after = snapshot()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys(), name
        for attr, value in attrs.items():
            assert after[name][attr] is value, f"{name}.{attr}"


def test_traced_objective_evals_repeat_and_skip_calls_outside_queries():
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        query = tracer.wrap("bench.query", workloads.run_cli_captured, root=True)
        with tracer.installed():
            fockmodes.ketparse.parse_state("|20> + |02>")  # outside any query
            code, out, _ = query(["optimize", "|20> + |02>", "--partition", "0|1",
                                  "--direction", "min", "--restarts", "2", "--json"])
        assert code == 0 and json.loads(out)["best"] == pytest.approx(0.0, abs=1e-6)
        metrics = tracing.layer_metrics(tracer, passes=1)
        assert metrics["ketparse.parse_state.us"][0] > 0
        parse_calls = sum(tracer.names[s[0]] == "ketparse.parse_state" for s in tracer.spans)
        assert parse_calls == 1
        counts.append(metrics["optimize.objective_evals"][0])
    assert counts[0] == counts[1] > 0
