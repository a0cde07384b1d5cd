"""Spans recorded from outside the library, around calls into its modules.

``Tracer.installed`` replaces every public function of the layer modules
with a timing wrapper wherever the function is bound, including the names
one module imported from another (``fockmodes.optimize.exp_map``,
``fockmodes.cli.optimize_entanglement``), and puts every original back on
exit.  Spans stay in memory as tuples until ``write`` is called once at the
end of a run.
"""

from __future__ import annotations

import contextlib
import gzip
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict

# The package modules that do work; `suite` is replayed by the benchmark,
# not called, and `errors` only defines exception classes.
LAYERS = ("cli", "ketparse", "optimize", "transform", "entanglement", "fock")

# Factories whose returned callable is itself wrapped, under this label.
RETURNED_CALLABLES = {"optimize.entropy_objective": "optimize.objective"}

# Span tuple layout.
NAME, SID, PARENT, START, END, REQUEST = range(6)


class Tracer:
    """Span store plus the wrappers that fill it (single-threaded)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.request = -1
        self._stack: list[int] = []
        self._ids = itertools.count()

    def name_id(self, label: str) -> int:
        if label not in self._name_ids:
            self._name_ids[label] = len(self.names)
            self.names.append(label)
        return self._name_ids[label]

    def wrap(self, label: str, fn, root: bool = False):
        """`fn` with a span named `label` around every call.

        Only a `root` wrapper opens a span outside any other span, so calls
        the benchmark makes between queries (its answer checks) stay out
        of the trace.
        """
        nid = self.name_id(label)
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns
        inner_label = RETURNED_CALLABLES.get(label)

        def traced(*args, **kwargs):
            if not (stack or root):
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((nid, sid, parent, start, end, self.request))
            if inner_label is not None:
                result = self.wrap(inner_label, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        return traced

    @contextlib.contextmanager
    def installed(self, package: str = "fockmodes"):
        """Patch every binding of the layer modules' public functions."""
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for name, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    replacements[id(value)] = (value, self.wrap(f"{layer}.{name}", value))
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
        ]
        patched = []
        try:
            for module in modules:
                for name, value in list(vars(module).items()):
                    hit = replacements.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(module, name, hit[1])
                        patched.append((module, name, value))
            yield self
        finally:
            for module, name, value in reversed(patched):
                setattr(module, name, value)

    def write(self, path) -> None:
        """Write names and spans as one gzipped JSON document."""
        doc = {
            "fields": ["name", "id", "parent", "start_ns", "end_ns", "request"],
            "names": self.names,
            "spans": self.spans,
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def wrapper_cost_ns(calls: int = 100_000) -> float:
    """Mean time one recorded span adds to a call, measured on a no-op."""
    tracer = Tracer()

    def noop():
        return None

    def loop(fn):
        start = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        return time.perf_counter_ns() - start

    traced = tracer.wrap("noop", noop)
    return (tracer.wrap("root", loop, root=True)(traced) - loop(noop)) / calls


def covered_ns(intervals, start: int, end: int) -> int:
    """Length of the union of `intervals` clipped to [start, end]."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return {
        span[SID]: span[END] - span[START]
        - covered_ns(children.get(span[SID], ()), span[START], span[END])
        for span in spans
    }


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans; counts are per pass.

    A mean over calls is 0 when the function never ran on the workload.
    """
    names = tracer.names
    selfs = self_times(tracer.spans)
    calls = defaultdict(int)
    total = defaultdict(int)
    self_ns = defaultdict(int)
    layer_self = defaultdict(int)
    query_ns = 0
    parents_of_sparse = set()
    for span in tracer.spans:
        label = names[span[NAME]]
        calls[label] += 1
        total[label] += span[END] - span[START]
        self_ns[label] += selfs[span[SID]]
        layer_self[label.split(".", 1)[0]] += selfs[span[SID]]
        if label == "bench.query":
            query_ns += span[END] - span[START]
        elif label == "transform.apply_redefinition":
            parents_of_sparse.add(span[PARENT])
    objective_calls = 0
    fallback_calls = 0
    for span in tracer.spans:
        if names[span[NAME]] == "optimize.objective":
            objective_calls += 1
            fallback_calls += span[SID] in parents_of_sparse

    def mean(label, values, scale):
        return values[label] / calls[label] / scale if calls[label] else 0.0

    def per_pass(label):
        return calls[label] / passes

    metrics = {
        "optimize.objective_evals": (per_pass("optimize.objective"), "count/pass"),
        "optimize.objective_us": (mean("optimize.objective", total, 1e3), "us"),
        "optimize.build_ms": (mean("optimize.entropy_objective", total, 1e6), "ms"),
        "optimize.search_self_ms": (
            mean("optimize.optimize_entanglement", self_ns, 1e6), "ms"
        ),
        "optimize.fallback_eval_ratio": (
            fallback_calls / objective_calls if objective_calls else 0.0, "ratio"
        ),
        "transform.hermitian_from_params.us": (
            mean("transform.hermitian_from_params", total, 1e3), "us"
        ),
        "transform.hermitian_from_params.calls": (
            per_pass("transform.hermitian_from_params"), "count/pass"
        ),
        "transform.exp_map.us": (mean("transform.exp_map", total, 1e3), "us"),
        "transform.apply_redefinition.us": (
            mean("transform.apply_redefinition", total, 1e3), "us"
        ),
        "transform.apply_redefinition.calls": (
            per_pass("transform.apply_redefinition"), "count/pass"
        ),
        "entanglement.schmidt_spectrum.us": (
            mean("entanglement.schmidt_spectrum", total, 1e3), "us"
        ),
        "entanglement.schmidt_spectrum.calls": (
            per_pass("entanglement.schmidt_spectrum"), "count/pass"
        ),
        "entanglement.rank_bound.us": (mean("entanglement.rank_bound", total, 1e3), "us"),
        "ketparse.parse_state.us": (mean("ketparse.parse_state", total, 1e3), "us"),
        "ketparse.format_state.us": (mean("ketparse.format_state", total, 1e3), "us"),
        "fock.enumerate_sector.ms": (mean("fock.enumerate_sector", total, 1e6), "ms"),
        "cli.self_ms": (layer_self["cli"] / calls["cli.run_cli"] / 1e6
                        if calls["cli.run_cli"] else 0.0, "ms"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (
            layer_self[layer] / query_ns if query_ns else 0.0, "ratio"
        )
    metrics["trace.spans"] = (len(tracer.spans) / passes, "count/pass")
    metrics["trace.overhead_est_frac"] = (
        len(tracer.spans) * wrapper_cost_ns() / query_ns if query_ns else 0.0, "ratio"
    )
    return metrics
