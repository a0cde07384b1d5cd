#!/usr/bin/env python3
"""fockmodes benchmark: one workload, one process, closed loop, one client.

    python3 bench/run.py --workload extremize|bunched|rewrite|objective --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory and nowhere else.  The workload builds one pass of inputs
from ``--seed`` and repeats it until ``--seconds`` have elapsed, sending the
next query only when the previous one has returned.  Every answer is
checked outside the timed span.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics of
``bench/tracing.py`` with ``--trace 1``).  Lines before it print every
metric by name and unit, the environment, and any failed input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# The benchmark pins BLAS to one thread in its own environment: with two
# OpenBLAS threads the dense objective is bimodal between processes.
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is measured in this many fresh processes; the median is reported.
SETUP_PROBES = 7
# The tail percentile is the highest one with at least this many samples
# beyond it.
TAIL_SAMPLES_BEYOND = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("extremize", "bunched", "rewrite", "objective"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="set up, print 'ready' and exit (set-up timing)")
    return parser.parse_args(argv)


def pin_blas() -> None:
    for name in BLAS_VARIABLES:
        os.environ[name] = str(BLAS_THREADS)


def load_library():
    """Import fockmodes from the checkout's src; fail if it is not there."""
    init = SRC / "fockmodes" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import fockmodes

    if Path(fockmodes.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported fockmodes from {fockmodes.__file__}")
    return fockmodes


def blas_info() -> dict:
    """OpenBLAS version and live thread count of the loaded library."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": None}
    with open("/proc/self/maps") as fh:
        libraries = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libraries:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                info["blas_threads"] = int(getattr(lib, symbol)())
                return info
    return info


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh process to its first query, per probe."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        ) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            probe.stdout.read()
            code = probe.wait()
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"error: set-up probe failed (exit {code})")
        times.append(elapsed)
    return times


def query_latencies(latencies: list[float], items: int) -> list[float]:
    """Each item's latency: its fastest pass.

    The host's speed drifts between levels up to 1.7x apart for tens of
    seconds at a time.  The queries are deterministic and cannot run faster
    than the host allows, so the fastest repeat reads the same level in
    every run that saw it once, where a mean or median follows the mix.
    """
    return [min(latencies[index::items]) for index in range(items)]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest nearest-rank percentile with at
    least TAIL_SAMPLES_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_SAMPLES_BEYOND
    if rank < 1:
        raise SystemExit(
            f"error: {len(ordered)} samples leave no percentile with "
            f"{TAIL_SAMPLES_BEYOND} beyond it"
        )
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def run_passes(workload, seconds: float, execute):
    """Repeat the pass while another one ends nearer to `seconds` than
    stopping now would; at least one pass.  Returns the tallies."""
    latencies: list[float] = []
    failures = []
    attempted = passes = 0
    start = time.perf_counter()
    while True:
        for index, item in enumerate(workload.items):
            attempted += 1
            begin = time.perf_counter_ns()
            try:
                answer = execute(index, item)
            except Exception as exc:  # a crashing query is a counted failure
                answer, reason = None, f"raised {exc!r}"
            else:
                reason = None
            latencies.append((time.perf_counter_ns() - begin) / 1e6)
            if reason is None:
                try:
                    reason = workload.check(index, item, answer)
                except Exception as exc:  # an unreadable answer is a failure
                    reason = f"check raised {exc!r}"
            if reason is not None:
                failures.append({"pass": passes, "item": item["label"],
                                 "input": item.get("argv") or item.get("text"),
                                 "reason": reason})
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / passes >= seconds:
            return latencies, failures, attempted, passes


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas()
    load_library()
    import workloads
    from tracing import Tracer, layer_metrics

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.probe:
        print("ready", flush=True)
        return 0

    info = environment(args)
    setup = measure_setup(args)
    tracer = Tracer() if args.trace else None
    if tracer is None:
        latencies, failures, attempted, passes = run_passes(
            workload, args.seconds, lambda index, item: workload.execute(item)
        )
    else:
        query = tracer.wrap("bench.query", workload.execute, root=True)

        def execute(index, item):
            tracer.request = index
            return query(item)

        with tracer.installed():
            latencies, failures, attempted, passes = run_passes(
                workload, args.seconds, execute
            )

    per_query = query_latencies(latencies, len(workload.items))
    tail_ms, tail_pct = tail(per_query)
    end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_per_s": (len(per_query) / (sum(per_query) / 1e3), "1/s"),
        "latency_p50_ms": (statistics.median(per_query), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "rss_peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "latency_p50_ms": f"queries={len(per_query)} samples={len(latencies)}",
        "latency_tail_ms": f"p{tail_pct:.1f} queries={len(per_query)}",
        "setup_s": "probes=" + ",".join(f"{t:.4f}" for t in setup),
        "throughput_per_s": f"passes={passes} items/pass={len(workload.items)}",
    }
    print("# env " + json.dumps(info))
    for failure in failures:
        print("# failed " + json.dumps(failure))
    for name, (value, unit) in end_to_end.items():
        print(f"# {'traced ' if tracer else ''}{name} {value:.6g} {unit} "
              f"{notes.get(name, '')}".rstrip())
    print(f"# failed_frac {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")

    if tracer is None:
        metrics = end_to_end
    else:
        metrics = layer_metrics(tracer, passes)
        metrics["optimize.restart_hit_ratio"] = (
            workload.restart_hit_ratio() if hasattr(workload, "restart_hit_ratio")
            else 0.0, "ratio")
        metrics["trace.throughput_per_s"] = end_to_end["throughput_per_s"]
        for name, (value, unit) in metrics.items():
            print(f"# {name} {value:.6g} {unit}")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
