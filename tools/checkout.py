"""Import fockmodes from one checkout's ``src`` directory and nowhere else.

The tools that compare two trees by alternating runs take ``--src PATH``
and call ``use_src(PATH)`` before their first fockmodes import; one that
runs a second tree in the same process loads it with ``load_tree``.  The
per-layer timers among them add up their parts with ``best_of`` and report
the passes with ``quartiles`` and ``share``.
"""

from __future__ import annotations

import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path


def use_src(path: str) -> None:
    """Pin BLAS to one thread, as in ``bench/run.py``, so timings do not
    switch between one- and two-thread modes from process to process; put
    the resolved `path` first on ``sys.path``; import fockmodes and check
    that it came from there.  Exits with an error when `path` holds no
    fockmodes package or another one was imported.
    """
    # Before numpy loads, which happens with the first fockmodes import.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    src = Path(path).resolve()
    if not (src / "fockmodes" / "__init__.py").is_file():
        raise SystemExit(f"error: no fockmodes package under {src}")
    sys.path.insert(0, str(src))
    import fockmodes

    if Path(fockmodes.__file__).resolve().parent != src / "fockmodes":
        raise SystemExit(f"error: imported fockmodes from {fockmodes.__file__}, not {src}")


def load_tree(path: str, name: str):
    """Import the fockmodes package under `path` as the package `name`,
    beside the one ``use_src`` imported, and return it.  The package
    imports its own modules only relatively, so they load as submodules of
    `name`.  Exits with an error when `path` holds no fockmodes package."""
    package = Path(path).resolve() / "fockmodes"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no fockmodes package under {package.parent}")
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def best_of(totals: dict[str, float], name: str, call, repeat: int):
    """Run `call` `repeat` times, add its fastest run in ms to totals[name],
    and return the result of its last run."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    totals[name] = totals.get(name, 0.0) + best * 1000.0
    return result


def quartiles(prefix: str, times: list[float]) -> dict[str, float]:
    """The median and quartiles of per-pass `times` in ms, rounded to µs."""
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {f"{prefix}median_ms": round(median, 3), f"{prefix}q1_ms": round(q1, 3),
            f"{prefix}q3_ms": round(q3, 3)}


def share(passes: list[dict[str, float]], name: str, whole) -> float:
    """The median over `passes` of part `name`'s fraction of its pass's
    whole, ``whole(totals)`` ms.  Host load slows every part of a pass
    together, so these fractions spread far less between runs than the ms
    sums do."""
    return round(statistics.median(totals[name] / whole(totals) for totals in passes), 4)
