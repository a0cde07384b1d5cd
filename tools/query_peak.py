#!/usr/bin/env python3
"""Exit code, wall time and peak RSS of one CLI query in a fresh process.

    python3 tools/query_peak.py --src PATH -- <fockmodes argv...>

Runs ``fockmodes <argv...>`` as the only child of this process, with the
package imported from PATH (a checkout's ``src`` directory) and nowhere else
and BLAS pinned to one thread, both through ``tools/checkout.py``.  The
query's standard error passes through; its standard output is captured.
Prints one JSON line: ``exit_code``, ``wall_ms`` (spawn to exit, interpreter
start-up and imports included), ``peak_rss_mb`` (the child's
``ru_maxrss``), and ``stdout_bytes`` and ``stdout_sha256``, so that two
trees' outputs can be compared byte for byte.  To compare two trees,
alternate runs of this script on each.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
# Run in the child: load fockmodes from argv[1] and hand it the rest of argv.
CHILD = (
    "import sys\n"
    f"sys.path.insert(0, {str(TOOLS)!r})\n"
    "from checkout import use_src\n"
    "use_src(sys.argv[1])\n"
    "from fockmodes.cli import run_cli\n"
    "sys.exit(run_cli(sys.argv[2:]))\n"
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src", required=True, help="directory holding the fockmodes package"
    )
    parser.add_argument("query", nargs="+", help="fockmodes arguments, after --")
    args = parser.parse_args()

    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-c", CHILD, args.src, *args.query], stdout=subprocess.PIPE
    )
    wall_ms = (time.perf_counter() - start) * 1000.0
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({
        "exit_code": child.returncode,
        "wall_ms": round(wall_ms, 1),
        "peak_rss_mb": round(peak_kb / 1024.0, 1),
        "stdout_bytes": len(child.stdout),
        "stdout_sha256": hashlib.sha256(child.stdout).hexdigest(),
    }))


if __name__ == "__main__":
    main()
