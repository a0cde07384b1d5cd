"""Command-line front end: entropy reports, transforms, extremization runs,
and the built-in reproduction suite.

Exit codes: 0 success, 1 reproduction-suite mismatch, 2 usage error,
3 input parse error, 4 numerical-consistency error, 5 input over a size
limit (a rewrite needing more ladder rows than ``LADDER_ROW_LIMIT``, or a
rank bound with more digits than Python may print).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import asdict

from .entanglement import Partition, rank_bound, schmidt_spectrum
from .errors import (
    DegenerateStateError,
    DimensionError,
    NotNormalizedError,
    NotUnitaryError,
    NumericalConsistencyError,
    ParseError,
    PartitionError,
    SizeLimitError,
)
from .fock import normalize, uint
from .ketparse import format_state, parse_state, parse_unitary_file
from .optimize import OptConfig, optimize_entanglement
from .suite import run_reference_suite
from .transform import apply_redefinition

USAGE_ERROR = 2
PARSE_ERROR = 3
NUMERICAL_ERROR = 4
SIZE_LIMIT_ERROR = 5

# Exit code of each error a command may raise; the first entry that matches wins.
_EXIT_CODES = (
    ((ParseError, NotUnitaryError), PARSE_ERROR),
    ((PartitionError, DimensionError, ValueError), USAGE_ERROR),
    ((NumericalConsistencyError, NotNormalizedError, DegenerateStateError), NUMERICAL_ERROR),
    ((SizeLimitError,), SIZE_LIMIT_ERROR),
    ((OSError,), USAGE_ERROR),
)
_HANDLED = tuple(error for types, _ in _EXIT_CODES for error in types)


# The keys of an entropy, optimize or rank-bound report, in output order;
# only the table form has a `wall_ms`.
_REPORT_KEYS = (
    "input", "partition", "lambdas", "entropy_bits", "rank", "rank_bound",
    "direction", "best", "restart_values", "seed", "wall_ms",
)


def _render(report: dict, as_json: bool) -> None:
    """Print the keys of `report` in ``_REPORT_KEYS`` order as one JSON
    object, or as a table with floats to six decimals."""
    present = {key: report[key] for key in _REPORT_KEYS if key in report}
    if as_json:
        print(json.dumps(present))
        return
    lines = []
    for key, value in present.items():
        if isinstance(value, list):
            text = ", ".join(f"{v:.6f}" for v in value)
        elif isinstance(value, float):
            text = f"{value:.6f}"
        else:
            text = str(value)
        lines.append(f"{key:<14} {text}")
    print("\n".join(lines))


def _printable_rank_bound(state, partition: Partition) -> int:
    """``rank_bound``, refused as a size limit when it has more decimal digits
    than the interpreter's int-to-str limit lets a report print."""
    bound = rank_bound(state, partition)
    # Python before 3.10.7 has no such limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # The digits of 2^(bits - 1) <= bound, plus one from the next power of ten.
    digits = int((bound.bit_length() - 1) * math.log10(2)) + 1
    digits += bound >= 10**digits
    if limit and digits > limit:
        raise SizeLimitError(
            f"rank bound has {digits} digits, above the limit of {limit} for printing"
        )
    return bound


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockmodes",
        description="Mode-basis rewriting and entanglement extremization "
        "for photonic number states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # --json for all five subcommands; the state and the cut for the reports.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true")
    query = argparse.ArgumentParser(add_help=False, parents=[output])
    query.add_argument("state", help="ket expression, e.g. \"|01>+|10>\"")
    query.add_argument("--partition", required=True, help="e.g. 0,1|2,3")

    entropy = sub.add_parser("entropy", parents=[query], help="Schmidt spectrum and entropy")
    entropy.set_defaults(handler=_cmd_entropy)

    transform = sub.add_parser("transform", parents=[output],
                               help="rewrite a state under a unitary")
    transform.add_argument("state")
    transform.add_argument("--unitary", required=True, help="path to a unitary JSON file")
    transform.set_defaults(handler=_cmd_transform)

    optimize = sub.add_parser("optimize", parents=[query],
                              help="extremize entropy over mode redefinitions")
    optimize.add_argument("--direction", required=True, choices=("min", "max"))
    optimize.add_argument("--restarts", type=uint, default=24)
    optimize.add_argument("--seed", type=uint, default=0)
    optimize.set_defaults(handler=_cmd_optimize)

    bound = sub.add_parser("rank-bound", parents=[query],
                           help="Schmidt rank bound across a partition")
    bound.set_defaults(handler=_cmd_rank_bound)

    suite = sub.add_parser("paper-suite", parents=[output],
                           help="run the built-in reproduction table of reference values")
    suite.add_argument("--seed", type=uint, default=0)
    suite.set_defaults(handler=_cmd_suite)

    return parser


def _report(args, measure) -> int:
    """Parse the state and the cut, report the keys that
    `measure(state, partition)` returns and the rank bound, and print them
    as JSON or as a table that adds the wall time."""
    start = time.perf_counter()
    state = parse_state(args.state)
    partition = Partition.from_string(args.partition)
    report = {
        "input": args.state,
        "partition": str(partition),
        **measure(state, partition),
        "rank_bound": _printable_rank_bound(state, partition),
    }
    # Only the table carries the clock, so --json prints the same bytes for
    # the same query.
    if not args.json:
        report["wall_ms"] = (time.perf_counter() - start) * 1000.0
    _render(report, args.json)
    return 0


def _spectrum_keys(spectrum, entropy_bits: float) -> dict:
    """The lambdas, entropy and numerical rank of a report."""
    return dict(lambdas=[float(v) for v in spectrum.lambdas], entropy_bits=entropy_bits,
                rank=spectrum.numerical_rank)


def _cmd_entropy(args) -> int:
    def measure(state, partition):
        spectrum = schmidt_spectrum(state, partition)
        return _spectrum_keys(spectrum, spectrum.entropy_bits)

    return _report(args, measure)


def _cmd_transform(args) -> int:
    state = parse_state(args.state)
    with open(args.unitary, "rb") as fh:
        unitary = parse_unitary_file(fh.read())
    # The rewrite's norm drifts from 1 by up to about N/2 times the unitary's
    # residual for N photons, past NORM_TOLERANCE for many photons even when
    # the unitary passes its check; format_state still checks the norm.
    result = format_state(normalize(apply_redefinition(state, unitary)))
    if args.json:
        print(json.dumps({"input": args.state, "output": result}))
    else:
        print(result)
    return 0


def _cmd_optimize(args) -> int:
    def measure(state, partition):
        cfg = OptConfig(direction=args.direction, restarts=args.restarts, seed=args.seed)
        result = optimize_entanglement(state, partition, cfg)
        return dict(
            **_spectrum_keys(result.best_spectrum, result.best_entropy_bits),
            direction=result.direction,
            best=result.best_entropy_bits,
            restart_values=list(result.per_restart_values),
            seed=args.seed,
        )

    return _report(args, measure)


def _cmd_rank_bound(args) -> int:
    return _report(args, lambda state, partition: {})


def _cmd_suite(args) -> int:
    rows = run_reference_suite(seed=args.seed)
    all_pass = all(row.passed for row in rows)
    if args.json:
        rows_json = [{**asdict(row), "pass": row.passed} for row in rows]
        print(json.dumps({"seed": args.seed, "rows": rows_json, "all_pass": all_pass}))
    else:
        width = max(len(row.label) for row in rows)
        for row in rows:
            verdict = "PASS" if row.passed else "FAIL"
            relation = ">" if row.mode == "gt" else "~"
            print(
                f"[{verdict}] {row.id:>5}  {row.label:<{width}}  "
                f"expected {relation} {row.expected:.6f}  "
                f"computed {row.computed:.6f}  tol {row.tolerance:g}"
            )
        print(f"{'all rows pass' if all_pass else 'SUITE MISMATCH'}")
    return 0 if all_pass else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; parsing leaves it unchanged, so calls share it."""
    return build_parser()


def run_cli(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except _HANDLED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
