import json
import math
import re
import sys
import time

import pytest

from fockmodes import (
    ModeUnitary,
    OptConfig,
    Partition,
    optimize_entanglement,
    parse_state,
    rank_bound,
    schmidt_spectrum,
)
from fockmodes.cli import run_cli
from fockmodes.ketparse import MAX_NESTING, format_unitary_file
from fockmodes.optimize import MAX_RESTARTS
from fockmodes.suite import circular_mixer


@pytest.fixture
def circular_file(tmp_path):
    path = tmp_path / "circular.json"
    path.write_text(format_unitary_file(circular_mixer()))
    return str(path)


def test_entropy_command(capsys):
    code = run_cli(["entropy", "|01>+|10>", "--partition", "0|1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1.000000" in out


def test_entropy_json_matches_library(capsys):
    code = run_cli(["entropy", "|01>+|10>", "--partition", "0|1", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    state = parse_state("|01>+|10>")
    part = Partition.from_string("0|1")
    spectrum = schmidt_spectrum(state, part)
    assert doc["entropy_bits"] == spectrum.entropy_bits
    assert doc["lambdas"] == [float(v) for v in spectrum.lambdas]
    assert doc["rank"] == spectrum.numerical_rank
    assert doc["rank_bound"] == rank_bound(state, part)
    assert set(doc) == {
        "input", "partition", "lambdas", "entropy_bits", "rank",
        "rank_bound", "wall_ms",
    }


REPORT_QUERIES = {
    "entropy": ["entropy", "|01>+|10>", "--partition", "0|1"],
    "optimize": ["optimize", "|20>+|02>", "--partition", "0|1", "--direction", "max",
                 "--restarts", "3"],
    "rank-bound": ["rank-bound", "|20>+|02>", "--partition", "0|1"],
}
# The reports' bytes with the wall time masked: the key order, the table's
# six decimals and column width, and the keys each command leaves out.
REPORT_BYTES = {
    ("entropy", "table"): """\
input          |01>+|10>
partition      0|1
lambdas        0.500000, 0.500000
entropy_bits   1.000000
rank           2
rank_bound     2
wall_ms        *
""",
    ("optimize", "table"): """\
input          |20>+|02>
partition      0|1
lambdas        0.333333, 0.333333, 0.333333
entropy_bits   1.584963
rank           3
rank_bound     3
direction      max
best           1.584963
restart_values 1.000000, 1.584963, 1.584963
seed           0
wall_ms        *
""",
    ("rank-bound", "table"): """\
input          |20>+|02>
partition      0|1
rank_bound     3
wall_ms        *
""",
    ("entropy", "json"): '{"input": "|01>+|10>", "partition": "0|1", "lambdas": '
    '[0.4999999999999999, 0.4999999999999999], "entropy_bits": 1.0, "rank": 2, '
    '"rank_bound": 2, "wall_ms": *}\n',
    ("optimize", "json"): '{"input": "|20>+|02>", "partition": "0|1", "lambdas": '
    '[0.33333333333431503, 0.3333333333328409, 0.3333333333328404], '
    '"entropy_bits": 1.5849625007211556, "rank": 3, "rank_bound": 3, '
    '"direction": "max", "best": 1.5849625007211556, "restart_values": '
    '[1.0, 1.5849625007211556, 1.5849625007211552], "seed": 0, "wall_ms": *}\n',
    ("rank-bound", "json"): '{"input": "|20>+|02>", "partition": "0|1", '
    '"rank_bound": 3, "wall_ms": *}\n',
}


@pytest.mark.parametrize("form", ["table", "json"])
@pytest.mark.parametrize("command", list(REPORT_QUERIES))
def test_report_bytes_are_pinned(command, form, capsys):
    argv = REPORT_QUERIES[command] + (["--json"] if form == "json" else [])
    assert run_cli(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    masked = re.sub(r'(wall_ms(?:": | +))[0-9.e+-]+', r"\1*", captured.out)
    assert masked == REPORT_BYTES[command, form]


def test_transform_command(capsys, circular_file):
    code = run_cli(["transform", "|20>+|02>", "--unitary", circular_file])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "|11>"


def test_transform_takes_a_unitary_file_written_to_ten_digits(tmp_path, capsys):
    # 0.7071067812 misses 1/sqrt(2) by 1.9e-11: a residual of 3.8e-11, which
    # the file reader accepts, and a rewrite whose norm is 1 + 1.9e-11.
    a = 0.7071067812
    path = tmp_path / "splitter.json"
    path.write_text(json.dumps({"dim": 2, "rows": [[[a, 0], [a, 0]], [[a, 0], [-a, 0]]]}))
    code = run_cli(["transform", "|10>", "--unitary", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert "|10>" in captured.out and "|01>" in captured.out
    # Sixty photons move the rewrite's norm by 1.1e-9, past NORM_TOLERANCE;
    # transform prints the normalized rewrite.  Its amplitudes are
    # sqrt(C(60, k)) / 2^30, under 5e-8 for k < 3 or k > 57: those six terms
    # would print as zero at 7 digits and are left out.
    code = run_cli(["transform", "|60,0>", "--unitary", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    terms = captured.out.strip().split(" + ")
    assert len(terms) == 55
    assert terms[0].endswith("*|57,3>") and terms[-1].endswith("*|3,57>")
    assert not any(float(term.split("*")[0]) == 0.0 for term in terms)
    # Every amplitude, printed or left out, parses back within 10^-6.
    printed = parse_state(captured.out)
    for k in range(61):
        amplitude = printed.amplitudes.get((60 - k, k), 0j)
        assert abs(amplitude - math.sqrt(math.comb(60, k)) / 2.0**30) < 1e-6


def test_transform_refuses_a_unitary_file_written_to_eight_digits(tmp_path, capsys):
    # 0.70710678 leaves a residual of 3.4e-9: refused while the file is
    # parsed, not after a rewrite whose norm it has moved.
    a = 0.70710678
    path = tmp_path / "splitter.json"
    path.write_text(json.dumps({"dim": 2, "rows": [[[a, 0], [a, 0]], [[a, 0], [-a, 0]]]}))
    code = run_cli(["transform", "|10>", "--unitary", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.startswith("error: matrix is not unitary")
    assert "3.356e-09" in captured.err


def test_optimize_command_json(capsys):
    argv = [
        "optimize", "|00>+|11>", "--partition", "0|1", "--direction", "max",
        "--seed", "0", "--json",
    ]
    code = run_cli(argv)
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["best"] == pytest.approx(1.0071, abs=5e-4)
    assert doc["direction"] == "max"
    assert doc["seed"] == 0
    assert len(doc["restart_values"]) == 24
    # Thin shell: identical numbers to a direct library call.
    result = optimize_entanglement(
        parse_state("|00>+|11>"), Partition.from_string("0|1"), OptConfig("max")
    )
    assert doc["best"] == result.best_entropy_bits
    assert doc["restart_values"] == list(result.per_restart_values)


def test_optimize_command_rewrites_the_state_once(monkeypatch, capsys):
    from fockmodes import cli as cli_module
    from fockmodes import optimize as optimize_module

    calls = []
    original = optimize_module.apply_redefinition

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (cli_module, optimize_module):
        monkeypatch.setattr(module, "apply_redefinition", counted)
    argv = ["optimize", "|20>+|02>", "--partition", "0|1", "--direction", "max",
            "--restarts", "2", "--json"]
    assert run_cli(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_rank_bound_command(capsys):
    code = run_cli(["rank-bound", "|20>+|02>", "--partition", "0|1", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rank_bound"] == 3


def test_rank_bound_of_ten_million_photons_is_quick(capsys):
    start = time.perf_counter()
    code = run_cli(["rank-bound", "|10000000,0>", "--partition", "0|1", "--json"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(capsys.readouterr().out)["rank_bound"] == 10_000_001


def test_entropy_of_product_state_is_positive_zero(capsys):
    code = run_cli(["entropy", "|10>", "--partition", "0|1", "--json"])
    assert code == 0
    assert '"entropy_bits": 0.0,' in capsys.readouterr().out


def test_optimize_of_product_state_never_reports_negative_entropy(capsys):
    argv = ["optimize", "|10>", "--partition", "0|1", "--direction", "min", "--json"]
    assert run_cli(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    for value in [doc["entropy_bits"], doc["best"], *doc["restart_values"]]:
        assert math.copysign(1.0, value) == 1.0, value


def test_missing_partition_is_usage_error(capsys):
    assert run_cli(["entropy", "|01>"]) == 2
    capsys.readouterr()


def test_bad_state_is_parse_error(capsys):
    assert run_cli(["entropy", "|01> +", "--partition", "0|1"]) == 3
    assert "offset" in capsys.readouterr().err


def test_deeply_nested_coefficient_is_parse_error(capsys):
    # Nesting is bounded, so a deep coefficient is exit 3, not a RecursionError.
    text = "(" * 300 + "1" + ")" * 300 + "*|10>"
    assert run_cli(["entropy", text, "--partition", "0|1"]) == 3
    assert f"offset {MAX_NESTING}" in capsys.readouterr().err


def test_restarts_past_the_cap_is_usage_error(capsys):
    argv = ["optimize", "|01>+|10>", "--partition", "0|1", "--direction", "max",
            "--restarts", str(MAX_RESTARTS + 1)]
    assert run_cli(argv) == 2
    assert str(MAX_RESTARTS) in capsys.readouterr().err


def test_newline_inside_a_ket_is_whitespace(capsys):
    # Whitespace inside a ket is insignificant: exit 0, no traceback.
    argv = ["entropy", "|1\n0>", "--partition", "0|1", "--json"]
    assert run_cli(argv) == 0
    assert json.loads(capsys.readouterr().out)["entropy_bits"] == 0.0


def test_huge_coefficients_normalize_or_are_parse_errors(capsys):
    # 1e400 is past the float range: a positioned parse error.
    assert run_cli(["entropy", "1e400*|10> + |01>", "--partition", "0|1"]) == 3
    assert "offset 6" in capsys.readouterr().err
    # 1e200 squared overflows, but the state still normalizes.
    argv = ["entropy", "1e200*|10> + 1e200*|01>", "--partition", "0|1", "--json"]
    assert run_cli(argv) == 0
    entropy = json.loads(capsys.readouterr().out)["entropy_bits"]
    assert entropy == pytest.approx(1.0, abs=1e-12)
    # Here the norm itself is past the float range.
    argv = ["entropy", "1.5e308*|10> + 1.5e308*|01>", "--partition", "0|1", "--json"]
    assert run_cli(argv) == 0
    entropy = json.loads(capsys.readouterr().out)["entropy_bits"]
    assert entropy == pytest.approx(1.0, abs=1e-12)


def test_bad_unitary_file_is_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{\"dim\": 1}")
    assert run_cli(["transform", "|0>", "--unitary", str(path)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "doc",
    [
        '{"dim": true, "rows": [[[1, 0]]]}',
        '{"dim": 1, "rows": [[[1%s, 0]]]}' % ("0" * 400),
        '{"dim": 1, "rows": [[[1%s, 0]]]}' % ("0" * 5000),
        "[" * 200_000,
    ],
    ids=["boolean-dim", "huge-entry", "too-many-digits", "too-deep"],
)
def test_unitary_file_out_of_json_range_is_parse_error(tmp_path, capsys, doc):
    path = tmp_path / "hostile.json"
    path.write_text(doc)
    assert run_cli(["transform", "|1>", "--unitary", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "set_int_max_str_digits" not in captured.err
    assert "Traceback" not in captured.err


def test_ket_count_past_the_digit_limit_is_parse_error(capsys):
    ket = "|%s,0>" % ("9" * 5000)
    assert run_cli(["rank-bound", ket, "--partition", "0|1"]) == 3
    err = capsys.readouterr().err
    assert "offset 1" in err
    assert "set_int_max_str_digits" not in err
    assert "Traceback" not in err


def test_optimize_past_the_parameter_cap_is_usage_error(capsys):
    # A 6|7 cut takes 2 * 6 * 7 = 84 coset coordinates, above the cap of 72.
    cut = "0,1,2,3,4,5|" + ",".join(map(str, range(6, 13)))
    argv = ["optimize", "|1" + "0" * 12 + ">", "--partition", cut, "--direction", "max"]
    assert run_cli(argv) == 2
    assert "84 coordinates" in capsys.readouterr().err


def test_optimize_takes_every_cut_of_twelve_modes(capsys):
    # 6|6 is the largest cut of 12 modes: 72 coordinates, at the cap.
    ket = "|100000000001> + |010000000010>"
    cut = "0,1,2,3,4,5|" + ",".join(map(str, range(6, 12)))
    argv = ["optimize", ket, "--partition", cut, "--direction", "min",
            "--restarts", "1", "--json"]
    assert run_cli(argv) == 0
    assert json.loads(capsys.readouterr().out)["best"] <= 1.0


def test_optimize_restart_zero_stays_at_a_stationary_identity(capsys):
    # The identity is stationary for the maximum of |20>+|02>, so one restart
    # returns the input's entropy, not log2(3).
    argv = ["optimize", "|20>+|02>", "--partition", "0|1", "--direction", "max",
            "--restarts", "1", "--json"]
    assert run_cli(argv) == 0
    assert json.loads(capsys.readouterr().out)["best"] == 1.0


def test_paper_suite_table_and_mismatch_exit(monkeypatch, capsys):
    from fockmodes import cli as cli_module
    from fockmodes.suite import SuiteRow

    rows = [
        SuiteRow("1.1", "closed form", 1.0, 1.0, 1e-9, "abs"),
        SuiteRow("2.10", "above the input", 0.5, 0.75, 0.0, "gt"),
        SuiteRow("3.1", "missed", 2.0, 1.5, 1e-6, "abs"),
    ]
    monkeypatch.setattr(cli_module, "run_reference_suite", lambda seed: rows)
    assert run_cli(["paper-suite"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "[PASS]   1.1  closed form      expected ~ 1.000000  computed 1.000000  tol 1e-09",
        "[PASS]  2.10  above the input  expected > 0.500000  computed 0.750000  tol 0",
        "[FAIL]   3.1  missed           expected ~ 2.000000  computed 1.500000  tol 1e-06",
        "SUITE MISMATCH",
    ]


def test_partition_not_covering_is_usage_error(capsys):
    assert run_cli(["entropy", "|01>+|10>", "--partition", "0|2"]) == 2
    assert capsys.readouterr().err == "error: partition 0|2 does not cover modes 0..1\n"
    argv = ["optimize", "|110>+|011>", "--partition", "0|1", "--direction", "max"]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == "error: partition 0|1 does not cover modes 0..2\n"


@pytest.mark.parametrize("command", ["entropy", "rank-bound"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["table", "json"])
def test_rank_bound_too_long_to_print_is_size_limit(command, json_flag, capsys):
    # 10^59 photons in the first of 200 modes, cut 100|100: the bound has
    # more digits than Python prints by default.
    ket = "|" + ",".join([str(10**59)] + ["0"] * 199) + ">"
    cut = ",".join(map(str, range(100))) + "|" + ",".join(map(str, range(100, 200)))
    state = parse_state(ket)
    bound = rank_bound(state, Partition.from_string(cut))
    digits = len(str(bound // 10**4000)) + 4000
    assert digits > sys.get_int_max_str_digits()
    assert run_cli([command, ket, "--partition", cut, *json_flag]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"rank bound has {digits} digits" in captured.err
    assert "set_int_max_str_digits" not in captured.err


def test_missing_unitary_file_is_usage_error(capsys):
    assert run_cli(["transform", "|0>", "--unitary", "/nonexistent.json"]) == 2
    capsys.readouterr()


def test_unknown_command_is_usage_error(capsys):
    assert run_cli(["frobnicate"]) == 2
    capsys.readouterr()


def test_numerical_consistency_maps_to_exit_4(monkeypatch, capsys):
    from fockmodes import NumericalConsistencyError
    from fockmodes import cli as cli_module

    def broken(*args, **kwargs):
        raise NumericalConsistencyError("forced for the exit-code check")

    monkeypatch.setattr(cli_module, "schmidt_spectrum", broken)
    assert run_cli(["entropy", "|01>+|10>", "--partition", "0|1"]) == 4
    assert "forced" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["transform", "optimize"])
def test_oversized_state_is_size_limit_exit_5(command, capsys, tmp_path):
    unitary = tmp_path / "identity3.json"
    unitary.write_text(format_unitary_file(ModeUnitary.identity(3)))
    options = {
        "transform": ["--unitary", str(unitary)],
        "optimize": ["--partition", "0|1,2", "--direction", "max"],
    }[command]
    start = time.perf_counter()
    assert run_cli([command, "|1000,0,0>", *options]) == 5
    assert time.perf_counter() - start < 1.0
    assert "ladder rows" in capsys.readouterr().err


def test_repeated_calls_match_fresh_parser(capsys):
    from fockmodes import cli as cli_module

    queries = [
        ["entropy", "|01>"],
        ["entropy", "|20>+|02>", "--partition", "0|1", "--json"],
        ["optimize", "|20>+|02>", "--partition", "0|1", "--direction", "max",
         "--restarts", "2", "--json"],
    ]

    def outcome(argv):
        code = run_cli(argv)
        captured = capsys.readouterr()
        report = json.loads(captured.out) if captured.out else {}
        report.pop("wall_ms", None)
        return code, report, captured.err

    warm = [outcome(argv) for argv in queries]
    fresh = []
    for argv in queries:
        cli_module._parser.cache_clear()
        fresh.append(outcome(argv))
    assert [code for code, _, _ in warm] == [2, 0, 0]
    assert warm == fresh
