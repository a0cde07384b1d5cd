"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Criteria 1-12 are the rows of the built-in reproduction table (closed-form
fixtures and deterministic optimizer runs at seed 0 with 24 restarts);
criteria 13-17 are randomized property suites with at least 200 cases each.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from fockmodes import (
    ModeUnitary,
    OptConfig,
    Partition,
    apply_redefinition,
    basis_state,
    canonicalize_phase,
    enumerate_sector,
    fock_matrix_element,
    format_state,
    optimize_entanglement,
    parse_state,
    rank_bound,
    schmidt_spectrum,
    sector_weights,
)
from fockmodes.cli import run_cli

from conftest import random_state, random_unitary, states_close


SUITE_ARGV = ["paper-suite", "--json", "--seed", "0"]


@pytest.fixture(scope="module")
def suite_run():
    """Exit code and stdout of one `paper-suite --json --seed 0` run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_cli(SUITE_ARGV)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def reference_rows(suite_run):
    return {row["id"]: row for row in json.loads(suite_run[1])["rows"]}


def _check_criterion(number, description, rows, row_ids):
    failures = []
    for row_id in row_ids:
        row = rows[row_id]
        if not row["pass"]:
            failures.append(
                f"    row {row_id}: expected {row['expected']!r}, "
                f"computed {row['computed']!r}, tol {row['tolerance']!r}"
            )
    verdict = "PASS" if not failures else "FAIL"
    print(f"criterion {number:>2} {verdict}: {description}")
    assert not failures, f"criterion {number} failed:\n" + "\n".join(failures)


def test_criterion_01_balanced_mix_removes_single_photon_entanglement(reference_rows):
    _check_criterion(
        1, "one-photon pair rewrites to |10>; entropy drops 1 -> 0",
        reference_rows, ["1.1", "1.2", "1.3"],
    )


def test_criterion_02_two_photon_pair_rewrites(reference_rows):
    _check_criterion(
        2, "circular mix gives |11>; triple mix gives entropy log2(3)",
        reference_rows, ["2.1", "2.2", "2.3"],
    )


def test_criterion_03_pair_tilt_reaches_two_ebits(reference_rows):
    _check_criterion(
        3, "4-mode pairwise tilt reaches entropy exactly 2",
        reference_rows, ["3.1"],
    )


def test_criterion_04_vacuum_pair_closed_form_spectrum(reference_rows):
    _check_criterion(
        4, "vacuum+pair under balanced mix: spectrum {1/2 +- sqrt(3)/4}",
        reference_rows, ["4.1", "4.2", "4.3", "4.4"],
    )


def test_criterion_05_rank_bounds(reference_rows):
    _check_criterion(
        5, "sector-counting rank bounds (3, 4, 5, N+2, 9)",
        reference_rows, ["5.1", "5.2", "5.3", "5.4", "5.5"],
    )


def test_criterion_06_two_photon_pair_extrema(reference_rows):
    _check_criterion(
        6, "two-photon pair: E_min = 0, E_max = log2(3)",
        reference_rows, ["6.1", "6.2"],
    )


def test_criterion_07_crossed_pairs_pair_cut_extrema(reference_rows):
    _check_criterion(
        7, "4-mode crossed pairs, pair cut: E_min = 1, E_max = 2",
        reference_rows, ["7.1", "7.2"],
    )


def test_criterion_08_crossed_pairs_single_mode_cut(reference_rows):
    _check_criterion(
        8, "4-mode crossed pairs, 1-vs-3 cut: E_min = 2 - (3/4)log2(3), "
           "rho = diag(3/4, 1/4), E_max = 1.3002",
        reference_rows, ["8.1", "8.2", "8.3"],
    )


def test_criterion_09_six_mode_extrema(reference_rows):
    _check_criterion(
        9, "6-mode crossed pairs: E_min = 1, E_max = log2(5)",
        reference_rows, ["9.1", "9.2"],
    )


def test_criterion_10_rank_ceiling_conjecture(reference_rows):
    _check_criterion(
        10, "E_max = log2(N+2) for N = 2, 3, 4, 5",
        reference_rows, ["10.1", "10.2", "10.3", "10.4"],
    )


def test_criterion_11_four_photon_state(reference_rows):
    _check_criterion(
        11, "four-photon state: E_min = input = log2(3), E_max = 2.9798, "
            "rank 9, spectrum not uniform",
        reference_rows, ["11.1", "11.2", "11.3", "11.4", "11.5"],
    )


def test_criterion_12_vacuum_pair_extrema(reference_rows):
    _check_criterion(
        12, "vacuum+pair: E_min = 0.3546, E_max = 1.0071",
        reference_rows, ["12.1", "12.2"],
    )


def test_criterion_13_redefinition_laws():
    rng = np.random.default_rng(13)
    for case in range(200):
        mode_count = int(rng.integers(2, 5))
        totals = tuple(rng.choice(4, size=int(rng.integers(1, 3)), replace=False))
        state = random_state(rng, mode_count, totals)
        first = random_unitary(rng, mode_count)
        second = random_unitary(rng, mode_count)

        rewritten = apply_redefinition(state, first)
        assert abs(rewritten.norm() - 1.0) < 1e-12
        before, after = sector_weights(state), sector_weights(rewritten)
        assert set(before) == set(after)
        assert all(abs(before[t] - after[t]) < 1e-12 for t in before)

        chained = apply_redefinition(rewritten, second)
        direct = apply_redefinition(state, second @ first)
        assert states_close(chained, direct, 1e-10)

        back = apply_redefinition(rewritten, first.adjoint())
        assert states_close(back, state, 1e-10)
    print("criterion 13 PASS: norm/sector preservation, composition, inverse "
          "(200 cases)")


def test_criterion_14_oracle_equivalence():
    rng = np.random.default_rng(14)
    worst = 0.0
    for case in range(200):
        unitary = random_unitary(rng, 3)
        for total in range(0, 4):
            occs = enumerate_sector(3, total)
            for source in occs:
                rewritten = apply_redefinition(basis_state(source), unitary)
                for target in occs:
                    delta = abs(
                        fock_matrix_element(unitary, target, source)
                        - rewritten.amplitudes.get(target, 0j)
                    )
                    worst = max(worst, delta)
    print(f"criterion 14 PASS: expansion vs permanent oracle, max |delta| = "
          f"{worst:.2e} (200 unitaries)")
    assert worst < 1e-10


def test_criterion_15_local_redefinitions_preserve_entropy():
    rng = np.random.default_rng(15)
    for case in range(200):
        mode_count = int(rng.integers(2, 5))
        split = int(rng.integers(1, mode_count))
        part = Partition(tuple(range(split)), tuple(range(split, mode_count)))
        totals = tuple(rng.choice(3, size=int(rng.integers(1, 3)), replace=False))
        state = random_state(rng, mode_count, totals)
        block = np.zeros((mode_count, mode_count), dtype=complex)
        block[np.ix_(part.side_a, part.side_a)] = random_unitary(
            rng, len(part.side_a)
        ).matrix
        block[np.ix_(part.side_b, part.side_b)] = random_unitary(
            rng, len(part.side_b)
        ).matrix
        rotated = apply_redefinition(state, ModeUnitary(block))
        before = schmidt_spectrum(state, part).entropy_bits
        after = schmidt_spectrum(rotated, part).entropy_bits
        assert abs(before - after) < 1e-10
    print("criterion 15 PASS: partition-aligned block unitaries preserve "
          "entropy (200 cases)")


def test_criterion_16_sandwich_and_ceiling():
    rng = np.random.default_rng(16)
    quick = dict(restarts=2)
    for case in range(200):
        mode_count = int(rng.integers(2, 4))
        total = int(rng.integers(1, 3))
        state = random_state(rng, mode_count, totals=(total,))
        split = int(rng.integers(1, mode_count))
        part = Partition(tuple(range(split)), tuple(range(split, mode_count)))
        identity_entropy = schmidt_spectrum(state, part).entropy_bits
        low = optimize_entanglement(state, part, OptConfig("min", seed=case, **quick))
        high = optimize_entanglement(state, part, OptConfig("max", seed=case, **quick))
        assert low.best_entropy_bits <= identity_entropy + 1e-9
        assert high.best_entropy_bits >= identity_entropy - 1e-9
        assert high.best_entropy_bits <= math.log2(rank_bound(state, part)) + 1e-9
    print("criterion 16 PASS: E_min <= E(identity) <= E_max <= log2(rank bound) "
          "(200 cases)")


def test_criterion_17_round_trip_and_suite_determinism(suite_run, capsys):
    rng = np.random.default_rng(17)
    for case in range(100):
        mode_count = int(rng.integers(1, 5))
        totals = tuple(rng.choice(4, size=int(rng.integers(1, 3)), replace=False))
        state = random_state(rng, mode_count, totals)
        recovered = canonicalize_phase(parse_state(format_state(state, precision=7)))
        reference = canonicalize_phase(state)
        assert states_close(reference, recovered, 1e-6)

    first_code, first_out = suite_run
    second_code = run_cli(SUITE_ARGV)
    second_out = capsys.readouterr().out
    assert first_out == second_out
    assert first_code == second_code == 0
    assert json.loads(first_out)["all_pass"] is True
    print("criterion 17 PASS: parser round-trip (100 states); paper-suite "
          "--json byte-identical and exit 0")
