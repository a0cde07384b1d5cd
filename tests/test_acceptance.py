"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Criteria 1-12 are the rows of the built-in reproduction table (closed-form
fixtures and deterministic optimizer runs at seed 0 with 24 restarts);
criteria 13-17 are randomized property suites with at least 200 cases each.
A grid scan of the 1|1 coset checks the optimizer rows 6 and 12 globally.
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
    PureState,
    apply_redefinition,
    beam_splitter,
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
from fockmodes.suite import two_photon_pair, vacuum_plus_pair

from conftest import random_state, random_unitary, states_close, turn_lead_real


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


# On a 1|1 cut the relabellings up to local ones, which keep the entropy,
# form CP^1: a sphere that beam_splitter(2, 0, 1, t, phi) covers for t in
# [0, pi/2] and phi in [0, 2 pi).  The grid holds t = pi/4, phi = pi/2, where
# |20>+|02> becomes |11>.
GRID_T = np.linspace(0.0, math.pi / 2, 33)
GRID_PHI = np.arange(64) * (2 * math.pi / 64)
# Every point of the sphere lies within the Fubini-Study distance
# r = sqrt((dt/2)^2 + (sin t cos t dphi/2)^2) <= dt/sqrt(2) of a grid point,
# since dphi = 2 dt.  Across its ridge of maxima E bends by 23.1 bits/rad^2
# for |20>+|02> and 1.95 for |00>+|11>, so with a bound of 24 the nearest grid
# point lies at most 24 r^2 / 2 = 6 dt^2 (0.0145 bits) short of an extremum.
GRID_MARGIN = 6 * (GRID_T[1] - GRID_T[0]) ** 2


def test_grid_scan_bounds_single_mode_cut_extrema(reference_rows):
    cut = Partition((0,), (1,))
    for factory, min_row, max_row in (
        (two_photon_pair, "6.1", "6.2"), (vacuum_plus_pair, "12.1", "12.2"),
    ):
        state = factory()
        scan = [
            schmidt_spectrum(apply_redefinition(state, beam_splitter(2, 0, 1, t, phi)), cut)
            .entropy_bits
            for t in GRID_T for phi in GRID_PHI
        ]
        e_min = reference_rows[min_row]["computed"]
        e_max = reference_rows[max_row]["computed"]
        # No grid point beats the optimizer, and no extremum it reports lies
        # farther from the grid than the margin.
        assert e_min - 1e-12 <= min(scan) < e_min + GRID_MARGIN, min_row
        assert e_max - GRID_MARGIN < max(scan) <= e_max + 1e-12, max_row
    print(f"grid check PASS: rows 6.1, 6.2, 12.1 and 12.2 bound a "
          f"{len(GRID_T)} x {len(GRID_PHI)} scan of the 1|1 coset within "
          f"{GRID_MARGIN:.4f} bits")


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

        back = apply_redefinition(rewritten, ModeUnitary(first.matrix.conj().T))
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
                rewritten = apply_redefinition(PureState(3, {source: 1.0}), unitary)
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
        recovered = turn_lead_real(parse_state(format_state(state, precision=7)))
        reference = turn_lead_real(state)
        assert states_close(reference, recovered, 1e-6)

    first_code, first_out = suite_run
    second_code = run_cli(SUITE_ARGV)
    second_out = capsys.readouterr().out
    assert first_out == second_out
    assert first_code == second_code == 0
    assert json.loads(first_out)["all_pass"] is True
    print("criterion 17 PASS: parser round-trip (100 states); paper-suite "
          "--json byte-identical and exit 0")
