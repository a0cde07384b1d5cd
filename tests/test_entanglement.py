import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockmodes import (
    DegenerateStateError,
    ModeUnitary,
    NotNormalizedError,
    NumericalConsistencyError,
    OptConfig,
    Partition,
    PartitionError,
    PureState,
    apply_redefinition,
    basis_state,
    entropy_of_spectrum,
    enumerate_sector,
    format_state,
    normalize,
    optimize_entanglement,
    parse_state,
    rank_bound,
    schmidt_spectrum,
)
from fockmodes.suite import crossed_pair_state, two_photon_pair

from conftest import random_state, random_unitary


def test_partition_validation():
    Partition((0, 2), (1, 3))
    with pytest.raises(PartitionError):
        Partition((), (0, 1))
    with pytest.raises(PartitionError):
        Partition((0, 1), (1, 2))
    with pytest.raises(PartitionError):
        Partition((0, 0), (1,))
    with pytest.raises(PartitionError):
        Partition((-1,), (0,))
    with pytest.raises(PartitionError):
        Partition.from_string("0,1")
    # Mode indices are ASCII digits only: no '_', sign or other script.
    for text in ("1_0|0", "٠|1", "+0|1", "-0|1"):
        with pytest.raises(PartitionError, match="bad mode index"):
            Partition.from_string(text)


def test_partition_refuses_boolean_mode_indices():
    for sides in (((True,), (0,)), ((0,), (False, 2)), ((1, 2), (True,)),
                  ((np.True_,), (0,)), ((0,), (np.False_, 2))):
        with pytest.raises(PartitionError, match="booleans"):
            Partition(*sides)
    for index in (1.5, "1", None, np.float64(1.0)):
        for sides in (((index,), (0,)), ((0,), (2, index))):
            with pytest.raises(PartitionError, match="integers"):
                Partition(*sides)
    part = Partition((np.int64(1),), (np.intp(0), np.int32(2)))
    assert part.side_a == (1,) and part.side_b == (0, 2)
    assert all(type(i) is int for i in part.side_a + part.side_b)


def test_partition_from_string_roundtrip():
    part = Partition.from_string("0,2|1,3")
    assert part.side_a == (0, 2) and part.side_b == (1, 3)
    assert str(part) == "0,2|1,3"


def canonical_matrix(state, partition):
    """The coefficient matrix built per occupation, rows and columns sorted."""
    def restrict(occ, side):
        return tuple(occ[i] for i in side)

    rows = sorted({restrict(occ, partition.side_a) for occ in state.amplitudes})[::-1]
    cols = sorted({restrict(occ, partition.side_b) for occ in state.amplitudes})[::-1]
    matrix = np.zeros((len(rows), len(cols)), dtype=complex)
    for occ, amp in state.amplitudes.items():
        matrix[
            rows.index(restrict(occ, partition.side_a)),
            cols.index(restrict(occ, partition.side_b)),
        ] = amp
    return matrix


def test_schmidt_spectrum_partition_mismatch():
    with pytest.raises(PartitionError):
        schmidt_spectrum(basis_state((1, 1)), Partition((0,), (2,)))


def test_schmidt_spectrum_examples():
    spectrum = schmidt_spectrum(parse_state("|01> + |10>"), Partition((0,), (1,)))
    np.testing.assert_allclose(spectrum.lambdas, [0.5, 0.5], atol=1e-12)
    assert spectrum.entropy_bits == pytest.approx(1.0, abs=1e-12)
    assert spectrum.numerical_rank == 2

    spectrum = schmidt_spectrum(basis_state((1, 1)), Partition((0,), (1,)))
    np.testing.assert_allclose(spectrum.lambdas, [1.0], atol=1e-12)
    assert spectrum.entropy_bits == pytest.approx(0.0, abs=1e-12)

    spectrum = schmidt_spectrum(
        parse_state("|11> + |20> + |02>"), Partition((0,), (1,))
    )
    np.testing.assert_allclose(spectrum.lambdas, [1 / 3] * 3, atol=1e-12)
    assert spectrum.entropy_bits == pytest.approx(math.log2(3), abs=1e-12)

    # Mode 0 holds 3/4 vacuum and 1/4 photon pair.
    state = PureState(4, {(0, 1, 1, 0): math.sqrt(3) / 2, (2, 0, 0, 0): 0.5})
    spectrum = schmidt_spectrum(state, Partition((0,), (1, 2, 3)))
    np.testing.assert_allclose(spectrum.lambdas, [0.75, 0.25], atol=1e-12)


def test_schmidt_spectrum_requires_a_normalized_state():
    with pytest.raises(NotNormalizedError):
        schmidt_spectrum(PureState(2, {(1, 0): 2.0}), Partition((0,), (1,)))
    # Every amplitude pruned: no state is left to normalize.
    with pytest.raises(DegenerateStateError):
        schmidt_spectrum(PureState(2, {(1, 0): 0.0}), Partition((0,), (1,)))


def test_states_the_norm_check_accepts_pass_the_unit_sum_check():
    # The Schmidt coefficients sum to the squared norm: 1 + 1e-9 at a norm of
    # 1 + 5e-10, inside NORM_TOLERANCE, where every entry takes the state;
    # a norm of 1 + 5e-9 is refused up front, not mid-way.
    cut = Partition((0,), (1,))
    for excess, accepted in ((5e-10, True), (5e-9, False)):
        amp = (1 + excess) / math.sqrt(2)
        pair = PureState(2, {(1, 0): amp, (0, 1): amp})
        bunched = PureState(2, {(2, 0): amp, (0, 2): amp})
        # One coefficient, 1 + 2 * excess, which the spectrum clips to 1.
        single = PureState(2, {(1, 0): 1 + excess})
        for call in (
            lambda: schmidt_spectrum(pair, cut),
            lambda: schmidt_spectrum(single, cut),
            lambda: optimize_entanglement(bunched, cut, OptConfig("max", restarts=1)),
            lambda: format_state(bunched),
        ):
            if accepted:
                call()
            else:
                with pytest.raises(NotNormalizedError):
                    call()


def test_rewrites_by_any_accepted_unitary_pass_every_check():
    # A splitter stretched by 1 + 4.9e-11 has a residual of 9.8e-11, inside
    # ModeUnitary's tolerance; the two-photon rewrite's squared norm is then
    # 1 + 2e-10, past 1e-10 from 1.
    splitter = ModeUnitary((1 + 4.9e-11) * np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    rewrite = apply_redefinition(parse_state("|11>"), splitter)
    cut = Partition((0,), (1,))
    assert schmidt_spectrum(rewrite, cut).entropy_bits == pytest.approx(1.0, abs=1e-9)
    result = optimize_entanglement(rewrite, cut, OptConfig("min", restarts=3))
    assert result.best_entropy_bits == pytest.approx(0.0, abs=1e-6)
    assert format_state(rewrite)


def test_entropy_of_pure_state_is_positive_zero():
    assert math.copysign(1.0, entropy_of_spectrum(np.array([1.0]))) == 1.0
    spectrum = schmidt_spectrum(basis_state((1, 0)), Partition((0,), (1,)))
    assert math.copysign(1.0, spectrum.entropy_bits) == 1.0


def test_schmidt_spectrum_vacuum_pair_mix():
    # (|00> + (|20> - |02>)/sqrt(2)) / sqrt(2): closed-form eigenvalues.
    state = parse_state("|00> + 0.5*sqrt(2)*|20> - 0.5*sqrt(2)*|02>")
    spectrum = schmidt_spectrum(state, Partition((0,), (1,)))
    np.testing.assert_allclose(
        spectrum.lambdas,
        [0.5 + math.sqrt(3) / 4, 0.5 - math.sqrt(3) / 4],
        atol=1e-12,
    )
    assert spectrum.entropy_bits == pytest.approx(0.3545789026652699, abs=1e-9)


def test_schmidt_side_symmetry(rng):
    for _ in range(40):
        mode_count = int(rng.integers(2, 5))
        state = random_state(rng, mode_count, totals=(0, 2))
        modes = list(rng.permutation(mode_count))
        split = int(rng.integers(1, mode_count))
        part = Partition(tuple(modes[:split]), tuple(modes[split:]))
        flipped = Partition(part.side_b, part.side_a)
        lam_a = schmidt_spectrum(state, part).lambdas
        lam_b = schmidt_spectrum(state, flipped).lambdas
        size = min(len(lam_a), len(lam_b))
        np.testing.assert_allclose(lam_a[:size], lam_b[:size], atol=1e-12)
        assert all(v <= 1e-12 for v in lam_a[size:])
        assert all(v <= 1e-12 for v in lam_b[size:])


def assert_spectrum_matches_canonical_matrix(rng, mode_count, totals, part):
    # schmidt_spectrum ranks rows and columns by first appearance in the
    # dict; its spectrum must be that of the canonical matrix, in any order.
    full = random_state(rng, mode_count, totals)
    # Drop some occupations so rows and columns are a strict subset.
    items = [item for item in full.amplitudes.items() if rng.random() < 0.7] or [
        next(iter(full.amplitudes.items()))
    ]
    state = normalize(PureState(mode_count, dict(items)))
    expected = np.linalg.svd(canonical_matrix(state, part), compute_uv=False) ** 2
    shuffled = PureState(
        mode_count,
        dict(list(state.amplitudes.items())[i] for i in rng.permutation(len(state))),
    )
    for ordered in (state, shuffled):
        spectrum = schmidt_spectrum(ordered, part)
        np.testing.assert_allclose(spectrum.lambdas, expected, rtol=0, atol=1e-12)
        assert spectrum.entropy_bits == pytest.approx(
            entropy_of_spectrum(np.minimum(expected, 1.0)), abs=1e-12
        )


@pytest.mark.parametrize(
    "mode_count, totals, partition",
    [
        (2, (1, 2), Partition((0,), (1,))),
        (3, (2,), Partition((1,), (2, 0))),
        (4, (0, 2, 3), Partition((2, 0), (1, 3))),
        (4, (3,), Partition((3, 1, 2), (0,))),
        (5, (1, 2), Partition((4, 0), (3, 1, 2))),
    ],
)
def test_coefficient_matrix_matches_per_occupation_restriction(
    rng, mode_count, totals, partition
):
    # Fixed shapes beside the random one: unsorted sides, a vacuum sector, a
    # single sector and five modes.
    for _ in range(5):
        assert_spectrum_matches_canonical_matrix(rng, mode_count, totals, partition)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_spectrum_matches_the_canonical_matrix_in_any_dict_order(seed):
    rng = np.random.default_rng(seed)
    mode_count = int(rng.integers(2, 5))
    totals = tuple(sorted(rng.choice(4, size=int(rng.integers(2, 4)), replace=False)))
    modes = [int(i) for i in rng.permutation(mode_count)]
    split = int(rng.integers(1, mode_count))
    part = Partition(tuple(modes[:split]), tuple(modes[split:]))
    assert_spectrum_matches_canonical_matrix(rng, mode_count, totals, part)


def test_entropy_invariant_under_block_unitaries(rng):
    for _ in range(40):
        state = random_state(rng, 4, totals=(2,))
        part = Partition((0, 1), (2, 3))
        block = np.zeros((4, 4), dtype=complex)
        block[np.ix_(part.side_a, part.side_a)] = random_unitary(rng, 2).matrix
        block[np.ix_(part.side_b, part.side_b)] = random_unitary(rng, 2).matrix
        rotated = apply_redefinition(state, ModeUnitary(block))
        before = schmidt_spectrum(state, part).entropy_bits
        after = schmidt_spectrum(rotated, part).entropy_bits
        assert abs(before - after) < 1e-10


def test_schmidt_spectrum_checks_its_sum(monkeypatch):
    # No state within NORM_TOLERANCE reaches this check, so break the SVD.
    svd = np.linalg.svd
    monkeypatch.setattr(
        np.linalg, "svd", lambda matrix, compute_uv: 2.0 * svd(matrix, compute_uv=compute_uv)
    )
    with pytest.raises(NumericalConsistencyError, match="sum to"):
        schmidt_spectrum(two_photon_pair(), Partition((0,), (1,)))


def test_both_marginals_have_the_schmidt_spectrum(rng):
    for _ in range(40):
        state = random_state(rng, 3, totals=(1, 3))
        part = Partition((0,), (1, 2))
        spectrum = schmidt_spectrum(state, part)
        matrix = canonical_matrix(state, part)
        for rho in (matrix @ matrix.conj().T, matrix.T @ matrix.conj()):
            np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
            eigvals = np.sort(np.linalg.eigvalsh(rho))[::-1]
            size = len(spectrum.lambdas)
            np.testing.assert_allclose(
                eigvals[:size], spectrum.lambdas, atol=1e-10
            )


def test_rank_bound_examples():
    assert rank_bound(two_photon_pair(), Partition((0,), (1,))) == 3
    for pairs, expected in [(2, 4), (3, 5), (4, 6), (5, 7), (6, 8)]:
        cut = Partition(tuple(range(pairs)), tuple(range(pairs, 2 * pairs)))
        assert rank_bound(crossed_pair_state(pairs), cut) == expected
    assert (
        rank_bound(parse_state("|0220> + |2002> - |1111>"), Partition((0, 1), (2, 3)))
        == 9
    )
    # An all-pruned state has no sector to bound.
    assert rank_bound(PureState(2, {(1, 0): 0.0}), Partition((0,), (1,))) == 0
    with pytest.raises(ValueError):
        crossed_pair_state(0)


def test_rank_bound_matches_sum_over_sectors():
    for a in range(1, 8):
        for b in range(1, 8):
            cut = Partition(tuple(range(a)), tuple(range(a, a + b)))
            for total in range(40):
                expected = sum(
                    min(math.comb(n + a - 1, a - 1), math.comb(total - n + b - 1, b - 1))
                    for n in range(total + 1)
                )
                state = basis_state((total,) + (0,) * (a + b - 1))
                assert rank_bound(state, cut) == expected, (a, b, total)


def test_rank_bound_mixed_totals_falls_back_to_support():
    # |00>+|11> mixes to rank 3 (vacuum plus the two-photon sectors), so the
    # support shape, 2, is not a bound under redefinitions.
    state = parse_state("|00> + |11>")
    assert rank_bound(state, Partition((0,), (1,))) == 3


def test_rank_bound_holds_for_mixed_totals_under_redefinitions():
    rng = np.random.default_rng(4)
    met = 0
    for _ in range(300):
        mode_count = int(rng.integers(2, 5))
        split = int(rng.integers(1, mode_count))
        part = Partition(tuple(range(split)), tuple(range(split, mode_count)))
        amplitudes = {}
        for total in rng.choice(4, size=2, replace=False):
            sector = enumerate_sector(mode_count, int(total))
            terms = min(int(rng.integers(1, 3)), len(sector))
            for pick in rng.choice(len(sector), size=terms, replace=False):
                amplitudes[sector[pick]] = complex(rng.normal(), rng.normal())
        state = normalize(PureState(mode_count, amplitudes))
        bound = rank_bound(state, part)
        rank = schmidt_spectrum(
            apply_redefinition(state, random_unitary(rng, mode_count)), part
        ).numerical_rank
        assert rank <= bound
        met += rank == bound
    # The bound is tight for most generic rewrites, not merely valid.
    assert met >= 200


def test_rank_cap_and_entropy_cap_hold_under_redefinitions(rng):
    for _ in range(30):
        mode_count = int(rng.integers(2, 5))
        total = int(rng.integers(1, 4))
        state = random_state(rng, mode_count, totals=(total,))
        split = int(rng.integers(1, mode_count))
        part = Partition(tuple(range(split)), tuple(range(split, mode_count)))
        bound = rank_bound(state, part)
        rotated = apply_redefinition(state, random_unitary(rng, mode_count))
        spectrum = schmidt_spectrum(rotated, part)
        assert spectrum.numerical_rank <= bound
        assert spectrum.entropy_bits <= math.log2(spectrum.numerical_rank) + 1e-10
