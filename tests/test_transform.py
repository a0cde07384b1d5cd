import itertools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from fockmodes import (
    DimensionError,
    ModeUnitary,
    NotUnitaryError,
    PureState,
    SizeLimitError,
    apply_redefinition,
    beam_splitter,
    enumerate_sector,
    exp_map,
    fock_matrix_element,
    parse_state,
    permanent,
    sector_weights,
)
from fockmodes.suite import (
    balanced_mixer,
    circular_mixer,
    two_photon_pair,
    uniform_triple_mixer,
)

from conftest import random_state, random_unitary, states_close


def permanent_by_definition(matrix):
    """Independent oracle: sum over permutations of products."""
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    return sum(
        math.prod(a[i, perm[i]] for i in range(n))
        for perm in itertools.permutations(range(n))
    )


# --- ModeUnitary --------------------------------------------------------


def test_mode_unitary_accepts_identity_and_balanced_mix():
    ModeUnitary(np.eye(3))
    ModeUnitary(np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def test_mode_unitary_rejects_rank_deficient():
    with pytest.raises(NotUnitaryError) as err:
        ModeUnitary(np.array([[1, 1], [1, 1]]) / np.sqrt(2))
    assert err.value.residual is not None and err.value.residual > 1e-3


def test_mode_unitary_rejects_non_square():
    with pytest.raises(DimensionError):
        ModeUnitary(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        ModeUnitary(np.zeros((0, 0)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build",
    [lambda bad: ModeUnitary([[bad, 0], [0, 1]]),
     lambda bad: ModeUnitary([[1, 0], [0, complex(0.0, bad)]]),
     lambda bad: beam_splitter(2, 0, 1, bad),
     lambda bad: beam_splitter(2, 0, 1, 0.3, phi=bad)],
    ids=["real-entry", "imag-entry", "theta", "phi"],
)
def test_non_finite_unitary_input_raises_not_unitary_and_nothing_else(build, bad):
    # Refused before any arithmetic: no numpy warning and no bare ValueError.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotUnitaryError) as err:
            build(bad)
    assert math.isnan(err.value.residual)


@pytest.mark.parametrize(
    "entries", [[[1e200, 0], [0, 1]], [[1e155, 1e155], [0, 1]]], ids=["square", "sum"]
)
def test_overflowing_unitary_input_raises_not_unitary_and_nothing_else(entries):
    # Finite entries whose product overflows: refused without numpy's warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotUnitaryError):
            ModeUnitary(entries)


def test_mode_unitary_compose_and_adjoint():
    bal = balanced_mixer()
    prod = bal @ ModeUnitary(bal.matrix.conj().T)
    np.testing.assert_allclose(prod.matrix, np.eye(2), atol=1e-14)
    with pytest.raises(DimensionError):
        ModeUnitary(np.eye(2)) @ ModeUnitary(np.eye(3))
    with pytest.raises(TypeError):
        ModeUnitary(np.eye(2)) @ 1


# --- apply_redefinition -------------------------------------------------


def test_rewrite_single_photon_pair_to_product():
    state = parse_state("|01> + |10>")
    out = apply_redefinition(state, balanced_mixer())
    assert states_close(out, PureState(2, {(1, 0): 1.0}), 1e-12)


def test_rewrite_under_identity_is_identity():
    state = parse_state("|01> + 2*|20> - i*|11>")
    out = apply_redefinition(state, ModeUnitary(np.eye(2)))
    assert states_close(out, state, 1e-12)


def test_rewrite_two_photon_pair_to_product():
    out = apply_redefinition(two_photon_pair(), circular_mixer())
    assert states_close(out, PureState(2, {(1, 1): 1.0}), 1e-12)


def test_rewrite_two_photon_pair_to_uniform_triple():
    out = apply_redefinition(two_photon_pair(), uniform_triple_mixer())
    target = 1 / math.sqrt(3)
    assert set(out.amplitudes) == {(2, 0), (1, 1), (0, 2)}
    for amp in out.amplitudes.values():
        assert abs(amp) == pytest.approx(target, abs=1e-12)


def test_rewrite_dimension_mismatch():
    with pytest.raises(DimensionError):
        apply_redefinition(PureState(3, {(1, 0, 0): 1.0}), balanced_mixer())


def test_rewrite_of_the_zero_state_is_the_zero_state():
    # Every amplitude is pruned, so no sector is populated.
    state = PureState(2, {(1, 0): 0.0})
    assert apply_redefinition(state, balanced_mixer()).amplitudes == {}


def test_rewrite_norm_and_sector_preservation(rng):
    for _ in range(40):
        mode_count = int(rng.integers(2, 5))
        totals = tuple(rng.choice(4, size=int(rng.integers(1, 3)), replace=False))
        state = random_state(rng, mode_count, totals)
        out = apply_redefinition(state, random_unitary(rng, mode_count))
        assert abs(out.norm() - 1.0) < 1e-12
        before = sector_weights(state)
        after = sector_weights(out)
        assert set(before) == set(after)
        for total in before:
            assert abs(before[total] - after[total]) < 1e-12


def test_rewrite_composition_and_inverse(rng):
    for _ in range(25):
        mode_count = int(rng.integers(2, 5))
        state = random_state(rng, mode_count, totals=(2,))
        first = random_unitary(rng, mode_count)
        second = random_unitary(rng, mode_count)
        chained = apply_redefinition(apply_redefinition(state, first), second)
        direct = apply_redefinition(state, second @ first)
        assert states_close(chained, direct, 1e-10)
        back = apply_redefinition(apply_redefinition(state, first), ModeUnitary(first.matrix.conj().T))
        assert states_close(back, state, 1e-10)


# --- permanent ----------------------------------------------------------


def test_permanent_small_cases():
    assert permanent([[3.5]]) == pytest.approx(3.5)
    a, b, c, d = 1 + 2j, -0.5, 3j, 2 - 1j
    assert permanent([[a, b], [c, d]]) == pytest.approx(a * d + b * c)
    assert permanent(np.ones((3, 3))) == pytest.approx(6.0)


def test_permanent_matches_definition(rng):
    for n in (2, 3, 4, 5):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert permanent(m) == pytest.approx(permanent_by_definition(m), abs=1e-10)


def test_permanent_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        permanent(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        permanent(np.zeros((0, 0)))
    with pytest.raises(SizeLimitError):
        permanent(np.eye(17))


# --- fock_matrix_element ------------------------------------------------


def test_matrix_element_identity():
    ident = ModeUnitary(np.eye(2))
    for occ in [(0, 0), (1, 0), (2, 1)]:
        assert fock_matrix_element(ident, occ, occ) == pytest.approx(1.0)


def test_matrix_element_balanced_mix_single_photon():
    # Hand expansion: a_B† -> (b_A† - b_B†)/sqrt(2), so <10|...|01> = 1/sqrt(2).
    assert fock_matrix_element(balanced_mixer(), (1, 0), (0, 1)) == pytest.approx(
        1 / math.sqrt(2)
    )


def test_matrix_element_vanishes_between_sectors():
    assert fock_matrix_element(balanced_mixer(), (1, 0), (1, 1)) == 0


def test_matrix_element_matches_expansion_on_balanced_mix():
    out = apply_redefinition(PureState(2, {(2, 0): 1.0}), balanced_mixer())
    element = fock_matrix_element(balanced_mixer(), (1, 1), (2, 0))
    assert element == pytest.approx(out.amplitudes[(1, 1)], abs=1e-12)


def test_matrix_element_oracle_equivalence(rng):
    # The permanent formula and the multinomial expansion are developed
    # independently; they must agree on every sector of a random unitary.
    for _ in range(8):
        unitary = random_unitary(rng, 3)
        for total in range(0, 4):
            occs = enumerate_sector(3, total)
            for source in occs:
                rewritten = apply_redefinition(PureState(3, {source: 1.0}), unitary)
                for target in occs:
                    expansion_amp = rewritten.amplitudes.get(target, 0j)
                    element = fock_matrix_element(unitary, target, source)
                    assert abs(element - expansion_amp) < 1e-10


@pytest.mark.parametrize(
    "ket",
    [
        "|4,4,4>",
        "|12,0,0>",
        "|3,3,2>",
        "|2,2,2,1>",
        "|4,3,0,3> - 0.5i*|0,2,8,0>",
        "|0000> + |1100> + 0.5*|0011> - |2000>",
        "|3,1,0,0> + 0.5*|1,1,0,0> - |0,1,0,1> + 0.3i*|0,0,2,0>",
    ],
    ids=["fock444", "fock1200", "fock332", "fock2221", "comma10", "vacuum-pairs4",
         "one-term4-three-terms2"],
)
def test_deep_ladder_amplitudes_match_permanent_oracle(ket):
    # Up to twelve substitution steps per term, against the permanent formula.
    # One-term sectors climb as batches of one term, which read each rung's
    # own gather array; the last case has one beside a three-term sector.
    state = parse_state(ket)
    rng = np.random.default_rng(31)
    sectors = {sum(occ) for occ in state.amplitudes}
    targets = [occ for total in sorted(sectors)
               for occ in enumerate_sector(state.mode_count, total)]
    for _ in range(2):
        unitary = random_unitary(rng, state.mode_count)
        rewritten = apply_redefinition(state, unitary)
        for index in rng.choice(len(targets), size=min(10, len(targets)), replace=False):
            target = targets[index]
            expected = sum(
                amp * fock_matrix_element(unitary, target, occ)
                for occ, amp in state.amplitudes.items()
                if sum(occ) == sum(target)
            )
            assert abs(rewritten.amplitudes.get(target, 0j) - expected) < 1e-10


def ladder_by_definition(mode_count, top):
    """Rungs (gather, starts, counts, norms) into sectors 1..top, entry by
    entry: sectors list sorted mode multisets in colex order, and occupation
    m of sector s has, for each occupied mode k, the entry
    k * D_{s-1} + index(m - e_k) with count m_k, and the norm
    sqrt(prod_k m_k! / s!)."""
    sectors = [
        sorted(
            itertools.combinations_with_replacement(range(mode_count), total),
            key=lambda multiset: multiset[::-1],
        )
        for total in range(top + 1)
    ]
    rungs = []
    for total in range(1, top + 1):
        below = {multiset: i for i, multiset in enumerate(sectors[total - 1])}
        gather, starts, counts, norms = [], [], [], []
        for multiset in sectors[total]:
            starts.append(len(gather))
            for k in sorted(set(multiset)):
                lowered = list(multiset)
                lowered.remove(k)
                gather.append(k * len(below) + below[tuple(lowered)])
                counts.append(multiset.count(k))
            factorials = math.prod(math.factorial(c) for c in counts[starts[-1]:])
            norms.append(math.sqrt(factorials / math.factorial(total)))
        rungs.append((gather, starts, counts, norms))
    return rungs


def ladder_labels(mode_count, total):
    """Occupations of sector `total` in ladder order, by definition: sorted
    mode multisets in colex order."""
    multisets = sorted(
        itertools.combinations_with_replacement(range(mode_count), total),
        key=lambda multiset: multiset[::-1],
    )
    return [tuple(map(multiset.count, range(mode_count))) for multiset in multisets]


@pytest.mark.parametrize(
    "mode_count, top",
    [(1, 5), (2, 5), (3, 5), (4, 5), (5, 5), (40, 2), (2, 60)],
)
def test_ladder_rungs_match_their_definition(mode_count, top):
    from fockmodes.transform import _Ladder

    expected = ladder_by_definition(mode_count, top)
    grown = _Ladder(mode_count)
    for total in range(1, top):
        grown.rungs(total)
    # Built at once and grown one photon at a time, the tables agree.
    for rungs in (_Ladder(mode_count).rungs(top), grown.rungs(top)):
        assert len(rungs) == top
        for rung, (gather, starts, counts, norms) in zip(rungs, expected):
            assert all(array.dtype == np.intp for array in rung[:3])
            assert np.array_equal(rung[0], gather)
            assert np.array_equal(rung[1], starts)
            assert np.array_equal(rung[2], counts)
            np.testing.assert_allclose(rung[3], norms, rtol=1e-13)


def test_rewrite_in_batches_of_one_term_matches_one_batch(monkeypatch, rng):
    # Many-term states climb in several batches; force that path here.
    from fockmodes import transform

    state = random_state(rng, 3, totals=(0, 2, 3))
    unitary = random_unitary(rng, 3)
    whole = apply_redefinition(state, unitary)
    monkeypatch.setattr(transform, "_BATCH_CELLS", 1)
    assert states_close(apply_redefinition(state, unitary), whole, 1e-12)


def test_batches_share_one_gather_table_per_rung(monkeypatch):
    # 200 terms of 5 photons in 8 modes, one term per batch: 200 batches.
    # Each keeping its own copy of the gather tables would hold 2.4 MB.
    from fockmodes import transform

    state = PureState(8, dict.fromkeys(enumerate_sector(8, 5)[:200], 1.0))
    # Build the ladder first, so the trace counts the plan alone.
    transform._ladder(8).rungs(5)
    monkeypatch.setattr(transform, "_BATCH_CELLS", 1)
    tracemalloc.start()
    try:
        _, rewrite = transform._rewriter(state)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1_000_000
    # The identity substitution gives back the state's own amplitudes.
    rewritten = dict(zip(ladder_labels(8, 5), rewrite(np.eye(8))))
    for occ, amp in state.amplitudes.items():
        assert rewritten[occ] == pytest.approx(amp, abs=1e-14)


def test_batches_of_one_sector_match_the_oracle(monkeypatch, rng):
    # Three states of one sector, 3 photons in 5 modes, with 1, 3 and 2
    # terms: one batch each.  Then batches of two terms: the 3-term state
    # climbs as 2 + 1, a short last batch, and the 2-term one as one batch.
    from fockmodes import transform

    unitary = random_unitary(rng, 5)
    sector = enumerate_sector(5, 3)
    states = [
        PureState(5, {occ: complex(rng.normal(), rng.normal()) for occ in sector[first:last]})
        for first, last in ((0, 1), (3, 6), (10, 12))
    ]
    outputs = [apply_redefinition(state, unitary) for state in states]
    top = transform._ladder(5).rungs(3)[2][0].size
    monkeypatch.setattr(transform, "_BATCH_CELLS", 2 * 3 * top)
    for state, whole in zip(states, outputs):
        assert states_close(apply_redefinition(state, unitary), whole, 1e-14)
    for state, out in zip(states, outputs):
        for occ in list(out.amplitudes)[::7]:
            expected = sum(
                amp * fock_matrix_element(unitary, occ, term)
                for term, amp in state.amplitudes.items()
            )
            assert out.amplitudes[occ] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "mode_count, totals, side",
    [(3, (2,), (0, 1, 2)), (4, (0, 2, 3), (3, 1)), (5, (1, 4), (0, 2, 4)), (3, (0,), (1,))],
)
def test_side_index_ranks_restrictions_in_ladder_order(mode_count, totals, side):
    # The side's occupations by photon number, then as the ladder lists them
    # over the side's modes in increasing order.
    from fockmodes.transform import _side_index

    order = [occ for n in range(max(totals) + 1) for occ in ladder_labels(len(side), n)]
    restricted = [
        tuple(occ[k] for k in sorted(side))
        for total in totals
        for occ in ladder_labels(mode_count, total)
    ]
    photons, index = _side_index(mode_count, totals, side)
    assert photons.tolist() == [sum(occ) for occ in restricted]
    assert index.tolist() == [order.index(occ) for occ in restricted]


@pytest.mark.parametrize(
    "mode_count, total", [(1, 0), (1, 4), (3, 0), (3, 2), (4, 5), (6, 3), (40, 2)]
)
def test_sector_labels_are_canonical_and_index_the_ladder(mode_count, total):
    # The climb on reversed new modes, read backwards, is in canonical order.
    from fockmodes.transform import _sector_labels

    labels = list(_sector_labels(mode_count, total))
    assert labels == enumerate_sector(mode_count, total)
    ladder = ladder_labels(mode_count, total)
    assert labels == [occ[::-1] for occ in reversed(ladder)]


@pytest.mark.parametrize(
    "state",
    [
        PureState(3, {(1, 0, 0): 0.0}),
        parse_state("|2,0,1> + 0.5i*|0,3,0> - |1,1,1>"),
        parse_state("|0000> + |1100> + 0.5*|0011> - |2000> + 0.3*|0,1,1,1>"),
    ],
    ids=["zero", "identity-pruned", "vacuum-plus-pairs"],
)
def test_rewrite_is_the_ladder_output_keyed_by_ladder_labels(state):
    # Under the identity the zeros of every populated sector are pruned.  The
    # rewrite climbs the new modes in reverse, so its ladder labels are
    # reversed too.
    from fockmodes import transform
    from fockmodes.fock import PRUNE_THRESHOLD

    unitary = ModeUnitary(np.eye(state.mode_count))
    totals, rewrite = transform._rewriter(state)
    labels = [
        occ[::-1] for total in totals for occ in ladder_labels(state.mode_count, total)
    ]
    values = rewrite(unitary.matrix.conj().T[:, ::-1]).tolist()
    expected = {
        occ: amp for occ, amp in zip(labels, values) if abs(amp) >= PRUNE_THRESHOLD
    }
    out = apply_redefinition(state, unitary)
    assert out.amplitudes == expected
    assert set(out.amplitudes) == set(state.amplitudes)


def test_wide_rewrite_labels_its_sector_once():
    # One term of 2 photons in 141 modes: 10 011 rows.  Their labels, one
    # 141-entry tuple each, take about 12 MB; a dense (rows x modes) table
    # and its lists beside them would take the peak past 30 MB.
    from fockmodes import transform

    transform._ladder(141).rungs(2)
    transform._sector_labels.cache_clear()
    state = PureState(141, {(2,) + (0,) * 140: 1.0})
    tracemalloc.start()
    try:
        out = apply_redefinition(state, ModeUnitary(np.eye(141)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.amplitudes == {(2,) + (0,) * 140: pytest.approx(1.0, abs=1e-15)}
    assert peak < 20_000_000


def test_rewrite_emits_each_sector_in_canonical_order(rng):
    state = parse_state("|1,1,1,0> + 0.5*|0,0,2,1> - 0.4i*|3,0,0,0>")
    out = apply_redefinition(state, random_unitary(rng, 4))
    assert list(out.amplitudes) == out.support()
    mixed = apply_redefinition(random_state(rng, 4, (0, 3, 1, 2)), random_unitary(rng, 4))
    totals = list(map(sum, mixed.amplitudes))
    assert totals == sorted(totals)
    for total in set(totals):
        sector = [occ for occ in mixed.amplitudes if sum(occ) == total]
        assert sector == sorted(sector, reverse=True)


def test_rewrite_refuses_oversized_ladder_quickly():
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="ladder rows"):
        apply_redefinition(parse_state("|1000,0,0>"), ModeUnitary(np.eye(3)))
    assert time.perf_counter() - start < 1.0


def test_matrix_element_dimension_mismatch():
    with pytest.raises(DimensionError):
        fock_matrix_element(balanced_mixer(), (1, 0, 0), (0, 0, 1))


def test_matrix_element_checks_occupations_as_pure_state_does():
    # Each occupation goes through the one check PureState uses.
    mixer = balanced_mixer()
    with pytest.raises(DimensionError):
        fock_matrix_element(mixer, (1, 0), (1,))
    for bad in ((-1, 1), (1.0, 0), ("1", 0)):
        with pytest.raises(ValueError):
            fock_matrix_element(mixer, bad, (0, 0))
        with pytest.raises(ValueError):
            fock_matrix_element(mixer, (0, 0), bad)


# --- exp_map ------------------------------------------------------------


def test_exp_map_zero_is_identity():
    np.testing.assert_allclose(exp_map(np.zeros(9)).matrix, np.eye(3), atol=1e-14)


def test_exp_map_single_mode_pi():
    np.testing.assert_allclose(exp_map([math.pi]).matrix, [[-1]], atol=1e-14)


def test_exp_map_pauli_x_closed_form():
    # H = (pi/4) sigma_x: U = cos(pi/4) I + i sin(pi/4) sigma_x.
    theta = np.array([0.0, 0.0, math.pi / 4, 0.0])
    u = exp_map(theta).matrix
    np.testing.assert_allclose(np.abs(u), [[math.cos(math.pi / 4)] * 2] * 2, atol=1e-12)
    np.testing.assert_allclose(u[0, 0], math.cos(math.pi / 4), atol=1e-12)
    np.testing.assert_allclose(u[0, 1], 1j * math.sin(math.pi / 4), atol=1e-12)


def test_exp_map_always_unitary(rng):
    for _ in range(200):
        dim = int(rng.integers(1, 6))
        theta = rng.uniform(-np.pi, np.pi, dim * dim)
        # Construction holds every ModeUnitary to UNITARY_TOLERANCE (1e-10);
        # exp_map's matrices meet the tighter bound asserted here.
        unitary = exp_map(theta)
        residual = np.abs(
            unitary.matrix.conj().T @ unitary.matrix - np.eye(dim)
        ).max()
        assert residual <= 1e-12


def test_hermitian_params_validation():
    assert exp_map(np.zeros(16)).dim == 4
    with pytest.raises(DimensionError):
        exp_map(np.zeros(5))


def hermitian_by_definition(theta):
    """The parameter layout read entry by entry: M diagonal entries, then the
    real and then the imaginary parts of the strict upper triangle, row-major."""
    dim = math.isqrt(len(theta))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    herm = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        herm[i, i] = theta[i]
    for p, (i, j) in enumerate(pairs):
        real, imag = theta[dim + p], theta[dim + len(pairs) + p]
        herm[i, j] = complex(real, imag)
        herm[j, i] = complex(real, -imag)
    return herm


@pytest.mark.parametrize("dim", range(1, 6))
def test_hermitian_from_params_fills_its_layout(dim, rng):
    from fockmodes.transform import hermitian_from_params

    theta = rng.uniform(-np.pi, np.pi, dim * dim)
    herm = hermitian_from_params(theta)
    assert (herm == hermitian_by_definition(theta)).all()
    # The optimizer's substitution exp(-iH) rests on H(-theta) = -H(theta).
    assert (hermitian_from_params(-theta) == -herm).all()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", [0, 2, 3], ids=["diagonal", "real", "imag"])
def test_exp_map_rejects_non_finite_parameters(bad, position):
    theta = np.zeros(4)
    theta[position] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotUnitaryError) as err:
            exp_map(theta)
    assert math.isnan(err.value.residual)


def test_every_exported_name_resolves():
    import fockmodes

    missing = [name for name in fockmodes.__all__ if not hasattr(fockmodes, name)]
    assert missing == []


# --- beam_splitter ------------------------------------------------------


def test_beam_splitter_zero_angle_is_identity():
    np.testing.assert_allclose(beam_splitter(3, 0, 2, 0.0).matrix, np.eye(3), atol=1e-15)


def test_beam_splitter_quarter_matches_balanced_mix_up_to_row_signs():
    bs = beam_splitter(2, 0, 1, math.pi / 4).matrix
    bal = balanced_mixer().matrix
    np.testing.assert_allclose(bs[0], bal[0], atol=1e-14)
    np.testing.assert_allclose(bs[1], -bal[1], atol=1e-14)


def test_beam_splitter_angles_compose():
    first = beam_splitter(4, 1, 3, 0.3)
    second = beam_splitter(4, 1, 3, 0.5)
    combined = beam_splitter(4, 1, 3, 0.8)
    np.testing.assert_allclose((second @ first).matrix, combined.matrix, atol=1e-13)


def test_beam_splitter_index_errors():
    with pytest.raises(IndexError):
        beam_splitter(2, 1, 1, 0.1)
    with pytest.raises(IndexError):
        beam_splitter(2, 0, 2, 0.1)
