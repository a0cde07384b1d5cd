import dataclasses
import math
import operator
import time
import tracemalloc

import numpy as np
import pytest

from fockmodes import (
    DegenerateStateError,
    DimensionError,
    NumericalConsistencyError,
    OptConfig,
    Partition,
    PartitionError,
    PureState,
    SizeLimitError,
    apply_redefinition,
    enumerate_sector,
    exp_map,
    fock_matrix_element,
    optimize_entanglement,
    parse_state,
    schmidt_spectrum,
)
from fockmodes.optimize import (
    MAX_RESTARTS,
    _block_layout,
    _coset_search,
    _lbfgs,
    entropy_objective,
)
from fockmodes.suite import (
    crossed_pair_state,
    four_photon_state,
    single_photon_pair,
    two_photon_pair,
    vacuum_plus_pair,
)
from fockmodes.transform import _lowering

from conftest import random_state


def test_config_bounds_the_restart_count():
    assert OptConfig("max", restarts=MAX_RESTARTS).restarts == MAX_RESTARTS
    assert type(OptConfig("max", restarts=np.int64(3)).restarts) is int
    for restarts in (0, MAX_RESTARTS + 1):
        with pytest.raises(ValueError):
            OptConfig("max", restarts=restarts)
    for restarts in (2.5, 3.0, True, "3", None):
        with pytest.raises(ValueError, match="restarts"):
            OptConfig("max", restarts=restarts)


def test_config_rejects_bad_direction_and_seed():
    with pytest.raises(ValueError, match="direction"):
        OptConfig("maximum")
    for seed in (-1, 1.5, math.nan, False, "0"):
        with pytest.raises(ValueError, match="seed"):
            OptConfig("max", seed=seed)


def quadratic(center):
    """Value and gradient of |x - center|^2, as _lbfgs takes them."""
    return lambda x: (float((x - center) @ (x - center)), lambda: 2.0 * (x - center))


def test_lbfgs_convex_quadratic():
    x, fval, _, _, _ = _lbfgs(quadratic(0.0), operator.add, np.array([1.0, 1.0]), 400)
    assert fval < 1e-8


def test_lbfgs_shifted_quadratic():
    x, fval, _, _, _ = _lbfgs(quadratic(3.0), operator.add, np.array([0.0]), 400)
    assert x[0] == pytest.approx(3.0, abs=1e-4)


def test_lbfgs_reports_the_iteration_cap():
    # One iteration takes the first step but cannot reach the minimum at 3.
    _, fval, values, gradients, converged = _lbfgs(
        quadratic(3.0), operator.add, np.zeros(2), 1
    )
    assert (converged, values, gradients) == (False, 2, 2)
    assert fval < 18.0


def test_lbfgs_rejects_non_finite():
    with pytest.raises(NumericalConsistencyError):
        _lbfgs(lambda x: (float("nan"), lambda: x), operator.add, np.zeros(2), 400)


def test_lbfgs_descends_and_returns_the_value_at_its_point():
    evaluate, advance = _coset_search(two_photon_pair(), Partition((0,), (1,)), 1.0)
    start = exp_map(np.random.default_rng(7).uniform(-np.pi, np.pi, 4)).matrix.conj().T
    x, fval, evals, _, _ = _lbfgs(evaluate, advance, start, 600)
    assert evals > 10
    assert fval <= evaluate(start)[0]
    assert fval == evaluate(x)[0]


def test_lbfgs_stops_at_a_stationary_start():
    # The identity is stationary for |00>+|11>, so restart 0 of the maximum
    # reads the input entropy.
    state = vacuum_plus_pair()
    part = Partition((0,), (1,))
    result = optimize_entanglement(state, part, OptConfig("max", restarts=1))
    assert result.per_restart_values == (schmidt_spectrum(state, part).entropy_bits,)


def _halves(mode_count):
    half = mode_count // 2
    return Partition(tuple(range(half)), tuple(range(half, mode_count)))


def _gradient_cases():
    """(state, cut, points): every suite state with its cuts, random states
    of mixed totals, and rank-deficient points (a zero thin block; a thick
    block with a zero singular value) where the gradient does not vanish."""
    rng = np.random.default_rng(29)

    def random_points(mode_count):
        return [exp_map(rng.uniform(-np.pi, np.pi, mode_count**2)).matrix.conj().T
                for _ in range(3)]

    cases = [
        (single_photon_pair(), _halves(2)),
        (two_photon_pair(), _halves(2)),
        (four_photon_state(), _halves(4)),
        (vacuum_plus_pair(), _halves(2)),
        (crossed_pair_state(2), Partition((0,), (1, 2, 3))),
    ] + [(crossed_pair_state(pairs), _halves(2 * pairs)) for pairs in range(2, 6)]
    cases = [(state, cut, random_points(state.mode_count)) for state, cut in cases]
    for mode_count, totals in ((3, (0, 1, 3)), (4, (0, 2, 5)), (3, (1, 4))):
        cut = Partition((0,), tuple(range(1, mode_count)))
        cases.append((random_state(rng, mode_count, totals), cut, random_points(mode_count)))
    for ket, cut in (("0.6*|20> + 0.8*|11>", "0|1"), ("0.6*|1010> + 0.8*|2000>", "0,1|2,3")):
        state = parse_state(ket)
        cases.append((state, Partition.from_string(cut), [np.eye(state.mode_count)]))
    return cases


def test_coset_gradient_matches_central_differences():
    for state, cut, points in _gradient_cases():
        evaluate, advance = _coset_search(state, cut, 1.0)
        for subst in points:
            value, gradient = evaluate(subst)
            exact = gradient()
            assert exact.size == 2 * len(cut.side_a) * len(cut.side_b)
            step = 1e-5
            central = np.array([
                (evaluate(advance(subst, step * unit))[0]
                 - evaluate(advance(subst, -step * unit))[0]) / (2 * step)
                for unit in np.eye(exact.size)
            ])
            scale = np.abs(exact).max()
            assert scale > 1e-3, (state, cut)
            assert np.abs(exact - central).max() <= 1e-6 * scale, (state, cut)
            # The maximum's search reads the same point with both signs flipped.
            negated, negated_gradient = _coset_search(state, cut, -1.0)[0](subst)
            assert negated == -value
            assert np.array_equal(negated_gradient(), -exact)


def test_gradient_reads_its_own_point():
    # A gradient taken after the search has moved on to another point is
    # still the gradient at the point that was evaluated.
    for state, cut, points in _gradient_cases():
        mode_count = state.mode_count
        evaluate, _ = _coset_search(state, cut, 1.0)
        first = points[0]
        _, gradient = evaluate(first)
        evaluate(first @ exp_map(np.linspace(-1.0, 1.0, mode_count**2)).matrix)
        assert np.array_equal(gradient(), evaluate(first)[1]()), (state, cut)


def test_theta_entry_reads_the_coset_value_at_the_identity():
    # Restart 0 starts at the identity, where the optimizer's bound on its
    # result is this same value.
    for state, cut, _ in _gradient_cases():
        mode_count = state.mode_count
        at_zero = entropy_objective(state, cut)(np.zeros(mode_count**2))
        assert at_zero == _coset_search(state, cut, 1.0)[0](np.eye(mode_count))[0]


def test_objective_matches_library_entropy(rng):
    cases = [(random_state(rng, 3, totals=(0, 2)), Partition((0,), (1, 2)), 20)]
    # Random totals and cuts: blocks of every shape, merged across totals.
    for _ in range(12):
        mode_count = int(rng.integers(2, 5))
        totals = sorted(set(rng.integers(0, 4, size=int(rng.integers(1, 4))).tolist()))
        modes = rng.permutation(mode_count).tolist()
        cut = int(rng.integers(1, mode_count))
        part = Partition(tuple(sorted(modes[:cut])), tuple(sorted(modes[cut:])))
        cases.append((random_state(rng, mode_count, totals), part, 3))
    # Side-A photon-number classes of period 3, and classes that join blocks.
    cases += [
        (random_state(rng, 3, (1, 4)), Partition((0,), (1, 2)), 3),
        (random_state(rng, 3, (0, 1, 5)), Partition((0, 2), (1,)), 3),
        (random_state(rng, 4, (0, 2, 5)), Partition((0, 1), (2, 3)), 3),
    ]
    for state, part, points in cases:
        objective = entropy_objective(state, part)
        for _ in range(points):
            theta = rng.uniform(-np.pi, np.pi, state.mode_count**2)
            direct = schmidt_spectrum(
                apply_redefinition(state, exp_map(theta)), part
            ).entropy_bits
            assert objective(theta) == pytest.approx(direct, abs=1e-12)


def test_equal_restart_values_go_to_the_lowest_restart():
    # Every redefinition leaves |00> as it is, so every restart reads 0.0 and
    # restart 0, at the identity, wins.
    for direction in ("min", "max"):
        cfg = OptConfig(direction, restarts=4)
        result = optimize_entanglement(parse_state("|00>"), Partition((0,), (1,)), cfg)
        assert result.per_restart_values == (0.0,) * 4
        assert np.array_equal(result.best_unitary.matrix, np.eye(2))


def _spread_state(mode_count):
    """Three photons in `mode_count` modes: spread, bunched, and in between."""
    pad = (0,) * (mode_count - 3)
    return PureState(mode_count, {
        (1, 1, 1) + pad: 0.6,
        pad + (0, 0, 3): 0.48j,
        (0, 2) + pad + (1,): -0.64,
    })


@pytest.mark.parametrize(
    "state, cut",
    [
        (PureState(2, {(8, 0): 0.6, (0, 8): 0.8 * np.exp(0.7j)}), "0|1"),
        (parse_state("|3,3,2>"), "0|1,2"),
        (parse_state("|2,2,2,1>"), "0,1|2,3"),
        (parse_state("|000> + 0.5i*|110> - |101> + |020>"), "0|1,2"),
        (parse_state("|0000> + |1100> + 0.5*|0011> - |2000>"), "0,2|1,3"),
        # Three photons in 40 modes: a wide sector, 64 000 grid entries.
        (_spread_state(40), "0|" + ",".join(map(str, range(1, 40)))),
        (parse_state("|00>"), "0|1"),
        (parse_state("|000> + |111>"), "0|1,2"),
        (parse_state("|12,0,0>"), "0|1,2"),
        (parse_state("|4,4,4>"), "1|0,2"),
        (parse_state("|19,0>"), "0|1"),
        # Blocks 15x1, 5x5 and 1x15; mostly thick blocks; a 2x2 block between
        # two thin ones; one block joining the vacuum and the pair's totals.
        (crossed_pair_state(5), "0,1,2,3,4|5,6,7,8,9"),
        (parse_state("|2,1,2,2>"), "2,3|0,1"),
        (four_photon_state(), "0,1|2,3"),
        (vacuum_plus_pair(), "0|1"),
        # Sides listed out of order: the layout numbers each side's modes in
        # increasing order.
        (four_photon_state(), "3,1|0,2"),
        (parse_state("|000> + 0.5i*|110> - |101> + |020>"), "2,0|1"),
    ],
    ids=[
        "noon8", "fock332", "fock2221", "vacuum-pair3", "vacuum-pairs4", "spread40",
        "vacuum", "vacuum-triple3", "fock1200", "fock444", "fock190",
        "crossed10", "fock2122", "four-photon", "vacuum-pair",
        "four-photon-unsorted", "vacuum-pair3-unsorted",
    ],
)
def test_block_objective_matches_dense_schmidt_spectrum(state, cut):
    part = Partition.from_string(cut)
    objective = entropy_objective(state, part)
    rng = np.random.default_rng(11)
    for _ in range(3):
        theta = rng.uniform(-np.pi, np.pi, state.mode_count**2)
        direct = schmidt_spectrum(
            apply_redefinition(state, exp_map(theta)), part
        ).entropy_bits
        assert objective(theta) == pytest.approx(direct, abs=1e-12)


def test_objective_matches_state_built_from_permanent_oracle():
    # The objective and apply_redefinition share the ladder engine; this
    # reference rewrites |3,3,2> amplitude by amplitude through permanents.
    source = (3, 3, 2)
    part = Partition((0,), (1, 2))
    objective = entropy_objective(parse_state("|3,3,2>"), part)
    rng = np.random.default_rng(17)
    for _ in range(3):
        theta = rng.uniform(-np.pi, np.pi, 9)
        unitary = exp_map(theta)
        reference = PureState(3, {
            target: fock_matrix_element(unitary, target, source)
            for target in enumerate_sector(3, sum(source))
        })
        expected = schmidt_spectrum(reference, part).entropy_bits
        assert objective(theta) == pytest.approx(expected, abs=1e-12)


def test_objective_refuses_oversized_ladder_quickly():
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="ladder rows"):
        entropy_objective(parse_state("|1000,0,0>"), Partition((0,), (1, 2)))
    assert time.perf_counter() - start < 1.0


def test_objective_over_many_modes_keeps_no_table_over_parameters():
    # One photon in 40 modes has 1 600 parameters; a table of M^2 Hermitian
    # matrices over them would hold 41 MB.
    state = parse_state("|1" + ",0" * 39 + ">")
    part = Partition((0,), tuple(range(1, 40)))
    theta = np.random.default_rng(3).uniform(-np.pi, np.pi, 40 * 40)
    tracemalloc.start()
    try:
        value = entropy_objective(state, part)(theta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 <= value <= 1.0 + 1e-12
    assert peak < 5_000_000


def test_cold_layout_over_many_modes_reads_the_ladder_entries():
    # Two photons in 276 modes: 38 226 occupations, whose dense
    # (occupation, mode) array alone would hold 84 MB.
    part = Partition(tuple(range(138)), tuple(range(138, 276)))
    _lowering(276, 2)
    tracemalloc.start()
    try:
        bins, thin_count, cells, shape = _block_layout.__wrapped__(276, (2,), part)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The sides hold 0|2, 1|1 and 2|0 photons: two thin blocks and a square one.
    assert (thin_count, shape) == (2, (1, 138, 138))
    assert bins.size == 2 * cells.size == 2 * math.comb(277, 2)
    assert peak < 40_000_000


def test_objective_build_is_not_factorial_in_photons():
    start = time.perf_counter()
    objective = entropy_objective(parse_state("|14,0> + |0,14>"), Partition((0,), (1,)))
    assert time.perf_counter() - start < 5.0
    assert objective(np.zeros(4)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("ket", ["|20> + |02>", "|19,0>"], ids=["noon2", "fock190"])
def test_objective_rejects_wrong_length_theta(ket):
    state = parse_state(ket)
    assert state.mode_count == 2
    objective = entropy_objective(state, Partition((0,), (1,)))
    with pytest.raises(DimensionError, match=r"M\^2 = 4 parameters, got 9"):
        objective(np.zeros(9))


def test_objective_checks_schmidt_coefficients_sum_to_one():
    part = Partition((0,), (1,))
    objective = entropy_objective(parse_state("|20> + |02>"), part)
    theta = np.random.default_rng(5).uniform(-np.pi, np.pi, 4)
    assert 0.0 <= objective(theta) <= math.log2(3) + 1e-12
    unnormalized = PureState(2, {(2, 0): 1.0, (0, 2): 1.0})
    with pytest.raises(NumericalConsistencyError, match="sum to"):
        entropy_objective(unnormalized, part)(theta)
    # NaN or infinite parameters make the spectrum's sum NaN, which fails too.
    with np.errstate(invalid="ignore"):
        for bad in ([math.nan] * 4, [math.inf] * 4, [0.0, 0.0, math.nan, 0.0]):
            with pytest.raises(NumericalConsistencyError, match="sum to nan"):
                objective(np.array(bad))
    # The same check where the spectrum takes an SVD: the 2x2 block of one
    # photon on each side.
    unnormalized = PureState(4, {(1, 0, 0, 1): 1.0, (0, 1, 1, 0): 1.0})
    objective = entropy_objective(unnormalized, Partition((0, 1), (2, 3)))
    with pytest.raises(NumericalConsistencyError, match="sum to"):
        objective(np.random.default_rng(5).uniform(-np.pi, np.pi, 16))
    # An all-pruned state has nothing to rewrite.
    with pytest.raises(DegenerateStateError):
        entropy_objective(PureState(2, {(2, 0): 0.0}), part)
    # A rank-one point reads exactly +0.0.
    at_identity = entropy_objective(parse_state("|20>"), part)(np.zeros(4))
    assert at_identity == 0.0 and math.copysign(1.0, at_identity) == 1.0


@pytest.mark.parametrize(
    "ket, partition",
    [
        ("|110> + |011>", Partition((0,), (1,))),
        ("|100> + |010>", Partition((0,), (5,))),
    ],
    ids=["drops-a-mode", "out-of-range"],
)
def test_objective_rejects_partition_not_covering_the_modes(ket, partition):
    with pytest.raises(PartitionError, match="does not cover"):
        entropy_objective(parse_state(ket), partition)


def test_optimize_rejects_partition_not_covering_the_modes():
    # Coverage is checked before the coordinate cap: 0|1..37 has 74
    # coordinates, but the fault is the modes it names past |1,0>'s two.
    cases = [("|110> + |011>", Partition((0,), (1,))),
             ("|1,0>", Partition((0,), tuple(range(1, 38))))]
    for ket, cut in cases:
        with pytest.raises(PartitionError, match="does not cover"):
            optimize_entanglement(parse_state(ket), cut, OptConfig("max"))


def test_optimize_two_photon_pair_extrema():
    part = Partition((0,), (1,))
    result = optimize_entanglement(two_photon_pair(), part, OptConfig("min"))
    assert result.best_entropy_bits == pytest.approx(0.0, abs=1e-6)
    result = optimize_entanglement(two_photon_pair(), part, OptConfig("max"))
    assert result.best_entropy_bits == pytest.approx(math.log2(3), abs=1e-3)
    assert result.converged
    assert result.evaluations > 0


def test_optimize_result_reverifies_and_sandwiches():
    part = Partition((0,), (1,))
    state = vacuum_plus_pair()
    input_entropy = schmidt_spectrum(state, part).entropy_bits
    low = optimize_entanglement(state, part, OptConfig("min", restarts=4))
    high = optimize_entanglement(state, part, OptConfig("max", restarts=4))
    assert low.best_entropy_bits <= input_entropy + 1e-9
    assert high.best_entropy_bits >= input_entropy - 1e-9
    # The returned unitary reproduces the reported value.
    for result in (low, high):
        redone = schmidt_spectrum(
            apply_redefinition(state, result.best_unitary), part
        ).entropy_bits
        assert redone == pytest.approx(result.best_entropy_bits, abs=1e-9)
        assert result.best_spectrum.entropy_bits == redone


def test_optimize_raises_when_its_value_fails_either_guard(monkeypatch):
    # Neither guard fires on a working objective, so break what each reads.
    part = Partition((0,), (1,))
    cfg = OptConfig("min", restarts=1)
    monkeypatch.setattr(
        "fockmodes.optimize.schmidt_spectrum",
        lambda state, cut: dataclasses.replace(schmidt_spectrum(state, cut), entropy_bits=-1.0),
    )
    with pytest.raises(NumericalConsistencyError, match="re-evaluated"):
        optimize_entanglement(two_photon_pair(), part, cfg)
    monkeypatch.setattr("fockmodes.optimize.entropy_objective",
                        lambda state, cut: lambda theta: -1.0)
    with pytest.raises(NumericalConsistencyError, match="past the input's entropy"):
        optimize_entanglement(two_photon_pair(), part, cfg)


def test_optimize_deterministic_per_restart_values():
    part = Partition((0,), (1,))
    cfg = OptConfig("max", restarts=6, seed=123)
    first = optimize_entanglement(two_photon_pair(), part, cfg)
    second = optimize_entanglement(two_photon_pair(), part, cfg)
    assert first.per_restart_values == second.per_restart_values
    assert first.best_entropy_bits == second.best_entropy_bits


def test_optimize_monotone_in_restarts():
    part = Partition((0,), (1,))
    state = vacuum_plus_pair()
    small = optimize_entanglement(
        state, part, OptConfig("min", restarts=3, seed=5)
    )
    large = optimize_entanglement(
        state, part, OptConfig("min", restarts=7, seed=5)
    )
    # Same seed stream: the first three restarts coincide.
    assert large.per_restart_values[:3] == small.per_restart_values
    assert large.best_entropy_bits <= small.best_entropy_bits + 1e-15
