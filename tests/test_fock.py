import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockmodes import (
    DegenerateStateError,
    DimensionError,
    ModeUnitary,
    PureState,
    apply_redefinition,
    beam_splitter,
    enumerate_sector,
    format_state,
    inner_product,
    normalize,
    parse_state,
    sector_weights,
)
from fockmodes import fock

from conftest import random_state, random_unitary


def test_enumerate_sector_examples():
    assert enumerate_sector(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert enumerate_sector(1, 0) == [(0,)]
    assert len(enumerate_sector(6, 2)) == 21


@pytest.mark.parametrize("mode_count", range(1, 9))
@pytest.mark.parametrize("total", range(0, 7))
def test_enumerate_sector_counts(mode_count, total):
    occs = enumerate_sector(mode_count, total)
    assert len(occs) == math.comb(total + mode_count - 1, mode_count - 1)
    assert len(set(occs)) == len(occs)
    assert all(sum(occ) == total for occ in occs)


def test_enumerate_sector_canonical_order():
    # Descending lexicographic, first mode most significant.
    for mode_count, total in [(2, 3), (3, 2), (4, 3)]:
        occs = enumerate_sector(mode_count, total)
        assert occs == sorted(occs, reverse=True)


def test_occupation_order_is_strict_total_order():
    occs = enumerate_sector(3, 3)
    for i, a in enumerate(occs):
        for j, b in enumerate(occs):
            # Exactly one of <, ==, > holds, consistent with list position.
            assert (a > b) == (i < j)
            assert (a == b) == (i == j)


def test_enumerate_sector_rejects_bad_input():
    with pytest.raises(DimensionError):
        enumerate_sector(0, 2)
    with pytest.raises(ValueError):
        enumerate_sector(2, -1)


def test_pure_state_prunes_and_validates():
    state = PureState(2, {(1, 0): 1.0, (0, 1): 1e-16})
    assert state.amplitudes == {(1, 0): 1.0}
    with pytest.raises(DimensionError):
        PureState(2, {(1, 0, 0): 1.0})
    with pytest.raises(ValueError):
        PureState(2, {(-1, 0): 1.0})
    with pytest.raises(ValueError, match="integers"):
        PureState(2, {(1.5, 0): 1.0})
    with pytest.raises(DimensionError):
        PureState(0, {})
    # A NaN amplitude would be pruned, and an infinite one normalized away.
    for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
        with pytest.raises(ValueError, match="not finite"):
            PureState(2, {(1, 0): bad, (0, 1): 1.0})


def test_normalize_examples():
    state = normalize(PureState(2, {(1, 0): 2.0}))
    assert state.amplitudes[(1, 0)] == pytest.approx(1.0)

    state = normalize(PureState(2, {(2, 0): 1.0, (0, 2): 1.0}))
    assert state.amplitudes[(2, 0)] == pytest.approx(1 / math.sqrt(2))
    assert state.amplitudes[(0, 2)] == pytest.approx(1 / math.sqrt(2))

    with pytest.raises(DegenerateStateError):
        normalize(PureState(2, {(1, 0): 1e-20}))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_normalize_idempotent(seed):
    state = random_state(np.random.default_rng(seed), 3, totals=(0, 1, 2))
    once = normalize(state)
    twice = normalize(once)
    for occ in once.amplitudes:
        assert abs(once.amplitudes[occ] - twice.amplitudes[occ]) < 1e-14


def test_sector_weights_examples():
    assert sector_weights(parse_state("|01> + |10>")) == pytest.approx({1: 1.0})
    weights = sector_weights(parse_state("|00> + |11>"))
    assert weights == pytest.approx({0: 0.5, 2: 0.5})
    assert sector_weights(PureState(2, {(1, 1): 1.0})) == pytest.approx({2: 1.0})


def test_sector_weights_sum_to_one(rng):
    for _ in range(200):
        mode_count = int(rng.integers(1, 5))
        totals = tuple(rng.choice(4, size=int(rng.integers(1, 3)), replace=False))
        state = random_state(rng, mode_count, totals)
        weights = sector_weights(state)
        assert all(w >= 0 for w in weights.values())
        assert abs(sum(weights.values()) - 1.0) < 1e-12


def test_inner_product_examples():
    psi = parse_state("|20> + |02>")
    assert inner_product(psi, psi) == pytest.approx(1.0)
    assert inner_product(PureState(2, {(2, 0): 1.0}), PureState(2, {(0, 2): 1.0})) == 0
    assert inner_product(psi, PureState(2, {(2, 0): 1.0})) == pytest.approx(1 / math.sqrt(2))


def test_inner_product_conjugate_symmetry(rng):
    for _ in range(50):
        a = random_state(rng, 3, totals=(1, 2))
        b = random_state(rng, 3, totals=(1, 2))
        assert inner_product(a, b) == pytest.approx(inner_product(b, a).conjugate())


def test_inner_product_dimension_mismatch():
    with pytest.raises(DimensionError):
        inner_product(PureState(2, {(1, 0): 1.0}), PureState(3, {(1, 0, 0): 1.0}))


def test_library_built_states_skip_the_occupation_check(monkeypatch, rng):
    state = random_state(rng, 4, totals=(0, 2, 3))
    unitary = random_unitary(rng, 4)
    calls = []
    check = fock._as_occupation

    def counted(occ, mode_count):
        calls.append(occ)
        return check(occ, mode_count)

    monkeypatch.setattr(fock, "_as_occupation", counted)
    rewritten = apply_redefinition(state, unitary)
    normalize(rewritten)
    parse_state("|0,2,1,0> - 0.5i*|1,0,0,0>")
    assert calls == []
    PureState(2, {(1, 0): 1.0})
    assert calls == [(1, 0)]


def test_library_built_states_still_prune():
    # Amplitudes below PRUNE_THRESHOLD are dropped however the library
    # builds or prints the state: a parse, a rescale and a phase turn.
    assert parse_state("|10> + 1e-16*|01>").amplitudes == {(1, 0): 1}
    state = PureState(2, {(2, 0): 10.0, (0, 2): 1.5e-15})
    assert set(state.amplitudes) == {(2, 0), (0, 2)}
    assert set(normalize(state).amplitudes) == {(2, 0)}
    # A lead of phase 0.11 turns 1e-15, kept on construction, to just below,
    # and format_state leaves it out even where its digits would show.
    state = PureState(2, {(2, 0): cmath.exp(0.11j), (0, 2): fock.PRUNE_THRESHOLD})
    lead = state.amplitudes[(2, 0)]
    factor = (lead / abs(lead)).conjugate()
    assert abs(fock.PRUNE_THRESHOLD * factor) < fock.PRUNE_THRESHOLD
    assert format_state(state, precision=20) == "|20>"


def test_hong_ou_mandel_rewrite_prunes_the_coincidence():
    rewritten = apply_redefinition(
        parse_state("|11>"), beam_splitter(2, 0, 1, math.pi / 4)
    )
    assert set(rewritten.amplitudes) == {(2, 0), (0, 2)}


def test_every_state_norm_is_hypot_of_its_moduli(rng):
    # One state from each way the library builds one, and a rewrite of an
    # amplitude whose square overflows a float: its norm is still hypot's.
    raw = random_state(rng, 3, totals=(0, 2))
    scaled = PureState(3, {occ: 3.0 * amp for occ, amp in raw.amplitudes.items()})
    states = {
        "constructor": scaled,
        "_of_checked": PureState._of_checked(3, scaled.amplitudes, scaled.amplitudes.values()),
        "normalize": normalize(scaled),
        "parse_state": parse_state("|0,1,1> + 0.5i*|2,0,0> - |0,0,1>"),
        "apply_redefinition": apply_redefinition(raw, random_unitary(rng, 3)),
        "apply_redefinition 1e200": apply_redefinition(
            PureState(1, {(1,): 1e200}), ModeUnitary(np.eye(1))
        ),
    }
    assert states["apply_redefinition 1e200"].norm() == 1e200
    for name, state in states.items():
        assert state.norm() == math.hypot(*map(abs, state.amplitudes.values())), name
