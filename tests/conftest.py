import numpy as np
import pytest

from fockmodes import PureState, enumerate_sector, exp_map


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_unitary(rng, dim):
    """Haar-ish unitary through the exponential parameterization."""
    return exp_map(rng.uniform(-np.pi, np.pi, dim * dim))


def random_state(rng, mode_count, totals):
    """Normalized random state supported on the given photon-number totals."""
    amps = {}
    for total in totals:
        for occ in enumerate_sector(mode_count, total):
            amps[occ] = complex(rng.normal(), rng.normal())
    norm = np.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return PureState(mode_count, {occ: a / norm for occ, a in amps.items()})


def turn_lead_real(state: PureState) -> PureState:
    """The state times the global phase that makes its first amplitude in
    canonical order real-positive; amplitudes it turns below the prune
    threshold drop, as in any constructed state."""
    lead = state.amplitudes[max(state.amplitudes)]
    factor = (lead / abs(lead)).conjugate()
    return PureState(state.mode_count,
                     {occ: amp * factor for occ, amp in state.amplitudes.items()})


def states_close(a: PureState, b: PureState, tol: float) -> bool:
    """Amplitude-by-amplitude agreement (no phase freedom)."""
    keys = set(a.amplitudes) | set(b.amplitudes)
    return all(
        abs(a.amplitudes.get(k, 0j) - b.amplitudes.get(k, 0j)) <= tol for k in keys
    )
