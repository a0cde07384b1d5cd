"""Occupation-number basis states for multi-mode bosonic fields.

States are stored sparsely as a map from occupation tuples to complex
amplitudes, so superpositions that mix total photon numbers (vacuum plus
photon pairs, say) need no special casing.  Amplitudes with modulus below
``PRUNE_THRESHOLD`` are dropped on construction, and a NaN or infinite one
is a ValueError.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable, Mapping

from .errors import DegenerateStateError, DimensionError, NotNormalizedError

# Amplitudes below this modulus are dropped when states are built.
PRUNE_THRESHOLD = 1e-15
# Deviation from unit norm accepted by operations that need a normalized state.
NORM_TOLERANCE = 1e-9

Occupation = tuple[int, ...]


def _as_occupation(occ, mode_count: int) -> Occupation:
    try:
        counts = tuple(operator.index(c) for c in occ)
    except TypeError as exc:
        raise ValueError(f"occupation entries must be integers: {occ!r}") from exc
    if len(counts) != mode_count:
        raise DimensionError(
            f"occupation {counts} has {len(counts)} modes, expected {mode_count}"
        )
    if any(c < 0 for c in counts):
        raise ValueError(f"negative photon count in occupation {counts}")
    return counts


def is_uint(text: str) -> bool:
    """Whether `text` is an unsigned integer of ASCII digits alone, the rule
    for mode counts, mode indices and the CLI's integer options; ``int()``
    would also read signs, '_', blanks and other scripts' digits."""
    return text.isascii() and text.isdigit()


def uint(text: str) -> int:
    """`text` as an int when ``is_uint(text)``, else ValueError; ``int()``
    raises ValueError too past the interpreter's int-to-str digit limit."""
    if not is_uint(text):
        raise ValueError(f"not an unsigned integer of ASCII digits: {text!r}")
    return int(text)


class PureState:
    """Sparse pure state over the |n1 ... nM> photon-number basis.

    Instances are treated as immutable: operations return new states and
    never modify ``amplitudes`` in place, so states are safe to share
    across threads.
    """

    __slots__ = ("mode_count", "amplitudes")

    def __init__(self, mode_count: int, amplitudes: Mapping[Occupation, complex]):
        mode_count = operator.index(mode_count)
        if mode_count < 1:
            raise DimensionError("mode_count must be a positive integer")
        kept: dict[Occupation, complex] = {}
        for occ, amp in amplitudes.items():
            counts = _as_occupation(occ, mode_count)
            value = complex(amp)
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ValueError(f"amplitude of {counts} is not finite: {value!r}")
            if abs(value) >= PRUNE_THRESHOLD:
                kept[counts] = value
        self.mode_count = mode_count
        self.amplitudes = kept

    @classmethod
    def _of_checked(
        cls,
        mode_count: int,
        occupations: Iterable[Occupation],
        amplitudes: Iterable[complex],
    ) -> PureState:
        """State built by the library, whose occupations need no check.

        `occupations` must be keys of a PureState of `mode_count` modes, or
        labels from ``enumerate_sector``, paired in order with Python
        complex `amplitudes`; the state keeps them in that order.
        Amplitudes below PRUNE_THRESHOLD are dropped, as in the public
        constructor.
        """
        state = cls.__new__(cls)
        state.mode_count = mode_count
        state.amplitudes = {occ: amp for occ, amp in zip(occupations, amplitudes)
                            if abs(amp) >= PRUNE_THRESHOLD}
        return state

    def norm(self) -> float:
        return math.hypot(*map(abs, self.amplitudes.values()))

    def support(self) -> list[Occupation]:
        """Occupations with nonzero amplitude, in canonical order."""
        return sorted(self.amplitudes, reverse=True)

    def __len__(self) -> int:
        return len(self.amplitudes)

    def __repr__(self) -> str:
        return f"PureState(mode_count={self.mode_count}, terms={len(self.amplitudes)})"


def enumerate_sector(mode_count: int, total: int) -> list[Occupation]:
    """All occupations of `mode_count` modes with `total` photons.

    Canonical order: lexicographic with the first mode most significant
    and higher counts first, so (2,0) precedes (1,1) precedes (0,2).
    ``apply_redefinition`` labels each sector of its result from this list,
    so its cost is the label cost of a cold rewrite: each occupation counts
    its sorted mode multiset once.
    """
    mode_count = operator.index(mode_count)
    total = operator.index(total)
    if mode_count < 1:
        raise DimensionError("mode_count must be a positive integer")
    if total < 0:
        raise ValueError("total photon number must be non-negative")
    # Sorted mode multisets come in lexicographic order, and where two first
    # differ the earlier one has one more photon in the lower mode.
    occupations = []
    for multiset in itertools.combinations_with_replacement(range(mode_count), total):
        counts = [0] * mode_count
        for mode in multiset:
            counts[mode] += 1
        occupations.append(tuple(counts))
    return occupations


def sector_dimension(mode_count: int, total: int) -> int:
    """Number of occupations of `mode_count` modes with `total` photons."""
    return math.comb(total + mode_count - 1, mode_count - 1)


def require_normalized(state: PureState) -> float:
    """The state's norm; raise unless it is 1 within NORM_TOLERANCE."""
    if not state.amplitudes:
        raise DegenerateStateError("state has zero norm")
    norm = state.norm()
    deviation = abs(norm - 1.0)
    if deviation > NORM_TOLERANCE:
        raise NotNormalizedError(
            f"state norm deviates from 1 by {deviation:.3e}; normalize it first"
        )
    return norm


def normalize(state: PureState) -> PureState:
    """Rescale by a positive real so the result has unit norm.

    When the norm itself is past the float range, the amplitudes are first
    divided by a power of two, which is exact.
    """
    nrm = state.norm()
    if nrm == math.inf:
        peak = max(map(abs, state.amplitudes.values()))
        shift = math.ldexp(1.0, -math.frexp(peak)[1])
        state = PureState._of_checked(
            state.mode_count,
            state.amplitudes,
            [amp * shift for amp in state.amplitudes.values()],
        )
        nrm = state.norm()
    if nrm < PRUNE_THRESHOLD:
        raise DegenerateStateError("cannot normalize a state with zero norm")
    return PureState._of_checked(
        state.mode_count,
        state.amplitudes,
        [amp / nrm for amp in state.amplitudes.values()],
    )


def inner_product(a: PureState, b: PureState) -> complex:
    """<a|b>, summed over the shared support."""
    if a.mode_count != b.mode_count:
        raise DimensionError(
            f"mode counts differ: {a.mode_count} vs {b.mode_count}"
        )
    small, large = sorted((a.amplitudes, b.amplitudes), key=len)
    return sum(
        a.amplitudes[occ].conjugate() * b.amplitudes[occ] for occ in small if occ in large
    )


def sector_weights(state: PureState) -> dict[int, float]:
    """Probability of each total photon number present in the support."""
    require_normalized(state)
    weights: dict[int, float] = {}
    for occ, amp in state.amplitudes.items():
        total = sum(occ)
        weights[total] = weights.get(total, 0.0) + abs(amp) ** 2
    return dict(sorted(weights.items()))
