"""Bipartite Schmidt analysis of pure states across a mode partition.

The Schmidt spectrum is computed from the singular values of the bipartite
coefficient matrix rather than by diagonalizing a reduced density matrix;
the SVD conditions better when eigenvalues nearly coincide.
"""

from __future__ import annotations

import contextlib
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NumericalConsistencyError, PartitionError
from .fock import NORM_TOLERANCE, PureState, require_normalized, sector_dimension, uint

# lambdas above this count toward the numerical Schmidt rank; sits between
# double-precision noise and the smallest meaningful eigenvalue in practice.
RANK_THRESHOLD = 1e-10


@dataclass(frozen=True)
class Partition:
    """Disjoint two-way split of the mode indices defining the entanglement cut."""

    side_a: tuple[int, ...]
    side_b: tuple[int, ...]

    def __post_init__(self):
        # Numpy booleans, unlike Python's, have no __index__.
        if any(isinstance(i, bool) or not hasattr(type(i), "__index__")
               for i in self.side_a + self.side_b):
            raise PartitionError("mode indices must be integers, not booleans")
        side_a = tuple(operator.index(i) for i in self.side_a)
        side_b = tuple(operator.index(i) for i in self.side_b)
        object.__setattr__(self, "side_a", side_a)
        object.__setattr__(self, "side_b", side_b)
        if not side_a or not side_b:
            raise PartitionError("both sides of the partition must be non-empty")
        if any(i < 0 for i in side_a + side_b):
            raise PartitionError("mode indices must be non-negative")
        seen = set(side_a)
        if len(seen) != len(side_a) or len(set(side_b)) != len(side_b):
            raise PartitionError("duplicate mode index within a side")
        if seen & set(side_b):
            raise PartitionError("partition sides must be disjoint")

    @property
    def mode_count(self) -> int:
        return len(self.side_a) + len(self.side_b)

    def ensure_covers(self, mode_count: int) -> None:
        if sorted(self.side_a + self.side_b) != list(range(mode_count)):
            raise PartitionError(
                f"partition {self} does not cover modes 0..{mode_count - 1}"
            )

    @classmethod
    def from_string(cls, text: str) -> "Partition":
        """Parse 'i,j,..|k,l,..' with zero-based indices of ASCII digits."""
        halves = text.split("|")
        if len(halves) != 2:
            raise PartitionError(
                f"expected exactly one '|' in partition string {text!r}"
            )
        sides = [[tok.strip() for tok in half.split(",") if tok.strip()] for half in halves]
        with contextlib.suppress(ValueError):
            return cls(*(tuple(map(uint, side)) for side in sides))
        raise PartitionError(f"bad mode index in partition string {text!r}")

    def __str__(self) -> str:
        return ",".join(map(str, self.side_a)) + "|" + ",".join(map(str, self.side_b))


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Descending Schmidt coefficients with their entropy in ebits."""

    lambdas: np.ndarray
    entropy_bits: float
    numerical_rank: int


def _restrictions(state: PureState, side: tuple[int, ...]) -> list:
    """Each occupation of the state, in dict order, restricted to `side`:
    a tuple of counts, or the bare count for a side of one mode.  Only the
    distinct values and their order of appearance matter."""
    return list(map(operator.itemgetter(*side), state.amplitudes))


def _require_unit_sum(lambdas: np.ndarray, norm: float) -> None:
    """Raise unless the Schmidt coefficients sum to the squared `norm` of
    their state within 1e-10 and that norm is 1 within NORM_TOLERANCE; a NaN
    sum fails too.

    The sum is held to the squared norm, not to 1: (1 + NORM_TOLERANCE)**2
    is 1 + 2e-9, so a bound of 1e-10 around 1 would refuse states that
    ``require_normalized`` accepts.
    """
    total = float(lambdas.sum())
    if not (abs(total - norm * norm) <= 1e-10 and abs(norm - 1.0) <= NORM_TOLERANCE):
        raise NumericalConsistencyError(
            f"Schmidt coefficients sum to {total!r}, expected the squared norm "
            f"{norm * norm!r} within 1e-10, and that norm 1 within {NORM_TOLERANCE:g}"
        )


def entropy_of_spectrum(lambdas: np.ndarray) -> float:
    """-sum lambda log2 lambda with the 0 log 0 := 0 convention, never below +0.0."""
    lam = np.asarray(lambdas, dtype=float)
    lam = lam[lam > 0.0]
    # A pure state's sum is 0.0, and a coefficient a hair above one (as an
    # unclipped SVD can give) makes it a hair positive.
    return max(0.0, -float((lam * np.log2(lam)).sum()))


def schmidt_spectrum(state: PureState, partition: Partition) -> SchmidtSpectrum:
    """Squared singular values of the coefficient matrix, descending, plus entropy.

    The matrix has one row per side-A restriction and one column per side-B
    restriction of the support, each ranked by first appearance in the
    state's dict, not sorted: singular values do not depend on their order.
    Its Frobenius norm is the state norm.
    """
    norm = require_normalized(state)
    partition.ensure_covers(state.mode_count)
    row_of = _restrictions(state, partition.side_a)
    col_of = _restrictions(state, partition.side_b)
    count = len(state.amplitudes)
    row_index = dict(zip(dict.fromkeys(row_of), range(count)))
    col_index = dict(zip(dict.fromkeys(col_of), range(count)))
    matrix = np.zeros((len(row_index), len(col_index)), dtype=complex)
    matrix[
        np.fromiter(map(row_index.__getitem__, row_of), np.intp, count),
        np.fromiter(map(col_index.__getitem__, col_of), np.intp, count),
    ] = np.fromiter(state.amplitudes.values(), complex, count)
    # Descending, as the SVD returns them.  Squares are never negative; only
    # rounding, or a norm a hair above 1, can lift one above 1.  LAPACK
    # takes the SVD of a matrix with no fewer rows than columns faster.
    if matrix.shape[0] < matrix.shape[1]:
        matrix = matrix.T
    squares = np.linalg.svd(matrix, compute_uv=False) ** 2
    _require_unit_sum(squares, norm)
    lambdas = np.minimum(squares, 1.0)
    lambdas.setflags(write=False)
    return SchmidtSpectrum(
        lambdas=lambdas,
        entropy_bits=entropy_of_spectrum(lambdas),
        numerical_rank=int((lambdas > RANK_THRESHOLD).sum()),
    )


def rank_bound(state: PureState, partition: Partition) -> int:
    """A priori cap on the Schmidt rank across the partition.

    A redefinition keeps each total photon number N, so the rewritten state
    has nonzero Schmidt-matrix blocks only where n photons on side A meet
    N - n on side B.  Summed over the state's totals, each total contributes
    B(N) = sum over n of min(dim(|A|, n), dim(|B|, N - n)); and neither side
    has more occupations with at most N_max photons than C(N_max + |side|,
    |side|).  The bound is the least of the three, holds for every unitary
    mode redefinition of the state, and for one total equals B(N).
    """
    partition.ensure_covers(state.mode_count)
    totals = set(map(sum, state.amplitudes))
    if not totals:
        return 0
    a, b = len(partition.side_a), len(partition.side_b)

    def sector_bound(total: int) -> int:
        # dim(|A|, n) grows and dim(|B|, total - n) shrinks with n, so the min
        # is the side-A term up to the last n where it is the smaller, k, and
        # the side-B term after; each part sums to one binomial.
        low, high = 0, total
        while low < high:
            mid = (low + high + 1) // 2
            if sector_dimension(a, mid) <= sector_dimension(b, total - mid):
                low = mid
            else:
                high = mid - 1
        return math.comb(low + a, a) + math.comb(total - low - 1 + b, b)

    top = max(totals)
    return min(
        sum(map(sector_bound, totals)), math.comb(top + a, a), math.comb(top + b, b)
    )
