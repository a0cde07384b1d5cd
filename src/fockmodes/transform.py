"""Unitary redefinitions of the mode basis and their Fock-space action.

A redefinition introduces new creation operators b†_k = sum_j U[k, j] a†_j.
Rewriting a state in the new basis therefore substitutes each old operator
by its expansion in the new ones,

    a†_j  ->  sum_k conj(U[k, j]) b†_k,

and re-collects the resulting creation polynomial in the occupation basis.
One engine does this for ``apply_redefinition`` and for the optimizer's
objective: a photon-number ladder.  Substituting one more operator raises a
vector over the occupations of s photons to s + 1 photons, and that step is
a fixed gather whose index tables are built once per (mode count, s) and
cached; the terms of a sector climb the ladder together in numpy.  The
permanent-based ``fock_matrix_element`` gives the same amplitudes through an
independent formula and is kept as a cross-check, not as the production path.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .errors import DimensionError, NotUnitaryError, SizeLimitError
from .fock import Occupation, PureState, _as_occupation, enumerate_sector, sector_dimension

# Every ModeUnitary, from a caller, a file or exp_map, has max |U†U - I| at most this.
UNITARY_TOLERANCE = 1e-10
# Ryser's formula costs O(2^n * n); past this size it is not worth running.
PERMANENT_MAX_DIM = 16
# A rewrite of N photons in M modes climbs a ladder of C(N + M, M) rows,
# one per occupation of at most N photons; larger ones are refused.
LADDER_ROW_LIMIT = 300_000
# Terms climb in batches whose intermediate arrays hold about this many entries.
_BATCH_CELLS = 1 << 20


class ModeUnitary:
    """Validated M x M unitary acting on mode labels.

    The library's one unitarity check: a matrix whose max |U†U - I| is above
    UNITARY_TOLERANCE raises NotUnitaryError naming that residual.  The
    wrapped array is marked read-only; compose with ``@``.
    """

    __slots__ = ("dim", "matrix")

    def __init__(self, entries):
        m = np.array(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] < 1:
            raise DimensionError("unitary must have at least one mode")
        if not np.isfinite(m).all():
            raise NotUnitaryError("matrix has a non-finite entry", residual=math.nan)
        # A finite entry can still overflow the product; inf or NaN then fails
        # the test below without numpy's warning.
        with np.errstate(over="ignore", invalid="ignore"):
            residual = float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())
        if not (residual <= UNITARY_TOLERANCE):
            raise NotUnitaryError(f"matrix is not unitary: max |U†U - I| = {residual:.3e} "
                                  f"> {UNITARY_TOLERANCE:.1e}", residual=residual)
        m.setflags(write=False)
        self.dim = int(m.shape[0])
        self.matrix = m

    def __matmul__(self, other: "ModeUnitary") -> "ModeUnitary":
        if not isinstance(other, ModeUnitary):
            return NotImplemented
        if self.dim != other.dim:
            raise DimensionError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return ModeUnitary(self.matrix @ other.matrix)

    def __repr__(self) -> str:
        return f"ModeUnitary(dim={self.dim})"


@functools.lru_cache(maxsize=16)
def _hermitian_layout(dim: int) -> np.ndarray:
    """Where ``hermitian_from_params`` scatters its values among the floats
    of a dim x dim complex matrix, real and imaginary part of each entry in
    turn: the parameters in their order (diagonal, then the real and the
    imaginary parts of the strict upper triangle), then the real parts again
    and the negated imaginary parts at the mirror below."""
    upper = np.triu_indices(dim, k=1)
    above = 2 * (upper[0] * dim + upper[1])
    below = 2 * (upper[1] * dim + upper[0])
    positions = np.concatenate(
        (2 * (dim + 1) * np.arange(dim), above, above + 1, below, below + 1)
    )
    positions.setflags(write=False)
    return positions


def hermitian_from_params(theta) -> np.ndarray:
    """Assemble the Hermitian matrix encoded by a real vector of length M^2, M >= 1.

    Layout: M diagonal entries, then the M(M-1)/2 real parts and then the
    M(M-1)/2 imaginary parts of the strict upper triangle, both in row-major
    order.  ``exp_map`` and the optimizer both assemble H here, with one
    scatter through a cached table; H(-theta) is exactly -H(theta).
    """
    theta = np.asarray(theta, dtype=float).ravel()
    dim = math.isqrt(theta.size)
    if dim * dim != theta.size or dim < 1:
        raise DimensionError(
            f"parameter vector length {theta.size} is not a positive square"
        )
    imaginary = (dim * dim + dim) // 2
    herm = np.zeros(2 * dim * dim)
    herm[_hermitian_layout(dim)] = np.concatenate(
        (theta, theta[dim:imaginary], -theta[imaginary:])
    )
    return herm.view(complex).reshape(dim, dim)


def exp_i_hermitian(herm: np.ndarray) -> np.ndarray:
    """exp(iH) through the eigendecomposition of H, as a plain array.

    The shared core of ``exp_map``, which validates the result as a
    ModeUnitary, and of the optimizer's objective, which does not.
    """
    eigvals, eigvecs = np.linalg.eigh(herm)
    return (eigvecs * np.exp(1j * eigvals)) @ eigvecs.conj().T


def exp_map(theta) -> ModeUnitary:
    """U = exp(iH) for the Hermitian matrix H encoded by the real vector
    `theta` of length M^2 (layout as in ``hermitian_from_params``).

    Surjective onto U(M), so it serves as unconstrained coordinates for
    optimization over all mode redefinitions.  A non-finite parameter gives
    a non-finite matrix, which ModeUnitary refuses with NotUnitaryError.
    """
    return ModeUnitary(exp_i_hermitian(hermitian_from_params(theta)))


def beam_splitter(
    mode_count: int, i: int, j: int, theta: float, phi: float = 0.0
) -> ModeUnitary:
    """Two-mode mixer embedded in an M-mode identity.

    The (i, j) block is [[cos t, e^{i phi} sin t], [-e^{-i phi} sin t, cos t]].
    A non-finite angle raises NotUnitaryError.
    """
    mode_count = operator.index(mode_count)
    i = operator.index(i)
    j = operator.index(j)
    if not (0 <= i < j < mode_count):
        raise IndexError(
            f"mode indices must satisfy 0 <= i < j < {mode_count}, got ({i}, {j})"
        )
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise NotUnitaryError(
            f"beam splitter angles must be finite, got theta={theta!r}, phi={phi!r}",
            residual=math.nan,
        )
    m = np.eye(mode_count, dtype=complex)
    c, s = math.cos(theta), math.sin(theta)
    m[i, i] = c
    m[i, j] = np.exp(1j * phi) * s
    m[j, i] = -np.exp(-1j * phi) * s
    m[j, j] = c
    return ModeUnitary(m)


def permanent(matrix) -> complex:
    """Permanent of a square matrix by Ryser's formula with Gray-code subsets.

    Exact up to double rounding; cost O(2^n * n), capped at n = 16.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n < 1:
        raise DimensionError("permanent requires at least a 1x1 matrix")
    if n > PERMANENT_MAX_DIM:
        raise SizeLimitError(
            f"permanent capped at {PERMANENT_MAX_DIM}x{PERMANENT_MAX_DIM}, got n={n}"
        )
    if n == 1:
        return complex(a[0, 0])
    row_sums = np.zeros(n, dtype=complex)
    total = 0j
    parity = 1  # (-1)^{|S|} for the current column subset S
    for k in range(1, 1 << n):
        bit = (k & -k).bit_length() - 1
        if (k ^ (k >> 1)) & (1 << bit):
            row_sums += a[:, bit]
        else:
            row_sums -= a[:, bit]
        parity = -parity
        total += parity * np.prod(row_sums)
    if n % 2:
        total = -total
    return complex(total)


def _factorial_product(occ: Occupation) -> int:
    return math.prod(math.factorial(c) for c in occ)


def fock_matrix_element(unitary: ModeUnitary, m, n) -> complex:
    """Amplitude <m| of the redefinition of basis ket |n>.

    Equals permanent(W[m; n]) / sqrt(prod m_i! prod n_j!) where W = conj(U)
    and W[m; n] repeats row i m_i times and column j n_j times.  The
    conjugation matches the creation-operator substitution performed by
    ``apply_redefinition``; the two paths are developed independently and
    cross-checked in the test suite.  Exactly zero when the totals differ.
    `m` and `n` are checked as PureState checks its occupations.
    """
    m = _as_occupation(m, unitary.dim)
    n = _as_occupation(n, unitary.dim)
    if sum(m) != sum(n):
        return 0j
    if sum(m) == 0:
        return 1 + 0j
    w = unitary.matrix.conj()
    rows = np.repeat(np.arange(unitary.dim), m)
    cols = np.repeat(np.arange(unitary.dim), n)
    sub = w[np.ix_(rows, cols)]
    return permanent(sub) / math.sqrt(_factorial_product(m) * _factorial_product(n))


def _binomials(rows: int, top: int) -> np.ndarray:
    """binom[k, a] = C(k + a, a), the occupations of a photons in k + 1 modes,
    for k < rows and a <= top."""
    binom = np.ones((rows, top + 1), dtype=np.intp)
    for k in range(1, rows):
        np.cumsum(binom[k - 1], out=binom[k])
    return binom


class _Ladder:
    """Gather tables that raise a vector over the occupations of s photons in
    `mode_count` modes to s + 1 photons, grown on demand.

    Sector s lists its occupations in colex order of their sorted mode
    multisets (ranked by ``_side_index``): for each mode L in turn, the
    occupations p of sector s-1 supported on modes <= L, with one more photon
    in L.

    A vector on the ladder holds c(m) = psi(m) * sqrt(s! / prod_k m_k!)
    for a state psi of s photons, so multiplying psi by sum_k f_k b†_k is a
    gather-sum with no per-occupation factor: c'(m) = sqrt(s + 1) times the
    sum, over the occupied modes k of m, of f_k c(m - e_k).  The rung into
    sector s lists, occupation by occupation, the flat position
    k * D_{s-1} + index(m - e_k) of each occupied mode k in the outer
    product f ⊗ c (each position once), with the count m_k; `starts` marks
    where each occupation's entries begin, and `norms` =
    sqrt(prod_k m_k! / s!) turns c back into amplitudes.  D_s is the size
    of sector s.

    Each rung follows from the one below.  For m = p + e_L, every entry of p
    for a mode k < L keeps its count and moves into block L of sector s-1,
    which starts at offset(L): k * D_{s-2} + index(p - e_k) becomes
    k * D_{s-1} + offset(L) + index(p - e_k).  The entry of L is
    L * D_{s-1} + index(p) with count p_L + 1; it replaces p's trailing
    entry when p_L > 0, that is when p lies in block L itself, and follows
    the moved entries otherwise.
    """

    def __init__(self, mode_count: int):
        self.mode_count = mode_count
        modes = np.arange(mode_count)
        ones = np.ones(mode_count, dtype=np.intp)
        # rungs() grows a list and publishes it as one tuple, so a reader
        # never sees a half-grown tuple.
        self._rungs = ((modes, modes, ones, ones.astype(float)),)

    def rungs(self, top: int) -> tuple[tuple[np.ndarray, ...], ...]:
        """Rungs (gather, starts, counts, norms) into sectors 1..top;
        SizeLimitError past LADDER_ROW_LIMIT."""
        mode_count = self.mode_count
        rows = math.comb(top + mode_count, mode_count)
        if rows > LADDER_ROW_LIMIT:
            raise SizeLimitError(
                f"{top} photons in {mode_count} modes need {rows} ladder rows, "
                f"above the limit of {LADDER_ROW_LIMIT}"
            )
        if len(self._rungs) >= top:
            return self._rungs[:top]
        rungs = list(self._rungs)
        binom = _binomials(mode_count, top)
        for total in range(len(rungs) + 1, top + 1):
            gather, starts, counts, norms = rungs[-1]
            lower, size = binom[-1, total - 2 : total]
            # Block L takes the grow[L] parents p on modes <= L; those from
            # offset(L) = grow[L - 1] on form block L below and hold L already.
            grow = binom[:, total - 1]
            added = np.repeat(np.arange(mode_count), grow)
            offset = np.repeat(grow - binom[:, total - 2], grow)
            parent = np.arange(added.size) - np.repeat(np.cumsum(grow) - grow, grow)
            first = starts[parent]
            runs = np.diff(starts, append=gather.size)[parent]
            held = parent >= offset
            # The parents' entries for modes below L, moved into block L.
            kept = runs - held
            ends = np.cumsum(kept)
            moved = np.arange(ends[-1]) + np.repeat(first - ends + kept, kept)
            entries = gather[moved]
            entries += entries // lower * (size - lower) + np.repeat(offset, kept)
            # Each occupation's entry for L comes last.
            count_l = counts[first + runs - 1] * held + 1
            gather = np.insert(entries, ends, added * size + parent)
            counts = np.insert(counts[moved], ends, count_l)
            norms = norms[parent] * np.sqrt(count_l / total)
            rungs.append((gather, ends - kept + np.arange(ends.size), counts, norms))
        self._rungs = tuple(rungs)
        return self._rungs


@functools.lru_cache(maxsize=16)
def _ladder(mode_count: int) -> _Ladder:
    return _Ladder(mode_count)


@functools.lru_cache(maxsize=64)
def _lowering(mode_count: int, total: int) -> tuple[np.ndarray, ...]:
    """The ladder rung into sector `total` read backwards, the annihilators:
    (b_k psi)(m - e_k) = sqrt(m_k) psi(m) for every occupied mode k of every
    occupation m, at flat position k * D_{total-1} + index(m - e_k) of an
    (M, D_{total-1}) array.  Returns (positions, sources, counts, sizes):
    per entry its position, the index of m in the sector and m_k, each
    occupation's entries in increasing mode order; and (D_total,
    D_{total-1}).  The vacuum, sector 0, has no entries and sizes (1, 0)."""
    if total == 0:
        return (np.zeros(0, dtype=np.intp),) * 3 + ((1, 0),)
    gather, starts, counts, _ = _ladder(mode_count).rungs(total)[-1]
    sources = np.repeat(np.arange(starts.size), np.diff(starts, append=gather.size))
    return gather, sources, counts, (starts.size, sector_dimension(mode_count, total - 1))


@functools.lru_cache(maxsize=64)
def _sector_labels(mode_count: int, total: int) -> tuple[Occupation, ...]:
    """Occupations of sector `total` in canonical order (that of
    ``PureState.support``), from ``enumerate_sector``.

    They are also the ladder's occupations of the sector with their modes
    reversed, read backwards: a climb that numbers the new modes backwards
    gives the sector's amplitudes in this order once its output is
    reversed."""
    return tuple(enumerate_sector(mode_count, total))


def _side_index(mode_count: int, totals, side) -> tuple[np.ndarray, np.ndarray]:
    """For each occupation of the sectors `totals`, in ladder order and
    sector after sector, the photons it holds on the modes `side` and the
    index of its restriction to them among all occupations of those modes,
    ordered by photon number and then as on the ladder of the side's modes
    numbered in increasing order.

    On the ladder the n photons of an occupation on modes 0..k with a top
    photon in k follow the binom[k - 1, n] occupations on modes below k;
    peeling off the top photons one at a time and summing these offsets by
    the hockey-stick identity ranks an occupation with f_k photons on modes
    <= k at the sum over k of binom[k, f_k] - binom[k, f_{k-1}], a sum over
    the occupied modes only.  ``_lowering`` lists each occupation's occupied
    modes in increasing order with their counts m_k, so the side's entries
    give f_k as a running photon sum per occupation and f_{k-1} = f_k - m_k.
    """
    local = np.full(mode_count, -1)
    local[sorted(side)] = np.arange(len(side))
    binom = _binomials(len(side) + 1, max(totals))
    photons, indices = [], []
    for total in totals:
        positions, sources, counts, (size, lower) = _lowering(mode_count, total)
        modes = local[positions // lower]
        kept = modes >= 0
        modes, sources, counts = modes[kept], sources[kept], counts[kept]
        # Float sums of integers below the ladder's row count are exact.
        held = np.bincount(sources, counts, size).astype(np.intp)
        running = np.cumsum(counts) - (np.cumsum(held) - held)[sources]
        steps = binom[modes, running] - binom[modes, running - counts]
        # binom[width, n] - binom[width - 1, n] = C(n - 1 + width, width)
        # occupations of the side's width modes hold fewer than n photons.
        below = binom[-1, held] - binom[-2, held]
        photons.append(held)
        indices.append(below + np.bincount(sources, steps, size).astype(np.intp))
    return np.concatenate(photons), np.concatenate(indices)


def _rewriter(state: PureState):
    """The populated photon numbers of `state`, increasing, and a function
    rewrite(subst) that returns the amplitudes of every populated sector, in
    ladder order and sector after sector, with every old a†_j replaced by
    sum_k subst[j, k] b†_k.

    All that depends only on the state is prepared here once: the ladder
    rungs and each sector's plan.  A term of N photons takes one step per
    photon, old modes in increasing order.  Row i * N + step of the sector's
    `picks` selects, for term i, the old mode of that step (one nonzero
    entry), so picks @ subst gives every step's factor row at once.  The
    entry is sqrt((s + 1) / c) for the step into sector s + 1 that adds
    the c-th photon of its mode: the sqrt(s + 1) of the ladder's scaling,
    and 1/sqrt(c) to keep every partial state a unit vector; the sector's
    entries are built as one list.  `amps` holds the terms' amplitudes,
    apart from the picks.

    Terms climb in batches small enough that the intermediates hold about
    _BATCH_CELLS entries.  Each rung into sectors 2..N has one table: its
    positions offset to each term's block of the (term, mode, occupation)
    outer product, one row per term of a full batch; when batches hold one
    term each, the table is the rung's own gather array.  The plan lists the
    batches as views (rows of `picks`, entries of `amps`, the tables); a
    shorter last batch reads the first rows of the same tables.  The vacuum
    sector takes no step, and its plan is its amplitude array.  A state
    whose largest sector of N photons in M modes needs more than
    LADDER_ROW_LIMIT ladder rows raises SizeLimitError here.
    """
    mode_count = state.mode_count
    sectors: dict[int, list] = {}
    for occ, amp in state.amplitudes.items():
        sectors.setdefault(sum(occ), []).append((occ, amp))
    totals = tuple(sorted(sectors))
    rungs = _ladder(mode_count).rungs(max(totals, default=0))
    plans = []
    for total in totals:
        terms = sectors[total]
        amps = np.array([amp for _, amp in terms])
        if total == 0:
            plans.append(amps)
            continue
        steps = [k for occ, _ in terms for k, c in enumerate(occ) for _ in range(c)]
        scales = [
            math.sqrt(s / i) for occ, _ in terms
            for s, i in enumerate([n for c in occ for n in range(1, c + 1)], 1)
        ]
        picks = np.zeros((len(steps), mode_count), dtype=complex)
        picks[np.arange(len(steps)), steps] = scales
        cap = _BATCH_CELLS // (total * rungs[total - 1][0].size)
        batch = min(len(terms), max(1, cap))
        blocks = np.arange(batch)[:, None, None] * mode_count
        tables = [
            rung[0] + blocks * below[1].size if batch > 1 else rung[0][None, None]
            for below, rung in zip(rungs, rungs[1:total])
        ]
        plans.append([
            (picks[first * total : (first + batch) * total], amps[first : first + batch],
             [table[: len(terms) - first] for table in tables])
            for first in range(0, len(terms), batch)
        ])

    def rewrite(subst: np.ndarray) -> np.ndarray:
        parts = [
            _climb(subst, plan, rungs, total) if total else plan
            for total, plan in zip(totals, plans)
        ]
        # One climbed sector is fresh already; the vacuum's part is its plan,
        # which the concatenation copies.
        if len(parts) == 1 and totals[0]:
            return parts[0]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=complex)

    return totals, rewrite


def _climb(subst: np.ndarray, batches, rungs, total: int) -> np.ndarray:
    """Amplitudes over sector `total` >= 1, in ladder order, of the sector's
    terms with every old a†_j replaced by sum_k subst[j, k] b†_k.

    Every batch takes the same steps.  Its first factor rows are its vectors
    over sector 1, which is in mode order.  Each further photon is one rung:
    the outer product of the step's factor rows with the vectors, one gather
    through the rung's table, and one ``reduceat`` over the occupations of
    the sector above.  The batch's amplitudes then sum its terms, and the
    sector's sum is scaled once by the top rung's norms."""
    amplitudes = None
    for picks, amps, tables in batches:
        # Factor rows as columns (term, step, mode, 1); sector 1 as rows.
        factors = np.dot(picks, subst).reshape(amps.size, total, -1, 1)
        climbed = factors[:, 0].transpose(0, 2, 1)
        for step, table in enumerate(tables, start=1):
            outer = factors[:, step] * climbed
            climbed = np.add.reduceat(outer.ravel()[table], rungs[step][1], axis=2)
        part = np.dot(amps, climbed[:, 0])
        amplitudes = part if amplitudes is None else amplitudes + part
    amplitudes *= rungs[total - 1][3]
    return amplitudes


def apply_redefinition(state: PureState, unitary: ModeUnitary) -> PureState:
    """Rewrite `state` in the mode basis defined by b†_k = sum_j U[k,j] a†_j.

    Every old creation operator is substituted, a†_j -> sum_k conj(U[k,j]) b†_k,
    one photon at a time: each substitution raises a vector over the
    occupations of s photons to s + 1 photons by a gather through the cached
    ladder tables, and each populated sector's terms climb together.  The
    transform is passive: the total-photon-number distribution and the norm
    are preserved exactly up to rounding.  A state whose largest sector of N
    photons in M modes needs more than LADDER_ROW_LIMIT ladder rows,
    C(N + M, M), raises SizeLimitError before any table is built.

    The result's amplitudes come sector by sector, in increasing photon
    number, and each sector in canonical order.  The climb numbers the new
    modes backwards, so each sector's output, reversed, is in the order of
    its ``_sector_labels``, which ``enumerate_sector`` lists.  Amplitudes
    below PRUNE_THRESHOLD are dropped.
    """
    if unitary.dim != state.mode_count:
        raise DimensionError(
            f"unitary dimension {unitary.dim} != state mode count {state.mode_count}"
        )
    totals, rewrite = _rewriter(state)
    # Row j: the expansion of old a†_j in the new operators, last one first.
    values, labels, amplitudes = rewrite(unitary.matrix.conj().T[:, ::-1]), [], []
    for total in totals:
        sector = _sector_labels(state.mode_count, total)
        # The later sectors follow this one.
        labels += sector
        amplitudes += values[len(sector) - 1 :: -1].tolist()
        values = values[len(sector) :]
    return PureState._of_checked(state.mode_count, labels, amplitudes)
