"""Extremize entanglement entropy over all unitary mode redefinitions.

The unitary group is parameterized by U = exp(iH) over R^{M^2}, which is
surjective and unconstrained, and the search is limited-memory BFGS on a
forward-difference gradient with seeded random restarts.  Restart 0 always
starts at the identity and every accepted step descends, so the input
state's own entropy is a structural lower (upper) bound on the reported
maximum (minimum).
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .entanglement import (
    Partition,
    SchmidtSpectrum,
    _require_unit_sum,
    entropy_of_spectrum,
    schmidt_spectrum,
)
from .errors import DegenerateStateError, DimensionError, NumericalConsistencyError
from .fock import PureState, require_normalized
from .transform import (
    ModeUnitary,
    _rewriter,
    _sector_index,
    _sector_occupations,
    apply_redefinition,
    exp_i_hermitian,
    exp_map,
    hermitian_from_params,
)

# The optimizer is meant for desk-scale problems; each forward-difference
# gradient costs M^2 objective evaluations, so the parameter count is capped.
_MAX_PARAMETERS = 144
# L-BFGS iterations per restart before it is reported as not converged.
_MAX_ITERATIONS = 4000
# Restarts one run may ask for, so that every run ends in bounded time.
MAX_RESTARTS = 1000


@dataclass(frozen=True)
class OptConfig:
    """Search settings; defaults reproduce the published reference table."""

    direction: str
    restarts: int = 24
    seed: int = 0

    def __post_init__(self):
        if self.direction not in ("min", "max"):
            raise ValueError(f"direction must be 'min' or 'max', got {self.direction!r}")
        if not 1 <= self.restarts <= MAX_RESTARTS:
            raise ValueError(f"restarts must be from 1 to {MAX_RESTARTS}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class OptResult:
    """Best extremum, its unitary and Schmidt spectrum, and per-restart bookkeeping."""

    direction: str
    best_entropy_bits: float
    best_unitary: ModeUnitary
    best_spectrum: SchmidtSpectrum
    per_restart_values: tuple[float, ...]
    evaluations: int
    converged: bool


# L-BFGS settings: curvature pairs kept, forward-difference step, Armijo
# sufficient-decrease constant, smallest backtracked step, and the stop on
# relative decrease, which also bounds the rounding noise in a difference.
_HISTORY = 8
_FD_STEP = 1e-8
_ARMIJO = 1e-4
_MIN_STEP = 1e-10
_REL_DECREASE = 1e-15


def _lbfgs(
    func: Callable[[np.ndarray], float], x0: np.ndarray, max_iterations: int
) -> tuple[np.ndarray, float, int, bool]:
    """Minimize `func` from `x0` by limited-memory BFGS (Nocedal 1980).

    The direction comes from the two-loop recursion over the last _HISTORY
    curvature pairs, the step from Armijo backtracking that halves down to
    _MIN_STEP.  Every accepted step decreases `func`, so the returned value
    is at most func(x0).  Returns (x, func(x), evaluations, converged);
    converged is False only when `max_iterations` ran out.
    """
    evals = 0

    def feval(x: np.ndarray) -> float:
        nonlocal evals
        value = float(func(x))
        evals += 1
        if not math.isfinite(value):
            raise NumericalConsistencyError(
                f"objective returned non-finite value {value!r} at point {x.tolist()}"
            )
        return value

    def gradient(x: np.ndarray, fx: float) -> np.ndarray:
        """Forward differences of `func` at x, where it takes the value fx."""
        grad = np.empty_like(x)
        for i in range(x.size):
            shifted = x.copy()
            shifted[i] += _FD_STEP
            grad[i] = (feval(shifted) - fx) / _FD_STEP
        return grad

    x = np.array(x0, dtype=float).ravel()
    f = feval(x)
    g = gradient(x, f)
    pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=_HISTORY)
    for _ in range(max_iterations):
        # Differences within rounding of f carry no slope: a stationary start
        # is returned unchanged.
        if np.abs(g).max() * _FD_STEP <= _REL_DECREASE * max(abs(f), 1.0):
            return x, f, evals, True
        direction = -g
        alphas = []
        for s, y, rho in reversed(pairs):
            alpha = rho * (s @ direction)
            direction = direction - alpha * y
            alphas.append(alpha)
        if pairs:
            s, y, _ = pairs[-1]
            direction = direction * ((s @ y) / (y @ y))
        else:
            direction = direction / max(float(np.linalg.norm(g)), 1.0)
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            direction = direction + s * (alpha - rho * (y @ direction))
        slope = float(g @ direction)
        step = 1.0
        x_new = x + direction
        f_new = feval(x_new)
        while f_new > f + _ARMIJO * step * slope:
            step *= 0.5
            if step < _MIN_STEP:
                return x, f, evals, True
            x_new = x + step * direction
            f_new = feval(x_new)
        if f - f_new <= _REL_DECREASE * max(abs(f), abs(f_new), 1.0):
            return x_new, f_new, evals, True
        g_new = gradient(x_new, f_new)
        s, y = x_new - x, g_new - g
        if s @ y > 0.0:
            pairs.append((s, y, 1.0 / (s @ y)))
        x, f, g = x_new, f_new, g_new
    return x, f, evals, False


@functools.lru_cache(maxsize=64)
def _block_layout(
    mode_count: int, totals: tuple[int, ...], partition: Partition
) -> tuple[np.ndarray, int, np.ndarray, tuple[int, int, int]]:
    """Where each occupation of the sectors `totals`, in ladder order and
    sector after sector, lands among the blocks of the Schmidt matrix.

    A redefinition keeps every total N, so a cell can be nonzero only where
    n photons on side A meet N - n on side B.  Two side-A photon numbers that
    meet one side-B photon number differ by a difference of totals, so the
    blocks are the side-A photon-number classes modulo the gcd of those
    differences (modulo N + 1, so n itself, for one total N).  A class may
    join several connected blocks, which leaves its singular values as they
    are.  A block's rows are the side-A occupations of its class, its columns
    the side-B occupations they meet.  A block with one row or one column
    has one Schmidt coefficient, the squared norm of its entries; the others
    are turned to have no more rows than columns and zero-padded into one
    stack.

    Returns (bins, thin_count, cells, shape).  Amplitudes viewed as pairs of
    floats, bins[2i] and bins[2i + 1] are the coefficient of occupation i's
    block among thin_count, or the spare bin thin_count for a thick block;
    cells[i] is its flat cell in a (K, r, c) stack of the thick blocks, or
    the spare cell past the stack's end for a thin one.  Raises
    PartitionError unless the partition covers the modes.
    """
    partition.ensure_covers(mode_count)
    period = math.gcd(*(total - totals[0] for total in totals)) or max(totals) + 1
    sectors = [_sector_occupations(mode_count, total) for total in totals]
    sides = [np.vstack([occupations[:, list(side)] for occupations in sectors])
             for side in (partition.side_a, partition.side_b)]
    block = sides[0].sum(axis=1) % period
    # Each side's index counts the occupations with fewer photons first, so
    # it ranks the occupations of every total at once.
    indices = [_sector_index(counts, max(totals)) for counts in sides]
    # A block's rows (columns) are its distinct side-A (side-B) occupations,
    # in the order of their index.
    local, extent = [], []
    for index in indices:
        span = int(index.max()) + 1
        keys, rank = np.unique(block * span + index, return_inverse=True)
        size = np.bincount(keys // span, minlength=period)
        local.append(rank - (np.cumsum(size) - size)[block])
        extent.append(size)
    thin = np.minimum(*extent) == 1
    turned = extent[0] > extent[1]
    thin_count = int(thin.sum())
    rows, cols = np.sort(np.stack(extent)[:, ~thin], axis=0)
    shape = (rows.size, int(rows.max(initial=0)), int(cols.max(initial=0)))
    row, col = np.where(turned[block], local[::-1], local)
    bins = np.where(thin[block], (np.cumsum(thin) - 1)[block], thin_count).repeat(2)
    cells = np.where(
        thin[block],
        math.prod(shape),
        ((np.cumsum(~thin) - 1)[block] * shape[1] + row) * shape[2] + col,
    )
    bins.setflags(write=False)
    cells.setflags(write=False)
    return bins, thin_count, cells, shape


def entropy_objective(
    state: PureState, partition: Partition
) -> Callable[[np.ndarray], float]:
    """Build theta -> entropy_bits(apply_redefinition(state, exp_map(theta)), p).

    The returned closure rewrites the state through the same photon-number
    ladder as ``apply_redefinition`` (``transform._rewriter``), with all that
    depends only on the state, the partition and M prepared here once: the
    cached ladder tables, each sector's terms as steps and weights, and the
    cached block layout of the Schmidt matrix (``_block_layout``).  An
    evaluation is then exp(iH), N gather-multiply steps per sector (the last
    one summing the terms), and the block spectrum: one ``np.bincount`` of
    |amplitude|^2 gives the coefficient of every block with one row or
    column, one stacked SVD the coefficients of the others; then
    ``entropy_of_spectrum``.  A state past the ladder's size limit raises SizeLimitError
    here, before any table is built, and a partition that does not cover
    the state's modes raises PartitionError.

    The closure raises DimensionError for a theta whose length is not M^2
    and NumericalConsistencyError when the Schmidt coefficients miss a sum
    of one by more than 1e-10, as ``schmidt_spectrum`` does.
    """
    if not state.amplitudes:
        raise DegenerateStateError("state has zero norm")
    mode_count = state.mode_count
    n_params = mode_count * mode_count
    totals, rewrite = _rewriter(state)
    bins, thin_count, cells, shape = _block_layout(mode_count, totals, partition)
    stack_size = math.prod(shape)

    def objective(theta: np.ndarray) -> float:
        if np.size(theta) != n_params:
            raise DimensionError(
                f"objective over {mode_count} modes takes M^2 = {n_params} "
                f"parameters, got {np.size(theta)}"
            )
        amplitudes = rewrite(exp_i_hermitian(hermitian_from_params(theta)).conj().T)
        parts = amplitudes.view(float)
        lam = np.bincount(bins, parts * parts, thin_count + 1)[:thin_count]
        if stack_size:
            stack = np.zeros(stack_size + 1, dtype=complex)
            stack[cells] = amplitudes
            singulars = np.linalg.svd(stack[:-1].reshape(shape), compute_uv=False)
            lam = np.concatenate((lam, singulars.ravel() ** 2))
        _require_unit_sum(lam)
        return entropy_of_spectrum(lam)

    return objective


def optimize_entanglement(
    state: PureState, partition: Partition, cfg: OptConfig
) -> OptResult:
    """Extremal entanglement entropy over all mode redefinitions.

    Restart 0 starts at the identity; restarts 1.. start at seeded uniform
    points in [-pi, pi]^{M^2}, and each runs at most _MAX_ITERATIONS L-BFGS
    iterations.  Results are deterministic for a fixed (seed, restarts) and
    independent of restart execution order (ties break toward the lowest
    restart index).  The winner is rewritten with ``apply_redefinition`` and
    rechecked by ``schmidt_spectrum``.  A partition that does not cover the
    state's modes raises PartitionError from the objective's build.
    """
    require_normalized(state)
    mode_count = state.mode_count
    n_params = mode_count * mode_count
    if n_params > _MAX_PARAMETERS:
        raise DimensionError(
            f"{n_params} parameters exceeds the practical cap of {_MAX_PARAMETERS}"
        )

    entropy = entropy_objective(state, partition)
    minimizing = cfg.direction == "min"
    objective = entropy if minimizing else (lambda theta: -entropy(theta))

    rng = np.random.default_rng(cfg.seed)
    # Each start is drawn as its restart begins, in restart order.
    runs = [
        _lbfgs(
            objective,
            rng.uniform(-math.pi, math.pi, n_params) if restart else np.zeros(n_params),
            _MAX_ITERATIONS,
        )
        for restart in range(cfg.restarts)
    ]
    values = [f if minimizing else -f for _, f, _, _ in runs]
    # min keeps the first of equal values: ties go to the lowest restart index.
    best_theta, best_f, _, best_converged = min(runs, key=lambda run: run[1])
    best_value = best_f if minimizing else -best_f

    best_unitary = exp_map(best_theta)
    best_spectrum = schmidt_spectrum(apply_redefinition(state, best_unitary), partition)
    if abs(best_spectrum.entropy_bits - best_value) > 1e-9:
        raise NumericalConsistencyError(
            f"optimizer value {best_value!r} disagrees with re-evaluated "
            f"entropy {best_spectrum.entropy_bits!r}"
        )
    return OptResult(
        direction=cfg.direction,
        best_entropy_bits=best_value,
        best_unitary=best_unitary,
        best_spectrum=best_spectrum,
        per_restart_values=tuple(values),
        evaluations=sum(run[2] for run in runs),
        converged=best_converged,
    )
