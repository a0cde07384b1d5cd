"""Extremize entanglement entropy over all unitary mode redefinitions.

A redefinition U followed by one that mixes modes only within a side of the
cut leaves the entropy as it is, so the entropy is a function of U's coset
in U(|A|) x U(|B|) \\ U(M), of dimension 2|A||B|.  The search is
limited-memory BFGS in a moving frame (Abrudan, Eriksson and Koivunen,
IEEE Trans. Signal Process. 56(3), 2008): a step s of 2|A||B| real
coordinates takes U to exp(iP(s)) U, where P(s) = [[0, Z], [Z^H, 0]]
couples the sides through the complex |A| x |B| block Z with the real and
imaginary parts s, and the gradient in these coordinates is exact
(``_coset_search``, the objective's one implementation).  Restart 0 starts at
the identity and restarts 1.. at exp_map of seeded uniform points in
[-pi, pi]^{M^2}.  Every accepted step descends, so the input state's own
entropy is a structural lower (upper) bound on the reported maximum
(minimum).

A restart ends where its gradient vanishes, so restart 0 ends at once
wherever the identity is stationary: the maximum of |20> + |02> across 0|1
with one restart is the input's 1.0, while random starts reach log2(3).
The cut may have at most 72 coordinates, which admits every cut of up to
12 modes.
"""

from __future__ import annotations

import functools
import math
import operator
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
    _lowering,
    _rewriter,
    _side_index,
    apply_redefinition,
    exp_i_hermitian,
    hermitian_from_params,
)

# Coset coordinates 2|A||B| a search may take: every cut of up to 12 modes.
_MAX_COORDINATES = 72
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
        for name in ("restarts", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        if not 1 <= self.restarts <= MAX_RESTARTS:
            raise ValueError(f"restarts must be from 1 to {MAX_RESTARTS}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class OptResult:
    """Best extremum, its unitary and Schmidt spectrum, and per-restart
    bookkeeping; `evaluations` counts the search's values and
    `gradient_evaluations` its gradients."""

    direction: str
    best_entropy_bits: float
    best_unitary: ModeUnitary
    best_spectrum: SchmidtSpectrum
    per_restart_values: tuple[float, ...]
    evaluations: int
    gradient_evaluations: int
    converged: bool


# L-BFGS settings: curvature pairs kept, the gradient (relative to the
# value) below which a point is stationary, Armijo sufficient-decrease
# constant, smallest backtracked step, and the stop on relative decrease.
_HISTORY = 8
_FLAT = 1e-7
_ARMIJO = 1e-4
_MIN_STEP = 1e-10
_REL_DECREASE = 1e-15


def _lbfgs(evaluate, advance, x0, max_iterations: int):
    """Minimize from `x0` by limited-memory BFGS (Nocedal 1980).

    evaluate(x) returns the value at x and a function of no arguments that
    returns the gradient there; advance(x, s) is the point a step s of
    gradient coordinates leads to from x (addition in a flat space).  The
    direction comes from the two-loop recursion over the last _HISTORY
    curvature pairs, the step from Armijo backtracking that halves down to
    _MIN_STEP, and gradients are taken at accepted points only.  Every
    accepted step decreases the value, so the returned value is at most the
    value at x0.  Returns (x, value, value evaluations, gradient
    evaluations, converged); converged is False only when `max_iterations`
    ran out.
    """
    values = 0

    def value_at(x):
        nonlocal values
        value, gradient = evaluate(x)
        values += 1
        if not math.isfinite(value):
            raise NumericalConsistencyError(f"objective returned non-finite value {value!r}")
        return float(value), gradient

    x = x0
    f, gradient = value_at(x)
    g = gradient()
    gradients = 1
    pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=_HISTORY)
    for _ in range(max_iterations):
        if np.abs(g).max() <= _FLAT * max(abs(f), 1.0):
            return x, f, values, gradients, True
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
        x_new = advance(x, direction)
        f_new, gradient = value_at(x_new)
        while f_new > f + _ARMIJO * step * slope:
            step *= 0.5
            if step < _MIN_STEP:
                return x, f, values, gradients, True
            x_new = advance(x, step * direction)
            f_new, gradient = value_at(x_new)
        if f - f_new <= _REL_DECREASE * max(abs(f), abs(f_new), 1.0):
            return x_new, f_new, values, gradients, True
        g_new = gradient()
        gradients += 1
        s, y = step * direction, g_new - g
        if s @ y > 0.0:
            pairs.append((s, y, 1.0 / (s @ y)))
        x, f, g = x_new, f_new, g_new
    return x, f, values, gradients, False


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
    # Each side's index counts the occupations with fewer photons first, so
    # it ranks the occupations of every total at once.
    sides = [_side_index(mode_count, totals, side)
             for side in (partition.side_a, partition.side_b)]
    block = sides[0][0] % period
    # A block's rows (columns) are its distinct side-A (side-B) occupations,
    # in the order of their index.
    local, extent = [], []
    for _, index in sides:
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


def _entropy_derivative(square: np.ndarray) -> np.ndarray:
    """-2(log2 lambda + 1/ln 2), twice the derivative of -lambda log2 lambda:
    the entropy's gradient over a thin block's amplitudes is this times the
    amplitudes, and f'(sigma) this times sigma.  Where lambda is 0 it
    multiplies a zero, so its value there does not matter."""
    return -2.0 * (np.log2(np.where(square > 0.0, square, 1.0)) + 1.0 / math.log(2.0))


def _coset_search(state: PureState, partition: Partition, sign: float):
    """(evaluate, advance) for ``_lbfgs`` over the coset coordinates: the one
    build of the entropy of `state` rewritten by a substitution matrix.

    A point is the substitution matrix S = U^H of a redefinition U.
    evaluate(S) rewrites the state through the photon-number ladder of
    ``apply_redefinition`` (``transform._rewriter``) with every old a†_j
    replaced by sum_k S[j, k] b†_k, takes the block spectrum through the
    cached ``_block_layout`` (one ``np.bincount`` of |amplitude|^2 gives the
    coefficient of every block with one row or column, one stacked SVD those
    of the others), checks with ``_require_unit_sum`` that the coefficients
    sum to the squared norm of `state` within 1e-10 and that norm is 1
    within NORM_TOLERANCE, raising NumericalConsistencyError otherwise,
    and returns sign times ``entropy_of_spectrum`` and a function of no
    arguments giving sign times the gradient over the steps s at that point.
    advance(S, s) is S exp(-iP(s)), the substitution of exp(iP(s)) U.

    The gradient reads R_kl = <G| b_k† b_l |psi'>, where psi' is the
    rewritten state and G the gradient of the entropy over its amplitudes:
    on each thick Schmidt block G = U diag(f'(sigma)) V^H with
    f(sigma) = -sigma^2 log2 sigma^2 (Lewis, Math. Oper. Res. 21, 1996),
    from the singular vectors of the stack the point filled, and on a thin
    block G is the amplitudes times -2(log2 lambda + 1/ln 2).  Moving U
    to exp(i eps X) U for a Hermitian X substitutes
    b†_l -> b†_l - i eps sum_k X_lk b†_k, the one-body operator
    sum X_lk b†_k b_l on psi', so the entropy moves by eps Im tr(X R): the
    gradient over X is (R - R^H) / 2i, and its A x B block, doubled and read
    as pairs of floats, the gradient over the real and imaginary parts of Z.
    Each sector's b_k psi' and b_k G, for every k at once, are one scatter
    along the ladder rung read backwards (``transform._lowering``, scaled by
    the square roots of its counts), and its share of R one product of the
    two.

    A state past the ladder's size limit raises SizeLimitError here, before
    any table is built, and a partition that does not cover the state's
    modes raises PartitionError.
    """
    if not state.amplitudes:
        raise DegenerateStateError("state has zero norm")
    mode_count = state.mode_count
    norm = state.norm()
    totals, rewrite = _rewriter(state)
    bins, thin_count, cells, shape = _block_layout(mode_count, totals, partition)
    stack_size = math.prod(shape)
    # np.ix_'s index pairs of the A x B and B x A blocks; np.ix_ itself takes
    # several times as long, a visible share of a build.
    rows, cols = np.array(partition.side_a), np.array(partition.side_b)
    across, back = (rows[:, None], cols), (cols[:, None], rows)

    def evaluate(subst: np.ndarray):
        amplitudes = rewrite(subst)
        parts = amplitudes.view(float)
        lam = np.bincount(bins, parts * parts, thin_count + 1)[:thin_count]
        if stack_size:
            stack = np.zeros(stack_size + 1, dtype=complex)
            stack[cells] = amplitudes
            stack = stack[:-1].reshape(shape)
            singulars = np.linalg.svd(stack, compute_uv=False)
            lam = np.concatenate((lam, singulars.ravel() ** 2))
        _require_unit_sum(lam, norm)

        def gradient() -> np.ndarray:
            grad = np.append(_entropy_derivative(lam[:thin_count]), 0.0)[bins[::2]] * amplitudes
            if stack_size:
                left, sigma, right = np.linalg.svd(stack, full_matrices=False)
                sigma = sigma * _entropy_derivative(sigma * sigma)
                grad += np.append((left * sigma[:, None, :]) @ right, 0.0)[cells]
            r = np.zeros((mode_count, mode_count), dtype=complex)
            pair = np.stack((amplitudes, grad))
            # Sectors follow one another in the amplitudes.
            end = 0
            for total in totals:
                positions, sources, counts, (size, lower) = _lowering(mode_count, total)
                start, end = end, end + size
                lowered = np.zeros((2, mode_count * lower), dtype=complex)
                lowered[:, positions] = pair[:, start + sources] * np.sqrt(counts)
                psi, lowered_grad = lowered.reshape(2, mode_count, lower)
                r += lowered_grad.conj() @ psi.T
            return ((-1j * sign) * (r[across] - r[back].conj().T)).ravel().view(float)

        return sign * entropy_of_spectrum(lam), gradient

    def advance(subst: np.ndarray, step: np.ndarray) -> np.ndarray:
        z = step.view(complex).reshape(rows.size, -1)
        herm = np.zeros((mode_count, mode_count), dtype=complex)
        herm[across] = -z
        herm[back] = -z.conj().T
        return subst @ exp_i_hermitian(herm)

    return evaluate, advance


def entropy_objective(
    state: PureState, partition: Partition
) -> Callable[[np.ndarray], float]:
    """Build theta -> entropy_bits(apply_redefinition(state, exp_map(theta)), p).

    The returned closure assembles -H(theta) = H(-theta) with
    ``hermitian_from_params``, as ``exp_map`` does, and reads the value of
    ``_coset_search``, built here once, at exp(-iH) = V diag(e^{-i lambda}) V^H,
    the substitution of exp_map(theta): a state past the ladder's size limit
    raises SizeLimitError, and a partition that does not cover the state's
    modes PartitionError.

    The closure raises DimensionError for a theta whose length is not M^2
    and NumericalConsistencyError when the Schmidt coefficients miss the
    state's squared norm by more than 1e-10, or the state's norm misses 1 by
    more than NORM_TOLERANCE, as ``schmidt_spectrum`` checks.
    """
    evaluate, _ = _coset_search(state, partition, 1.0)
    mode_count = state.mode_count
    n_params = mode_count * mode_count

    def objective(theta: np.ndarray) -> float:
        if np.size(theta) != n_params:
            raise DimensionError(f"objective over {mode_count} modes takes M^2 = "
                                 f"{n_params} parameters, got {np.size(theta)}")
        return evaluate(exp_i_hermitian(hermitian_from_params(np.negative(theta))))[0]

    return objective


def optimize_entanglement(
    state: PureState, partition: Partition, cfg: OptConfig
) -> OptResult:
    """Extremal entanglement entropy over all mode redefinitions.

    Restart 0 starts at the identity; restarts 1.. start at exp_map of
    seeded uniform points in [-pi, pi]^{M^2}, and each runs at most
    _MAX_ITERATIONS L-BFGS iterations over the 2|A||B| coset coordinates
    (``_coset_search``).  Results are deterministic for a fixed (seed,
    restarts) and independent of restart execution order (ties break
    toward the lowest restart index).  The input's entropy, read by
    ``entropy_objective`` at theta = 0, bounds the result.  That read builds
    the objective with ``_coset_search``, and the search builds it again,
    signed by the direction, so each call builds it twice; the benchmark's
    trace counts the theta entry in every optimize query.  The winner is
    rewritten with ``apply_redefinition`` and rechecked by
    ``schmidt_spectrum``.  A partition that does not cover the state's modes
    raises PartitionError, and a cut of more than _MAX_COORDINATES
    coordinates DimensionError.
    """
    require_normalized(state)
    partition.ensure_covers(state.mode_count)
    coordinates = 2 * len(partition.side_a) * len(partition.side_b)
    if coordinates > _MAX_COORDINATES:
        raise DimensionError(f"the cut {partition} has {coordinates} coordinates, "
                             f"above the cap of {_MAX_COORDINATES}")
    n_params = state.mode_count**2
    input_entropy = entropy_objective(state, partition)(np.zeros(n_params))
    sign = 1.0 if cfg.direction == "min" else -1.0
    evaluate, advance = _coset_search(state, partition, sign)

    rng = np.random.default_rng(cfg.seed)
    # Each start is drawn as its restart begins, in restart order.
    starts = (rng.uniform(-math.pi, math.pi, n_params) if restart else np.zeros(n_params)
              for restart in range(cfg.restarts))
    # exp(-iH(theta)), the substitution of exp_map(theta).
    runs = [_lbfgs(evaluate, advance, exp_i_hermitian(hermitian_from_params(-theta)),
                   _MAX_ITERATIONS) for theta in starts]
    values = [sign * f for _, f, _, _, _ in runs]
    # min keeps the first of equal values: ties go to the lowest restart index.
    best_subst, best_f, _, _, best_converged = min(runs, key=lambda run: run[1])
    best_value = sign * best_f
    if sign * (best_value - input_entropy) > 0.0:
        raise NumericalConsistencyError(f"optimizer value {best_value!r} is past "
                                        f"the input's entropy {input_entropy!r}")

    best_unitary = ModeUnitary(best_subst.conj().T)
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
        gradient_evaluations=sum(run[3] for run in runs),
        converged=best_converged,
    )
