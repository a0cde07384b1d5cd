"""Extremize entanglement entropy over all unitary mode redefinitions.

The unitary group is parameterized by U = exp(iH) over R^{M^2}, which is
surjective and unconstrained, and the search uses derivative-free
Nelder-Mead descent with seeded random restarts.  Restart 0 always starts
at the identity, so the input state's own entropy is a structural lower
(upper) bound on the reported maximum (minimum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .entanglement import Partition, SchmidtSpectrum, _require_unit_sum, schmidt_spectrum
from .errors import DimensionError, NumericalConsistencyError
from .fock import PureState, require_normalized
from .transform import (
    HermitianParams,
    ModeUnitary,
    _climb,
    _sector_index,
    _sector_plans,
    apply_redefinition,
    exp_i_hermitian,
    exp_map,
    hermitian_from_params,
)

# The optimizer is meant for desk-scale problems; M^2 parameters beyond this
# would make Nelder-Mead pointless anyway.
_MAX_PARAMETERS = 144


@dataclass(frozen=True)
class OptConfig:
    """Search settings; defaults reproduce the published reference table."""

    direction: str
    restarts: int = 24
    seed: int = 0
    max_iterations: int = 4000
    simplex_tolerance: float = 1e-10
    step_scale: float = 0.3

    def __post_init__(self):
        if self.direction not in ("min", "max"):
            raise ValueError(f"direction must be 'min' or 'max', got {self.direction!r}")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (self.simplex_tolerance > 0 and self.step_scale > 0):
            raise ValueError("tolerances and step scale must be positive")


@dataclass(frozen=True)
class OptResult:
    """Best extremum, its unitary and Schmidt spectrum, and per-restart bookkeeping."""

    direction: str
    best_entropy_bits: float
    best_unitary: ModeUnitary
    best_params: HermitianParams
    best_spectrum: SchmidtSpectrum
    per_restart_values: tuple[float, ...]
    evaluations: int
    converged: bool


# When the vertex-value spread collapses, the apparent optimum is checked by
# perturbing the best vertex this far along each coordinate before stopping;
# a transient tie (simplex straddling the optimum) otherwise halts the search.
_PROBE_STEP = 1e-3


def _nelder_mead(
    func: Callable[[np.ndarray], float],
    x0: np.ndarray,
    max_iterations: int,
    tolerance: float,
    step_scale: float,
    callback: Callable[[int, np.ndarray, float], None] | None = None,
) -> tuple[np.ndarray, float, int, bool]:
    """Standard reflect/expand/contract/shrink simplex minimization.

    Coefficients 1, 2, 0.5, 0.5; stops when the spread of vertex values
    falls below `tolerance` (verified by coordinate perturbations) or after
    `max_iterations` iterations.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    dim = x0.size
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

    def build_simplex(center: np.ndarray, step: float):
        pts = np.tile(center, (dim + 1, 1))
        for i in range(dim):
            pts[i + 1, i] += step
        vals = np.array([feval(p) for p in pts])
        return pts, vals

    points, values = build_simplex(x0, step_scale)

    converged = False
    for iteration in range(max_iterations):
        order = np.argsort(values, kind="stable")
        points = points[order]
        values = values[order]
        if values[-1] - values[0] < tolerance:
            improved = None
            for i in range(dim):
                for sign in (1.0, -1.0):
                    probe = points[0].copy()
                    probe[i] += sign * _PROBE_STEP
                    if feval(probe) < values[0] - tolerance:
                        improved = probe
                        break
                if improved is not None:
                    break
            if improved is None:
                converged = True
                break
            points, values = build_simplex(improved, _PROBE_STEP)
            continue

        centroid = points[:-1].mean(axis=0)
        reflected = centroid + (centroid - points[-1])
        f_reflected = feval(reflected)
        if f_reflected < values[0]:
            expanded = centroid + 2.0 * (centroid - points[-1])
            f_expanded = feval(expanded)
            if f_expanded < f_reflected:
                points[-1], values[-1] = expanded, f_expanded
            else:
                points[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            points[-1], values[-1] = reflected, f_reflected
        else:
            if f_reflected < values[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
            else:
                contracted = centroid + 0.5 * (points[-1] - centroid)
            f_contracted = feval(contracted)
            if f_contracted < min(f_reflected, values[-1]):
                points[-1], values[-1] = contracted, f_contracted
            else:
                # Shrink every vertex toward the current best.
                for i in range(1, dim + 1):
                    points[i] = points[0] + 0.5 * (points[i] - points[0])
                    values[i] = feval(points[i])
        if callback is not None:
            best = int(np.argmin(values))
            callback(iteration, points[best], float(values[best]))

    order = np.argsort(values, kind="stable")
    return points[order[0]].copy(), float(values[order[0]]), evals, converged


def nelder_mead(
    func: Callable[[np.ndarray], float],
    x0,
    cfg: OptConfig,
    callback: Callable[[int, np.ndarray, float], None] | None = None,
) -> tuple[np.ndarray, float]:
    """Minimize `func` from `x0`; returns the best vertex and its value."""
    best_x, best_f, _, _ = _nelder_mead(
        func,
        np.asarray(x0, dtype=float),
        max_iterations=cfg.max_iterations,
        tolerance=cfg.simplex_tolerance,
        step_scale=cfg.step_scale,
        callback=callback,
    )
    return best_x, best_f


def entropy_objective(
    state: PureState, partition: Partition
) -> Callable[[np.ndarray], float]:
    """Build theta -> entropy_bits(apply_redefinition(state, exp_map(theta)), p).

    The returned closure runs the photon-number ladder of
    ``apply_redefinition`` on every populated sector of N photons, with all
    that depends only on the state, the partition and M prepared here once:
    the cached ladder tables, each sector's terms as steps and weights, and
    the Schmidt-matrix cell of every occupation of the sector, its row and
    column being the index of its side-A and side-B occupation.  An
    evaluation is then exp(iH), N gather-multiply steps per sector (the last
    one summing the terms), the scatter into the Schmidt matrix, an SVD and
    the entropy.  A state past the ladder's size limit raises SizeLimitError
    here, before any table is built.

    The closure raises DimensionError for a theta whose length is not M^2
    and NumericalConsistencyError when the Schmidt coefficients miss a sum
    of one by more than 1e-10, as ``schmidt_spectrum`` does.
    """
    mode_count = state.mode_count
    n_params = mode_count * mode_count
    rungs, plans = _sector_plans(state)
    blocks = [
        (
            batches,
            _sector_index(mode_count, total, partition.side_a),
            _sector_index(mode_count, total, partition.side_b),
        )
        for total, batches in plans
    ]
    # The top sector holds every split of its N photons, so the indices of the
    # side-A and side-B occupations number the Schmidt matrix's rows and columns.
    top = max((total for total, _ in plans), default=0)
    shape = tuple(
        math.comb(top + len(side), top) for side in (partition.side_a, partition.side_b)
    )

    def objective(theta: np.ndarray) -> float:
        if np.size(theta) != n_params:
            raise DimensionError(
                f"objective over {mode_count} modes takes M^2 = {n_params} "
                f"parameters, got {np.size(theta)}"
            )
        subst = exp_i_hermitian(hermitian_from_params(theta)).conj().T
        coeff = np.zeros(shape, dtype=complex)
        for batches, sector_rows, sector_cols in blocks:
            coeff[sector_rows, sector_cols] = _climb(subst, batches, rungs)
        singulars = np.linalg.svd(coeff, compute_uv=False)
        lam = singulars * singulars
        _require_unit_sum(lam)
        lam = lam[lam > 0.0]
        return float(-(lam * np.log2(lam)).sum()) if lam.size else 0.0

    return objective


def optimize_entanglement(
    state: PureState, partition: Partition, cfg: OptConfig
) -> OptResult:
    """Extremal entanglement entropy over all mode redefinitions.

    Restart 0 starts at the identity; restarts 1.. start at seeded uniform
    points in [-pi, pi]^{M^2}.  Results are deterministic for a fixed
    (seed, restarts, tolerances) and independent of restart execution order
    (ties break toward the lowest restart index).
    """
    require_normalized(state)
    partition.ensure_covers(state.mode_count)
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
    starts = [np.zeros(n_params)]
    for _ in range(cfg.restarts - 1):
        starts.append(rng.uniform(-math.pi, math.pi, n_params))

    per_restart: list[float] = []
    evaluations = 0
    best_value: float | None = None
    best_theta: np.ndarray | None = None
    best_converged = False
    for theta0 in starts:
        theta, f_best, evals, converged = _nelder_mead(
            objective,
            theta0,
            max_iterations=cfg.max_iterations,
            tolerance=cfg.simplex_tolerance,
            step_scale=cfg.step_scale,
        )
        value = f_best if minimizing else -f_best
        per_restart.append(value)
        evaluations += evals
        better = best_value is None or (
            value < best_value if minimizing else value > best_value
        )
        if better:
            best_value = value
            best_theta = theta
            best_converged = converged

    best_params = HermitianParams(best_theta)
    best_unitary = exp_map(best_params)
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
        best_params=best_params,
        best_spectrum=best_spectrum,
        per_restart_values=tuple(per_restart),
        evaluations=evaluations,
        converged=best_converged,
    )
